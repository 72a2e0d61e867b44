"""Seeded synthetic data: sparse-factor low-rank matrices, structured masks, noise.

Reproducibility contract
------------------------
All randomness flows through :func:`stream`, which draws the stream of
numpy's ``Generator(Philox(key))``, the counter-based Philox4x64-10 (Salmon
et al., SC'11).  The 128-bit Philox key is ``(seed, fold(path))`` where
``fold`` chains splitmix64 over the path elements; ints are folded as-is,
floats by their IEEE-754 bit pattern, and string tags through blake2s.
Distinct (seed, path) pairs therefore get independent streams, and the same
pair reproduces bit-identical draws on any platform.  Gaussian variates are
produced by inverse-CDF over 53-bit uniforms (not the ziggurat), through the
standard library's ``statistics.NormalDist().inv_cdf``, so noise streams are
portable too.  The draws of the package, ``random(size)`` and
``permutation(n)``, run in numpy alone; any other call, such as a test's
``standard_normal``, continues on numpy's own Generator from the same
position (see :func:`stream`).

Draw order is part of the contract and is documented on each operation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSamplingError
from .matrix import ObservationMask, _check_shape, as_matrix

__all__ = [
    "GeneratorSpec",
    "SamplingSpec",
    "stream",
    "derive_seed",
    "generate_low_rank",
    "sample_structured_mask",
    "add_noise",
    "rho_for_noise",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _fold(word: int, value) -> int:
    if isinstance(value, str):
        try:  # the same blake2s, without loading OpenSSL
            from _blake2 import blake2s
        except ImportError:
            from hashlib import blake2s
        value = int.from_bytes(blake2s(value.encode()).digest()[:8], "big")
    elif isinstance(value, float):
        value = int(np.float64(value).view(np.uint64))
    else:
        value = int(value)
    return _splitmix64(word ^ (value & _MASK64))


def derive_seed(seed: int, *path) -> int:
    """Fold ``path`` (ints, floats, or string tags) into a 64-bit sub-seed."""
    word = int(seed) & _MASK64
    for element in path:
        word = _fold(word, element)
    return word


# Philox4x64 round multipliers (row 0) and Weyl key increments (row 1)
_PHILOX = np.array([[0xD2E7470EE14C6C93, 0xCA5A826395121157],
                    [0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B]], dtype=np.uint64)
_S32, _LO32 = np.array(32, dtype=np.uint64), np.array(0xFFFFFFFF, dtype=np.uint64)


def _philox(key: np.ndarray, first: int, count: int) -> np.ndarray:
    """The words of the Philox4x64-10 blocks with counters first .. first+count-1."""
    m, w = np.repeat(_PHILOX, count, axis=1).reshape(2, 2, count)
    mh, ml, k = m >> _S32, m & _LO32, np.repeat(key[:, None], count, axis=1)
    e = np.zeros((2, count), dtype=np.uint64)  # counter words 0 and 2; o holds 1 and 3
    e[0], o = np.arange(first, first + count, dtype=np.uint64), np.zeros_like(e)
    for _ in range(10):
        # the high words of the 128-bit products m * e, from 32-bit halves
        eh, el = e >> _S32, e & _LO32
        t = el * mh + ((el * ml) >> _S32)
        u = eh * ml + (t & _LO32)
        e, o = (eh * mh + (t >> _S32) + (u >> _S32))[::-1] ^ o ^ k, (e * m)[::-1]
        k = k + w
    return np.stack([e[0], o[0], e[1], o[1]], axis=1).ravel()


class _Stream:
    """numpy's Philox stream: ``_pos`` words drawn, plus the high half-word a
    32-bit draw left pending (``_has32``, ``_u32``).  Words are computed 64
    blocks ahead, so one vectorised run serves several calls."""

    def __init__(self, key: np.ndarray):
        self._key, self._pos, self._has32, self._u32 = key, 0, 0, 0
        self._ahead, self._ahead_at, self._gen = key[:0], 0, None

    def _words(self, size) -> np.ndarray:
        start, end = self._pos, self._pos + int(np.prod(size))
        if end > self._ahead_at + len(self._ahead):
            block = start // 4
            self._ahead = _philox(self._key, block + 1, -(-end // 4) - block + 64)
            self._ahead_at = 4 * block
        self._pos = end
        return self._ahead[start - self._ahead_at:end - self._ahead_at].reshape(size)

    def random(self, size=None, *args, **kwargs):
        if size is None or args or kwargs:
            return self._handoff().random(size, *args, **kwargs)
        return (self._words(size) >> 11) * 2.0**-53

    def permutation(self, x):
        if not isinstance(x, int):
            return self._handoff().permutation(x)
        # numpy's shuffle: for i = x-1 .. 1, j is the next 32-bit half-word (a pending one,
        # then low before high) masked to the smallest 2^b - 1 >= i, redrawn while above i
        a, i, rejected, start = list(range(x)), x - 1, 0, self._pos
        halves = itertools.chain([self._u32] * self._has32, itertools.chain.from_iterable(
            self._words(x).astype("<u8", copy=False).view("<u4").tolist()
            for _ in itertools.count()))
        while i > 0:
            mask = (1 << i.bit_length()) - 1
            for h in halves:
                j = h & mask
                if j <= i:
                    a[i], a[j] = a[j], a[i]
                    i -= 1
                    if i == mask >> 1:
                        break
                else:
                    rejected += 1
        if x > 1:  # back to the last word used, of the x drawn at a time
            used = x - 1 + rejected - self._has32  # half-words past the pending one
            self._pos, self._has32 = start + (used + 1) // 2, used % 2
            if self._has32:
                self._u32 = next(halves)
        return np.array(a, dtype=np.int_)

    def _handoff(self):
        """numpy's Generator at this position; it serves every later call."""
        from numpy.random import Generator, Philox

        blocks, bits = -(-self._pos // 4), Philox(key=self._key)
        bits.state = {"bit_generator": "Philox", "has_uint32": self._has32, "uinteger": self._u32,
                      "state": {"counter": np.array([blocks, 0, 0, 0], dtype=np.uint64),
                                "key": self._key}, "buffer": _philox(self._key, blocks, 1),
                      "buffer_pos": self._pos - 4 * (blocks - 1)}
        self._gen = Generator(bits)
        self.random, self.permutation = self._gen.random, self._gen.permutation
        return self._gen

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._gen or self._handoff(), name)


def stream(seed: int, *path) -> _Stream:
    """The Philox stream keyed by ``seed`` and a folded ``path``: numpy's
    ``Generator(Philox(key))`` draws, with ``random(size)`` and
    ``permutation(n)`` run in numpy alone.  Any other call hands the stream
    at its position to numpy's Generator, which then serves every call."""
    return _Stream(np.array([int(seed) & _MASK64, derive_seed(seed, *path)], dtype=np.uint64))


def _normal_draws(rng, shape, sigma: float = 1.0) -> np.ndarray:
    """Gaussian draws via inverse-CDF over 53-bit uniforms (portable).

    Each draw is ``sigma * NormalDist().inv_cdf(u)`` with u = (k + 0.5) * 2^-53
    for a uniform integer k in [0, 2^53), capped at 1 - 2^-53.  ``inv_cdf`` is
    the standard library's AS241 (Wichura, 1988), the same bits in its C
    and pure-Python forms; ``tests/test_synth.py`` checks both, and checks
    it against scipy's ``ndtri``.
    """
    from statistics import NormalDist  # only processes that draw noise load it

    # random() is k * 2^-53 exactly, so adding 2^-54 rounds as (k + 0.5) * 2^-53
    # does: to 1.0 for the top k, which the cap keeps below 1, so every u
    # lies strictly inside (0, 1) and every draw is finite
    u = np.minimum(rng.random(int(np.prod(shape))) + 2.0**-54, 1.0 - 2.0**-53)
    return (sigma * np.array(list(map(NormalDist().inv_cdf, u.tolist())))).reshape(shape)


@dataclass(frozen=True)
class GeneratorSpec:
    """Sparse-factor low-rank generator parameters.

    The product of an n1 x rank factor (entry nonzero with probability
    density_left, nonzero values uniform on (0,1)) and a rank x n2 factor
    (density_right) gives a nonnegative matrix of rank <= rank.
    """

    n1: int
    n2: int
    rank: int
    density_left: float
    density_right: float
    seed: int = 0

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"dimensions must be positive, got ({self.n1}, {self.n2})")
        if not 1 <= self.rank <= min(self.n1, self.n2):
            raise ValueError(
                f"rank must lie in [1, min(n1, n2)] = [1, {min(self.n1, self.n2)}], "
                f"got {self.rank}"
            )
        for name in ("density_left", "density_right"):
            d = getattr(self, name)
            if not 0.0 <= d <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {d}")


@dataclass(frozen=True)
class SamplingSpec:
    """Observation rates for the zero and nonzero entries of a matrix."""

    rate_zero: float
    rate_nonzero: float
    seed: int = 0

    def __post_init__(self):
        for name in ("rate_zero", "rate_nonzero"):
            r = getattr(self, name)
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {r}")


def generate_low_rank(spec: GeneratorSpec) -> np.ndarray:
    """Draw the sparse-factor product matrix for ``spec``.

    Draw order on stream(seed, "low-rank-factors"): left values, left
    inclusion flags, right values, right inclusion flags.  A degenerate
    all-zero product is returned as-is; callers that cannot use it (the
    benchmark harness, the CLI generator) reject and redraw.
    """
    rng = stream(spec.seed, "low-rank-factors")
    left_vals = rng.random((spec.n1, spec.rank))
    left_keep = rng.random((spec.n1, spec.rank)) < spec.density_left
    right_vals = rng.random((spec.rank, spec.n2))
    right_keep = rng.random((spec.rank, spec.n2)) < spec.density_right
    left = np.where(left_keep, left_vals, 0.0)
    right = np.where(right_keep, right_vals, 0.0)
    return as_matrix(left @ right)


def sample_structured_mask(m: np.ndarray, spec: SamplingSpec) -> ObservationMask:
    """Observe a shuffled prefix of the zero and nonzero entries of ``m``.

    Exactly round(rate_zero * #zeros) zero positions and
    round(rate_nonzero * #nonzeros) nonzero positions are observed
    (round-half-to-even), drawn without replacement.  Zero/nonzero
    classification is exact comparison with 0; the generator produces exact
    zeros.  Draw order on stream(seed, "structured-mask"): permutation of
    the zero positions (row-major), then of the nonzero positions.
    """
    m = np.asarray(m, dtype=np.float64)
    rng = stream(spec.seed, "structured-mask")
    zero_pos = np.argwhere(m == 0.0)
    nonzero_pos = np.argwhere(m != 0.0)
    k_zero = round(spec.rate_zero * len(zero_pos))  # round() rounds half to even
    k_nonzero = round(spec.rate_nonzero * len(nonzero_pos))
    chosen_zero = zero_pos[rng.permutation(len(zero_pos))[:k_zero]]
    chosen_nonzero = nonzero_pos[rng.permutation(len(nonzero_pos))[:k_nonzero]]
    if k_zero + k_nonzero == 0:
        raise InvalidSamplingError(
            f"rates ({spec.rate_zero}, {spec.rate_nonzero}) observe no entries "
            f"of a matrix with {len(zero_pos)} zeros and {len(nonzero_pos)} nonzeros"
        )
    lookup = np.zeros(m.shape, dtype=bool)
    for pos in (chosen_zero, chosen_nonzero):
        lookup[pos[:, 0], pos[:, 1]] = True
    return ObservationMask(lookup)


def add_noise(m: np.ndarray, sigma: float, mask: ObservationMask, seed: int) -> np.ndarray:
    """Add N(0, sigma^2) i.i.d. noise to the observed entries only.

    Unobserved entries are returned bit-identical.  A full-shape noise panel
    is drawn from stream(seed, "gaussian-noise") regardless of the mask, so
    the draw sequence does not depend on the observation pattern.
    """
    sigma = float(sigma)
    if sigma < 0.0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    m = np.asarray(m, dtype=np.float64)
    _check_shape(m, mask)
    if sigma == 0.0:
        return m
    z = _normal_draws(stream(seed, "gaussian-noise"), m.shape, sigma)
    return as_matrix(np.where(mask.lookup, m + z, m))


def rho_for_noise(n1: int, n2: int, omega_size: int, sigma: float) -> float:
    """Data-fit weight (sqrt(n1)+sqrt(n2)) * sqrt(|Omega|/(n1*n2)) * sigma."""
    if omega_size < 1:
        raise ValueError(f"omega_size must be at least 1, got {omega_size}")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return float((np.sqrt(n1) + np.sqrt(n2)) * np.sqrt(omega_size / (n1 * n2)) * sigma)
