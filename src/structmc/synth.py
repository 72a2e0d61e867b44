"""Seeded synthetic data: sparse-factor low-rank matrices, structured masks, noise.

Reproducibility contract
------------------------
All randomness flows through :func:`stream`, which returns a numpy Generator
backed by the counter-based Philox bit generator.  The 128-bit Philox key is
``(seed, fold(path))`` where ``fold`` chains splitmix64 over the path
elements; ints are folded as-is, floats by their IEEE-754 bit pattern, and
string tags through blake2s.  Distinct (seed, path) pairs therefore get
independent streams, and the same pair reproduces bit-identical draws on any
platform.  Gaussian variates are produced by inverse-CDF over 53-bit
uniforms (not the ziggurat), so noise streams are portable too.

Draw order is part of the contract and is documented on each operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSamplingError
from .matrix import ObservationMask, as_matrix

__all__ = [
    "GeneratorSpec",
    "SamplingSpec",
    "stream",
    "derive_seed",
    "normal_draws",
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
        import hashlib  # only string tags need it; keeps it out of start-up

        value = int.from_bytes(hashlib.blake2s(value.encode()).digest()[:8], "big")
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


def stream(seed: int, *path) -> np.random.Generator:
    """Philox generator keyed by ``seed`` and a folded ``path``."""
    key = np.array([int(seed) & _MASK64, derive_seed(seed, *path)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Cephes ndtri (Moshier, Methods and Programs for Mathematical Functions,
# 1989): a rational fit in (u - 0.5)^2 on the centre, and in 1/z with
# z = sqrt(-2 log y) on the tails, y the smaller of u and 1 - u.
_EXP_M2 = 0.13533528323661269189  # exp(-2), where the centre fit ends
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# z < 8, i.e. y > exp(-32)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# z >= 8
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Horner's rule with the leading coefficient ``coef[0]``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """Horner's rule for a monic polynomial; ``coef`` omits the leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of each u in (0, 1), as Cephes ``ndtri``.

    The operations are Cephes' own, in its order, and the tail logarithms
    are ``math.log``, the C library's ``log`` that Cephes calls, so the
    result matches scipy's compiled ``ndtri`` bit for bit.
    """
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    out = np.empty_like(y)
    centre = y > _EXP_M2
    c = y[centre] - 0.5
    c2 = c * c
    out[centre] = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _S2PI
    tail = ~centre
    z = np.sqrt(-2.0 * np.array([math.log(v) for v in y[tail].tolist()]))
    z0 = z - np.array([math.log(v) for v in z.tolist()]) / z
    w = 1.0 / z
    z1 = np.where(z < 8.0, w * _polevl(w, _P1) / _p1evl(w, _Q1),
                  w * _polevl(w, _P2) / _p1evl(w, _Q2))
    out[tail] = np.where(upper[tail], z0 - z1, z1 - z0)
    return out


def normal_draws(rng: np.random.Generator, shape, sigma: float = 1.0) -> np.ndarray:
    """Gaussian draws via inverse-CDF over 53-bit uniforms (portable).

    Each draw is ``sigma * ndtri(u)`` with u = (k + 0.5) * 2^-53 for a
    uniform integer k in [0, 2^53), capped at 1 - 2^-53, and ``ndtri`` a
    numpy port of Cephes ``ndtri``; ``tests/test_synth.py`` checks it
    against scipy's ``ndtri`` bit for bit.
    """
    n = int(np.prod(shape))
    # k + 0.5 rounds to 2^53 for the top k; the cap keeps u below 1, so
    # every u lies strictly inside (0, 1) and every draw is finite
    u = (rng.integers(0, 1 << 53, size=n, dtype=np.int64) + 0.5) * 2.0**-53
    return (sigma * _ndtri(np.minimum(u, 1.0 - 2.0**-53))).reshape(shape)


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
        if len(pos):
            lookup[pos[:, 0], pos[:, 1]] = True
    return ObservationMask.from_lookup(lookup)


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
    if m.shape != mask.shape:
        raise ValueError(f"matrix shape {m.shape} does not match mask shape {mask.shape}")
    if sigma == 0.0:
        return m
    rng = stream(seed, "gaussian-noise")
    z = normal_draws(rng, m.shape, sigma)
    return as_matrix(np.where(mask.lookup, m + z, m))


def rho_for_noise(n1: int, n2: int, omega_size: int, sigma: float) -> float:
    """Data-fit weight (sqrt(n1)+sqrt(n2)) * sqrt(|Omega|/(n1*n2)) * sigma."""
    if omega_size < 1:
        raise ValueError(f"omega_size must be at least 1, got {omega_size}")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return (np.sqrt(n1) + np.sqrt(n2)) * np.sqrt(omega_size / (n1 * n2)) * sigma
