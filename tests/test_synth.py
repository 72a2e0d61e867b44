import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import structmc
from structmc import (
    GeneratorSpec,
    ObservationMask,
    SamplingSpec,
    add_noise,
    derive_seed,
    generate_low_rank,
    rho_for_noise,
    sample_structured_mask,
    stream,
)
from structmc.errors import InvalidSamplingError
from structmc.synth import _normal_draws, _Stream


class TestStream:
    def test_same_key_reproduces(self):
        a = stream(123, "tag", 4).random(10)
        b = stream(123, "tag", 4).random(10)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = stream(123, "tag", 4).random(10)
        b = stream(123, "tag", 5).random(10)
        assert not np.array_equal(a, b)

    def test_floats_keyed_by_bits(self):
        assert derive_seed(1, 0.1) != derive_seed(1, 0.2)
        assert derive_seed(1, 0.1) == derive_seed(1, 0.1)

    def test_negative_seed_ok(self):
        stream(-5, "x").random(3)

    def test_normal_draws_inverse_cdf_symmetric(self):
        z = _normal_draws(stream(7, "gauss"), (2000,), 1.0)
        assert abs(z.mean()) < 0.1
        assert abs(z.std() - 1.0) < 0.05


def _pair(key):
    """The numpy port and numpy's own Generator on one Philox key."""
    key = np.array(key, dtype=np.uint64)
    return _Stream(key.copy()), np.random.Generator(np.random.Philox(key=key))


def _draw(rng, call):
    kind, arg = call
    if kind == "random":
        return rng.random(arg)
    return rng.permutation(arg)


def _assert_same_draw(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


KEY_WORDS = st.sampled_from([0, 1, (1 << 64) - 1]) | st.integers(0, (1 << 64) - 1)
# sizes off multiples of 4 leave part of a Philox block buffered; a
# permutation of an odd count of half-words leaves a high half pending
PORTED_CALLS = st.lists(
    st.tuples(st.just("random"), st.sampled_from([1, 3, 5, 7, 60, (2, 3), (5, 1), np.int64(2)]))
    | st.tuples(st.just("permutation"), st.sampled_from([0, 1, 2, 3, 31, 32, 33, 900, 5000])),
    min_size=1, max_size=8,
)
STREAM_PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


class TestPortedStream:
    """The numpy port of Philox draws against numpy's Generator, bit for bit.

    A numpy release that changes the Generator's algorithms or its Philox
    state layout fails here, before it could move the seed schedule.
    """

    @STREAM_PROPERTY
    @given(k0=KEY_WORDS, k1=KEY_WORDS, calls=PORTED_CALLS)
    def test_interleaved_calls_match_numpy(self, k0, k1, calls):
        port, ref = _pair([k0, k1])
        for call in calls:
            _assert_same_draw(_draw(port, call), _draw(ref, call))

    @pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 900, 5000])
    def test_permutation_matches_numpy(self, n):
        port, ref = _pair([20240601, (1 << 64) - 1])
        for _ in range(3):
            _assert_same_draw(port.permutation(n), ref.permutation(n))

    def test_pending_half_word_carries_across_calls(self):
        # permutation(2) takes one half-word, leaving the high half of its
        # word pending; random draws whole words and leaves it pending too
        port, ref = _pair([7, 0])
        for call in [("permutation", 2), ("random", 3), ("permutation", 2),
                     ("permutation", 33), ("random", 5), ("permutation", 3)]:
            _assert_same_draw(_draw(port, call), _draw(ref, call))
        assert port._has32 == ref.bit_generator.state["has_uint32"]

    def test_other_calls_hand_off_to_numpy(self):
        port, ref = _pair([123, 456])
        for rng in (port, ref):
            rng.random(5), rng.permutation(33), rng.integers(0, 1 << 53, size=3, dtype=np.int64)
        _assert_same_draw(port.standard_normal(7), ref.standard_normal(7))
        _assert_same_draw(port.choice(10, 4), ref.choice(10, 4))
        # after the handoff the ported methods are numpy's too
        _assert_same_draw(port.random(6), ref.random(6))
        _assert_same_draw(port.permutation(np.arange(9)), ref.permutation(np.arange(9)))
        _assert_same_draw(port.integers(0, 10, size=4), ref.integers(0, 10, size=4))

    def test_unported_arguments_hand_off_to_numpy(self):
        port, ref = _pair([5, 6])
        assert port.random() == ref.random()
        _assert_same_draw(port.integers(0, 1 << 53, size=2, dtype=np.int64),
                          ref.integers(0, 1 << 53, size=2, dtype=np.int64))

    def test_stream_is_the_numpy_philox_stream(self):
        seed, path = 20240601, ("structured-mask", 3)
        key = np.array([seed, derive_seed(seed, *path)], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key))
        _assert_same_draw(stream(seed, *path).permutation(100), ref.permutation(100))


def _grid_u(k):
    """The uniforms ``_normal_draws`` feeds the inverse CDF, before the cap."""
    return (np.asarray(k, dtype=np.int64) + 0.5) * 2.0**-53


class _FixedUniforms:
    """A stream stand-in whose one ``random`` call returns ``values``."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size):
        assert size == self.values.size
        return self.values


def _assert_bits_equal(a, b):
    assert a.dtype == b.dtype == np.float64
    mismatch = np.flatnonzero(a.view(np.int64) != b.view(np.int64))
    assert mismatch.size == 0, f"{mismatch.size} draws differ, first at u = {mismatch[:5]}"


class TestNdtri:
    """The inverse normal CDF of the noise draws against scipy's ``ndtri``."""

    def _assert_grid_agrees(self, k):
        z = _normal_draws(_FixedUniforms(k * 2.0**-53), k.shape)
        np.testing.assert_allclose(z, scipy.special.ndtri(_grid_u(k)), rtol=4e-15, atol=0.0)

    def test_matches_scipy_on_the_draw_grid(self):
        k = np.random.default_rng(20240601).integers(0, 1 << 53, size=1_000_000, dtype=np.int64)
        self._assert_grid_agrees(k)

    def test_matches_scipy_at_both_ends_of_the_grid(self):
        top = 1 << 53
        self._assert_grid_agrees(np.concatenate([np.arange(5000), np.arange(top - 5001, top - 1)]))

    def test_matches_scipy_at_the_branch_points(self):
        # AS241 switches fits at |u - 0.5| = 0.425 and at -log(min(u, 1 - u)) = 25;
        # Cephes, the reference, at exp(-2) and exp(-32) on each side
        points = [0.075, 0.925, math.exp(-25), 1.0 - math.exp(-25),
                  math.exp(-2), 1.0 - math.exp(-2), math.exp(-32), 1.0 - math.exp(-32)]
        u = [v for p in points for v in (math.nextafter(p, 0.0), p, math.nextafter(p, 1.0))]
        np.testing.assert_allclose([NormalDist().inv_cdf(v) for v in u], scipy.special.ndtri(u),
                                   rtol=4e-15, atol=0.0)

    def test_c_and_pure_python_statistics_agree_bit_for_bit(self):
        pytest.importorskip("_statistics")
        script = textwrap.dedent("""
            import hashlib, sys
            if sys.argv[1] == "python":
                sys.modules["_statistics"] = None  # the pure-Python fallback
            import numpy as np, statistics
            from structmc.synth import _normal_draws

            class Grid:
                def random(self, size):
                    k = np.random.default_rng(20240601).integers(0, 1 << 53, size=size)
                    return k * 2.0**-53

            z = _normal_draws(Grid(), (1_000_000,))
            print(statistics._normal_dist_inv_cdf.__module__,
                  hashlib.sha256(z.tobytes()).hexdigest())
        """)
        src = str(Path(structmc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            path for path in (src, os.environ.get("PYTHONPATH")) if path))
        runs = [subprocess.run([sys.executable, "-c", script, side], env=env, check=True,
                               capture_output=True, text=True, timeout=300).stdout.split()
                for side in ("c", "python")]
        assert [module for module, _ in runs] == ["_statistics", "statistics"]
        assert runs[0][1] == runs[1][1]

    def test_half_offset_uniforms_round_as_the_grid(self):
        # random() gives k * 2^-53 exactly; adding 2^-54 must round as k + 0.5 does
        top = 1 << 53
        k = np.concatenate([np.arange(5000), np.arange(top - 5000, top),
                            np.random.default_rng(7).integers(0, top, size=100_000)])
        _assert_bits_equal(k * 2.0**-53 + 2.0**-54, _grid_u(k))

    def test_normal_draws_stay_finite_at_the_top_of_the_grid(self):
        k = np.array([0, (1 << 53) - 2, (1 << 53) - 1], dtype=np.int64)
        z = _normal_draws(_FixedUniforms(k * 2.0**-53), (3,), 2.0)
        assert np.all(np.isfinite(z))
        # k = 2^53 - 1 gives u = 1.0 uncapped; the other two are unchanged
        inv_cdf = NormalDist().inv_cdf
        _assert_bits_equal(z[:2], 2.0 * np.array([inv_cdf(u) for u in _grid_u(k[:2])]))
        assert z[2] > z[1] > 0.0


class TestGeneratorSpec:
    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            GeneratorSpec(5, 5, 6, 0.5, 0.5)
        with pytest.raises(ValueError):
            GeneratorSpec(5, 5, 0, 0.5, 0.5)

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            GeneratorSpec(5, 5, 1, 1.5, 0.5)
        with pytest.raises(ValueError):
            GeneratorSpec(5, 5, 1, 0.5, -0.1)


class TestGenerateLowRank:
    def test_dense_rank_one_is_strictly_positive(self):
        m = generate_low_rank(GeneratorSpec(6, 6, 1, 1.0, 1.0, seed=3))
        assert np.all(m > 0)
        assert np.linalg.matrix_rank(m) == 1

    def test_zero_density_gives_zero_matrix(self):
        m = generate_low_rank(GeneratorSpec(6, 6, 2, 0.0, 0.5, seed=3))
        np.testing.assert_array_equal(m, np.zeros((6, 6)))

    def test_deterministic(self):
        spec = GeneratorSpec(12, 9, 3, 0.4, 0.6, seed=99)
        np.testing.assert_array_equal(generate_low_rank(spec), generate_low_rank(spec))

    def test_rank_bound(self):
        m = generate_low_rank(GeneratorSpec(30, 30, 2, 0.3, 0.5, seed=7))
        s = np.linalg.svd(m, compute_uv=False)
        assert np.all(s[2:] < 1e-10 * s[0])

    def test_entries_nonnegative(self):
        m = generate_low_rank(GeneratorSpec(20, 20, 3, 0.5, 0.5, seed=8))
        assert np.all(m >= 0)

    def test_replay_with_recorded_seed(self):
        # independently re-derive the factors from the documented draw order
        spec = GeneratorSpec(30, 30, 2, 0.3, 0.5, seed=1234)
        m = generate_low_rank(spec)
        rng = stream(1234, "low-rank-factors")
        lv = rng.random((30, 2))
        lk = rng.random((30, 2)) < 0.3
        rv = rng.random((2, 30))
        rk = rng.random((2, 30)) < 0.5
        expected = np.where(lk, lv, 0.0) @ np.where(rk, rv, 0.0)
        np.testing.assert_array_equal(m, expected)
        assert int((m != 0).sum()) == int((expected != 0).sum())


class TestSampleStructuredMask:
    def test_full_rates_full_mask(self):
        m = generate_low_rank(GeneratorSpec(8, 8, 2, 0.5, 0.5, seed=21))
        mask = sample_structured_mask(m, SamplingSpec(1.0, 1.0, seed=1))
        assert mask.size == 64

    def test_nonzero_support_only(self):
        m = generate_low_rank(GeneratorSpec(8, 8, 2, 0.5, 0.5, seed=21))
        mask = sample_structured_mask(m, SamplingSpec(0.0, 1.0, seed=1))
        np.testing.assert_array_equal(mask.lookup, m != 0)

    def test_count_arithmetic(self):
        m = generate_low_rank(GeneratorSpec(30, 30, 2, 0.3, 0.5, seed=5))
        n_zero = int((m == 0).sum())
        n_nonzero = 900 - n_zero
        mask = sample_structured_mask(m, SamplingSpec(0.3, 0.7, seed=2))
        assert mask.size == round(0.3 * n_zero) + round(0.7 * n_nonzero)

    def test_deterministic(self):
        m = generate_low_rank(GeneratorSpec(10, 10, 2, 0.4, 0.6, seed=31))
        a = sample_structured_mask(m, SamplingSpec(0.5, 0.5, seed=17))
        b = sample_structured_mask(m, SamplingSpec(0.5, 0.5, seed=17))
        assert a == b

    def test_empty_mask_rejected(self):
        m = generate_low_rank(GeneratorSpec(6, 6, 1, 1.0, 1.0, seed=3))
        with pytest.raises(InvalidSamplingError):
            sample_structured_mask(m, SamplingSpec(0.0, 0.0, seed=1))

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            SamplingSpec(1.2, 0.5)


class TestAddNoise:
    def test_sigma_zero_is_identity(self):
        m = generate_low_rank(GeneratorSpec(6, 6, 2, 0.5, 0.5, seed=41))
        mask = sample_structured_mask(m, SamplingSpec(0.5, 0.5, seed=41))
        out = add_noise(m, 0.0, mask, seed=1)
        np.testing.assert_array_equal(out, m)

    def test_sample_sd_in_band(self):
        # full 30x30 mask, n = 900: the sample SD of N(0, 0.1^2) noise sits
        # within [0.08, 0.12] far beyond the 3-sigma band of the SD estimator
        m = generate_low_rank(GeneratorSpec(30, 30, 2, 0.5, 0.5, seed=51))
        mask = sample_structured_mask(m, SamplingSpec(1.0, 1.0, seed=51))
        out = add_noise(m, 0.1, mask, seed=9)
        sd = float(np.std(out - m, ddof=1))
        assert 0.08 <= sd <= 0.12

    def test_unobserved_bit_identical(self):
        m = generate_low_rank(GeneratorSpec(10, 10, 2, 0.4, 0.6, seed=61))
        mask = sample_structured_mask(m, SamplingSpec(0.3, 0.8, seed=61))
        out = add_noise(m, 0.5, mask, seed=2)
        comp = ~mask.lookup
        assert np.array_equal(out[comp], m[comp])

    def test_deterministic(self):
        m = generate_low_rank(GeneratorSpec(10, 10, 2, 0.4, 0.6, seed=61))
        mask = sample_structured_mask(m, SamplingSpec(0.3, 0.8, seed=61))
        np.testing.assert_array_equal(add_noise(m, 0.3, mask, 5), add_noise(m, 0.3, mask, 5))

    def test_noise_stream_is_pinned(self):
        # any change to the uniforms, their offset or the inverse CDF moves these bits
        m = np.arange(6, dtype=np.float64).reshape(2, 3) * 0.25
        out = add_noise(m, 0.1, ObservationMask.full(2, 3), seed=2024)
        assert [v.hex() for v in out.ravel().tolist()] == [
            "0x1.df717431b79c8p-5", "0x1.9db02e8d4c382p-3", "0x1.f133e4ba62c85p-2",
            "0x1.8737bea7dcbcfp-1", "0x1.de5f429e2f90ep-1", "0x1.3dc36386f867ep+0",
        ]

    def test_rejects_negative_sigma(self):
        m = np.ones((2, 2))
        with pytest.raises(ValueError):
            add_noise(m, -0.1, ObservationMask.full(2, 2), 0)


class TestRhoForNoise:
    def test_square_30_specialization(self):
        # (sqrt(30)+sqrt(30)) * sqrt(|O|/900) * sigma == 2*sqrt(|O|/30) * sigma
        for omega in (90, 270, 450, 900):
            got = rho_for_noise(30, 30, omega, 0.1)
            assert got == pytest.approx(2.0 * np.sqrt(omega / 30.0) * 0.1, abs=1e-15)

    def test_full_observation(self):
        assert rho_for_noise(16, 25, 400, 0.5) == pytest.approx((4.0 + 5.0) * 0.5, abs=1e-12)

    def test_value_270(self):
        # 2 * sqrt(270/30) * 0.1 = 2 * 3 * 0.1
        assert rho_for_noise(30, 30, 270, 0.1) == pytest.approx(0.6, abs=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            rho_for_noise(3, 3, 0, 0.1)
        with pytest.raises(ValueError):
            rho_for_noise(3, 3, 4, 0.0)
