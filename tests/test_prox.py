from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structmc import (
    ObservationMask,
    enforce_observed,
    entrywise_l1,
    frobenius_norm,
    prox,
    prox_obs_fit_quad,
    soft_threshold,
    stream,
    svt,
)
from structmc.errors import DimensionMismatchError, NumericalError

from masks import mask_of


def nm_search(fun, x0, restarts=14, maxfev=8000):
    """Independent prox-definition oracle: restarted Nelder-Mead."""
    deltas = (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 3e-7, 1e-7)
    x = np.asarray(x0, dtype=np.float64)
    f = fun(x)
    for k in range(restarts):
        d = deltas[min(k, len(deltas) - 1)]
        simplex = np.vstack([x, x + d * np.eye(len(x))])
        res = scipy.optimize.minimize(
            fun, x, method="Nelder-Mead",
            options=dict(initial_simplex=simplex, xatol=1e-12, fatol=1e-14, maxfev=maxfev),
        )
        if res.fun < f:
            x, f = res.x, res.fun
    return x.reshape(-1)


class TestSvt:
    def test_diagonal_shrinkage(self):
        np.testing.assert_allclose(svt(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]), atol=1e-12)

    def test_large_tau_zeroes(self):
        rng = stream(1, "svt-zero")
        m = rng.standard_normal((4, 4))
        tau = float(np.linalg.svd(m, compute_uv=False)[0])
        np.testing.assert_allclose(svt(m, tau + 1e-9), np.zeros((4, 4)), atol=1e-10)

    def test_matches_prox_definition_oracle(self):
        # singular values (3, 2.4, 1.8, 1.2) all survive the tau = 0.5 shrink,
        # so the prox objective is smooth at its minimizer and the
        # derivative-free search can certify the argmin tightly
        rng = stream(42, "svt-oracle")
        q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        m = q1 @ np.diag([3.0, 2.4, 1.8, 1.2]) @ q2.T
        tau = 0.5

        def objective(x):
            a = x.reshape(4, 4)
            s = np.linalg.svd(a, compute_uv=False)
            return tau * s.sum() + 0.5 * np.linalg.norm(a - m) ** 2

        found = nm_search(objective, m.ravel().copy()).reshape(4, 4)
        assert np.abs(svt(m, tau) - found).max() < 1e-4

    def test_singular_values_shrunk_exactly(self):
        rng = stream(2, "svt-spectrum")
        for _ in range(10):
            m = rng.standard_normal((5, 7))
            tau = 0.3
            s_in = np.linalg.svd(m, compute_uv=False)
            s_out = np.linalg.svd(svt(m, tau), compute_uv=False)
            np.testing.assert_allclose(s_out, np.maximum(s_in - tau, 0.0), atol=1e-10)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            svt(np.eye(2), -1.0)


class TestSoftThreshold:
    def test_full_support_example(self):
        out = soft_threshold(np.array([[2.0, -0.5]]), 1.0, ObservationMask.full(1, 2))
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_empty_support_is_identity(self):
        rng = stream(4, "soft-empty")
        m = rng.standard_normal((3, 3))
        empty = ObservationMask.from_lookup(np.zeros((3, 3), dtype=bool))
        np.testing.assert_array_equal(soft_threshold(m, 1.0, empty), m)

    def test_partial_support(self):
        m = np.full((2, 2), 3.0)
        out = soft_threshold(m, 1.0, mask_of((2, 2), [(0, 0)]))
        np.testing.assert_array_equal(out, [[2.0, 3.0], [3.0, 3.0]])

    def test_l1_reduction_identity(self):
        # shrinkage removes exactly sum(min(|x|, tau)) of supported L1 mass
        rng = stream(4, "soft-l1")
        for _ in range(10):
            m = rng.standard_normal((4, 5)) * 2.0
            support = ObservationMask.from_lookup(rng.random((4, 5)) < 0.6)
            tau = 0.8
            out = soft_threshold(m, tau, support)
            supported = m[support.lookup]
            removed = np.minimum(np.abs(supported), tau).sum()
            before = entrywise_l1(np.where(support.lookup, m, 0.0))
            after = entrywise_l1(np.where(support.lookup, out, 0.0))
            assert abs((before - after) - removed) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            soft_threshold(np.ones((2, 2)), 1.0, ObservationMask.full(2, 3))


class TestProxObsFitQuad:
    def test_blend_formula(self):
        rng = stream(8, "quad-blend")
        m = rng.standard_normal((3, 4))
        obs = rng.standard_normal((3, 4))
        mask = ObservationMask.from_lookup(rng.random((3, 4)) < 0.5)
        tau = 0.6
        out = prox_obs_fit_quad(m, obs, mask, tau)
        expected = np.where(mask.lookup, (m + tau * obs) / (1 + tau), m)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_matches_prox_definition_oracle(self):
        rng = stream(42, "quad-oracle")
        m = rng.random((3, 3)) * 2 - 1
        obs = rng.random((3, 3))
        mask = ObservationMask.from_lookup(rng.random((3, 3)) < 0.6)
        tau = 0.9

        def objective(x):
            a = x.reshape(3, 3)
            fit = np.linalg.norm(np.where(mask.lookup, obs - a, 0.0)) ** 2
            return tau * 0.5 * fit + 0.5 * np.linalg.norm(a - m) ** 2

        found = nm_search(objective, m.ravel().copy()).reshape(3, 3)
        assert np.abs(prox_obs_fit_quad(m, obs, mask, tau) - found).max() < 1e-4


class TestEnforceObserved:
    def test_full_mask_returns_observations(self):
        rng = stream(10, "enforce-full")
        m = rng.standard_normal((3, 3))
        obs = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(enforce_observed(m, obs, ObservationMask.full(3, 3)), obs)

    def test_empty_mask_returns_input(self):
        rng = stream(10, "enforce-empty")
        m = rng.standard_normal((3, 3))
        obs = rng.standard_normal((3, 3))
        empty = ObservationMask.from_lookup(np.zeros((3, 3), dtype=bool))
        np.testing.assert_array_equal(enforce_observed(m, obs, empty), m)

    def test_mixed(self):
        out = enforce_observed(
            np.array([[9.0, 9.0]]), np.array([[1.0, 0.0]]), mask_of((1, 2), [(0, 0)])
        )
        np.testing.assert_array_equal(out, [[1.0, 9.0]])


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


IN_PLACE_PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
# entries a prox must pass through exactly: signed zeros, the threshold's own
# edge, and non-finite values, which the solvers never feed but the proxes take
_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])


class TestInPlaceTemporaries:
    """The proxes build their result in their own first temporary.

    They leave every input unchanged (read-only inputs would raise) and give,
    bit for bit, the expressions they were first written as.
    """

    @staticmethod
    def _case(seed, shape, log_tau, special, density):
        rng = stream(seed, "in-place-prox")
        m = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        obs = rng.standard_normal(shape)
        tau = 10.0**log_tau
        where = rng.random(shape) < 0.2
        m[where] = special * (tau if abs(special) == 1.0 else 1.0)
        mask = ObservationMask.from_lookup(rng.random(shape) < density)
        for a in (m, obs):
            a.setflags(write=False)
        return m, obs, tau, mask

    @IN_PLACE_PROPERTY
    @given(seed=st.integers(0, 2**31 - 1), shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           log_tau=st.floats(-6.0, 3.0), special=_SPECIAL, density=st.floats(0.0, 1.0))
    def test_soft_threshold_is_its_expression(self, seed, shape, log_tau, special, density):
        m, _, tau, support = self._case(seed, shape, log_tau, special, density)
        before = m.copy()
        out = soft_threshold(m, tau, support)
        expected = np.where(support.lookup, np.copysign(np.maximum(np.abs(m) - tau, 0.0), m), m)
        np.testing.assert_array_equal(_bits(out), _bits(expected))
        np.testing.assert_array_equal(_bits(m), _bits(before))

    @IN_PLACE_PROPERTY
    @given(seed=st.integers(0, 2**31 - 1), shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           log_tau=st.floats(-6.0, 3.0), special=_SPECIAL, density=st.floats(0.0, 1.0))
    def test_obs_fit_quad_is_its_expression(self, seed, shape, log_tau, special, density):
        m, obs, tau, mask = self._case(seed, shape, log_tau, special, density)
        before = m.copy(), obs.copy()
        out = prox_obs_fit_quad(m, obs, mask, tau)
        expected = np.where(mask.lookup, (m + tau * obs) / (1.0 + tau), m)
        np.testing.assert_array_equal(_bits(out), _bits(expected))
        np.testing.assert_array_equal(_bits(m), _bits(before[0]))
        np.testing.assert_array_equal(_bits(obs), _bits(before[1]))


def _random_pair(rng, shape):
    return rng.standard_normal(shape) * 2.0, rng.standard_normal(shape) * 2.0


class TestFirmNonexpansiveness:
    # every prox is 1-Lipschitz: ||P(a) - P(b)||_F <= ||a - b||_F

    def test_svt(self):
        rng = stream(12, "nonexp-svt")
        for _ in range(100):
            a, b = _random_pair(rng, (4, 4))
            lhs = frobenius_norm(svt(a, 0.5) - svt(b, 0.5))
            rhs = frobenius_norm(a - b)
            assert lhs <= rhs * (1 + 1e-12) + 1e-12

    def test_soft_threshold(self):
        rng = stream(12, "nonexp-soft")
        support = ObservationMask.from_lookup(stream(12, "nonexp-soft-mask").random((4, 4)) < 0.5)
        for _ in range(100):
            a, b = _random_pair(rng, (4, 4))
            lhs = frobenius_norm(soft_threshold(a, 0.5, support) - soft_threshold(b, 0.5, support))
            assert lhs <= frobenius_norm(a - b) * (1 + 1e-12) + 1e-12

    def test_prox_obs_fit_quad(self):
        rng = stream(12, "nonexp-quad")
        obs = stream(12, "nonexp-quad-obs").standard_normal((4, 4))
        mask = ObservationMask.from_lookup(stream(12, "nonexp-quad-mask").random((4, 4)) < 0.5)
        for _ in range(100):
            a, b = _random_pair(rng, (4, 4))
            lhs = frobenius_norm(
                prox_obs_fit_quad(a, obs, mask, 0.7) - prox_obs_fit_quad(b, obs, mask, 0.7)
            )
            assert lhs <= frobenius_norm(a - b) * (1 + 1e-12) + 1e-12

    def test_enforce_observed(self):
        rng = stream(12, "nonexp-enf")
        obs = stream(12, "nonexp-enf-obs").standard_normal((4, 4))
        mask = ObservationMask.from_lookup(stream(12, "nonexp-enf-mask").random((4, 4)) < 0.5)
        for _ in range(100):
            a, b = _random_pair(rng, (4, 4))
            lhs = frobenius_norm(
                enforce_observed(a, obs, mask) - enforce_observed(b, obs, mask)
            )
            assert lhs <= frobenius_norm(a - b) * (1 + 1e-12) + 1e-12


def _svd_svt(m, tau):
    """The full-SVD route of svt, written out as the reference."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


def _gram_instance(seed, shape, scale_exp, graded=False):
    """A rank-5 part over a noise bulk (the spectrum of an ADMM iterate), or
    with ``graded`` singular values spread evenly over nine decades."""
    rng = stream(seed, "svt-gram")
    if graded:
        k = min(shape)
        q1, _ = np.linalg.qr(rng.standard_normal((shape[0], k)))
        q2, _ = np.linalg.qr(rng.standard_normal((shape[1], k)))
        m = (q1 * np.logspace(0.0, -9.0, k)) @ q2.T
    else:
        m = rng.standard_normal((shape[0], 5)) @ rng.standard_normal((5, shape[1]))
        m = m + 0.3 * rng.standard_normal(shape)
    m = m * 10.0**scale_exp
    return m, float(np.linalg.norm(m, 2))


GRAM_PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)
gram_shapes = st.one_of(
    st.integers(1, 160).map(lambda n: (n, n)),
    st.tuples(st.integers(1, 99), st.integers(1, 99)),
    st.tuples(st.integers(1, 160), st.integers(1, 160)),
)
gram_cases = dict(
    seed=st.integers(0, 2**31 - 1),
    shape=gram_shapes,
    scale_exp=st.floats(-3.0, 3.0),
    graded=st.booleans(),
)


class TestSvtGramRoute:
    # at every size svt thresholds from eigh of the Gram matrix unless tau is tiny

    @GRAM_PROPERTY
    @given(**gram_cases, log_rel_tau=st.floats(-5.0, float(np.log10(2.0))))
    @example(seed=1, shape=(160, 100), scale_exp=0.0, graded=False, log_rel_tau=-1.0)
    @example(seed=2, shape=(100, 160), scale_exp=0.0, graded=True, log_rel_tau=-5.0)
    @example(seed=3, shape=(130, 130), scale_exp=2.0, graded=False, log_rel_tau=-0.3)
    @example(seed=4, shape=(30, 30), scale_exp=0.0, graded=False, log_rel_tau=-1.0)
    @example(seed=5, shape=(50, 30), scale_exp=-3.0, graded=True, log_rel_tau=-5.0)
    @example(seed=6, shape=(30, 50), scale_exp=3.0, graded=False, log_rel_tau=-0.3)
    @example(seed=7, shape=(1, 7), scale_exp=0.0, graded=False, log_rel_tau=-2.0)
    def test_matches_full_svd(self, seed, shape, scale_exp, graded, log_rel_tau):
        m, sigma1 = _gram_instance(seed, shape, scale_exp, graded)
        tau = 10.0**log_rel_tau * sigma1
        with mock.patch.object(prox, "_svt_gram", wraps=prox._svt_gram) as spy:
            out = svt(m, tau)
        assert spy.call_count == 1
        assert out.shape == m.shape
        assert frobenius_norm(out - _svd_svt(m, tau)) <= 1e-9 * max(1.0, sigma1)

    @GRAM_PROPERTY
    @given(**gram_cases, log_rel_tau=st.floats(-5.0, float(np.log10(2.0))),
           log_rel_step=st.floats(-6.0, 0.0))
    def test_nonexpansive(self, seed, shape, scale_exp, graded, log_rel_tau, log_rel_step):
        a, sigma1 = _gram_instance(seed, shape, scale_exp, graded)
        step = stream(seed, "svt-gram-step").standard_normal(shape)
        b = a + step * (10.0**log_rel_step * sigma1 / frobenius_norm(step))
        tau = 10.0**log_rel_tau * sigma1
        lhs = frobenius_norm(svt(a, tau) - svt(b, tau))
        assert lhs <= frobenius_norm(a - b) + 1e-9 * max(1.0, sigma1)

    @GRAM_PROPERTY
    @given(**gram_cases, log_rel_tau=st.floats(-9.0, -6.01))
    def test_below_tau_guard_is_the_svd_route(self, seed, shape, scale_exp, graded, log_rel_tau):
        m, sigma1 = _gram_instance(seed, shape, scale_exp, graded)
        tau = 10.0**log_rel_tau * sigma1
        np.testing.assert_array_equal(svt(m, tau), _svd_svt(m, tau))

    def test_small_tau_guard_at_120(self):
        m, sigma1 = _gram_instance(7, (120, 120), 0.0)
        below = 0.5 * prox._GRAM_MIN_REL_TAU * sigma1
        np.testing.assert_array_equal(svt(m, below), _svd_svt(m, below))
        above = 2.0 * prox._GRAM_MIN_REL_TAU * sigma1
        assert not np.array_equal(svt(m, above), _svd_svt(m, above))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises_at_120(self, bad):
        m, _ = _gram_instance(8, (120, 120), 0.0)
        m[3, 4] = bad
        with pytest.raises(NumericalError):
            svt(m, 1.0)

    @pytest.mark.parametrize("shape", [(5, 5), (30, 30)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_below_100(self, shape, bad):
        m, _ = _gram_instance(9, shape, 0.0)
        m[3, 4] = bad
        with pytest.raises(NumericalError):
            svt(m, 1.0)

    @pytest.mark.parametrize("shape", [(30, 30), (50, 30), (30, 50)])
    def test_no_full_svd_above_tau_guard(self, shape):
        m, sigma1 = _gram_instance(10, shape, 0.0)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as spy:
            out = svt(m, 0.1 * sigma1)
        assert spy.call_count == 0
        assert frobenius_norm(out - _svd_svt(m, 0.1 * sigma1)) <= 1e-9 * sigma1

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_input(self, shape):
        assert svt(np.zeros(shape), 1.0).shape == shape


WARM_PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


def _warm_instance(seed, shape, kept, gap):
    """A matrix with ``kept`` singular values above tau = 1 and the rest below
    ``1 - gap``, and the right singular vectors of its tall orientation."""
    rng = stream(seed, "svt-warm")
    r = min(shape)
    q1, _ = np.linalg.qr(rng.standard_normal((shape[0], r)))
    q2, _ = np.linalg.qr(rng.standard_normal((shape[1], r)))
    above = 1.0 + gap + 100.0 * rng.random(kept)
    below = (1.0 - gap) * rng.random(r - kept)
    s = np.sort(np.concatenate([above, below]))[::-1]
    m = (q1 * s) @ q2.T
    right = q1 if shape[0] < shape[1] else q2
    return m, s[0], right


def _rotated_block(seed, columns):
    """An orthonormal basis of the span of ``columns``, mixed by a random rotation."""
    q, _ = np.linalg.qr(columns)
    mix, _ = np.linalg.qr(stream(seed, "svt-warm-mix").standard_normal((q.shape[1],) * 2))
    return q @ mix


def _warm_shapes():
    from structmc.solvers import _WARM_SVT_MIN_DIM as gate

    side = st.integers(gate, 120)
    return st.tuples(side, side)


class TestSvtWarmStep:
    # the solvers' warm-subspace step, at the sizes where they use it

    @WARM_PROPERTY
    @given(seed=st.integers(0, 2**31 - 1), shape=_warm_shapes(), kept=st.integers(0, 12),
           extra=st.integers(1, 8), gap=st.floats(0.05, 0.5))
    @example(seed=1, shape=(120, 40), kept=12, extra=8, gap=0.05)
    @example(seed=2, shape=(40, 120), kept=3, extra=1, gap=0.2)
    def test_block_spanning_the_kept_vectors_is_exact(self, seed, shape, kept, extra, gap):
        m, sigma1, right = _warm_instance(seed, shape, kept, gap)
        others = stream(seed, "svt-warm-extra").standard_normal((right.shape[0], extra))
        block = _rotated_block(seed, np.hstack([right[:, :kept], others]))
        with mock.patch.object(prox, "_svt_gram", wraps=prox._svt_gram) as gram:
            out, nxt = prox._svt_warm(m, 1.0, block)
        # the extra columns bring Ritz values below tau, so the check accepts
        assert gram.call_count == 0
        assert frobenius_norm(out - svt(m, 1.0)) <= 1e-9 * sigma1
        # the next block is orthonormal and spans the kept vectors
        np.testing.assert_allclose(nxt.T @ nxt, np.eye(nxt.shape[1]), atol=1e-12)
        captured = frobenius_norm(nxt.T @ right[:, :kept]) ** 2
        assert captured == pytest.approx(kept, abs=1e-9)

    @WARM_PROPERTY
    @given(seed=st.integers(0, 2**31 - 1), shape=_warm_shapes(), kept=st.integers(2, 12),
           missed=st.integers(1, 11), gap=st.floats(0.05, 0.5))
    def test_block_missing_a_kept_vector_falls_back(self, seed, shape, kept, missed, gap):
        # the block lies inside the span of the surviving singular vectors
        # but misses some of them: every Ritz value is above tau
        m, _, right = _warm_instance(seed, shape, kept, gap)
        missed = min(missed, kept - 1)
        chosen = stream(seed, "svt-warm-missed").permutation(kept)[: kept - missed]
        block = _rotated_block(seed, right[:, np.sort(chosen)])
        with mock.patch.object(prox, "_svt_gram", wraps=prox._svt_gram) as gram:
            out, nxt = prox._svt_warm(m, 1.0, block)
        assert gram.call_count == 1
        np.testing.assert_array_equal(out, svt(m, 1.0))
        assert nxt.shape[1] == min(kept + prox._WARM_EXTRA, right.shape[0])

    @WARM_PROPERTY
    @given(seed=st.integers(0, 2**31 - 1), shape=_warm_shapes(),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]), where=st.floats(0.0, 1.0))
    def test_non_finite_input_raises(self, seed, shape, bad, where):
        m, _, right = _warm_instance(seed, shape, 4, 0.2)
        block = _rotated_block(seed, right[:, :6])
        m.flat[int(where * (m.size - 1))] = bad
        with pytest.raises(NumericalError):
            prox._svt_warm(m, 1.0, block)
        with pytest.raises(NumericalError):
            svt(m, 1.0)
