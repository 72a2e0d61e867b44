import numpy as np
import pytest
import scipy.optimize

from structmc import (
    ObservationMask,
    enforce_observed,
    entrywise_l1,
    frobenius_norm,
    prox_obs_fit_quad,
    soft_threshold,
    stream,
    svt,
)
from structmc.errors import DimensionMismatchError


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
        np.testing.assert_array_equal(soft_threshold(m, 1.0, ObservationMask.empty(3, 3)), m)

    def test_partial_support(self):
        m = np.full((2, 2), 3.0)
        out = soft_threshold(m, 1.0, ObservationMask(2, 2, [(0, 0)]))
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
        np.testing.assert_array_equal(enforce_observed(m, obs, ObservationMask.empty(3, 3)), m)

    def test_mixed(self):
        out = enforce_observed(
            np.array([[9.0, 9.0]]), np.array([[1.0, 0.0]]), ObservationMask(1, 2, [(0, 0)])
        )
        np.testing.assert_array_equal(out, [[1.0, 9.0]])


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
