import math

import numpy as np
import pytest

from structmc import (
    frobenius_norm,
    incoherence,
    ratio_from_errors,
    relative_error,
    stream,
)


def _error_ratio(m_reg, m_nnm, m_true):
    """The README's error ratio: ||m_reg - m_true||_F / ||m_nnm - m_true||_F."""
    return ratio_from_errors(frobenius_norm(m_reg - m_true), frobenius_norm(m_nnm - m_true))


class TestErrorRatio:
    def test_regularized_exact_gives_zero(self):
        t = np.ones((2, 2))
        assert _error_ratio(t, t + 1.0, t) == 0.0

    def test_equal_estimates_give_one(self):
        t = np.ones((2, 2))
        a = t + 0.5
        assert _error_ratio(a, a, t) == pytest.approx(1.0, abs=1e-15)

    def test_below_one_means_regularized_wins(self):
        t = np.zeros((2, 2))
        reg = t + 0.1
        nnm = t + 0.2
        assert _error_ratio(reg, nnm, t) < 1.0

    def test_both_exact_sentinel(self):
        t = np.ones((2, 2))
        assert math.isnan(_error_ratio(t, t, t))

    def test_baseline_exact_only_sentinel(self):
        t = np.ones((2, 2))
        assert math.isinf(_error_ratio(t + 1.0, t, t))

    def test_ratio_from_errors_branches(self):
        assert ratio_from_errors(0.5, 1.0) == 0.5
        assert math.isnan(ratio_from_errors(0.0, 0.0))
        assert math.isnan(ratio_from_errors(1e-13, 1e-13))
        assert math.isinf(ratio_from_errors(1.0, 0.0))
        # custom tolerance widens the both-exact band
        assert math.isnan(ratio_from_errors(1e-8, 1e-8, exact_tol=1e-6))


class TestRelativeError:
    def test_exact(self):
        t = np.ones((3, 3))
        assert relative_error(t, t) == 0.0

    def test_double(self):
        t = np.ones((3, 3)) * 2.0
        assert relative_error(2.0 * t, t) == pytest.approx(1.0, abs=1e-15)

    def test_zero_estimate(self):
        t = np.ones((3, 3))
        assert relative_error(np.zeros((3, 3)), t) == pytest.approx(1.0, abs=1e-15)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.ones((2, 2)), np.zeros((2, 2)))


class TestIncoherence:
    def test_all_ones_perfectly_flat(self):
        stats = incoherence(np.ones((6, 6)))
        assert stats.rank == 1
        assert stats.mu_row == pytest.approx(1.0, abs=1e-12)
        assert stats.mu_col == pytest.approx(1.0, abs=1e-12)
        assert stats.mu_uv == pytest.approx(1.0, abs=1e-12)

    def test_single_spike_maximally_coherent(self):
        n = 5
        m = np.zeros((n, n))
        m[2, 3] = 4.0
        stats = incoherence(m)
        assert stats.rank == 1
        assert stats.mu_row == pytest.approx(n, abs=1e-12)
        assert stats.mu_col == pytest.approx(n, abs=1e-12)

    def test_floor_of_one(self):
        rng = stream(13, "incoherence-floor")
        for _ in range(10):
            m = rng.standard_normal((8, 6))
            stats = incoherence(m)
            assert stats.mu_row >= 1.0 - 1e-12
            assert stats.mu_col >= 1.0 - 1e-12
            assert stats.mu_uv >= 1.0 - 1e-12

    def test_rank_two_cross_check_row_loop(self):
        rng = stream(13, "incoherence-rank2")
        m = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 20))
        stats = incoherence(m)
        assert stats.rank == 2
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        u, vt = u[:, :2], vt[:2, :]
        mu_row = max((20 / 2) * float(u[i] @ u[i]) for i in range(20))
        mu_col = max((20 / 2) * float(vt[:, j] @ vt[:, j]) for j in range(20))
        assert stats.mu_row == pytest.approx(mu_row, rel=1e-10)
        assert stats.mu_col == pytest.approx(mu_col, rel=1e-10)

    def test_permutation_invariance(self):
        rng = stream(13, "incoherence-perm")
        m = rng.standard_normal((9, 3)) @ rng.standard_normal((3, 7))
        stats = incoherence(m)
        pr = rng.permutation(9)
        pc = rng.permutation(7)
        permuted = incoherence(m[pr][:, pc])
        assert permuted.mu_row == pytest.approx(stats.mu_row, rel=1e-9)
        assert permuted.mu_col == pytest.approx(stats.mu_col, rel=1e-9)
        assert permuted.mu_uv == pytest.approx(stats.mu_uv, rel=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            incoherence(np.zeros((3, 3)))
