import numpy as np
import pytest

from structmc import (
    ObservationMask,
    as_matrix,
    entrywise_l1,
    frobenius_norm,
    nuclear_norm,
    project,
    stream,
)
from structmc.errors import DimensionMismatchError

from masks import mask_of


class TestAsMatrix:
    def test_basic_construction(self):
        a = as_matrix([[1, 2], [3, 4]])
        assert a.shape == (2, 2)
        assert a.dtype == np.float64
        assert not a.flags.writeable

    def test_copies_input(self):
        src = np.ones((2, 2))
        a = as_matrix(src)
        src[0, 0] = 7.0
        assert a[0, 0] == 1.0

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])
        with pytest.raises(ValueError):
            as_matrix(np.ones((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.ones((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 1.0]])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, 2.0], [3.0]])


class TestObservationMask:
    def test_indices_roundtrip(self):
        mask = mask_of((2, 3), [(0, 0), (1, 2), (0, 2)])
        assert mask.size == 3
        assert mask.indices() == [(0, 0), (0, 2), (1, 2)]  # row-major
        assert mask.lookup[0, 0] and not mask.lookup[1, 0]

    def test_complement_is_exact_partition(self):
        mask = mask_of((2, 2), [(0, 0)])
        comp = mask.complement()
        assert comp.indices() == [(0, 1), (1, 0), (1, 1)]
        assert mask.size + comp.size == 4
        assert not np.any(mask.lookup & comp.lookup)

    def test_complement_involution(self):
        rng = stream(11, "mask-involution")
        mask = ObservationMask.from_lookup(rng.random((5, 7)) < 0.4)
        assert mask.complement().complement() == mask

    def test_full_and_empty(self):
        empty = ObservationMask.from_lookup(np.zeros((2, 2), dtype=bool))
        assert ObservationMask.full(2, 2).complement() == empty
        assert empty.complement() == ObservationMask.full(2, 2)
        assert empty.size == 0 and empty.shape == (2, 2)

    def test_lookup_read_only(self):
        mask = ObservationMask.full(2, 2)
        with pytest.raises(ValueError):
            mask.lookup[0, 0] = False


class TestProject:
    def test_keeps_observed_zeroes_rest(self):
        m = as_matrix([[1, 2], [3, 4]])
        mask = mask_of((2, 2), [(0, 0), (1, 1)])
        np.testing.assert_array_equal(project(m, mask), [[1, 0], [0, 4]])

    def test_full_mask_is_identity(self):
        rng = stream(3, "project-full")
        m = rng.standard_normal((4, 5))
        np.testing.assert_array_equal(project(m, ObservationMask.full(4, 5)), m)

    def test_empty_mask_annihilates(self):
        rng = stream(3, "project-empty")
        m = rng.standard_normal((4, 5))
        empty = ObservationMask.from_lookup(np.zeros((4, 5), dtype=bool))
        np.testing.assert_array_equal(project(m, empty), np.zeros((4, 5)))

    def test_idempotent(self):
        rng = stream(5, "project-idem")
        for _ in range(10):
            m = rng.standard_normal((6, 4))
            mask = ObservationMask.from_lookup(rng.random((6, 4)) < 0.5)
            once = project(m, mask)
            np.testing.assert_array_equal(project(once, mask), once)

    def test_split_reassembles_exactly(self):
        rng = stream(5, "project-split")
        for _ in range(10):
            m = rng.standard_normal((5, 5))
            mask = ObservationMask.from_lookup(rng.random((5, 5)) < 0.3)
            np.testing.assert_array_equal(project(m, mask) + project(m, mask.complement()), m)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            project(np.ones((2, 3)), ObservationMask.full(3, 2))


class TestNorms:
    def test_nuclear_diagonal(self):
        assert nuclear_norm(np.diag([3.0, 1.0])) == pytest.approx(4.0, abs=1e-12)

    def test_nuclear_zero(self):
        assert nuclear_norm(np.zeros((3, 3))) == 0.0

    def test_nuclear_rank_one_ones(self):
        # rank-1: the only singular value is ||u||*||v|| = 2
        assert nuclear_norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-12)

    def test_frobenius_345(self):
        assert frobenius_norm([[3.0, 4.0], [0.0, 0.0]]) == pytest.approx(5.0, abs=1e-12)
        assert frobenius_norm(np.zeros((2, 2))) == 0.0
        assert frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_entrywise_l1(self):
        assert entrywise_l1([[1.0, -2.0], [0.0, 3.0]]) == 6.0
        assert entrywise_l1(np.zeros((2, 2))) == 0.0
        assert entrywise_l1(np.ones((4, 4))) == 16.0

    def test_norm_ordering(self):
        rng = stream(9, "norm-ordering")
        for _ in range(20):
            m = rng.standard_normal((5, 6))
            assert nuclear_norm(m) >= frobenius_norm(m) >= float(np.abs(m).max())

    def test_nuclear_orthogonal_invariance(self):
        rng = stream(9, "orth-invariance")
        for _ in range(5):
            m = rng.standard_normal((6, 6))
            q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            a = nuclear_norm(m)
            b = nuclear_norm(q1 @ m @ q2)
            assert abs(a - b) <= 1e-10 * a
