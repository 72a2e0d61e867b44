"""Dense matrices, observation masks, and the norms used throughout.

Matrices are plain float64 numpy arrays; :func:`as_matrix` is the validating
constructor (finite entries, positive dims) and freezes the result read-only
so validated payloads can be shared across threads without copies.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionMismatchError, NumericalError

__all__ = [
    "as_matrix",
    "ObservationMask",
    "project",
    "nuclear_norm",
    "frobenius_norm",
    "entrywise_l1",
]


def as_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a frozen float64 2-D array with finite entries.

    Raises ValueError for ragged input, empty dimensions, or NaN/Inf entries.
    Validation happens here, at ingestion, so the solvers never feed a
    non-finite matrix to an SVD.
    """
    a = np.array(values, dtype=np.float64, order="C")
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {a.ndim}-D input")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    a.setflags(write=False)
    return a


class ObservationMask:
    """The set of observed (row, col) index pairs of an n1 x n2 matrix.

    Stored as a same-shape, read-only boolean lookup table, True where
    observed.  Instances are immutable.
    """

    def __init__(self, rows: int, cols: int, observed) -> None:
        rows = operator.index(rows)
        cols = operator.index(cols)
        if rows < 1 or cols < 1:
            raise ValueError(f"mask dimensions must be positive, got ({rows}, {cols})")
        idx = _index_pairs(observed)
        i, j = idx[:, 0], idx[:, 1]
        outside = np.asarray((i < 0) | (i >= rows) | (j < 0) | (j >= cols), dtype=bool)
        flat = np.where(outside, -1, i * cols + j).astype(np.intp)
        repeat = ~outside
        repeat[np.unique(flat, return_index=True)[1]] = False
        bad = np.flatnonzero(outside | repeat)
        if bad.size:
            k = bad[0]
            pair = f"({int(i[k])}, {int(j[k])})"
            if outside[k]:
                raise ValueError(f"index {pair} outside a {rows}x{cols} mask")
            raise ValueError(f"duplicate index pair {pair}")
        lookup = np.zeros(rows * cols, dtype=bool)
        lookup[flat] = True
        self._lookup = lookup.reshape(rows, cols)
        self._lookup.setflags(write=False)

    @classmethod
    def from_lookup(cls, keep) -> "ObservationMask":
        """Build a mask from a boolean array (True = observed)."""
        keep = np.asarray(keep)
        if keep.ndim != 2 or keep.dtype != np.bool_:
            raise ValueError("lookup must be a 2-D boolean array")
        mask = cls.__new__(cls)
        mask._lookup = keep.copy()
        mask._lookup.setflags(write=False)
        return mask

    @classmethod
    def full(cls, rows: int, cols: int) -> "ObservationMask":
        return cls.from_lookup(np.ones((rows, cols), dtype=bool))

    @property
    def shape(self) -> tuple[int, int]:
        return self._lookup.shape

    @property
    def lookup(self) -> np.ndarray:
        """Read-only boolean table, True where observed."""
        return self._lookup

    @property
    def size(self) -> int:
        """Number of observed entries, |Omega|."""
        return int(self._lookup.sum())

    def indices(self) -> list[tuple[int, int]]:
        """Observed pairs in row-major order."""
        return [(int(i), int(j)) for i, j in np.argwhere(self._lookup)]

    def complement(self) -> "ObservationMask":
        """Mask of the unobserved entries; involutive."""
        return ObservationMask.from_lookup(~self._lookup)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObservationMask):
            return NotImplemented
        return bool(np.array_equal(self._lookup, other._lookup))

    def __repr__(self) -> str:
        return f"ObservationMask({self.shape[0]}x{self.shape[1]}, observed={self.size})"


def _index_pairs(observed) -> np.ndarray:
    """The (n, 2) integer array of the index pairs ``observed``.

    Signed-integer arrays and sequences of int pairs convert in one step; any
    other input goes pair by pair through ``operator.index``, which raises
    TypeError for a non-integer index, into an array of Python ints, which
    also holds indices too large for int64.
    """
    if not isinstance(observed, np.ndarray):
        observed = list(observed)
    try:
        idx = np.asarray(observed)
    except ValueError:  # ragged
        idx = None
    if idx is not None and idx.dtype.kind == "i" and idx.ndim == 2 and idx.shape[1] == 2:
        return idx.astype(np.int64, copy=False)
    idx = np.array([(operator.index(i), operator.index(j)) for i, j in observed], dtype=object)
    return idx.reshape(-1, 2)


def _check_shape(m: np.ndarray, mask: ObservationMask) -> None:
    if m.shape != mask.shape:
        raise DimensionMismatchError(
            f"matrix shape {m.shape} does not match mask shape {mask.shape}"
        )


def project(m: np.ndarray, mask: ObservationMask) -> np.ndarray:
    """Keep entries inside the mask, zero the rest (the sampling projector)."""
    m = np.asarray(m, dtype=np.float64)
    _check_shape(m, mask)
    return np.where(mask.lookup, m, 0.0)


def nuclear_norm(m: np.ndarray) -> float:
    """Sum of singular values, from a full SVD."""
    try:
        s = np.linalg.svd(np.asarray(m, dtype=np.float64), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed while computing the nuclear norm: {exc}") from exc
    return float(s.sum())


def frobenius_norm(m: np.ndarray) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(m, dtype=np.float64), "fro"))


def entrywise_l1(m: np.ndarray) -> float:
    """Sum of absolute entries."""
    return float(np.abs(np.asarray(m, dtype=np.float64)).sum())
