"""Dense matrices, observation masks, and the norms used throughout.

Matrices are plain float64 numpy arrays; :func:`as_matrix` is the validating
constructor (finite entries, positive dims) and freezes the result read-only
so validated payloads can be shared across threads without copies.
"""

from __future__ import annotations

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
    """The observed entries of an n1 x n2 matrix.

    Built from, and stored as, a copy of a same-shape boolean lookup table,
    True where observed, frozen read-only.  Instances are immutable.
    """

    def __init__(self, keep) -> None:
        keep = np.asarray(keep)
        if keep.ndim != 2 or keep.dtype != np.bool_:
            raise ValueError("lookup must be a 2-D boolean array")
        self._lookup = keep.copy()
        self._lookup.setflags(write=False)

    @classmethod
    def from_lookup(cls, keep) -> "ObservationMask":
        """Build a mask from a boolean array (True = observed)."""
        return cls(keep)

    @classmethod
    def full(cls, rows: int, cols: int) -> "ObservationMask":
        return cls(np.ones((rows, cols), dtype=bool))

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

    def complement(self) -> "ObservationMask":
        """Mask of the unobserved entries; involutive."""
        return ObservationMask(~self._lookup)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObservationMask):
            return NotImplemented
        return bool(np.array_equal(self._lookup, other._lookup))

    def __repr__(self) -> str:
        return f"ObservationMask({self.shape[0]}x{self.shape[1]}, observed={self.size})"


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
