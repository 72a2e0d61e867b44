"""Dense matrices, observation masks, the norms used throughout, and the
relative error and incoherence diagnostics built on them.

Matrices are plain float64 numpy arrays; :func:`as_matrix` is the validating
constructor (finite entries, positive dims) and freezes the result read-only
so validated payloads can be shared across threads without copies.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NumericalError

__all__ = [
    "as_matrix",
    "ObservationMask",
    "project",
    "nuclear_norm",
    "incoherence",
    "frobenius_norm",
    "relative_error",
    "entrywise_l1",
]

_INCOHERENCE_RANK_CUTOFF = 1e-10  # relative to sigma_max, in incoherence's rank-r SVD


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


class IncoherenceStats(NamedTuple):
    mu_row: float
    mu_col: float
    mu_uv: float
    rank: int


def incoherence(m: np.ndarray) -> IncoherenceStats:
    """Smallest mu satisfying each standard incoherence condition of ``m``.

    From the rank-r SVD (numerical rank at ``_INCOHERENCE_RANK_CUTOFF * sigma_max``):

    * mu_row = (n1/r) * max_i ||U^T e_i||^2
    * mu_col = (n2/r) * max_i ||V^T e_i||^2
    * mu_uv  = (n1*n2/r) * ||U V^T||_inf^2

    All three are >= 1 for any nonzero matrix.
    """
    m = np.asarray(m, dtype=np.float64)
    if not np.any(m):
        raise ValueError("incoherence is undefined for the zero matrix")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed while computing incoherence: {exc}") from exc
    r = int(np.sum(s > _INCOHERENCE_RANK_CUTOFF * s[0]))
    u = u[:, :r]
    vt = vt[:r, :]
    n1, n2 = m.shape
    mu_row = n1 / r * float(np.max(np.sum(u**2, axis=1)))
    mu_col = n2 / r * float(np.max(np.sum(vt**2, axis=0)))
    mu_uv = n1 * n2 / r * float(np.max(np.abs(u @ vt))) ** 2
    return IncoherenceStats(mu_row, mu_col, mu_uv, r)


def frobenius_norm(m: np.ndarray) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(m, dtype=np.float64), "fro"))


def relative_error(m_hat: np.ndarray, m_true: np.ndarray) -> float:
    """||m_hat - m_true||_F / ||m_true||_F."""
    m_hat = np.asarray(m_hat, dtype=np.float64)
    m_true = np.asarray(m_true, dtype=np.float64)
    denom = frobenius_norm(m_true)
    if denom == 0.0:
        raise ValueError("relative error is undefined for a zero ground truth")
    return frobenius_norm(m_hat - m_true) / denom


def entrywise_l1(m: np.ndarray) -> float:
    """Sum of absolute entries."""
    return float(np.abs(np.asarray(m, dtype=np.float64)).sum())
