"""Error metrics and incoherence diagnostics."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .matrix import frobenius_norm

__all__ = [
    "ratio_from_errors",
    "relative_error",
    "incoherence",
    "IncoherenceStats",
]

_RANK_REL_CUTOFF = 1e-10  # relative to sigma_max, in incoherence's rank-r SVD


def ratio_from_errors(err_reg: float, err_nnm: float, exact_tol: float = 1e-12) -> float:
    """Ratio of the two recovery errors with an explicit zero-denominator policy.

    Returns ``err_reg / err_nnm`` when the baseline error exceeds
    ``exact_tol``.  Otherwise the division is never performed: NaN marks the
    "both methods exact" outcome (both errors at or below ``exact_tol``),
    and +inf marks a baseline-exact / regularized-inexact trial.  Averaging
    code must treat NaN as "exclude and count", never propagate it.
    """
    if err_nnm > exact_tol:
        return err_reg / err_nnm
    if err_reg <= exact_tol:
        return math.nan
    return math.inf


def relative_error(m_hat: np.ndarray, m_true: np.ndarray) -> float:
    """||m_hat - m_true||_F / ||m_true||_F."""
    m_hat = np.asarray(m_hat, dtype=np.float64)
    m_true = np.asarray(m_true, dtype=np.float64)
    denom = frobenius_norm(m_true)
    if denom == 0.0:
        raise ValueError("relative error is undefined for a zero ground truth")
    return frobenius_norm(m_hat - m_true) / denom


class IncoherenceStats(NamedTuple):
    mu_row: float
    mu_col: float
    mu_uv: float
    rank: int


def incoherence(m: np.ndarray) -> IncoherenceStats:
    """Smallest mu satisfying each standard incoherence condition of ``m``.

    From the rank-r SVD (numerical rank at ``_RANK_REL_CUTOFF * sigma_max``):

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
    r = int(np.sum(s > _RANK_REL_CUTOFF * s[0]))
    u = u[:, :r]
    vt = vt[:r, :]
    n1, n2 = m.shape
    mu_row = n1 / r * float(np.max(np.sum(u**2, axis=1)))
    mu_col = n2 / r * float(np.max(np.sum(vt**2, axis=0)))
    mu_uv = n1 * n2 / r * float(np.max(np.abs(u @ vt))) ** 2
    return IncoherenceStats(mu_row, mu_col, mu_uv, r)
