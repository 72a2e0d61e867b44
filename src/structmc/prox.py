"""Proximal operators composed by the splitting solvers.

Each function evaluates, in closed form, ``argmin_X  tau*h(X) + 0.5*||X - m||_F^2``
for one of the penalties appearing in the completion objectives:

* :func:`svt`            h = nuclear norm (singular value thresholding)
* :func:`soft_threshold` h = entrywise L1 restricted to a support mask
* :func:`prox_obs_fit_quad` h = half the squared Frobenius distance to the observed block
* :func:`enforce_observed` h = indicator of the observation constraint

All are pure functions of their inputs and firmly nonexpansive.

:func:`svt` thresholds from the eigendecomposition of the smaller Gram
matrix at every size and falls back to a full SVD only when tau is tiny
against the largest singular value; its docstring gives the guard and the
accuracy bound.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .matrix import ObservationMask, _check_shape

__all__ = ["svt", "soft_threshold", "prox_obs_fit_quad", "enforce_observed"]


# svt works on the Gram matrix at every size, but squaring costs accuracy as
# tau/sigma_1 shrinks: against the SVD the error grows like eps*sigma_1^2/tau,
# up to 8e-11*sigma_1 (Frobenius) at this ratio on spectra spread over nine
# decades, so below it svt takes the full SVD
_GRAM_MIN_REL_TAU = 1e-6


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return tau


def svt(m: np.ndarray, tau: float) -> np.ndarray:
    """Shrink every singular value by ``tau`` and clamp at zero.

    Returns U * max(S - tau, 0) * V^T, the prox of ``tau*||.||_*`` at ``m``.
    At every size, V and S^2 come from ``eigh`` of the smaller Gram matrix,
    only the k eigenvalues above tau^2 are kept, and the result is
    (m V_k) * (1 - tau/S_k) * V_k^T, which matches the SVD to within
    1e-10 * sigma_1 for tau >= ``_GRAM_MIN_REL_TAU`` * sigma_1; a smaller
    tau takes a full SVD.  Raises :class:`NumericalError` when either
    decomposition fails or yields non-finite values.
    """
    tau = _check_tau(tau)
    m = np.asarray(m, dtype=np.float64)
    wide = m.shape[0] < m.shape[1]
    out = _svt_gram(m.T if wide else m, tau)
    if out is not None:
        return out.T if wide else out
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed inside singular value thresholding: {exc}") from exc
    return (u * np.maximum(s - tau, 0.0)) @ vt


def _svt_gram(m: np.ndarray, tau: float) -> np.ndarray | None:
    """svt of a tall ``m`` from ``eigh(m^T m)``; None when tau is too small for it."""
    try:
        w, v = np.linalg.eigh(m.T @ m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigh failed inside singular value thresholding: {exc}") from exc
    # eigh returns NaN where the SVD would raise, so check here
    if not np.isfinite(w).all():
        raise NumericalError("non-finite eigenvalue inside singular value thresholding")
    if tau < _GRAM_MIN_REL_TAU * np.sqrt(w.max(initial=0.0)):
        return None
    keep = w > tau * tau
    v = v[:, keep]
    return ((m @ v) * (1.0 - tau / np.sqrt(w[keep]))) @ v.T


def soft_threshold(m: np.ndarray, tau: float, support: ObservationMask) -> np.ndarray:
    """Entrywise shrinkage x -> sign(x)*max(|x|-tau, 0) inside ``support``.

    Entries outside the support pass through unchanged, so this is the prox
    of ``tau*||P_support(.)||_1``.
    """
    tau = _check_tau(tau)
    m = np.asarray(m, dtype=np.float64)
    _check_shape(m, support)
    shrunk = np.sign(m) * np.maximum(np.abs(m) - tau, 0.0)
    return np.where(support.lookup, shrunk, m)


def prox_obs_fit_quad(
    m: np.ndarray,
    observed_values: np.ndarray,
    mask: ObservationMask,
    tau: float,
) -> np.ndarray:
    """Prox of ``tau * 0.5*||P_mask(observed_values - .)||_F^2`` (quadratic fit).

    Entrywise convex blend toward the observations inside the mask,
    (m + tau*y) / (1 + tau); entries outside the mask are untouched.
    """
    tau = _check_tau(tau)
    m = np.asarray(m, dtype=np.float64)
    observed_values = np.asarray(observed_values, dtype=np.float64)
    _check_shape(m, mask)
    _check_shape(observed_values, mask)
    blended = (m + tau * observed_values) / (1.0 + tau)
    return np.where(mask.lookup, blended, m)


def enforce_observed(
    m: np.ndarray,
    observed_values: np.ndarray,
    mask: ObservationMask,
) -> np.ndarray:
    """Overwrite masked entries with the observations, keep the rest of ``m``."""
    m = np.asarray(m, dtype=np.float64)
    observed_values = np.asarray(observed_values, dtype=np.float64)
    _check_shape(m, mask)
    _check_shape(observed_values, mask)
    return np.where(mask.lookup, observed_values, m)
