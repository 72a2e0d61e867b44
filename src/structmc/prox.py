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
accuracy bound.  ``_svt_warm`` is the same prox started from a warm right
singular block, for a solver that thresholds one slowly changing iterate
after another: one subspace step instead of the Gram ``eigh``, inexact, and
svt itself whenever it has no block or its block may be too small.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh

from .errors import NumericalError
from .matrix import ObservationMask, _check_shape

__all__ = ["svt", "soft_threshold", "prox_obs_fit_quad", "enforce_observed"]


# svt works on the Gram matrix at every size, but squaring costs accuracy as
# tau/sigma_1 shrinks: against the SVD the error grows like eps*sigma_1^2/tau,
# up to 8e-11*sigma_1 (Frobenius) at this ratio on spectra spread over nine
# decades, so below it svt takes the full SVD
_GRAM_MIN_REL_TAU = 1e-6
# the warm block holds the kept right singular vectors plus this many more; a
# block wider than _WARM_MAX_SHARE of the columns goes to the Gram route, since
# at about half of them one warm step costs one Gram eigh (n = 60, 100, 200)
_WARM_EXTRA, _WARM_MAX_SHARE = 5, 0.5


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
    return _svt_warm(m, tau, None)[0]


def _svt_warm(m: np.ndarray, tau: float, block: np.ndarray | None):
    """svt(m, tau) from a warm right singular block; returns (result, next block).

    ``block`` holds orthonormal columns that should span the right singular
    vectors of the tall orientation of ``m`` (``m.T`` when ``m`` is wide)
    that survive the threshold, as the block returned by the previous call
    on a matrix of the same shape does.  One subspace step (Halko, Martinsson
    & Tropp, SIAM Rev. 2011) thresholds the Ritz values of ``qr(m V)^T m``.
    It is inexact: inside whole ADMM solves at n = 40 and 200 a warm result
    was up to 2.2e-2 * sigma_1 (Frobenius) from svt's.  When ``block`` is
    None, wider than ``_WARM_MAX_SHARE`` of the columns, or its smallest
    Ritz value is above tau (the block may miss a singular value that
    survives), the result is svt's exactly.  The next block holds the kept
    right singular vectors plus ``_WARM_EXTRA`` more.
    """
    tau = _check_tau(tau)
    m = np.asarray(m, dtype=np.float64)
    wide = m.shape[0] < m.shape[1]
    t = m.T if wide else m
    got = None
    if block is not None and block.shape[1] <= _WARM_MAX_SHARE * t.shape[1]:
        got = _subspace_step(t, tau, block)
    if got is None:
        got = _svt_gram(t, tau)
    if got is None:
        try:
            u, s, vt = np.linalg.svd(m, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD failed inside singular value thresholding: {exc}") from exc
        right = u if wide else vt.T  # the right singular vectors of t
        k = np.count_nonzero(s > tau)
        return (u * np.maximum(s - tau, 0.0)) @ vt, right[:, : k + _WARM_EXTRA]
    out, block = got
    return (out.T if wide else out), block


def _subspace_step(t: np.ndarray, tau: float, block: np.ndarray):
    """The warm step on a tall ``t``: (result, next block), or None when the block is too small."""
    # a non-finite entry of t leaves its row of y non-finite, and is reported
    # as such rather than as the warning of an inf * 0 inside the product
    with np.errstate(invalid="ignore"):
        y = t @ block
    if not np.isfinite(y).all():
        raise NumericalError("non-finite value inside singular value thresholding")
    try:
        q, _ = np.linalg.qr(y)
        ub, s, vt = np.linalg.svd(q.T @ t, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed inside singular value thresholding: {exc}") from exc
    if s.min(initial=np.inf) > tau:
        return None
    k = np.count_nonzero(s > tau)
    return ((q @ ub[:, :k]) * (s[:k] - tau)) @ vt[:k], vt[: k + _WARM_EXTRA].T


def _svt_gram(m: np.ndarray, tau: float):
    """svt of a tall ``m`` from ``eigh(m^T m)``, and the next warm block; None when tau is too small."""
    # the gufunc under np.linalg.eigh, without its wrapper (about 5 us of a
    # 30x30 call); a failed or non-finite decomposition shows as NaN
    with np.errstate(all="ignore"):
        w, v = _eigh(m.T @ m)
    if not np.isfinite(w).all():
        raise NumericalError("non-finite eigenvalue inside singular value thresholding")
    # eigh sorts ascending: the largest is last, and the k kept columns and
    # the next few are the last ones
    if w.size and tau * tau < _GRAM_MIN_REL_TAU**2 * w[-1]:
        return None
    cut = int(w.searchsorted(tau * tau, side="right"))
    kept = v[:, cut:]
    scaled = m @ kept
    scaled *= 1.0 - tau / np.sqrt(w[cut:])
    return scaled @ kept.T, v[:, max(cut - _WARM_EXTRA, 0):]


def soft_threshold(m: np.ndarray, tau: float, support: ObservationMask) -> np.ndarray:
    """Entrywise shrinkage x -> sign(x)*max(|x|-tau, 0) inside ``support``.

    Entries outside the support pass through unchanged, so this is the prox
    of ``tau*||P_support(.)||_1``.
    """
    tau = _check_tau(tau)
    m = np.asarray(m, dtype=np.float64)
    _check_shape(m, support)
    shrunk = np.abs(m)
    shrunk -= tau
    np.maximum(shrunk, 0.0, out=shrunk)
    return np.where(support.lookup, np.copysign(shrunk, m, out=shrunk), m)


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
    blended = tau * observed_values
    np.add(m, blended, out=blended)
    blended /= 1.0 + tau
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
