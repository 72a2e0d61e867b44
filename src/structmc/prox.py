"""Proximal operators composed by the splitting solvers.

Each function evaluates, in closed form, ``argmin_X  tau*h(X) + 0.5*||X - m||_F^2``
for one of the penalties appearing in the completion objectives:

* :func:`svt`            h = nuclear norm (singular value thresholding)
* :func:`soft_threshold` h = entrywise L1 restricted to a support mask
* :func:`prox_obs_fit_quad` h = half the squared Frobenius distance to the observed block
* :func:`enforce_observed` h = indicator of the observation constraint

All are pure functions of their inputs and firmly nonexpansive.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .matrix import ObservationMask, _check_shape

__all__ = ["svt", "soft_threshold", "prox_obs_fit_quad", "enforce_observed"]


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return tau


def svt(m: np.ndarray, tau: float) -> np.ndarray:
    """Shrink every singular value by ``tau`` and clamp at zero.

    Returns U * max(S - tau, 0) * V^T, the prox of ``tau*||.||_*`` at ``m``.
    Uses a full (non-truncated) SVD; matrices in scope are small enough that
    correctness beats speed.
    """
    tau = _check_tau(tau)
    m = np.asarray(m, dtype=np.float64)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed inside singular value thresholding: {exc}") from exc
    return (u * np.maximum(s - tau, 0.0)) @ vt


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
