"""Operator-splitting solvers for the completion formulations.

All five formulations are one objective: a nuclear norm (weight ``r`` in the
noisy forms), a data term on the observed index set O and, where marked, the
entrywise term ``a*||P_Oc(A)||_1`` on its complement Oc.  ``_FORMS`` holds
this table; the objective, the proxes and the parameter checks read it.

==================  ==========================  =======  =============
formulation         data term on O              a on Oc  blocks (A, Z)
==================  ==========================  =======  =============
``nnm-exact``       exact: P_O(A) = P_O(M)      no       svt, entry
``nnm-reg``         exact                       yes      svt, entry
``nnm-noisy``       quad: 0.5*||P_O(M-A)||_F^2  no       entry, svt
``nnm-noisy-reg``   quad                        yes      entry, svt
``rpca-restricted`` l1: a*||P_O(M-A)||_1        yes      svt, entry
==================  ==========================  =======  =============

``rpca-restricted`` is min ||A||_* + a*||S||_1 s.t. A + S = P_O(M); with
S = P_O(M) - A substituted out, ||S||_1 is the L1 data term on O plus the
a-term on Oc.

All five share one engine, a scaled two-block ADMM on the split A = Z
(Boyd et al. 2011, sections 3 and 7) with residual-balanced penalty.  The
balancing stops after ``_MAX_PENALTY_CHANGES`` changes, so the penalty is
eventually fixed, as the convergence theory assumes (Boyd et al. 2011,
section 3.4.1); an uncapped penalty can cycle without end.

The loop is a fixed-point iteration x -> F(x) on the state x = (Z, U), and
its slow linear tail is shortened by safeguarded type-II Anderson
acceleration (Walker & Ni, SIAM J. Numer. Anal. 2011; Zhang, O'Donoghue &
Boyd, SIAM J. Optim. 2020): a step may start at the extrapolated point
F(x) - dF*gamma instead of F(x), with gamma the Tikhonov-regularized
least-squares fit of the step residual g = F(x) - x by the differences dG of
up to ``_ANDERSON_MEMORY`` past steps.  The extrapolated point is only ever
a start: every iteration is one plain ADMM step, and the stopping test, the
residual histories, residual balancing and the returned blocks see only
step outputs, whose residuals certify them whatever the start, so the
stopping rule and the exact observation match hold as without acceleration.
When a step from an extrapolated start leaves a larger fixed-point residual
||(Z+ - Z, A - Z+)|| than the step before, the safeguard discards it: the
next step starts from the plain point the extrapolation replaced and the
history is cleared.  The history is also cleared on every penalty change,
and restarts once full.

One block is singular value thresholding, the other one entrywise step: on O it
overwrites with the observations (exact), blends toward them (quad) or
soft-thresholds the residual (l1); on Oc it soft-thresholds by a/penalty
where the a-term is present.  The supports are disjoint, so the entrywise
prox is closed form.  The svt block goes first unless the fit is quadratic.
A solve returns the svt block, except that the exact forms return the
entrywise block, which matches the observations bit-for-bit; rpca-restricted
also returns ``sparse`` = P_O(M) - Z.  The noisy forms use the quadratic data
fit because the standard weight r = (sqrt(n1)+sqrt(n2))*sqrt(|O|/(n1*n2))*sigma
is an operator-norm estimate of the masked noise, which is exactly the
quadratic form's shrink-to-zero threshold: with the unsquared fit that weight
over-shrinks everything at realistic noise levels.  Solvers are deterministic
(no randomness anywhere) and hold no shared state, so distinct calls may run
concurrently.  They are not single-threaded: the BLAS under svt runs as many
threads as it is configured for (OpenBLAS defaults to one per core).

:func:`oracle_solve` is an independent check for tiny instances: BFGS on
the objective with its kinks smoothed, the smoothing lowered by decades from
1e-1 to 1e-9, each level started from the last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, OracleBudgetError
from .matrix import (
    ObservationMask,
    as_matrix,
    entrywise_l1,
    frobenius_norm,
    nuclear_norm,
    project,
)
from .prox import enforce_observed, prox_obs_fit_quad, soft_threshold, svt

__all__ = [
    "FORMULATIONS",
    "CONVERGED",
    "MAX_ITERS",
    "NUMERICAL_FAILURE",
    "CompletionProblem",
    "SolverConfig",
    "SolveResult",
    "estimate_rank",
    "objective_value",
    "solve",
    "solve_rpca_restricted",
    "oracle_solve",
]

# formulation -> (data term on O, has the alpha-term on Oc)
_FORMS = {
    "nnm-exact": ("exact", False),
    "nnm-reg": ("exact", True),
    "nnm-noisy": ("quad", False),
    "nnm-noisy-reg": ("quad", True),
    "rpca-restricted": ("l1", True),
}
FORMULATIONS = tuple(_FORMS)
NEEDS_ALPHA = frozenset(f for f, (_, reg) in _FORMS.items() if reg)
NEEDS_RHO = frozenset(f for f, (fit, _) in _FORMS.items() if fit == "quad")

CONVERGED = "converged"
MAX_ITERS = "max-iters"
NUMERICAL_FAILURE = "numerical-failure"

# singular values below this (relative to sigma_max) count as zero in rank reports
_RANK_REL_CUTOFF = 1e-6
# residual balancing changes the penalty at most this many times per solve
_MAX_PENALTY_CHANGES = 20
# Anderson acceleration extrapolates from this many past steps (0 turns it off)
_ANDERSON_MEMORY = 3
# Tikhonov weight of the Anderson least squares, relative to its Gram trace
_ANDERSON_REG = 1e-5


@dataclass(frozen=True, eq=False)
class CompletionProblem:
    """Observed data, mask, formulation and its parameters.

    ``alpha`` is required positive for the regularized formulations and
    ignored otherwise; ``rho`` likewise for the noisy ones.  Only the masked
    entries of ``observed_values`` are meaningful.
    """

    observed_values: np.ndarray
    mask: ObservationMask
    formulation: str
    alpha: float = 0.0
    rho: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "observed_values", as_matrix(self.observed_values))
        if self.formulation not in FORMULATIONS:
            raise ValueError(
                f"unknown formulation {self.formulation!r}; expected one of {FORMULATIONS}"
            )
        if self.observed_values.shape != self.mask.shape:
            raise ValueError(
                f"observed values shape {self.observed_values.shape} does not match "
                f"mask shape {self.mask.shape}"
            )
        if self.mask.size == 0:
            raise ValueError("mask must observe at least one entry")
        if self.formulation in NEEDS_ALPHA and not self.alpha > 0.0:
            raise ValueError(f"{self.formulation} requires alpha > 0, got {self.alpha}")
        if self.formulation in NEEDS_RHO and not self.rho > 0.0:
            raise ValueError(f"{self.formulation} requires rho > 0, got {self.rho}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape


@dataclass(frozen=True)
class SolverConfig:
    """ADMM controls.

    Tolerances are absolute on the Frobenius norms of the primal and dual
    residuals, scaled by sqrt(n1*n2).  The penalty starts at
    ``admm_penalty`` and is adapted by residual balancing (x2 / /2 when one
    residual exceeds 10x the other) at most ``_MAX_PENALTY_CHANGES`` (20)
    times per solve; after that it stays fixed.  Anderson acceleration
    (memory ``_ANDERSON_MEMORY`` = 3) is always on and has no field here; it
    changes where a solve starts its steps, not what the tolerances certify.
    """

    max_iters: int = 5000
    primal_tol: float = 1e-6
    dual_tol: float = 1e-6
    admm_penalty: float = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        for name in ("primal_tol", "dual_tol", "admm_penalty"):
            v = getattr(self, name)
            if not v > 0.0:
                raise ValueError(f"{name} must be positive, got {v}")


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Terminal iterate plus convergence diagnostics.

    ``completed`` satisfies the formulation's hard constraint by
    construction where one exists (exact observation match for
    nnm-exact/nnm-reg).  ``sparse`` is populated only for rpca-restricted.
    ``penalty_changes`` counts the times residual balancing changed the
    penalty.  ``iterations`` counts ADMM steps, one svt call each;
    ``accelerated_steps`` of them started from an Anderson-extrapolated
    point, and the safeguard discarded the output of ``rejected_steps`` of
    those (the next step went back to the plain point).  ``_state`` is the
    loop's final (A, Z, U, penalty), from which a later solve may start.
    """

    completed: np.ndarray
    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    status: str
    rank_estimate: int
    penalty_changes: int = 0
    accelerated_steps: int = 0
    rejected_steps: int = 0
    primal_history: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))
    dual_history: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))
    sparse: np.ndarray | None = field(repr=False, default=None)
    _state: tuple | None = field(repr=False, default=None)


def estimate_rank(m: np.ndarray, rel_cutoff: float = _RANK_REL_CUTOFF) -> int:
    """Count singular values above ``rel_cutoff * sigma_max``."""
    s = np.linalg.svd(np.asarray(m, dtype=np.float64), compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > rel_cutoff * s[0]))


def objective_value(
    problem: CompletionProblem,
    completed: np.ndarray,
    sparse: np.ndarray | None = None,
) -> float:
    """Evaluate the formulation's objective at a candidate point."""
    fit, reg = _FORMS[problem.formulation]
    value = nuclear_norm(completed)
    if fit == "l1":
        # ||S||_1 holds both the data term on O and the alpha-term on Oc
        if sparse is None:
            raise ValueError("rpca-restricted objective needs the sparse component")
        return value + problem.alpha * entrywise_l1(sparse)
    if fit == "quad":
        residual = project(problem.observed_values - completed, problem.mask)
        value = 0.5 * frobenius_norm(residual) ** 2 + problem.rho * value
    if reg:
        value = value + problem.alpha * entrywise_l1(project(completed, problem.mask.complement()))
    return value


def _tolerances(cfg: SolverConfig, shape) -> tuple[float, float]:
    scale = float(np.sqrt(shape[0] * shape[1]))
    return cfg.primal_tol * scale, cfg.dual_tol * scale


def _balance_penalty(pen, u, rnorm, snorm, ratio=10.0, factor=2.0):
    """Residual balancing; rescales the scaled dual so y = pen*u is kept."""
    if rnorm > ratio * snorm:
        return pen * factor, u / factor
    if snorm > ratio * rnorm:
        return pen / factor, u * factor
    return pen, u


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _result(problem, completed, status, iterations, rnorm, snorm, rhist, dhist, sparse=None,
            state=None, **counts):
    completed = _freeze(completed)
    if sparse is not None:
        sparse = _freeze(sparse)
    try:
        obj = objective_value(problem, completed, sparse)
        rank = estimate_rank(completed)
    except (NumericalError, np.linalg.LinAlgError):
        status = NUMERICAL_FAILURE
        obj = float("nan")
        rank = -1
    return SolveResult(
        completed=completed,
        objective=obj,
        iterations=iterations,
        primal_residual=rnorm,
        dual_residual=snorm,
        status=status,
        rank_estimate=rank,
        primal_history=_freeze(np.asarray(rhist)),
        dual_history=_freeze(np.asarray(dhist)),
        sparse=sparse,
        _state=state,
        **counts,
    )


def _prox_pair(problem: CompletionProblem, y: np.ndarray):
    """The (A-block, Z-block) prox pair of one formulation, with y = P_O(M).

    Each step maps (point, penalty) to the prox with step 1/penalty: svt,
    and one entrywise step built from the row of ``_FORMS``.
    """
    fit, reg = _FORMS[problem.formulation]
    m, mask, alpha = problem.observed_values, problem.mask, problem.alpha
    weight = problem.rho if fit == "quad" else 1.0
    support = ObservationMask.full(*problem.shape) if fit == "l1" else mask.complement()

    def low_rank(v, pen):
        return svt(v, weight / pen)

    def entrywise(v, pen):
        if fit == "l1":
            return y - soft_threshold(y - v, alpha / pen, support)
        if reg:
            v = soft_threshold(v, alpha / pen, support)
        if fit == "quad":
            return prox_obs_fit_quad(v, m, mask, 1.0 / pen)
        return enforce_observed(v, y, mask)

    return (entrywise, low_rank) if fit == "quad" else (low_rank, entrywise)


class _Anderson:
    """Type-II Anderson extrapolation of the ADMM map F on x = (Z, U).

    Up to ``memory`` differences of the step outputs f = F(x) and step
    residuals g = f - x sit in preallocated buffers, and the Gram matrix of
    the residual differences gains one row and column per step.  The memory
    restarts once full (Zhang, O'Donoghue & Boyd 2020): a rolling window
    carries rounding differences much further, so that the Gram and SVD
    routes of svt ended a 120x120 rpca-restricted solve 3e-9 apart, against
    6e-11 restarted.
    """

    def __init__(self, memory: int, shape):
        self.memory = memory
        self.df = np.empty((memory, 2, *shape))
        self.dg = np.empty((memory, 2, *shape))
        self.gram = np.empty((memory, memory))
        self.reset()

    def clear(self):
        """Drop the differences; the last step stays the reference for the next."""
        self.count = 0

    def reset(self):
        """Forget everything, the last step too (the map changed)."""
        self.clear()
        self.last = None

    def push(self, f, g):
        """Record one step's output ``f`` and residual ``g``, each a (Z, U) pair."""
        if self.last is not None and self.memory:
            if self.count == self.memory:
                self.clear()
            j = self.count
            for buf, new, old in ((self.df, f, self.last[0]), (self.dg, g, self.last[1])):
                np.subtract(new[0], old[0], out=buf[j, 0])
                np.subtract(new[1], old[1], out=buf[j, 1])
            self.count += 1
            flat = self.dg.reshape(self.memory, -1)
            self.gram[j, : j + 1] = self.gram[: j + 1, j] = flat[: j + 1] @ flat[j]
        self.last = (f, g)

    def extrapolate(self):
        """The start f - dF*gamma after the last pushed step; None without a usable history."""
        k = self.count
        if k == 0:
            return None
        f, g = self.last
        system = self.gram[:k, :k].copy()
        reg = _ANDERSON_REG * system.trace()
        if not 0.0 < reg < math.inf:  # no differences, or a non-finite step
            return None
        # positive definite: the Gram matrix is semidefinite and reg > 0
        system.flat[:: k + 1] += reg
        dg = self.dg[:k].reshape(k, 2, -1)
        rhs = dg[:, 0] @ g[0].ravel() + dg[:, 1] @ g[1].ravel()
        gamma = np.linalg.solve(system, rhs)
        step = (gamma @ self.df[:k].reshape(k, -1)).reshape(self.df.shape[1:])
        return f[0] - step[0], f[1] - step[1]


def solve(
    problem: CompletionProblem, cfg: SolverConfig | None = None, *, _start: SolveResult | None = None
) -> SolveResult:
    """Solve any formulation with the scaled two-block ADMM on A = Z.

    Starts from Z = A = P_O(M), U = 0; which block is returned is set out in
    the module docstring, and so is the Anderson acceleration.  For
    rpca-restricted the sparse component rides along on ``result.sparse``.
    ``_start``, a converged result of a problem with the same shape and data
    term, starts the loop from that result's final (A, Z, U, penalty) instead
    (a warm start, with an empty Anderson history); a ``_start`` that did
    not converge is ignored.
    """
    cfg = cfg or SolverConfig()
    y = project(problem.observed_values, problem.mask)
    x_step, z_step = _prox_pair(problem, y)
    if _start is not None and _start.status == CONVERGED:
        a, z, u, pen = _start._state
    else:
        a = z = y
        u = np.zeros_like(z)
        pen = cfg.admm_penalty
    ptol, dtol = _tolerances(cfg, problem.shape)
    anderson = _Anderson(_ANDERSON_MEMORY, problem.shape)
    # the point the next step starts from: (z, u) or an extrapolation of it
    z_in, u_in = z, u
    extrapolated = False
    rhist, dhist = [], []
    status = MAX_ITERS
    it = changes = accelerated = rejected = 0
    rnorm = snorm = gnorm_prev = float("inf")
    try:
        for it in range(1, cfg.max_iters + 1):
            a_new = x_step(z_in - u_in, pen)
            z_new = z_step(a_new + u_in, pen)
            r = a_new - z_new
            dz = z_new - z_in
            a, z, u = a_new, z_new, u_in + r
            snorm = pen * frobenius_norm(dz)
            rnorm = frobenius_norm(r)
            rhist.append(rnorm)
            dhist.append(snorm)
            accelerated += extrapolated
            if rnorm <= ptol and snorm <= dtol:
                status = CONVERGED
                break
            # ||(Z+ - Z, U+ - U)||, the fixed-point residual of this step
            gnorm = math.hypot(snorm / pen, rnorm)
            if extrapolated and gnorm > gnorm_prev:
                # safeguard: go back to the plain point the extrapolation replaced
                rejected += 1
                anderson.clear()
                z_in, u_in = anderson.last[0]
                extrapolated = False
                continue
            anderson.push((z, u), (dz, r))
            gnorm_prev = gnorm
            if changes < _MAX_PENALTY_CHANGES:
                new_pen, u = _balance_penalty(pen, u, rnorm, snorm)
                if new_pen != pen:
                    changes += 1
                    pen = new_pen
                    anderson.reset()
            point = anderson.extrapolate()
            extrapolated = point is not None
            z_in, u_in = point if extrapolated else (z, u)
    except NumericalError:
        status = NUMERICAL_FAILURE
    fit = _FORMS[problem.formulation][0]
    low_rank, entrywise = (z, a) if fit == "quad" else (a, z)
    completed = entrywise if fit == "exact" else low_rank
    sparse = y - entrywise if fit == "l1" else None
    return _result(problem, completed, status, it, rnorm, snorm, rhist, dhist, sparse,
                   (a, z, u, pen), penalty_changes=changes, accelerated_steps=accelerated,
                   rejected_steps=rejected)


def solve_rpca_restricted(
    problem: CompletionProblem, cfg: SolverConfig | None = None
) -> tuple[SolveResult, np.ndarray]:
    """Decompose the zero-filled observations into low-rank plus sparse parts.

    Returns the low-rank solve result and the sparse component; their sum
    matches the zero-filled observation matrix within the primal tolerance.
    """
    if problem.formulation != "rpca-restricted":
        raise ValueError(f"expected formulation rpca-restricted, got {problem.formulation!r}")
    result = solve(problem, cfg)
    return result, result.sparse


# ---------------------------------------------------------------------------
# reference oracle
# ---------------------------------------------------------------------------

_ORACLE_MAX_FREE = 16
# smoothing levels of the continuation, each started from the last minimizer
_ORACLE_SMOOTHING = tuple(10.0 ** -k for k in range(1, 10))


def _smoothed_objective(problem: CompletionProblem, free: np.ndarray, mu: float):
    """The objective with each kink smoothed by ``mu``, on the free entries.

    ||A||_* becomes sum(sqrt(sigma^2 + mu^2)) and |x| becomes
    sqrt(x^2 + mu^2), each within ``mu`` per term of the exact one.  The
    entries outside ``free`` stay at P_O(M).  Returns x -> (value, gradient);
    the nuclear term's gradient is U*diag(sigma/sqrt(sigma^2 + mu^2))*V^T.
    """
    fit, reg = _FORMS[problem.formulation]
    y = project(problem.observed_values, problem.mask)
    observed = problem.mask.lookup
    weight = problem.rho if fit == "quad" else 1.0
    # where alpha*|A - y| is charged: y = 0 on Oc, so reg charges alpha*|A| there
    l1 = None
    if fit == "l1":
        l1 = np.ones_like(observed)
    elif reg:
        l1 = ~observed

    def fun(x):
        a = y.copy()
        a[free] = x
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        root = np.sqrt(s * s + mu * mu)
        value = weight * root.sum()
        grad = weight * (u * (s / root)) @ vt
        if fit == "quad":
            r = np.where(observed, a - y, 0.0)
            value += 0.5 * (r * r).sum()
            grad += r
        if l1 is not None:
            d = np.where(l1, a - y, 0.0)
            root = np.sqrt(d * d + mu * mu)
            value += problem.alpha * root[l1].sum()
            grad += problem.alpha * d / root
        return value, grad[free]

    return fun


def oracle_solve(
    problem: CompletionProblem,
    *,
    starts: int | None = None,
    polish_restarts: int | None = None,
    nm_maxfev: int | None = None,
) -> SolveResult:
    """Reference minimizer for tiny instances, independent of the ADMM path.

    The free entries are the unobserved ones for the exact data fit and all
    entries otherwise, at most 16 of them (:class:`OracleBudgetError`
    beyond).  BFGS minimizes the smoothed objective of
    :func:`_smoothed_objective` at smoothing 1e-1, 1e-2, ..., 1e-9, starting
    from P_O(M) and each level from the previous level's minimizer
    (continuation: Nesterov, Math. Program. 2005; Beck & Teboulle, SIAM J.
    Optim. 2012).  Only ``np.linalg.svd`` and scipy run, none of the ADMM
    proxes.  The result reports the exact objective and, as ``iterations``,
    the objective evaluations.  ``starts``, ``polish_restarts`` and
    ``nm_maxfev`` tuned an earlier search; they are still accepted and no
    longer change the result.
    """
    import scipy.optimize  # only the oracle needs it; keeps it out of CLI start-up

    del starts, polish_restarts, nm_maxfev
    fit = _FORMS[problem.formulation][0]
    y = project(problem.observed_values, problem.mask)
    free = ~problem.mask.lookup if fit == "exact" else np.ones(problem.shape, dtype=bool)
    n_free = int(free.sum())
    if n_free > _ORACLE_MAX_FREE:
        raise OracleBudgetError(
            f"{n_free} free entries exceed the oracle budget of {_ORACLE_MAX_FREE}"
        )
    completed = y.copy()
    evals = 0
    if n_free:
        x = y[free]
        for mu in _ORACLE_SMOOTHING:
            res = scipy.optimize.minimize(_smoothed_objective(problem, free, mu), x, jac=True,
                                          method="BFGS", options={"gtol": 1e-10})
            x, evals = res.x, evals + res.nfev
        completed[free] = x
    sparse = y - completed if fit == "l1" else None
    return _result(problem, completed, CONVERGED, evals, 0.0, 0.0, [], [], sparse=sparse)
