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
section 3.4.1); an uncapped penalty can cycle without end.  One
block is singular value thresholding, the other one entrywise step: on O it
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

:func:`oracle_solve` is an independent brute-force check for tiny
instances: dense grid search when at most two entries are free, otherwise a
restarted multi-start Nelder-Mead polytope search.
"""

from __future__ import annotations

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
    times per solve; after that it stays fixed.
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
    penalty.  ``_state`` is the loop's final (A, Z, U, penalty), from which
    a later solve may start.
    """

    completed: np.ndarray
    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    status: str
    rank_estimate: int
    penalty_changes: int = 0
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
            penalty_changes=0, state=None):
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
        penalty_changes=penalty_changes,
        primal_history=_freeze(np.asarray(rhist)),
        dual_history=_freeze(np.asarray(dhist)),
        sparse=sparse,
        _state=state,
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


def solve(
    problem: CompletionProblem, cfg: SolverConfig | None = None, *, _start: SolveResult | None = None
) -> SolveResult:
    """Solve any formulation with the scaled two-block ADMM on A = Z.

    Starts from Z = A = P_O(M), U = 0; which block is returned is set out in
    the module docstring.  For rpca-restricted the sparse component rides
    along on ``result.sparse``.  ``_start``, a converged result of a problem
    with the same shape and data term, starts the loop from that result's
    final (A, Z, U, penalty) instead (a warm start); a ``_start`` that did
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
    rhist, dhist = [], []
    status = MAX_ITERS
    it = changes = 0
    rnorm = snorm = float("inf")
    try:
        for it in range(1, cfg.max_iters + 1):
            a = x_step(z - u, pen)
            z_new = z_step(a + u, pen)
            r = a - z_new
            snorm = pen * frobenius_norm(z - z_new)
            rnorm = frobenius_norm(r)
            u = u + r
            z = z_new
            rhist.append(rnorm)
            dhist.append(snorm)
            if rnorm <= ptol and snorm <= dtol:
                status = CONVERGED
                break
            if changes < _MAX_PENALTY_CHANGES:
                new_pen, u = _balance_penalty(pen, u, rnorm, snorm)
                changes += new_pen != pen
                pen = new_pen
    except NumericalError:
        status = NUMERICAL_FAILURE
    fit = _FORMS[problem.formulation][0]
    low_rank, entrywise = (z, a) if fit == "quad" else (a, z)
    completed = entrywise if fit == "exact" else low_rank
    sparse = y - entrywise if fit == "l1" else None
    return _result(problem, completed, status, it, rnorm, snorm, rhist, dhist, sparse, changes,
                   (a, z, u, pen))


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
# brute-force oracle
# ---------------------------------------------------------------------------

_ORACLE_MAX_FREE = 16
_GRID_MAX_FREE = 2


def _oracle_objective(problem: CompletionProblem):
    """Objective as a function of the free entries, constraints eliminated.

    For the exactly-constrained formulations the observed entries are pinned
    and only the unobserved ones vary; for rpca-restricted the sparse block
    is substituted out via S = P_O(M) - A.  Returns (fun, fun_batch, pack,
    n_free) where pack maps a free-entry vector to the full candidate matrix,
    fun evaluates one vector on its matrix directly and fun_batch evaluates
    a (N, n_free) stack at once.  The search evaluates the objective tens of
    thousands of times, so masks and projections are precomputed here rather
    than inside the closures.
    """
    y = project(problem.observed_values, problem.mask)
    lookup = problem.mask.lookup
    unobserved = ~lookup
    alpha, rho = problem.alpha, problem.rho
    shape = problem.shape
    # bound once; each objective below takes one matrix or an (N, r, c) stack
    svdvals = np.linalg.svd

    if problem.formulation in ("nnm-exact", "nnm-reg"):
        free = np.argwhere(unobserved)
        rows_idx, cols_idx = free[:, 0], free[:, 1]

        def pack(x):
            a = y.copy()
            if len(free):
                a[rows_idx, cols_idx] = x
            return a

        def pack_batch(xs):
            a = np.broadcast_to(y, (len(xs), *shape)).copy()
            a[:, rows_idx, cols_idx] = xs
            return a

        def objective(a, xs):
            vals = svdvals(a, compute_uv=False).sum(axis=-1)
            if problem.formulation == "nnm-reg":
                vals = vals + alpha * np.abs(xs).sum(axis=-1)
            return vals

        def fun_batch(xs):
            return objective(pack_batch(xs), xs)

        def fun(x):
            return float(objective(pack(x), x))

        return fun, fun_batch, pack, len(free)

    def pack(x):
        return np.asarray(x, dtype=np.float64).reshape(shape)

    def pack_batch(xs):
        return np.asarray(xs, dtype=np.float64).reshape(len(xs), *shape)

    entries = (-2, -1)
    if problem.formulation == "rpca-restricted":

        def objective(a):
            nuc = svdvals(a, compute_uv=False).sum(axis=-1)
            return nuc + alpha * np.abs(y - a).sum(axis=entries)

    elif problem.formulation == "nnm-noisy":

        def objective(a):
            fit_sq = (np.where(lookup, y - a, 0.0) ** 2).sum(axis=entries)
            return 0.5 * fit_sq + rho * svdvals(a, compute_uv=False).sum(axis=-1)

    else:  # nnm-noisy-reg

        def objective(a):
            fit_sq = (np.where(lookup, y - a, 0.0) ** 2).sum(axis=entries)
            nuc = svdvals(a, compute_uv=False).sum(axis=-1)
            l1 = np.abs(np.where(unobserved, a, 0.0)).sum(axis=entries)
            return 0.5 * fit_sq + rho * nuc + alpha * l1

    def fun_batch(xs):
        return objective(pack_batch(xs))

    def fun(x):
        return float(objective(pack(x)))

    return fun, fun_batch, pack, shape[0] * shape[1]


def _grid_minimize(fun_batch, n_free, half_width, points, rounds):
    """Iteratively refined dense grid over 1 or 2 free entries (batched)."""
    lo = np.full(n_free, -half_width)
    hi = np.full(n_free, half_width)
    best_x = np.zeros(n_free)
    best_f = float(fun_batch(best_x[None, :])[0])
    evals = 1
    for _ in range(rounds):
        axes = [np.linspace(lo[d], hi[d], points) for d in range(n_free)]
        if n_free == 1:
            candidates = axes[0][:, None]
        else:
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            candidates = np.column_stack([g0.ravel(), g1.ravel()])
        values = fun_batch(candidates)
        evals += len(candidates)
        k = int(np.argmin(values))
        if values[k] < best_f:
            best_f = float(values[k])
            best_x = candidates[k].copy()
        # zoom to +-2 grid steps around the incumbent
        step = (hi - lo) / (points - 1)
        lo = best_x - 2.0 * step
        hi = best_x + 2.0 * step
    return best_x, best_f, evals


def _polytope_minimize(fun, starts, maxfev, restarts):
    """Multi-start Nelder-Mead with a ladder of shrinking simplex resets.

    The nuclear norm and L1 terms are nonsmooth, and their minimizers sit in
    kinked corners where a single Nelder-Mead run stalls.  Each start
    therefore walks down the delta ladder: large simplexes explore, small
    ones crawl into the corner.  A start leaves its ladder after the first
    restart that gains less than ``fatol``: the smaller simplexes below it
    only re-confirm the point.
    """
    import scipy.optimize  # only the oracle needs it; keeps it out of CLI start-up

    deltas = (1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6)
    fatol = 1e-11
    best_x, best_f = None, np.inf
    evals = 0
    for x0 in starts:
        x = np.asarray(x0, dtype=np.float64)
        f = fun(x)
        evals += 1
        for k in range(restarts):
            delta = deltas[min(k, len(deltas) - 1)]
            simplex = np.vstack([x, x + delta * np.eye(len(x))])
            res = scipy.optimize.minimize(
                fun,
                x,
                method="Nelder-Mead",
                options={
                    "initial_simplex": simplex,
                    "xatol": 1e-9,
                    "fatol": fatol,
                    "maxfev": maxfev,
                },
            )
            evals += res.nfev
            gain = f - res.fun
            if gain > 0:
                x, f = res.x, res.fun
            if gain < fatol:
                break
        if f < best_f:
            best_x, best_f = x, f
    # the L1 kinks are axis-aligned, so a compass polish finishes the crawl
    # into the corner that the simplex search circles around; one more short
    # simplex ladder afterwards escapes curved (rank-deficiency) kinks
    best_x = np.asarray(best_x)
    best_f = float(best_f)
    for _ in range(2):
        best_x, best_f, polish_evals = _compass_polish(fun, best_x, best_f)
        evals += polish_evals
        for delta in (0.01, 1e-3, 1e-4):
            simplex = np.vstack([best_x, best_x + delta * np.eye(len(best_x))])
            res = scipy.optimize.minimize(
                fun,
                best_x,
                method="Nelder-Mead",
                options={
                    "initial_simplex": simplex,
                    "xatol": 1e-9,
                    "fatol": fatol,
                    "maxfev": maxfev,
                },
            )
            evals += res.nfev
            if res.fun < best_f:
                best_x, best_f = res.x, float(res.fun)
    return best_x, best_f, evals


def _compass_polish(fun, x, f, step=0.01, min_step=1e-9, max_sweeps=500):
    """Greedy coordinate pattern search with halving steps."""
    evals = 0
    x = x.copy()
    for _ in range(max_sweeps):
        if step <= min_step:
            break
        improved = False
        for i in range(len(x)):
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[i] += sign * step
                ft = fun(trial)
                evals += 1
                if ft < f - 1e-15:
                    x, f = trial, ft
                    improved = True
        if not improved:
            step *= 0.5
    return x, f, evals


def oracle_solve(
    problem: CompletionProblem,
    grid_points: int = 101,
    grid_rounds: int = 8,
    starts: int = 3,
    polish_restarts: int = 8,
    nm_maxfev: int = 4000,
    seed: int = 0,
) -> SolveResult:
    """Brute-force minimizer for tiny instances, independent of the ADMM path.

    With at most two free entries the exact objective is scanned on an
    iteratively refined dense grid; otherwise (up to 16 unknowns) a
    restarted multi-start Nelder-Mead simplex search is used.  Raises
    :class:`OracleBudgetError` beyond that.
    """
    from .synth import stream  # local import keeps module dependencies one-way

    fun, fun_batch, pack, n_free = _oracle_objective(problem)
    if n_free == 0:
        completed = pack(np.empty(0))
        return _result(problem, completed, CONVERGED, 0, 0.0, 0.0, [], [],
                       sparse=_rpca_sparse(problem, completed))
    scale = max(1.0, float(np.max(np.abs(problem.observed_values))))
    if n_free <= _GRID_MAX_FREE:
        x, _, evals = _grid_minimize(fun_batch, n_free, 2.0 * scale, grid_points, grid_rounds)
    elif n_free <= _ORACLE_MAX_FREE:
        y = project(problem.observed_values, problem.mask)
        rng = stream(seed, "oracle-starts")
        start_list = [np.zeros(n_free)]
        if problem.formulation in ("nnm-exact", "nnm-reg"):
            # free entries only; the observed mean is a sensible fill level
            mean_obs = float(y.sum() / problem.mask.size)
            start_list.append(np.full(n_free, mean_obs))
        else:
            start_list.append(y.ravel().copy())
            # truncated-SVD starts sit on the low-rank manifolds where the
            # nuclear-norm term puts its minimizers
            u, s, vt = np.linalg.svd(y)
            for r in range(1, min(problem.shape)):
                start_list.append(((u[:, :r] * s[:r]) @ vt[:r, :]).ravel())
        while len(start_list) < max(2, starts):
            start_list.append(rng.standard_normal(n_free) * scale)
        x, _, evals = _polytope_minimize(fun, start_list, nm_maxfev, polish_restarts)
    else:
        raise OracleBudgetError(
            f"{n_free} free entries exceed the oracle budget of {_ORACLE_MAX_FREE}"
        )
    completed = pack(x)
    return _result(problem, completed, CONVERGED, evals, 0.0, 0.0, [], [],
                   sparse=_rpca_sparse(problem, completed))


def _rpca_sparse(problem: CompletionProblem, completed: np.ndarray):
    if problem.formulation != "rpca-restricted":
        return None
    return project(problem.observed_values, problem.mask) - completed
