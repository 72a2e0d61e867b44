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
up to 8 past steps (``_ANDERSON_MEMORY``), or 3 in solves that take the warm
svt step (``_ANDERSON_WARM_MEMORY``), which keep them in single precision:
there the history is the largest buffer of the solve.  The extrapolated
point is only ever a start: every iteration is one plain ADMM step, and the
stopping test, residual balancing and the returned blocks see only step
outputs, whose residuals certify them whatever the start, so the stopping
rule and the exact observation match hold as without acceleration.
When a step from an extrapolated start leaves a larger fixed-point residual
||(Z+ - Z, A - Z+)|| than the step before, the safeguard discards it: the
next step starts from the plain point the extrapolation replaced and the
history is cleared.  The history is also cleared on every penalty change,
and restarts once full.

A solve keeps only y = P_O(M), the Anderson history, the last and the
current step output and residual, the start and the A block; every other
array (a past step's blocks, a rejected or repeated step's output, a
replaced start) is dropped before the next large allocation.

At or above ``_WARM_SVT_MIN_DIM`` in both dimensions, the svt block of a step
starts from the previous call's right singular block, the kept vectors plus
a few more: one subspace step (Halko, Martinsson & Tropp, SIAM Rev. 2011),
as in SVT with partial SVDs (Cai, Candes & Shen, SIAM J. Optim. 2010).  The
block lives in the solve; the first call of a solve, and any call whose
block is too wide to pay or proves too small, take svt's Gram route.  A warm
step is inexact and certifies nothing: when one passes the stopping test, the
same step is repeated from the same start with the exact svt, counted as one
more iteration, and every later step of the solve takes the exact svt too, so
only an exact step may end the solve as converged.

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
(no randomness anywhere) and switch numpy's OpenBLAS to one thread: from 300
wide, its eigh, SVD and products give other bytes on two.  Concurrent calls
share the switch, and the last to leave restores the caller's count.  Without
a known switch (not OpenBLAS), solves run unchanged.

:func:`oracle_solve` is an independent check for tiny instances: BFGS on
the objective with its kinks smoothed, the smoothing lowered by decades from
1e-1 to 1e-9, each level started from the last.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import threading
from dataclasses import dataclass, field

import numpy as np
# the gufunc under np.linalg.solve: the wrapper's checks cost more than
# solving the Anderson systems of size 8 or less
from numpy.linalg._umath_linalg import solve1 as _solve

from .errors import NumericalError, OracleBudgetError
from .matrix import (
    ObservationMask,
    _check_shape,
    as_matrix,
    entrywise_l1,
    nuclear_norm,
    project,
)
from .prox import _svt_warm, enforce_observed, prox_obs_fit_quad, soft_threshold, svt

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
# residual balancing scales the penalty by _BALANCE_FACTOR when one residual exceeds
# _BALANCE_RATIO times the other, at most _MAX_PENALTY_CHANGES times per solve
_BALANCE_RATIO, _BALANCE_FACTOR, _MAX_PENALTY_CHANGES = 10.0, 2.0, 20
# Anderson acceleration extrapolates from this many past steps below the warm svt gate
# and _ANDERSON_WARM_MEMORY at or above it (0 turns it off): below it 8 steps cut sweep
# iterations by a sixth against 3, above it they cost memory and save nothing. There the
# history (12 times the data) is kept in single precision: it is only a start, and n x n
# solves of all five modes on seven families (n = 40-200, large rank 5/10/20, rank4, trend
# at 10%/90% of zeros, rank 5 observed 30% at random) took the same iterations to 3%
_ANDERSON_MEMORY, _ANDERSON_WARM_MEMORY = 8, 3
# Tikhonov weight of the Anderson least squares, relative to its Gram trace
_ANDERSON_REG = 1e-5
# solves with min(n1, n2) at or above this take the warm svt step; whole n x n
# solves of all five modes on three instance families (large/rank4/trend), warm
# time over exact, best of 5: n = 30 1.32/0.92/1.53, 35 1.07/1.04/0.71,
# 40 0.90/0.82/0.83, 45 0.71/0.81/0.76, so from 40 on every family wins
_WARM_SVT_MIN_DIM = 40


class _OneBlasThread(contextlib.ContextDecorator):
    """One BLAS thread inside, the caller's count back after; a no-op if ``switch`` is None."""

    PAIRS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
             ("openblas_get_num_threads", "openblas_set_num_threads"))

    def __init__(self, lib):
        pairs = [p for p in self.PAIRS if all(hasattr(lib, name) for name in p)]
        self.switch = [getattr(lib, name) for name in pairs[0]] if pairs else None
        self.lock, self.depth, self.saved = threading.Lock(), 0, 0

    def __enter__(self):
        with self.lock:
            self.depth += 1
            if self.switch and self.depth == 1:
                self.saved = self.switch[0]()
                self.switch[1](1)

    def __exit__(self, *exc):
        with self.lock:
            self.depth -= 1
            if self.switch and not self.depth:
                self.switch[1](self.saved)


_one_blas_thread = _OneBlasThread(ctypes.CDLL(np.linalg._umath_linalg.__file__))


@dataclass(frozen=True, eq=False)
class CompletionProblem:
    """Observed data, mask, formulation and its parameters.

    ``alpha`` is required positive and finite for the regularized
    formulations and ignored otherwise; ``rho`` likewise for the noisy ones.
    Only the masked entries of ``observed_values`` are meaningful.
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
        _check_shape(self.observed_values, self.mask)
        if self.mask.size == 0:
            raise ValueError("mask must observe at least one entry")
        if self.formulation in NEEDS_ALPHA and not 0.0 < self.alpha < math.inf:
            raise ValueError(f"{self.formulation} requires 0 < alpha < inf, got {self.alpha}")
        if self.formulation in NEEDS_RHO and not 0.0 < self.rho < math.inf:
            raise ValueError(f"{self.formulation} requires 0 < rho < inf, got {self.rho}")

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
    times per solve; after that it stays fixed.  Anderson acceleration (8
    steps, 3 from the warm svt gate) is always on and has no field here; it
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
            if not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")


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
    those (the next step went back to the plain point).  ``warm_svt_steps``
    of them thresholded from the warm singular subspace instead of calling
    the exact svt (0 below the size gate).  ``_state`` is the
    loop's final (A, Z, U, penalty), from which a later solve may start.
    The scalar fields are the ones ``repr`` shows; the CLI writes exactly
    those into its diagnostics.
    """

    completed: np.ndarray = field(repr=False)
    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    status: str
    rank_estimate: int
    penalty_changes: int = 0
    accelerated_steps: int = 0
    rejected_steps: int = 0
    warm_svt_steps: int = 0
    sparse: np.ndarray | None = field(repr=False, default=None)
    _state: tuple | None = field(repr=False, default=None)


def estimate_rank(m: np.ndarray) -> int:
    """Count singular values above ``_RANK_REL_CUTOFF * sigma_max``."""
    s = np.linalg.svd(np.asarray(m, dtype=np.float64), compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > _RANK_REL_CUTOFF * s[0]))


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
        return float(value + problem.alpha * entrywise_l1(sparse))
    if fit == "quad":
        residual = project(problem.observed_values - completed, problem.mask)
        value = 0.5 * float(np.einsum("ij,ij->", residual, residual)) + problem.rho * value
    if reg:
        value = value + problem.alpha * entrywise_l1(project(completed, problem.mask.complement()))
    return float(value)


def _tolerances(cfg: SolverConfig, shape) -> tuple[float, float]:
    scale = float(np.sqrt(shape[0] * shape[1]))
    return cfg.primal_tol * scale, cfg.dual_tol * scale


def _balance_penalty(pen, u, rnorm, snorm):
    """Residual balancing; rescales the scaled dual so y = pen*u is kept."""
    if rnorm > _BALANCE_RATIO * snorm:
        return pen * _BALANCE_FACTOR, u / _BALANCE_FACTOR
    if snorm > _BALANCE_RATIO * rnorm:
        return pen / _BALANCE_FACTOR, u * _BALANCE_FACTOR
    return pen, u


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _result(problem, completed, status, iterations, rnorm, snorm, sparse=None, state=None,
            **counts):
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
        sparse=sparse,
        _state=state,
        **counts,
    )


def _prox_pair(problem: CompletionProblem, y: np.ndarray, threshold):
    """The (A-block, Z-block) prox pair of one formulation, with y = P_O(M).

    Each step maps (point, penalty) to the prox with step 1/penalty:
    ``threshold(point, tau)``, an svt, and one entrywise step built from the
    row of ``_FORMS``.
    """
    fit, reg = _FORMS[problem.formulation]
    m, mask, alpha = problem.observed_values, problem.mask, problem.alpha
    weight = problem.rho if fit == "quad" else 1.0
    support = ObservationMask.full(*problem.shape) if fit == "l1" else mask.complement()

    def low_rank(v, pen):
        return threshold(v, weight / pen)

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

    x, the step outputs f = F(x) and the step residuals g = f - x are each
    one (2, n1, n2) array.  Up to ``memory`` differences of f and of g sit in
    preallocated buffers of ``dtype``, and the double-precision Gram matrix
    of the residual differences gains one row and column per step.  The
    memory restarts once full (Zhang, O'Donoghue & Boyd 2020): a rolling
    window carries rounding differences much further, so that the Gram and
    SVD routes of svt ended a 120x120 rpca-restricted solve 3e-9 apart,
    against 6e-11 restarted.
    """

    def __init__(self, memory: int, shape, dtype):
        self.memory = memory
        self.df = np.empty((memory, 2 * shape[0] * shape[1]), dtype)
        self.dg = np.empty_like(self.df)
        self.gram = np.empty((memory, memory))
        self.eye = np.eye(memory)
        self.reset()

    def clear(self):
        """Drop the differences; the last step stays the reference for the next."""
        self.count = 0
        self.trace = 0.0

    def reset(self):
        """Forget everything, the last step too (the map changed)."""
        self.clear()
        self.last = None

    def push(self, f, g):
        """Record one step's output ``f`` and residual ``g``, each a (2, n1, n2) array."""
        if self.last is not None and self.memory:
            if self.count == self.memory:
                self.clear()
            j = self.count
            np.subtract(f, self.last[0], out=self.df[j].reshape(f.shape))
            np.subtract(g, self.last[1], out=self.dg[j].reshape(g.shape))
            self.count += 1
            self.gram[j, : j + 1] = self.gram[: j + 1, j] = self.dg[: j + 1] @ self.dg[j]
            self.trace += self.gram[j, j]
        self.last = (f, g)

    def extrapolate(self):
        """The start f - dF*gamma after the last pushed step; None without a usable history."""
        k = self.count
        reg = _ANDERSON_REG * self.trace
        if not 0.0 < reg < math.inf:  # no differences, or a non-finite step
            return None
        f, g = self.last
        # the vectors take the history's dtype, so that no double copy of it is made
        dt = self.df.dtype
        # positive definite: the Gram matrix is semidefinite and reg > 0
        gamma = _solve(
            self.gram[:k, :k] + reg * self.eye[:k, :k],
            self.dg[:k] @ g.reshape(-1).astype(dt, copy=False),
        )
        return f - (gamma.astype(dt, copy=False) @ self.df[:k]).reshape(f.shape)


@_one_blas_thread
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
    not converge is ignored.  A numerical failure returns its step's start.
    """
    cfg = cfg or SolverConfig()
    y = project(problem.observed_values, problem.mask)
    warm = min(problem.shape) >= _WARM_SVT_MIN_DIM
    # the warm step's block, carried from call to call; exact: the next step calls
    # svt, as every step does once a warm step has passed the stopping test
    block, exact = None, not warm

    def threshold(v, tau):
        nonlocal block
        if exact:
            return svt(v, tau)
        out, block = _svt_warm(v, tau, block)
        # a copy: the Gram route's block is a view of its whole eigenvector matrix
        block = block.copy(order="K")
        return out

    x_step, z_step = _prox_pair(problem, y, threshold)
    if _start is not None and _start.status == CONVERGED:
        _, z, u, pen = _start._state
    else:
        z, u, pen = y, np.zeros_like(y), cfg.admm_penalty
    ptol, dtol = _tolerances(cfg, problem.shape)
    memory = _ANDERSON_WARM_MEMORY if warm else _ANDERSON_MEMORY
    anderson = _Anderson(memory, problem.shape, np.float32 if warm else np.float64)
    # the point the next step starts from: the last step's output (Z+, U+)
    # or an extrapolation of it
    x = np.stack((z, u))
    extrapolated = False
    status = MAX_ITERS
    it = changes = accelerated = rejected = warm_steps = 0
    rnorm = snorm = gnorm_prev = float("inf")
    try:
        for it in range(1, cfg.max_iters + 1):
            z_in, u_in = x
            # the last step's blocks, and its output and residual unless the
            # history holds them, are dead: drop them before this step allocates
            a = z_new = f = g = u = None
            a = x_step(z_in - u_in, pen)
            z_new = z_step(a + u_in, pen)
            # g = f - x: (Z+ - Z, A - Z+), the second half also the primal residual
            f, g = np.empty((2, *z_new.shape)), np.empty((2, *z_new.shape))
            f[0] = z_new
            np.subtract(z_new, z_in, out=g[0])
            np.subtract(a, z_new, out=g[1])
            np.add(u_in, g[1], out=f[1])
            dznorm, rnorm = map(math.sqrt, np.einsum("ijk,ijk->i", g, g))
            snorm = pen * dznorm
            accelerated += extrapolated
            warm_steps += not exact
            if rnorm <= ptol and snorm <= dtol:
                if exact:
                    status = CONVERGED
                    break
                # a warm step certifies nothing: repeat it from the same start
                # with the exact svt, which every later step keeps
                exact, block = True, None
                continue
            # ||g||, the fixed-point residual of this step
            gnorm = math.hypot(dznorm, rnorm)
            if extrapolated and gnorm > gnorm_prev:
                # safeguard: go back to the plain point the extrapolation replaced
                rejected += 1
                anderson.clear()
                x = anderson.last[0]
                extrapolated = False
                continue
            # the start is dead: drop it before the next one is built
            x = z_in = u_in = None
            anderson.push(f, g)
            gnorm_prev = gnorm
            if changes < _MAX_PENALTY_CHANGES:
                new_pen, u = _balance_penalty(pen, f[1], rnorm, snorm)
                if new_pen != pen:
                    changes += 1
                    pen = new_pen
                    f[1] = u
                    anderson.reset()
            x = anderson.extrapolate()
            extrapolated = x is not None
            if not extrapolated:
                x = f
    except NumericalError:
        status = NUMERICAL_FAILURE
        # the failed step's blocks are gone: return its start
        f, a = x, x[0]
    # the final SVDs need only the returned blocks
    anderson = x = z_in = u_in = g = z_new = None
    z, u = f
    fit = _FORMS[problem.formulation][0]
    low_rank, entrywise = (z, a) if fit == "quad" else (a, z)
    completed = entrywise if fit == "exact" else low_rank
    sparse = y - entrywise if fit == "l1" else None
    return _result(problem, completed, status, it, rnorm, snorm, sparse, (a, z, u, pen),
                   penalty_changes=changes, accelerated_steps=accelerated,
                   rejected_steps=rejected, warm_svt_steps=warm_steps)


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
    return _result(problem, completed, CONVERGED, evals, 0.0, 0.0, sparse)
