"""Experiment orchestration: rate grids, per-cell optimal alpha, trial averaging.

A grid cell is a (rate_zero, rate_nonzero) sampling pair.  Each trial draws
a fresh ground truth and mask, solves the baseline formulation once and the
regularized one once per distinct candidate alpha, and keeps the alpha with
the smallest recovery error (ties break toward the smaller alpha).  Alpha
selection deliberately uses the ground truth; the protocol reports the best
the regularizer could do, not a cross-validated estimate.

The regularized solves walk the regularization path (Mazumder, Hastie &
Tibshirani, JMLR 2010): in ascending alpha, the first starts from the
baseline's final ADMM state and each later one from the previous solve's,
while a solve that did not converge hands on nothing, so the next starts
cold.  A warm start stops at a different point within the solver tolerance,
so an error can move by about ``_exact_tol``, and between alphas whose
errors are that close the pick can change.

Seed schedule: every draw is keyed by
``(base_seed, rate_zero, rate_nonzero, trial, purpose, attempt)`` folded
through :func:`structmc.synth.derive_seed`, with rates keyed by their
IEEE-754 bits.  Adding cells or trials to a grid therefore never perturbs
the draws of existing ones.  Degenerate draws (all-zero matrix, empty mask)
are redrawn with an incremented attempt counter, at most 8 times.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidSamplingError
from .matrix import as_matrix, frobenius_norm
from .metrics import ratio_from_errors
from .solvers import CompletionProblem, SolverConfig, _one_blas_thread, _tolerances, solve
from .synth import (
    GeneratorSpec,
    SamplingSpec,
    add_noise,
    derive_seed,
    generate_low_rank,
    rho_for_noise,
    sample_structured_mask,
    stream,
)

__all__ = [
    "ExperimentGrid",
    "RealSweep",
    "TrialRecord",
    "GridResult",
    "run_cell",
    "run_grid",
    "run_real_matrix",
]

log = logging.getLogger(__name__)

_MAX_REDRAWS = 8

OUTCOME_OK = "ok"
OUTCOME_BOTH_EXACT = "both-exact"
OUTCOME_INF = "inf"
OUTCOME_FAILED = "failed"


def _as_rate_tuple(values, name):
    values = tuple(float(v) for v in values)
    if not values:
        raise ValueError(f"{name} must be nonempty")
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} entries must lie in [0, 1], got {v}")
    return values


@dataclass(frozen=True)
class _SweepSpec:
    """Fields and validation shared by both sweep kinds."""

    zero_rates: tuple[float, ...]
    nonzero_rates: tuple[float, ...]
    alphas: tuple[float, ...]
    trials: int
    noise_sigma: float = 0.0
    base_seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        object.__setattr__(self, "zero_rates", _as_rate_tuple(self.zero_rates, "zero_rates"))
        object.__setattr__(
            self, "nonzero_rates", _as_rate_tuple(self.nonzero_rates, "nonzero_rates")
        )
        alphas = tuple(float(a) for a in self.alphas)
        # written so that NaN fails every comparison and is rejected
        if not alphas or not all(0.0 < a < math.inf for a in alphas):
            raise ValueError(f"alphas must be a nonempty list of positive reals, got {alphas}")
        object.__setattr__(self, "alphas", alphas)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(
                f"noise_sigma must be a finite nonnegative real, got {self.noise_sigma}"
            )


@dataclass(frozen=True, kw_only=True)
class ExperimentGrid(_SweepSpec):
    """Sweep configuration over sampling-rate cells on synthetic data."""

    generator: GeneratorSpec


@dataclass(frozen=True)
class RealSweep(_SweepSpec):
    """Same protocol as :class:`ExperimentGrid` with an ingested ground truth.

    ``row_subsample`` picks that many rows afresh each trial (without
    replacement, original order), mirroring survey-style experiments where
    the full data is too large to solve repeatedly.
    """

    row_subsample: int | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.row_subsample is not None and self.row_subsample < 1:
            raise ValueError(f"row_subsample must be >= 1, got {self.row_subsample}")


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """One (cell, trial) outcome."""

    cell: tuple[float, float]
    trial_index: int
    alpha_used: float
    ratio: float
    err_reg: float
    err_nnm: float
    status_baseline: str
    status_reg: str
    attempts: int | None = 1  # None if failed
    alpha_errors: tuple | None = None  # (alpha, error) per candidate; None if failed
    error: str | None = None

    @property
    def outcome(self) -> str:
        if self.error is not None:
            return OUTCOME_FAILED
        if math.isnan(self.ratio):
            return OUTCOME_BOTH_EXACT
        if math.isinf(self.ratio):
            return OUTCOME_INF
        return OUTCOME_OK


def _exact_tol(solver_cfg: SolverConfig, shape) -> float:
    # "both exact" means exact at the solver's own convergence scale
    return max(1e-12, _tolerances(solver_cfg, shape)[0])


@_one_blas_thread
def _score_cell(truth, observed, mask, alphas, noise_sigma, solver_cfg):
    """Solve baseline and per-alpha regularized problems, pick the best alpha.

    The regularized problems are solved in ascending alpha, each
    warm-started from the previous result, the baseline's first (see the
    module docstring); errors, the argmin and its tie-break still follow
    the configured order of ``alphas``.
    """
    if noise_sigma > 0:
        rho = rho_for_noise(truth.shape[0], truth.shape[1], mask.size, noise_sigma)
        baseline = CompletionProblem(observed, mask, "nnm-noisy", rho=rho)
        reg_formulation = "nnm-noisy-reg"
    else:
        rho = 0.0
        baseline = CompletionProblem(observed, mask, "nnm-exact")
        reg_formulation = "nnm-reg"
    base_res = solve(baseline, solver_cfg)
    err_nnm = frobenius_norm(base_res.completed - truth)
    # solve() ignores a start that did not converge
    by_alpha = {}
    start = base_res
    for alpha in sorted(set(alphas)):
        problem = CompletionProblem(observed, mask, reg_formulation, alpha=alpha, rho=rho)
        start = by_alpha[alpha] = solve(problem, solver_cfg, _start=start)
    per_alpha = [(frobenius_norm(by_alpha[a].completed - truth), a, by_alpha[a]) for a in alphas]
    best_err, best_alpha, best_res = min(per_alpha, key=lambda t: (t[0], t[1]))
    ratio = ratio_from_errors(best_err, err_nnm, _exact_tol(solver_cfg, truth.shape))
    return dict(
        alpha_used=best_alpha,
        ratio=ratio,
        err_reg=best_err,
        err_nnm=err_nnm,
        status_baseline=base_res.status,
        status_reg=best_res.status,
        alpha_errors=tuple((a, e) for e, a, _ in per_alpha),
    )


def _run_trial(spec, cell, trial_index, draw_truth) -> TrialRecord:
    """Draw a mask (and noise) for one trial, score it and build the record.

    ``draw_truth(seed_of, attempt)`` gives attempt ``attempt``'s ground
    truth, or None for a degenerate draw; ``seed_of(purpose, attempt)`` is
    the trial's seed schedule.  Both degenerate truths and empty masks are
    redrawn with the next attempt, at most ``_MAX_REDRAWS`` times.
    """
    rate_zero, rate_nonzero = float(cell[0]), float(cell[1])

    def seed_of(purpose, attempt):
        return derive_seed(spec.base_seed, rate_zero, rate_nonzero, trial_index, purpose, attempt)

    for attempt in range(_MAX_REDRAWS):
        truth = draw_truth(seed_of, attempt)
        if truth is None:
            log.debug("cell %s trial %d attempt %d: all-zero draw, redrawing",
                      cell, trial_index, attempt)
            continue
        try:
            mask = sample_structured_mask(
                truth, SamplingSpec(rate_zero, rate_nonzero, seed_of("mask", attempt))
            )
        except InvalidSamplingError:
            log.debug("cell %s trial %d attempt %d: empty mask, redrawing",
                      cell, trial_index, attempt)
            continue
        break
    else:
        raise ValueError(f"degenerate draws exhausted {_MAX_REDRAWS} attempts")
    if spec.noise_sigma > 0:
        observed = add_noise(truth, spec.noise_sigma, mask, seed_of("noise", attempt))
    else:
        observed = truth
    scored = _score_cell(truth, observed, mask, spec.alphas, spec.noise_sigma, spec.solver)
    return TrialRecord(
        cell=(rate_zero, rate_nonzero),
        trial_index=trial_index,
        attempts=attempt + 1,
        **scored,
    )


def run_cell(grid: ExperimentGrid, cell, trial_index: int) -> TrialRecord:
    """Run one synthetic trial of one cell; deterministic in (grid, cell, trial)."""

    def draw_truth(seed_of, attempt):
        truth = generate_low_rank(replace(grid.generator, seed=seed_of("matrix", attempt)))
        return truth if truth.any() else None

    return _run_trial(grid, cell, trial_index, draw_truth)


@dataclass(frozen=True, eq=False)
class GridResult:
    """Per-cell aggregates plus the full record list.

    ``mean_ratio[i, j]`` averages the finite ratios of cell
    (zero_rates[i], nonzero_rates[j]); both-exact trials are excluded from
    the mean and counted in ``both_exact``.  An infinite trial ratio makes
    the cell mean infinite rather than being hidden.
    """

    records: tuple[TrialRecord, ...]
    mean_ratio: np.ndarray
    mean_alpha: np.ndarray
    both_exact: np.ndarray
    failures: np.ndarray


def _run_sweep(spec, worker, payload, workers) -> GridResult:
    """Run ``worker(*payload(cell, trial))`` for every (cell, trial) and aggregate.

    Tasks run and are reduced in cell-major order, so the records of a cell
    are ``spec.trials`` consecutive ones.  ``workers`` > 1 runs them in that
    many spawned processes.  Trials score on one BLAS thread, so a thread count
    the caller set changes no record.  Any exception a task raises, including a
    broken worker pool, becomes that task's failure record, and every finished
    record is kept.  Raises ValueError for ``workers`` < 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [
        ((rz, rnz), trial)
        for rz in spec.zero_rates
        for rnz in spec.nonzero_rates
        for trial in range(spec.trials)
    ]
    payloads = [payload(cell, trial) for cell, trial in tasks]
    records = []
    pool = None
    try:
        if workers > 1:
            # only pooled sweeps need these; keeps them out of start-up
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # spawned, not forked: a fork of a process whose BLAS threads run needs care
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
            outcomes = [pool.submit(worker, *p).result for p in payloads]
        else:
            outcomes = (functools.partial(worker, *p) for p in payloads)
        for (cell, trial), outcome in zip(tasks, outcomes):
            try:
                records.append(outcome())
            except Exception as exc:
                log.debug("cell %s trial %d failed", cell, trial, exc_info=True)
                nan = float("nan")
                records.append(TrialRecord(cell, trial, alpha_used=nan, ratio=nan, err_reg=nan,
                                           err_nnm=nan, status_baseline="", status_reg="",
                                           attempts=None, error=str(exc)))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    shape = (len(spec.zero_rates), len(spec.nonzero_rates))
    mean_ratio, mean_alpha = np.full(shape, np.nan), np.full(shape, np.nan)
    both_exact, failures = np.zeros(shape, dtype=int), np.zeros(shape, dtype=int)
    for k, ij in enumerate(np.ndindex(shape)):
        good = [r for r in records[k * spec.trials:(k + 1) * spec.trials] if r.error is None]
        ratios = [r.ratio for r in good if not math.isnan(r.ratio)]
        failures[ij] = spec.trials - len(good)
        both_exact[ij] = len(good) - len(ratios)
        if ratios:
            mean_ratio[ij] = float(np.mean(ratios))
        if good:
            mean_alpha[ij] = float(np.mean([r.alpha_used for r in good]))
    return GridResult(tuple(records), mean_ratio, mean_alpha, both_exact, failures)


def run_grid(grid: ExperimentGrid, workers: int = 1) -> GridResult:
    """Run every (cell, trial) and aggregate.

    Output is a pure function of ``grid`` alone: trials may execute in
    parallel (``workers`` processes) but records are reduced in a fixed
    cell-major order.  A trial that raises becomes a ``failed`` record.
    """
    return _run_sweep(grid, run_cell, lambda cell, trial: (grid, cell, trial), workers)


def _real_trial(truth, sweep, cell, trial_index):
    """Run one trial of one cell against the trial's fixed ground truth."""
    return _run_trial(sweep, cell, trial_index, lambda seed_of, attempt: truth)


def subsample_rows(m: np.ndarray, count: int, seed: int, trial_index: int) -> np.ndarray:
    """Pick ``count`` distinct rows for a trial, keeping their original order."""
    m = np.asarray(m, dtype=np.float64)
    if count > m.shape[0]:
        raise ValueError(f"cannot subsample {count} rows from {m.shape[0]}")
    rng = stream(seed, "row-subsample", trial_index)
    rows = np.sort(rng.permutation(m.shape[0])[:count])
    return as_matrix(m[rows, :])


def run_real_matrix(m: np.ndarray, sweep: RealSweep, workers: int = 1) -> GridResult:
    """Run the grid protocol against a fully known ingested matrix."""
    truth_full = as_matrix(m)
    if not truth_full.any():
        raise ValueError("ground-truth matrix has no nonzero entries")
    # per-trial ground truths are fixed across cells, keyed by trial only;
    # each task carries its own trial's truth
    truths = [
        truth_full if sweep.row_subsample is None
        else subsample_rows(truth_full, sweep.row_subsample, sweep.base_seed, trial)
        for trial in range(sweep.trials)
    ]
    return _run_sweep(
        sweep, _real_trial, lambda cell, trial: (truths[trial], sweep, cell, trial), workers
    )
