import math
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from structmc import (
    ExperimentGrid,
    GeneratorSpec,
    RealSweep,
    SolverConfig,
    run_cell,
    run_grid,
    run_real_matrix,
    stream,
)
import structmc.harness as harness
from structmc.errors import CellError
from structmc.harness import OUTCOME_BOTH_EXACT, OUTCOME_FAILED, OUTCOME_OK, subsample_rows

GEN = GeneratorSpec(12, 12, 2, 0.4, 0.6)
ALPHAS = (1e-1, 1e-2, 1e-3, 1e-4)


def small_grid(**overrides):
    params = dict(
        zero_rates=(0.3,),
        nonzero_rates=(0.8,),
        alphas=ALPHAS,
        trials=2,
        generator=GEN,
        base_seed=4242,
    )
    params.update(overrides)
    return ExperimentGrid(**params)


class TestGridValidation:
    def test_empty_rates_rejected(self):
        with pytest.raises(ValueError):
            small_grid(zero_rates=())

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            small_grid(nonzero_rates=(1.5,))

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            small_grid(alphas=(0.1, 0.0))

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            small_grid(trials=0)


BAD_SPEC_VALUES = [
    pytest.param({"noise_sigma": -0.1}, id="sigma-negative"),
    pytest.param({"noise_sigma": math.nan}, id="sigma-nan"),
    pytest.param({"noise_sigma": math.inf}, id="sigma-inf"),
    pytest.param({"alphas": (0.1, math.nan)}, id="alpha-nan"),
    pytest.param({"alphas": (math.inf,)}, id="alpha-inf"),
]


class TestSpecValidation:
    # both sweep kinds share one validation path; NaN must not slip through
    # comparisons that are false for it

    @pytest.mark.parametrize("bad", BAD_SPEC_VALUES)
    def test_grid_rejects(self, bad):
        with pytest.raises(ValueError):
            small_grid(**bad)

    @pytest.mark.parametrize("bad", BAD_SPEC_VALUES)
    def test_real_sweep_rejects(self, bad):
        with pytest.raises(ValueError):
            small_sweep(**bad)

    def test_real_sweep_row_subsample_positive(self):
        with pytest.raises(ValueError):
            small_sweep(row_subsample=0)

    def test_only_real_sweep_subsamples_rows(self):
        assert small_grid().row_subsample is None
        assert small_sweep(row_subsample=5).row_subsample == 5


class TestRunCell:
    def test_deterministic_replay(self):
        grid = small_grid()
        a = run_cell(grid, (0.3, 0.8), 1)
        b = run_cell(grid, (0.3, 0.8), 1)
        assert repr(a) == repr(b)

    def test_fully_observed_cell_is_both_exact(self):
        grid = small_grid(zero_rates=(1.0,), nonzero_rates=(1.0,))
        rec = run_cell(grid, (1.0, 1.0), 0)
        assert rec.outcome == OUTCOME_BOTH_EXACT
        assert rec.err_nnm == 0.0
        assert rec.err_reg == 0.0
        assert math.isnan(rec.ratio)

    def test_zero_unobserved_cell_never_loses(self):
        # rate pair (0, 1): every unobserved entry of the truth is zero
        grid = small_grid(zero_rates=(0.0,), nonzero_rates=(1.0,))
        for trial in range(4):
            rec = run_cell(grid, (0.0, 1.0), trial)
            assert rec.outcome in (OUTCOME_OK, OUTCOME_BOTH_EXACT)
            if rec.outcome == OUTCOME_OK:
                assert rec.ratio <= 1.0 + 1e-6

    def test_alpha_used_is_argmin(self):
        grid = small_grid()
        rec = run_cell(grid, (0.3, 0.8), 0)
        assert rec.alpha_errors is not None
        errs = dict((a, e) for a, e in rec.alpha_errors)
        assert set(errs) == set(ALPHAS)
        best = min(rec.alpha_errors, key=lambda ae: (ae[1], ae[0]))
        assert rec.alpha_used == best[0]
        assert rec.err_reg == best[1]

    def test_statuses_recorded(self):
        rec = run_cell(small_grid(), (0.3, 0.8), 0)
        assert rec.status_baseline == "converged"
        assert rec.status_reg == "converged"
        assert rec.attempts >= 1

    def test_impossible_cell_raises_cell_error(self):
        grid = small_grid(zero_rates=(0.0,), nonzero_rates=(0.0,))
        with pytest.raises(CellError) as info:
            run_cell(grid, (0.0, 0.0), 0)
        assert info.value.cell == (0.0, 0.0)
        # it leaves a pooled worker intact
        copy = pickle.loads(pickle.dumps(info.value))
        assert (copy.cell, copy.trial_index, str(copy)) == ((0.0, 0.0), 0, str(info.value))

    def test_noisy_cell_uses_noisy_pair(self):
        grid = small_grid(noise_sigma=0.05)
        rec = run_cell(grid, (0.3, 0.8), 0)
        assert rec.outcome == OUTCOME_OK
        assert rec.err_nnm > 0

    def test_seed_schedule_isolated_between_cells(self):
        # the same (cell, trial) draws identically regardless of grid shape
        narrow = small_grid()
        wide = small_grid(zero_rates=(0.1, 0.3, 0.5), nonzero_rates=(0.2, 0.8))
        assert repr(run_cell(narrow, (0.3, 0.8), 1)) == repr(run_cell(wide, (0.3, 0.8), 1))

    def test_trend_grid_baseline_converges_under_penalty_cap(self):
        # demos/configs/trend_cells.ini, cell (0.9, 0.1), trial 4: with
        # uncapped residual balancing the nnm-exact baseline cycled its
        # penalty 156 times and stopped at the 5000-iteration cap
        grid = ExperimentGrid(
            zero_rates=(0.1, 0.9),
            nonzero_rates=(0.1, 0.9),
            alphas=ALPHAS,
            trials=10,
            generator=GeneratorSpec(30, 30, 2, 0.3, 0.5),
            base_seed=20240601,
        )
        rec = run_cell(grid, (0.9, 0.1), 4)
        assert rec.status_baseline == "converged"
        assert rec.status_reg == "converged"

    def test_slowest_trend_baseline_is_accelerated(self, monkeypatch):
        # demos/configs/trend_cells.ini, cell (0.9, 0.1), trial 1: the
        # slowest solve of the sweep, 3213 iterations without acceleration
        real_solve = harness.solve
        seen = []

        def spy(problem, cfg=None, **kwargs):
            seen.append(real_solve(problem, cfg, **kwargs))
            return seen[-1]

        monkeypatch.setattr(harness, "solve", spy)
        grid = ExperimentGrid(
            zero_rates=(0.1, 0.9),
            nonzero_rates=(0.1, 0.9),
            alphas=ALPHAS,
            trials=10,
            generator=GeneratorSpec(30, 30, 2, 0.3, 0.5),
            base_seed=20240601,
        )
        run_cell(grid, (0.9, 0.1), 1)
        assert seen[0].status == "converged"
        assert seen[0].iterations <= 2000

    def test_alpha_path_is_warm_started_in_ascending_order(self, monkeypatch):
        real_solve = harness.solve
        seen = []

        def spy(problem, cfg=None, **kwargs):
            res = real_solve(problem, cfg, **kwargs)
            seen.append((problem, kwargs.get("_start"), res))
            return res

        monkeypatch.setattr(harness, "solve", spy)
        grid = ExperimentGrid(
            zero_rates=(0.1,),
            nonzero_rates=(0.9,),
            alphas=ALPHAS,
            trials=1,
            generator=GeneratorSpec(30, 30, 2, 0.3, 0.5),
            base_seed=20240601,
        )
        rec = run_cell(grid, (0.1, 0.9), 0)
        (baseline, _, base_res), *path = seen
        assert all(res.status == "converged" for _, _, res in seen)
        assert [p.alpha for p, _, _ in path] == sorted(ALPHAS)
        starts = [start for _, start, _ in path]
        assert starts == [base_res] + [res for _, _, res in path[:-1]]
        assert [a for a, _ in rec.alpha_errors] == list(ALPHAS)
        # noiseless, so the observed values are the truth
        truth = baseline.observed_values
        tol = harness._exact_tol(grid.solver, truth.shape)
        errors = dict(rec.alpha_errors)
        cold_iterations = 0
        for problem, _, res in path:
            cold = real_solve(problem, grid.solver)
            cold_iterations += cold.iterations
            cold_err = np.linalg.norm(cold.completed - truth)
            assert abs(errors[problem.alpha] - cold_err) <= 2 * tol
        assert sum(res.iterations for _, _, res in path) < cold_iterations


class TestRunGrid:
    def test_single_cell_table_matches_record(self):
        grid = small_grid(trials=1)
        result = run_grid(grid)
        assert len(result.records) == 1
        rec = result.records[0]
        assert result.mean_ratio.shape == (1, 1)
        if rec.outcome == OUTCOME_OK:
            assert result.mean_ratio[0, 0] == rec.ratio
            assert result.mean_alpha[0, 0] == rec.alpha_used

    def test_table_dimensions(self):
        grid = small_grid(zero_rates=(0.2, 0.5), nonzero_rates=(0.3, 0.6, 0.9), trials=1)
        result = run_grid(grid)
        assert result.mean_ratio.shape == (2, 3)
        assert result.mean_alpha.shape == (2, 3)
        assert len(result.records) == 6

    def test_workers_do_not_change_output(self):
        grid = small_grid(zero_rates=(0.2, 0.6), trials=2)
        serial = run_grid(grid, workers=1)
        parallel = run_grid(grid, workers=2)
        assert repr(serial.records) == repr(parallel.records)
        np.testing.assert_array_equal(serial.mean_ratio, parallel.mean_ratio)

    def test_non_strict_marks_failures(self):
        grid = small_grid(zero_rates=(0.0,), nonzero_rates=(0.0,), trials=2)
        result = run_grid(grid)
        assert len(result.records) == 2
        assert all(r.outcome == OUTCOME_FAILED for r in result.records)
        assert result.failures[0, 0] == 2
        assert math.isnan(result.mean_ratio[0, 0])

    def test_repeated_rate_counts_each_trial_once(self):
        # a rate listed twice is two cells with the same draws, each of
        # whose counts holds its own trials
        grid = small_grid(zero_rates=(0.0, 0.0), nonzero_rates=(0.0,), trials=2)
        result = run_grid(grid)
        assert len(result.records) == 4
        assert result.failures.tolist() == [[2], [2]]

    def test_deterministic_replay(self):
        grid = small_grid(trials=2)
        a = run_grid(grid)
        b = run_grid(grid)
        assert repr(a.records) == repr(b.records)


def survey_matrix(rows=24, cols=10, seed=900):
    # integer 0..4 responses, survey-like, with plenty of exact zeros
    rng = stream(seed, "survey-matrix")
    values = np.clip(np.floor(rng.random((rows, cols)) * 6.0) - 1.0, 0.0, 4.0)
    return values


def small_sweep(**overrides):
    params = dict(
        zero_rates=(0.3,),
        nonzero_rates=(0.8,),
        alphas=ALPHAS,
        trials=2,
        base_seed=777,
    )
    params.update(overrides)
    return RealSweep(**params)


class TestRunRealMatrix:
    def test_full_rates_recover_exactly(self):
        m = survey_matrix()
        result = run_real_matrix(m, small_sweep(zero_rates=(1.0,), nonzero_rates=(1.0,), trials=1))
        rec = result.records[0]
        assert rec.outcome == OUTCOME_BOTH_EXACT
        assert rec.err_nnm == 0.0

    def test_row_subsample_deterministic(self):
        m = survey_matrix(rows=30)
        sweep = small_sweep(row_subsample=12, trials=2)
        a = run_real_matrix(m, sweep)
        b = run_real_matrix(m, sweep)
        assert repr(a.records) == repr(b.records)

    def test_subsample_rows_shape_and_order(self):
        m = survey_matrix(rows=20)
        sub = subsample_rows(m, 7, 5, 0)
        assert sub.shape == (7, 10)
        rows = {tuple(r) for r in np.asarray(m).tolist()}
        assert all(tuple(r) in rows for r in sub.tolist())

    def test_subsample_too_many_rows(self):
        with pytest.raises(ValueError):
            subsample_rows(survey_matrix(rows=5), 9, 0, 0)

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            run_real_matrix(np.zeros((4, 4)), small_sweep())

    def test_protocol_runs_and_scores(self):
        m = survey_matrix()
        result = run_real_matrix(m, small_sweep(trials=1))
        rec = result.records[0]
        assert rec.outcome == OUTCOME_OK
        assert rec.alpha_used in ALPHAS

    def test_workers_match_serial(self):
        m = survey_matrix()
        sweep = small_sweep(trials=2)
        pooled, serial = run_real_matrix(m, sweep, workers=2), run_real_matrix(m, sweep)
        assert repr(pooled.records) == repr(serial.records)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_cell_fails_and_keeps_the_others(self, workers):
        # the (0.0, 0.0) cell observes nothing on every attempt, a CellError
        m = survey_matrix()
        sweep = small_sweep(zero_rates=(0.0,), nonzero_rates=(0.0, 0.8), trials=2)
        result = run_real_matrix(m, sweep, workers=workers)
        assert [(r.cell, r.trial_index) for r in result.records] == [
            ((0.0, 0.0), 0), ((0.0, 0.0), 1), ((0.0, 0.8), 0), ((0.0, 0.8), 1)
        ]
        failed, finished = result.records[:2], result.records[2:]
        assert all(r.outcome == OUTCOME_FAILED for r in failed)
        assert all("degenerate draws exhausted" in r.error for r in failed)
        assert all(r.outcome != OUTCOME_FAILED for r in finished)
        assert result.failures.tolist() == [[2, 0]]
        assert math.isnan(result.mean_alpha[0, 0]) and not math.isnan(result.mean_alpha[0, 1])
        alone = run_real_matrix(m, small_sweep(zero_rates=(0.0,), nonzero_rates=(0.8,), trials=2))
        assert repr(finished) == repr(alone.records)


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_non_positive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_grid(small_grid(trials=1), workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_real_matrix(survey_matrix(), small_sweep(trials=1), workers=workers)


class TestSolverConfigThreading:
    def test_grid_solver_config_respected(self):
        loose = small_grid(trials=1, solver=SolverConfig(max_iters=2))
        rec = run_cell(loose, (0.3, 0.8), 0)
        assert rec.status_baseline == "max-iters"


def _report_blas_thread_vars():
    # a spawned worker loaded numpy after these variables were set; a forked
    # one inherits the parent's BLAS threads whatever they say.  The report
    # travels back as the failed record's error.
    start = multiprocessing.get_start_method(allow_none=True)
    raise RuntimeError(repr((start, *(os.environ.get(n) for n in harness._WORKER_BLAS_THREADS))))


class TestSweepExecutor:
    def test_workers_run_one_blas_thread(self, monkeypatch):
        for name in harness._WORKER_BLAS_THREADS:
            monkeypatch.delenv(name, raising=False)
        result = harness._run_sweep(small_grid(), _report_blas_thread_vars, lambda *_: (), 2)
        assert [r.error for r in result.records] == [repr(("spawn", "1", "1"))] * 2
        assert not any(name in os.environ for name in harness._WORKER_BLAS_THREADS)

    @pytest.mark.parametrize("kept", harness._WORKER_BLAS_THREADS)
    def test_one_caller_thread_variable_leaves_both_alone(self, monkeypatch, kept):
        # OpenBLAS reads OPENBLAS_NUM_THREADS first, so a 1 there would
        # override a caller's OMP_NUM_THREADS=2
        for name in harness._WORKER_BLAS_THREADS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv(kept, "2")
        with harness._one_blas_thread_per_process():
            seen = {name: os.environ.get(name) for name in harness._WORKER_BLAS_THREADS}
        assert seen == {name: "2" if name == kept else None
                        for name in harness._WORKER_BLAS_THREADS}

    def test_unexpected_trial_error_keeps_finished_records(self, monkeypatch):
        real_solve = harness.solve
        calls = []
        per_trial = 1 + len(ALPHAS)  # baseline plus one solve per alpha

        def flaky_solve(problem, cfg=None, **kwargs):
            calls.append(problem.formulation)
            if len(calls) == per_trial + 1:  # first solve of trial 1
                raise RuntimeError("solver blew up")
            return real_solve(problem, cfg, **kwargs)

        monkeypatch.setattr(harness, "solve", flaky_solve)
        result = run_grid(small_grid(trials=3))
        assert [r.trial_index for r in result.records] == [0, 1, 2]
        assert [r.outcome for r in result.records] == [OUTCOME_OK, OUTCOME_FAILED, OUTCOME_OK]
        assert "solver blew up" in result.records[1].error
        assert result.failures[0, 0] == 1
