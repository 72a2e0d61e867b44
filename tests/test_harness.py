import dataclasses
import logging
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structmc import (
    CompletionProblem,
    ExperimentGrid,
    GeneratorSpec,
    RealSweep,
    SamplingSpec,
    SolverConfig,
    derive_seed,
    frobenius_norm,
    generate_low_rank,
    run_cell,
    run_grid,
    run_real_matrix,
    sample_structured_mask,
    solve,
    stream,
)
import structmc.harness as harness
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


def _first_draw(grid, cell, trial):
    """The truth and mask of attempt 0 of a trial, from the documented seed schedule."""

    def seed_of(purpose):
        return derive_seed(grid.base_seed, cell[0], cell[1], trial, purpose, 0)

    truth = generate_low_rank(dataclasses.replace(grid.generator, seed=seed_of("matrix")))
    return truth, sample_structured_mask(truth, SamplingSpec(*cell, seed_of("mask")))


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
        # a synthetic grid has no row_subsample, so its manifest records none
        assert not hasattr(small_grid(), "row_subsample")
        assert "row_subsample" not in dataclasses.asdict(small_grid())
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

    def test_impossible_cell_raises_value_error(self):
        # the failed record's columns carry the cell and trial, not the message
        grid = small_grid(zero_rates=(0.0,), nonzero_rates=(0.0,))
        with pytest.raises(ValueError, match="^degenerate draws exhausted 8 attempts$"):
            run_cell(grid, (0.0, 0.0), 0)

    def test_all_zero_truth_is_redrawn(self, caplog):
        # sparse rank-1 factors of a 4x4 truth: the first two draws of this
        # trial are all zero, and the third attempt is scored
        grid = ExperimentGrid(
            zero_rates=(0.5,),
            nonzero_rates=(0.5,),
            alphas=(0.1,),
            trials=1,
            generator=GeneratorSpec(4, 4, 1, 0.3, 0.3),
            base_seed=0,
        )
        caplog.set_level(logging.DEBUG, logger="structmc.harness")
        rec = run_cell(grid, (0.5, 0.5), 0)
        assert rec.attempts == 3
        assert rec.outcome == OUTCOME_OK
        redraws = [(r.name, r.levelno) for r in caplog.records
                   if r.getMessage().endswith("all-zero draw, redrawing")]
        assert redraws == [("structmc.harness", logging.DEBUG)] * 2

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

    def test_slowest_trend_baseline_is_accelerated(self):
        # demos/configs/trend_cells.ini, cell (0.9, 0.1), trial 1: the
        # slowest solve of the sweep, 3213 iterations without acceleration.
        # The trial's draws are rebuilt from the seed schedule, and the
        # baseline solved here is the one the record reports
        grid = ExperimentGrid(
            zero_rates=(0.1, 0.9),
            nonzero_rates=(0.1, 0.9),
            alphas=ALPHAS,
            trials=10,
            generator=GeneratorSpec(30, 30, 2, 0.3, 0.5),
            base_seed=20240601,
        )
        rec = run_cell(grid, (0.9, 0.1), 1)
        truth, mask = _first_draw(grid, (0.9, 0.1), 1)
        baseline = solve(CompletionProblem(truth, mask, "nnm-exact"), grid.solver)
        assert rec.attempts == 1
        assert frobenius_norm(baseline.completed - truth) == rec.err_nnm
        assert baseline.status == "converged"
        assert baseline.iterations <= 2000

    def test_alpha_path_is_warm_started_in_ascending_order(self):
        grid = ExperimentGrid(
            zero_rates=(0.1,),
            nonzero_rates=(0.9,),
            alphas=ALPHAS,
            trials=1,
            generator=GeneratorSpec(30, 30, 2, 0.3, 0.5),
            base_seed=20240601,
        )
        rec = run_cell(grid, (0.1, 0.9), 0)
        assert rec.attempts == 1
        truth, mask = _first_draw(grid, (0.1, 0.9), 0)

        def reg(alpha):
            return CompletionProblem(truth, mask, "nnm-reg", alpha=alpha)

        def chain(alphas):
            # each solve starts from the one before, the first from the baseline
            start = solve(CompletionProblem(truth, mask, "nnm-exact"), grid.solver)
            path = {}
            for alpha in alphas:
                start = path[alpha] = solve(reg(alpha), grid.solver, _start=start)
            return path

        def errors(path):
            return [(a, frobenius_norm(path[a].completed - truth)) for a in ALPHAS]

        # the ascending chain reproduces the record bit for bit, while the
        # configured (descending) order and cold solves do not
        path = chain(sorted(ALPHAS))
        assert all(res.status == "converged" for res in path.values())
        assert errors(path) == list(rec.alpha_errors)
        descending = errors(chain(ALPHAS))
        cold = {a: solve(reg(a), grid.solver) for a in ALPHAS}
        tol = harness._exact_tol(grid.solver, truth.shape)
        for (alpha, err), (_, err_down), (_, err_cold) in zip(
            rec.alpha_errors, descending, errors(cold)
        ):
            assert err not in (err_down, err_cold), alpha
            # a warm start stops within the tolerance of the cold solve
            assert abs(err - err_cold) <= 2 * tol, alpha
        assert sum(res.iterations for res in path.values()) < sum(
            res.iterations for res in cold.values()
        )


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


def _bits(value):
    """A record field with every float replaced by its IEEE-754 bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _by_key(result):
    """Each record's fields and outcome, bit for bit, keyed by (cell, trial)."""
    return {
        (r.cell, r.trial_index): (
            *(_bits(getattr(r, f.name)) for f in dataclasses.fields(r)), r.outcome
        )
        for r in result.records
    }


# 0.0 and 1.0 give failed (0, 0) and both-exact (1, 1) cells, 0.9 some inf trials
SWEEP_RATES = (0.0, 0.4, 0.9, 1.0)
SWEEP_PROPERTY = settings(derandomize=True, max_examples=10, deadline=None)


class TestSweepContract:
    """A (cell, trial) record depends on the grid only through its own keys."""

    @SWEEP_PROPERTY
    @given(
        n1=st.integers(8, 12),
        n2=st.integers(8, 12),
        zero_rates=st.lists(st.sampled_from(SWEEP_RATES), min_size=1, max_size=3, unique=True),
        nonzero_rates=st.lists(st.sampled_from(SWEEP_RATES), min_size=1, max_size=3, unique=True),
        trials=st.integers(1, 3),
        alphas=st.lists(st.sampled_from(ALPHAS), min_size=1, max_size=3, unique=True),
        rnd=st.randoms(use_true_random=False),
    )
    # cell (1.0, 0.9) of this grid has an inf trial, and (1.0, 1.0) both-exact ones
    @example(n1=10, n2=10, zero_rates=[1.0, 0.0], nonzero_rates=[0.9, 1.0, 0.0], trials=2,
             alphas=[0.1, 0.01], rnd=random.Random(0))
    def test_records_do_not_depend_on_the_rest_of_the_grid(
        self, n1, n2, zero_rates, nonzero_rates, trials, alphas, rnd
    ):
        full = small_grid(zero_rates=zero_rates, nonzero_rates=nonzero_rates, trials=trials,
                          alphas=alphas, generator=GeneratorSpec(n1, n2, 2, 0.4, 0.6))
        expected = _by_key(run_grid(full))
        assert len(expected) == len(zero_rates) * len(nonzero_rates) * trials

        def sub(rates):
            return rnd.sample(rates, rnd.randint(1, len(rates)))

        variants = {
            "sub-grid": dataclasses.replace(
                full, zero_rates=sub(zero_rates), nonzero_rates=sub(nonzero_rates),
                trials=rnd.randint(1, trials),
            ),
            "reordered": dataclasses.replace(
                full, zero_rates=rnd.sample(zero_rates, len(zero_rates)),
                nonzero_rates=rnd.sample(nonzero_rates, len(nonzero_rates)),
            ),
            "more trials": dataclasses.replace(full, trials=trials + 1),
        }
        results = {name: run_grid(grid) for name, grid in variants.items()}
        for name, result in results.items():
            for key, fields in _by_key(result).items():
                if key[1] < trials:
                    assert fields == expected[key], (name, key)
        # and the trials of a cell are distinct draws: no two inexact
        # baselines of one cell end at the same error
        more = results["more trials"].records
        for cell in {r.cell for r in more}:
            errs = [r.err_nnm for r in more if r.cell == cell and r.outcome == OUTCOME_OK]
            assert len(set(errs)) == len(errs), cell


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
        # the (0.0, 0.0) cell observes nothing on every attempt, a ValueError
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


class TestSweepExecutor:
    def test_unexpected_trial_error_keeps_finished_records(self, monkeypatch):
        real_run_cell = harness.run_cell

        def flaky_run_cell(grid, cell, trial_index):
            if trial_index == 1:
                raise RuntimeError("trial blew up")
            return real_run_cell(grid, cell, trial_index)

        monkeypatch.setattr(harness, "run_cell", flaky_run_cell)
        result = run_grid(small_grid(trials=3))
        assert [r.trial_index for r in result.records] == [0, 1, 2]
        assert [r.outcome for r in result.records] == [OUTCOME_OK, OUTCOME_FAILED, OUTCOME_OK]
        assert "trial blew up" in result.records[1].error
        assert result.failures[0, 0] == 1
