import json
import math

import numpy as np
import pytest

from structmc import (
    ExperimentGrid,
    GeneratorSpec,
    GridResult,
    ObservationMask,
    TrialRecord,
    run_grid,
    stream,
)
from structmc.dataio import (
    BenchmarkConfig,
    emit_mask_csv,
    emit_matrix_csv,
    fmt_float,
    ingest_mask_csv,
    ingest_matrix_csv,
    load_config,
    write_heatmap_csv,
    write_manifest,
    write_results_csv,
)
from structmc.errors import ConfigError, CsvParseError

TRICKY = np.array(
    [
        [0.1, 1.0 / 3.0, -0.0],
        [1e300, 5e-324, -1.9999999999999998],
        [123456789.123456789, -1e-17, 2.0],
    ]
)


class TestMatrixCsv:
    def test_simple_ingest(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        matrix, mask = ingest_matrix_csv(path, policy="mask")
        np.testing.assert_array_equal(matrix, [[1.0, 2.0], [3.0, 4.0]])
        assert mask.size == 4

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "tricky.csv"
        emit_matrix_csv(path, TRICKY)
        back, _ = ingest_matrix_csv(path, policy="strict")
        assert back.tobytes() == TRICKY.tobytes()

    def test_round_trip_random(self, tmp_path):
        rng = stream(55, "round-trip")
        m = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-8, 8, size=(7, 5))
        path = tmp_path / "r.csv"
        emit_matrix_csv(path, m)
        back, _ = ingest_matrix_csv(path, policy="strict")
        assert back.tobytes() == m.tobytes()

    def test_mask_policy_empty_cells(self, tmp_path):
        path = tmp_path / "holes.csv"
        path.write_text("1,\n3,4\n")
        matrix, mask = ingest_matrix_csv(path, policy="mask")
        np.testing.assert_array_equal(matrix, [[1.0, 0.0], [3.0, 4.0]])
        assert mask.indices() == [(0, 0), (1, 0), (1, 1)]

    def test_strict_policy_rejects_empty_cell(self, tmp_path):
        path = tmp_path / "holes.csv"
        path.write_text("1,\n3,4\n")
        with pytest.raises(CsvParseError) as info:
            ingest_matrix_csv(path, policy="strict")
        assert info.value.row == 0
        assert info.value.col == 1

    def test_ragged_rejected_with_location(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(CsvParseError) as info:
            ingest_matrix_csv(path, policy="mask")
        assert info.value.row == 1

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\n3,4\n")
        with pytest.raises(CsvParseError) as info:
            ingest_matrix_csv(path, policy="mask")
        assert (info.value.row, info.value.col) == (0, 1)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1,inf\n3,4\n")
        with pytest.raises(CsvParseError):
            ingest_matrix_csv(path, policy="mask")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvParseError):
            ingest_matrix_csv(path, policy="mask")

    def test_emit_with_mask_writes_holes(self, tmp_path):
        mask = ObservationMask(2, 2, [(0, 0), (1, 1)])
        path = tmp_path / "holes_out.csv"
        emit_matrix_csv(path, np.array([[1.0, 2.0], [3.0, 4.0]]), mask)
        assert path.read_text() == "1.0,\n,4.0\n"


class TestMaskCsv:
    def test_round_trip(self, tmp_path):
        mask = ObservationMask(3, 4, [(0, 0), (2, 3), (1, 1)])
        path = tmp_path / "mask.csv"
        emit_mask_csv(path, mask)
        back = ingest_mask_csv(path, 3, 4)
        assert back == mask

    def test_bad_pair_rejected(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_text("0,0,0\n")
        with pytest.raises(CsvParseError):
            ingest_mask_csv(path, 2, 2)

    def test_out_of_bounds_rejected(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_text("5,0\n")
        with pytest.raises(CsvParseError):
            ingest_mask_csv(path, 2, 2)


SYNTH_CONFIG = """
[experiment]
kind = synthetic
trials = 2
base_seed = 31415
noise_sigma = 0.0
alphas = 0.1, 0.01
zero_rates = 0.2, 0.8
nonzero_rates = 0.9

[generator]
rows = 10
cols = 10
rank = 2
density_left = 0.4
density_right = 0.6

[solver]
max_iters = 2000
"""

REAL_CONFIG = """
[experiment]
kind = real
trials = 1
base_seed = 7
alphas = 0.1
zero_rates = 0.5
nonzero_rates = 0.5

[real]
matrix = truth.csv
row_subsample = 4
"""


class TestConfig:
    def test_synthetic_config(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SYNTH_CONFIG)
        config = load_config(path)
        assert isinstance(config, BenchmarkConfig)
        assert config.kind == "synthetic"
        grid = config.grid
        assert grid.zero_rates == (0.2, 0.8)
        assert grid.nonzero_rates == (0.9,)
        assert grid.alphas == (0.1, 0.01)
        assert grid.trials == 2
        assert grid.generator.rank == 2
        assert grid.solver.max_iters == 2000
        assert grid.solver.primal_tol == 1e-6  # default preserved

    def test_real_config(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(REAL_CONFIG)
        config = load_config(path)
        assert config.kind == "real"
        assert config.sweep.row_subsample == 4
        assert config.matrix_path == str(tmp_path / "truth.csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_missing_key_reports_path(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[experiment]\nkind = synthetic\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "experiment." in str(info.value)

    def test_bad_value_reports_path(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SYNTH_CONFIG.replace("trials = 2", "trials = soon"))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "experiment.trials" in str(info.value)

    def test_bad_solver_value_names_its_key_once(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SYNTH_CONFIG.replace("max_iters = 2000", "max_iters = abc"))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value).startswith("solver.max_iters: ")
        assert "'abc'" in str(info.value)

    def test_out_of_range_solver_value_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SYNTH_CONFIG.replace("max_iters = 2000", "max_iters = 0"))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "max_iters" in str(info.value)

    def test_unknown_solver_key(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SYNTH_CONFIG + "step_size = 2\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "solver.step_size" in str(info.value)

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SYNTH_CONFIG.replace("kind = synthetic", "kind = quantum"))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "experiment.kind" in str(info.value)

    def test_generator_section_required(self, tmp_path):
        path = tmp_path / "cfg.ini"
        text = "\n".join(
            line for line in SYNTH_CONFIG.splitlines() if not line.startswith(("[generator]", "rows", "cols", "rank", "density"))
        )
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "generator" in str(info.value)


def tiny_result():
    grid = ExperimentGrid(
        zero_rates=(0.3, 1.0),
        nonzero_rates=(1.0,),
        alphas=(0.1, 0.01),
        trials=1,
        generator=GeneratorSpec(8, 8, 2, 0.5, 0.6),
        base_seed=2024,
    )
    return run_grid(grid)


class TestResultsSerialization:
    def test_results_csv_shape_and_header(self, tmp_path):
        result = tiny_result()
        path = tmp_path / "results.csv"
        write_results_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("rate_zero,rate_nonzero,trial,alpha")
        assert len(lines) == 1 + len(result.records)

    def test_results_csv_deterministic(self, tmp_path):
        result = tiny_result()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(p1, result)
        write_results_csv(p2, tiny_result())
        assert p1.read_bytes() == p2.read_bytes()

    def test_both_exact_row_formatting(self, tmp_path):
        result = tiny_result()
        path = tmp_path / "results.csv"
        write_results_csv(path, result)
        text = path.read_text()
        # the fully observed cell yields an empty ratio and the both-exact tag
        assert "both-exact" in text

    def test_results_rows_exact_text(self, tmp_path):
        nan = math.nan
        common = dict(status_baseline="converged", status_reg="max-iters")
        records = (
            TrialRecord((0.1, 0.9), 0, 0.01, 0.5, 1.0 / 3.0, 2.0 / 3.0, attempts=2, **common),
            TrialRecord((0.1, 0.9), 1, 0.1, nan, 0.0, 0.0, **common),
            TrialRecord((1.0, 0.0), 0, 1e-4, math.inf, 2.5, 0.0, **common),
            TrialRecord((0.0, 0.0), 3, nan, nan, nan, nan, "", "", error="cell (0, 0): no draw"),
        )
        result = GridResult(None, records, None, None, None, None)
        path = tmp_path / "results.csv"
        write_results_csv(path, result)
        assert path.read_bytes().decode().split("\n") == [
            "rate_zero,rate_nonzero,trial,alpha,err_reg,err_nnm,ratio,outcome,"
            "status_baseline,status_reg,attempts,error",
            "0.1,0.9,0,0.01,0.3333333333333333,0.6666666666666666,0.5,ok,"
            "converged,max-iters,2,",
            "0.1,0.9,1,0.1,0.0,0.0,,both-exact,converged,max-iters,1,",
            "1.0,0.0,0,0.0001,2.5,0.0,inf,inf,converged,max-iters,1,",
            "0.0,0.0,3,,,,,failed,,,1,\"cell (0, 0): no draw\"",
            "",
        ]

    def test_heatmap_layout(self, tmp_path):
        result = tiny_result()
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(path, result.grid.zero_rates, result.grid.nonzero_rates, result.mean_ratio)
        lines = path.read_text().splitlines()
        assert lines[0] == "rate_zero,1.0"
        assert lines[1].startswith("0.3,")
        assert lines[2].startswith("1.0,")

    def test_heatmap_nan_and_inf_cells(self, tmp_path):
        path = tmp_path / "h.csv"
        write_heatmap_csv(path, (0.1, 0.2), (0.5,), np.array([[math.nan], [math.inf]]))
        lines = path.read_text().splitlines()
        assert lines[1] == "0.1,"
        assert lines[2] == "0.2,inf"

    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, {"b": 2, "a": [1, 2]})
        loaded = json.loads(path.read_text())
        assert loaded == {"a": [1, 2], "b": 2}


class TestFmtFloat:
    def test_round_trip_exact(self):
        for x in TRICKY.ravel():
            assert float(fmt_float(x)) == x or (math.isnan(x) and math.isnan(float(fmt_float(x))))

    def test_shortest_form(self):
        assert fmt_float(0.1) == "0.1"
        assert fmt_float(1.0) == "1.0"
