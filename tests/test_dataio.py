import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structmc import (
    ExperimentGrid,
    GeneratorSpec,
    GridResult,
    ObservationMask,
    RealSweep,
    SolverConfig,
    TrialRecord,
    run_grid,
    stream,
)
from structmc import dataio
from structmc.dataio import (
    _SCHEMA,
    _parse_matrix_cells,
    _parse_plain_matrix,
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

from masks import mask_of

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
        assert mask == mask_of((2, 2), [(0, 0), (1, 0), (1, 1)])

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

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start the file with one
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,\n")
        matrix, mask = ingest_matrix_csv(path, policy="mask")
        np.testing.assert_array_equal(matrix, [[1.0, 2.0], [3.0, 0.0]])
        assert mask == mask_of((2, 2), [(0, 0), (0, 1), (1, 0)])

    def test_ingest_single_column_quoted_hole(self, tmp_path):
        # as csv writes a one-cell row that is empty: a blank line is no row at all
        path = tmp_path / "column.csv"
        path.write_text('1.5\n""\n-0.0\n')
        back, inferred = ingest_matrix_csv(path, policy="mask")
        assert back.tobytes() == np.array([[1.5], [0.0], [-0.0]]).tobytes()
        assert inferred == mask_of((3, 1), [(0, 0), (2, 0)])


def _outcome(read):
    """A read's result as bytes, or its error's type and message."""
    try:
        matrix, observed = read()
    except Exception as exc:  # the comparison covers every error the cell loop raises
        return type(exc).__name__, str(exc)
    observed = getattr(observed, "lookup", observed)
    return matrix.tobytes(), matrix.shape, None if observed is None else observed.tobytes()


def _cell_loop(path, policy):
    table = _parse_matrix_cells(path, policy)
    observed = ~np.isnan(table)
    return np.where(observed, table, 0.0), (observed if policy == "mask" else None)


CSV_PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)
# plain numbers in several spellings, and cells only the cell loop reads
CELLS = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
         | st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.25g}")
         | st.sampled_from(["", "", "1", "-0.0", "1e-05", "007", "+1", "1e400", "nan", "inf",
                            " ", " 1", "1_0", '"3"', "x", "-", ".", "1e", "1.2.3", "0x10"]))


class TestMatrixCsvNumpyParse:
    """numpy parses plain files; the result, or error, is the cell loop's."""

    @CSV_PROPERTY
    @given(rows=st.lists(st.lists(CELLS, min_size=1, max_size=4), min_size=1, max_size=4),
           policy=st.sampled_from(["mask", "strict"]), blank_line=st.booleans())
    def test_matches_the_cell_loop(self, tmp_path_factory, rows, policy, blank_line):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        lines = [",".join(row) for row in rows] + ([""] if blank_line else [])
        path.write_text("\n".join(lines) + "\n")
        assert _outcome(lambda: ingest_matrix_csv(path, policy)) == _outcome(
            lambda: _cell_loop(path, policy))

    @CSV_PROPERTY
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                           max_size=6),
           spelling=st.sampled_from(["{!r}", "{:.17e}", "{:.25g}", "{:.3f}"]))
    def test_values_are_float_of_the_text_bit_for_bit(self, tmp_path_factory, values, spelling):
        texts = [spelling.format(v) for v in values]
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_text(",".join(texts) + "\n")
        table = _parse_plain_matrix(path)
        assert table is not None
        assert table.tobytes() == np.array([[float(t) for t in texts]]).tobytes()

    def test_emitted_file_with_holes_takes_the_numpy_parse(self, tmp_path):
        m = stream(3, "numpy-parse").standard_normal((6, 5)) * 1e3
        mask = ObservationMask.from_lookup(stream(3, "numpy-parse-mask").random((6, 5)) < 0.6)
        path = tmp_path / "holes.csv"
        path.write_text("".join(
            ",".join(repr(v) if k else "" for v, k in zip(row, keep)) + "\n"
            for row, keep in zip(m.tolist(), mask.lookup.tolist())))
        table = _parse_plain_matrix(path)
        np.testing.assert_array_equal(np.isnan(table), ~mask.lookup)
        assert table[mask.lookup].tobytes() == m[mask.lookup].tobytes()


class TestMaskCsv:
    def test_round_trip(self, tmp_path):
        mask = mask_of((3, 4), [(0, 0), (2, 3), (1, 1)])
        path = tmp_path / "mask.csv"
        emit_mask_csv(path, mask)
        back = ingest_mask_csv(path, 3, 4)
        assert back == mask

    def test_writer_bytes(self, tmp_path):
        path = tmp_path / "mask.csv"
        emit_mask_csv(path, mask_of((2, 3), [(1, 2), (0, 0), (0, 2)]))
        assert path.read_bytes() == b"0,0\n0,2\n1,2\n"  # row-major

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

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_bytes(b"\xef\xbb\xbf0,0\n1,1\n")
        assert ingest_mask_csv(path, 2, 2) == mask_of((2, 2), [(0, 0), (1, 1)])

    @pytest.mark.parametrize("text,message", [
        ("0,0\n1,1\n0,0\n9,9\n", "duplicate index pair (0, 0)"),
        ("0,0\n9,9\n0,0\n", "index (9, 9) outside a 2x2 mask"),
        ("0,1\n\n99999999999999999999999,0\n", "index (99999999999999999999999, 0) outside"),
        # the same errors with the line they name, counted from 0 like a matrix CSV's rows
        ("1,1\n0,0\n1,1\n9,9\n", "row 2, col 0: duplicate index pair (1, 1)"),
        ("0,0\n0,2\n0,0\n", "row 1, col 0: index (0, 2) outside a 2x2 mask"),
        ("1,1\n-1,0\n", "row 1, col 0: index (-1, 0) outside a 2x2 mask"),
        ("0,1\n\n99999999999999999999999,0\n1,1\n",
         "row 2, col 0: index (99999999999999999999999, 0) outside"),
        ("0,1\n1,0.5\n0,1\n", "row 1, col 0: indices must be integers, got ['1', '0.5']"),
    ])
    def test_first_bad_pair_named(self, tmp_path, text, message):
        path = tmp_path / "mask.csv"
        path.write_text(text)
        with pytest.raises(CsvParseError, match=re.escape(message)) as raised:
            ingest_mask_csv(path, 2, 2)
        assert raised.value.row >= 0  # a line of the file


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

# SYNTH_CONFIG with every [solver] key set
ALL_KEYS_CONFIG = SYNTH_CONFIG + "primal_tol = 1e-6\ndual_tol = 1e-6\nadmm_penalty = 1.0\n"

# the value each optional key takes when omitted; every other key is required
DEFAULTS = {"noise_sigma": 0.0, "row_subsample": None, **dataclasses.asdict(SolverConfig())}


class TestMaskCsvNumpyParse:
    @CSV_PROPERTY
    @given(lines=st.lists(st.lists(
        st.integers(0, 3).map(str) | st.sampled_from(["007", " 1", "-1", "1.0", "", "x",
                                                      "99999999999999999999"]),
        min_size=1, max_size=3).map(",".join), max_size=5), final_newline=st.booleans())
    @example(lines=["1,2", "99999999999999999999,1"], final_newline=True)  # beyond int64
    def test_matches_the_line_loop(self, tmp_path_factory, lines, final_newline):
        path = tmp_path_factory.mktemp("mask") / "k.csv"
        got = {}
        for end in ("\n", "\r\n"):  # csv reads both alike; only "\n" files are plain
            path.write_bytes((end.join(lines) + (end if final_newline else "")).encode())
            got[end] = _outcome(lambda: (np.zeros(1), ingest_mask_csv(path, 4, 4)))
        assert got["\n"] == got["\r\n"]

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_plain_file_never_reaches_the_line_loop(self, tmp_path, monkeypatch, final_newline):
        mask = ObservationMask(stream(4, "plain-mask").random((200, 200)) < 0.6)
        path = tmp_path / "k.csv"
        emit_mask_csv(path, mask)
        if not final_newline:
            path.write_bytes(path.read_bytes()[:-1])

        def no_line_loop(*args):
            raise AssertionError("the line loop read a plain mask file")

        monkeypatch.setattr(dataio, "_text", no_line_loop)
        assert ingest_mask_csv(path, 200, 200) == mask


class TestNotUtf8:
    @pytest.mark.parametrize("head", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("offset", [6, 20_002])
    @pytest.mark.parametrize("read", [
        lambda path: ingest_matrix_csv(path, policy="mask"),
        lambda path: ingest_mask_csv(path, 2, 2),
        load_config,
    ], ids=["matrix", "mask", "config"])
    def test_bad_byte_is_named_by_its_file_offset(self, tmp_path, read, offset, head):
        # past the first 8 KB a streamed decode counts from its chunk instead
        data = bytearray(head + b"0,1\n" * (offset // 4 + 1))
        data[offset] = 0xFF
        path = tmp_path / "bad"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value) == f"{path}: not valid UTF-8 (invalid start byte at byte {offset})"


class TestConfig:
    def test_synthetic_config(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SYNTH_CONFIG)
        grid, matrix_path = load_config(path)
        assert matrix_path is None
        assert isinstance(grid, ExperimentGrid)
        assert grid.zero_rates == (0.2, 0.8)
        assert grid.nonzero_rates == (0.9,)
        assert grid.alphas == (0.1, 0.01)
        assert grid.trials == 2
        assert grid.generator.rank == 2
        assert grid.solver.max_iters == 2000
        assert grid.solver.primal_tol == 1e-6  # default preserved

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_bytes(b"\xef\xbb\xbf" + SYNTH_CONFIG.lstrip().encode())
        plain = tmp_path / "plain.ini"
        plain.write_text(SYNTH_CONFIG)
        assert load_config(path) == load_config(plain)

    def test_real_config(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(REAL_CONFIG)
        sweep, matrix_path = load_config(path)
        assert isinstance(sweep, RealSweep)
        assert sweep.row_subsample == 4
        assert matrix_path == str(tmp_path / "truth.csv")

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

    @pytest.mark.parametrize("key", ["admm_penalty", "primal_tol", "dual_tol"])
    def test_infinite_solver_value_is_config_error(self, tmp_path, key):
        path = tmp_path / "cfg.ini"
        path.write_text(SYNTH_CONFIG + f"{key} = inf\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert key in str(info.value)

    def test_unknown_solver_key(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SYNTH_CONFIG + "step_size = 2\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "solver.step_size" in str(info.value)

    @pytest.mark.parametrize("config, section, key", [
        (SYNTH_CONFIG, "experiment", "noise_sgima"),
        (SYNTH_CONFIG, "generator", "seeed"),
        (REAL_CONFIG, "real", "rows_subsample"),
    ], ids=["experiment", "generator", "real"])
    def test_unknown_key_in_any_section(self, tmp_path, config, section, key):
        path = tmp_path / "cfg.ini"
        path.write_text(config.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{section}.{key}: unknown key"

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SYNTH_CONFIG.replace("[solver]", "[solvers]"))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == "solvers: unknown section"

    def test_default_section_is_unknown(self, tmp_path):
        # configparser would merge [DEFAULT] into every section
        path = tmp_path / "cfg.ini"
        path.write_text("[DEFAULT]\ntrials = 3\n" + SYNTH_CONFIG)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == "DEFAULT: unknown section"

    @pytest.mark.parametrize("section, key", [(s, k) for s in _SCHEMA for k in _SCHEMA[s]],
                             ids=lambda v: v)
    def test_every_schema_key(self, tmp_path, section, key):
        base = REAL_CONFIG if section == "real" else ALL_KEYS_CONFIG
        line = re.compile(rf"^{key} = .*\n", re.M)
        assert line.search(base)
        path = tmp_path / "cfg.ini"
        path.write_text(line.sub("", base))
        if key in DEFAULTS:
            spec, _ = load_config(path)
            assert getattr(spec.solver if section == "solver" else spec, key) == DEFAULTS[key]
        else:
            with pytest.raises(ConfigError) as info:
                load_config(path)
            assert str(info.value) == f"{section}.{key}: missing required key"
        if key == "matrix":  # any text names a file
            return
        path.write_text(line.sub(f"{key} = 1x\n", base))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value).startswith(f"{section}.{key}: expected ")
        assert str(info.value).endswith(", got '1x'")

    def test_bad_list_value_quotes_the_value(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SYNTH_CONFIG.replace("alphas = 0.1, 0.01", "alphas = 0.1, x"))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == (
            "experiment.alphas: expected a comma-separated list of numbers, got '0.1, x'")

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


TINY_GRID = ExperimentGrid(
    zero_rates=(0.3, 1.0),
    nonzero_rates=(1.0,),
    alphas=(0.1, 0.01),
    trials=1,
    generator=GeneratorSpec(8, 8, 2, 0.5, 0.6),
    base_seed=2024,
)


def tiny_result():
    return run_grid(TINY_GRID)


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
            TrialRecord((0.0, 0.0), 3, nan, nan, nan, nan, "", "", attempts=None,
                        error="cell (0, 0): no draw"),
        )
        result = GridResult(records, None, None, None, None)
        path = tmp_path / "results.csv"
        write_results_csv(path, result)
        assert path.read_bytes().decode().split("\n") == [
            "rate_zero,rate_nonzero,trial,alpha,err_reg,err_nnm,ratio,outcome,"
            "status_baseline,status_reg,attempts,error",
            "0.1,0.9,0,0.01,0.3333333333333333,0.6666666666666666,0.5,ok,"
            "converged,max-iters,2,",
            "0.1,0.9,1,0.1,0.0,0.0,,both-exact,converged,max-iters,1,",
            "1.0,0.0,0,0.0001,2.5,0.0,inf,inf,converged,max-iters,1,",
            "0.0,0.0,3,,,,,failed,,,,\"cell (0, 0): no draw\"",
            "",
        ]

    def test_heatmap_layout(self, tmp_path):
        result = tiny_result()
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(path, TINY_GRID.zero_rates, TINY_GRID.nonzero_rates, result.mean_ratio)
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

    def test_manifest_non_finite_floats_are_null(self, tmp_path):
        # JSON has no NaN or Infinity; a strict reader must accept the file
        path = tmp_path / "manifest.json"
        write_manifest(path, {"r": math.inf, "s": [-math.inf, 1.5], "t": {"u": math.nan}})

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        loaded = json.loads(path.read_text(), parse_constant=reject)
        assert loaded == {"r": None, "s": [None, 1.5], "t": {"u": None}}


class TestFmtFloat:
    def test_round_trip_exact(self):
        for x in TRICKY.ravel():
            assert float(fmt_float(x)) == x or (math.isnan(x) and math.isnan(float(fmt_float(x))))

    def test_shortest_form(self):
        assert fmt_float(0.1) == "0.1"
        assert fmt_float(1.0) == "1.0"
