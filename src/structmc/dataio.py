"""CSV matrix/mask interchange, benchmark config files, result serialization.

File conventions
----------------
* Matrix CSV: headerless rows of decimal values; an empty cell marks an
  unobserved entry (only meaningful under the "mask" ingest policy).
* Mask CSV: headerless ``i,j`` zero-based index pairs, row-major order.
* Config: INI-style key/value document (sections: experiment, generator,
  real, solver); schema errors report the offending ``section.key``.
* Results CSV / heatmap CSVs: fixed column order, ``\\n`` line endings, and
  shortest round-trip float formatting, so a rerun of the same config is
  byte-identical.

Floats are serialized with :func:`repr`, which round-trips float64 exactly.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CsvParseError
from .harness import ExperimentGrid, GridResult, RealSweep
from .matrix import ObservationMask, as_matrix
from .solvers import SolverConfig
from .synth import GeneratorSpec

__all__ = [
    "fmt_float",
    "emit_matrix_csv",
    "ingest_matrix_csv",
    "emit_mask_csv",
    "ingest_mask_csv",
    "BenchmarkConfig",
    "load_config",
    "write_results_csv",
    "write_heatmap_csv",
    "write_manifest",
]

RESULT_COLUMNS = (
    "rate_zero",
    "rate_nonzero",
    "trial",
    "alpha",
    "err_reg",
    "err_nnm",
    "ratio",
    "outcome",
    "status_baseline",
    "status_reg",
    "attempts",
    "error",
)


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips the float64 exactly."""
    return repr(float(x))


def _cell(x: float) -> str:
    """A float cell: empty when undefined (NaN), ``inf`` when infinite."""
    if math.isnan(x):
        return ""
    return "inf" if math.isinf(x) else fmt_float(x)


def _write_rows(path, rows) -> None:
    """Write CSV rows with ``\\n`` line endings, the same bytes on every platform."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def emit_matrix_csv(path, m, mask: ObservationMask | None = None) -> None:
    """Write a matrix as headerless CSV; masked-out entries become empty cells."""
    m = np.asarray(m, dtype=np.float64)
    keep = mask.lookup if mask is not None else np.ones(m.shape, dtype=bool)
    _write_rows(path, (
        [fmt_float(v) if k else "" for v, k in zip(row, keep_row)]
        for row, keep_row in zip(m.tolist(), keep.tolist())
    ))


def ingest_matrix_csv(path, policy: str = "strict"):
    """Read a matrix CSV; returns ``(matrix, mask)``.

    Policy "strict": empty cells are an error (complete ground-truth files);
    mask comes back None.  Policy "mask": empty cells are unobserved (0.0
    placeholder) and the returned mask excludes them.
    """
    if policy not in ("strict", "mask"):
        raise ValueError(f"unknown empty-cell policy {policy!r}")
    rows: list[list[float]] = []
    observed: list[list[bool]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, raw in enumerate(reader):
            if not raw:
                continue  # ignore trailing blank lines
            values, keep = [], []
            for j, cell in enumerate(raw):
                text = cell.strip()
                if text == "":
                    if policy == "strict":
                        raise CsvParseError(path, i, j, "empty cell in a complete matrix")
                    values.append(0.0)
                    keep.append(False)
                    continue
                try:
                    v = float(text)
                except ValueError:
                    raise CsvParseError(path, i, j, f"not a number: {text!r}") from None
                if not math.isfinite(v):
                    raise CsvParseError(path, i, j, f"non-finite value: {text!r}")
                values.append(v)
                keep.append(True)
            if rows and len(values) != len(rows[0]):
                raise CsvParseError(
                    path, i, len(values),
                    f"ragged row: expected {len(rows[0])} columns, got {len(values)}",
                )
            rows.append(values)
            observed.append(keep)
    if not rows:
        raise CsvParseError(path, 0, 0, "empty file")
    matrix = as_matrix(rows)
    if policy == "strict":
        return matrix, None
    return matrix, ObservationMask.from_lookup(np.array(observed, dtype=bool))


def emit_mask_csv(path, mask: ObservationMask) -> None:
    """Write observed index pairs, one ``i,j`` line per entry, row-major."""
    _write_rows(path, mask.indices())


def ingest_mask_csv(path, rows: int, cols: int) -> ObservationMask:
    """Read an index-pair CSV into a mask for a ``rows x cols`` matrix."""
    pairs = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line_no, raw in enumerate(reader):
            if not raw:
                continue
            if len(raw) != 2:
                raise CsvParseError(path, line_no, 0, f"expected 'i,j', got {raw!r}")
            try:
                pairs.append((int(raw[0]), int(raw[1])))
            except ValueError:
                raise CsvParseError(
                    path, line_no, 0, f"indices must be integers, got {raw!r}"
                ) from None
    try:
        return ObservationMask(rows, cols, pairs)
    except ValueError as exc:
        raise CsvParseError(path, -1, -1, str(exc)) from exc


# ---------------------------------------------------------------------------
# benchmark config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkConfig:
    kind: str  # "synthetic" or "real"
    grid: ExperimentGrid | None = None
    sweep: RealSweep | None = None
    matrix_path: str | None = None


def _require(cp, section: str, key: str) -> str:
    if not cp.has_option(section, key):
        raise ConfigError(f"{section}.{key}: missing required key")
    return cp.get(section, key)


def _typed(section, key, text, conv, kind):
    try:
        return conv(text)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected {kind}, got {text!r}") from None


def _get_int(cp, section, key, default=None):
    if default is not None and not cp.has_option(section, key):
        return default
    return _typed(section, key, _require(cp, section, key), int, "an integer")


def _get_float(cp, section, key, default=None):
    if default is not None and not cp.has_option(section, key):
        return default
    return _typed(section, key, _require(cp, section, key), float, "a number")


def _get_float_list(cp, section, key):
    text = _require(cp, section, key)
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ConfigError(f"{section}.{key}: expected a comma-separated list of numbers")
    return tuple(
        _typed(section, key, t, float, "a number") for t in tokens
    )


def _solver_from(cp) -> SolverConfig:
    if not cp.has_section("solver"):
        return SolverConfig()
    readers = {
        f.name: _get_int if isinstance(f.default, int) else _get_float
        for f in dataclasses.fields(SolverConfig)
    }
    values = {}
    for key in cp.options("solver"):
        if key not in readers:
            raise ConfigError(f"solver.{key}: unknown key")
        values[key] = readers[key](cp, "solver", key)
    try:
        return SolverConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc


def load_config(path) -> BenchmarkConfig:
    """Parse a benchmark config document into a typed configuration."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not cp.has_section("experiment"):
        raise ConfigError("experiment: missing required section")
    kind = _require(cp, "experiment", "kind")
    if kind not in ("synthetic", "real"):
        raise ConfigError(f"experiment.kind: expected 'synthetic' or 'real', got {kind!r}")
    common = dict(
        alphas=_get_float_list(cp, "experiment", "alphas"),
        zero_rates=_get_float_list(cp, "experiment", "zero_rates"),
        nonzero_rates=_get_float_list(cp, "experiment", "nonzero_rates"),
        trials=_get_int(cp, "experiment", "trials"),
        base_seed=_get_int(cp, "experiment", "base_seed"),
        noise_sigma=_get_float(cp, "experiment", "noise_sigma", default=0.0),
        solver=_solver_from(cp),
    )
    try:
        if kind == "synthetic":
            if not cp.has_section("generator"):
                raise ConfigError("generator: missing required section (synthetic runs)")
            generator = GeneratorSpec(
                n1=_get_int(cp, "generator", "rows"),
                n2=_get_int(cp, "generator", "cols"),
                rank=_get_int(cp, "generator", "rank"),
                density_left=_get_float(cp, "generator", "density_left"),
                density_right=_get_float(cp, "generator", "density_right"),
            )
            return BenchmarkConfig(kind=kind, grid=ExperimentGrid(generator=generator, **common))
        if not cp.has_section("real"):
            raise ConfigError("real: missing required section (real runs)")
        matrix_rel = _require(cp, "real", "matrix")
        matrix_path = os.path.join(os.path.dirname(os.path.abspath(path)), matrix_rel)
        row_subsample = None
        if cp.has_option("real", "row_subsample"):
            row_subsample = _get_int(cp, "real", "row_subsample")
        sweep = RealSweep(row_subsample=row_subsample, **common)
        return BenchmarkConfig(kind=kind, sweep=sweep, matrix_path=matrix_path)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


def write_results_csv(path, result: GridResult) -> None:
    """Long-form results: one row per trial record, fixed order and format.

    Undefined values (a failed trial's numbers, a both-exact ratio) are empty.
    """
    _write_rows(path, [RESULT_COLUMNS, *(
        [_cell(rec.cell[0]), _cell(rec.cell[1]), rec.trial_index,
         *map(_cell, (rec.alpha_used, rec.err_reg, rec.err_nnm, rec.ratio)),
         rec.outcome, rec.status_baseline, rec.status_reg, rec.attempts, rec.error or ""]
        for rec in result.records
    )])


def write_heatmap_csv(path, zero_rates, nonzero_rates, table) -> None:
    """Matrix-form per-cell means with rate axes as headers.

    Rows are zero rates, columns nonzero rates.  Undefined cells (no finite
    trials) are empty; infinite means are written as ``inf``.
    """
    table = np.asarray(table, dtype=np.float64)
    _write_rows(path, [["rate_zero", *map(_cell, nonzero_rates)], *(
        [_cell(rz), *map(_cell, row)] for rz, row in zip(zero_rates, table.tolist())
    )])


def write_manifest(path, payload: dict) -> None:
    """JSON run manifest (parameters, versions, wall time)."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
