"""CSV matrix/mask interchange, benchmark config files, result serialization.

File conventions
----------------
* Matrix CSV: headerless rows of decimal values; an empty cell marks an
  unobserved entry (only meaningful under the "mask" ingest policy).
* Mask CSV: headerless ``i,j`` zero-based index pairs, row-major order.
* Config: INI-style key/value document (sections: experiment, generator,
  real, solver); schema errors, unknown sections and keys among them,
  report the offending ``section.key``.
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
import re
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


def emit_matrix_csv(path, m) -> None:
    """Write a matrix as headerless CSV, the bytes of :func:`_write_rows`.

    Float cells need no quoting, so each row is its cells joined by commas.
    """
    m = np.asarray(m, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in m.tolist())


def ingest_matrix_csv(path, policy: str = "strict"):
    """Read a matrix CSV; returns ``(matrix, mask)``.

    Policy "strict": empty cells are an error (complete ground-truth files);
    mask comes back None.  Policy "mask": empty cells are unobserved (0.0
    placeholder) and the returned mask excludes them.  numpy parses a file
    of plain numbers; any other file, and every file with an error, goes
    through the cell loop, which names the first bad cell.
    """
    if policy not in ("strict", "mask"):
        raise ValueError(f"unknown empty-cell policy {policy!r}")
    parsed = _parse_plain_matrix(path)
    if parsed is None or (policy == "strict" and not parsed[1].all()):
        parsed = _parse_matrix_cells(path, policy)
    matrix, observed = parsed
    if policy == "strict":
        return matrix, None
    return matrix, ObservationMask.from_lookup(observed)


def _parse_plain_matrix(path):
    """``(matrix, observed)`` of a file whose cells are decimal numbers or empty; else None.

    numpy's text parser reads a number as ``float`` does, bit for bit.  Only
    digits, ``.eE+-`` and commas pass, so whitespace (numpy reads a blank
    cell as -1.0), quotes and words (``nan``, ``inf``) are left to the cell
    loop.
    """
    rows = []
    with open(path, "rb") as fh:
        for line in fh:
            line = line.rstrip(b"\n")
            if not line:
                continue  # a blank line, as csv skips it
            if line.translate(None, b"0123456789.eE+-,"):
                return None
            # an empty cell reads NaN
            padded = (b"," + line + b",").replace(b",,", b",nan,").replace(b",,", b",nan,")
            try:
                rows.append(np.fromstring(padded[1:-1], sep=","))
            except ValueError:
                return None
    if not rows or len({len(row) for row in rows}) != 1:
        return None
    m = np.array(rows)
    unobserved = np.isnan(m)
    if np.isinf(m).any():
        return None
    m[unobserved] = 0.0
    return as_matrix(m), ~unobserved


def _parse_matrix_cells(path, policy: str):
    """The cell loop: ``(matrix, observed)``, or the first bad cell's error."""
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
    return as_matrix(rows), np.array(observed, dtype=bool)


def emit_mask_csv(path, mask: ObservationMask) -> None:
    """Write observed index pairs, one ``i,j`` line per entry, row-major."""
    _write_rows(path, mask.indices())


def ingest_mask_csv(path, rows: int, cols: int) -> ObservationMask:
    """Read an index-pair CSV into a mask for a ``rows x cols`` matrix.

    numpy parses a file of ``i,j`` lines of plain digits; any other file
    goes through the line loop, which names the first bad line.
    """
    with open(path, "rb") as fh:
        # a few lines at a time: a freed buffer above glibc's mmap threshold
        # raises it, and the solve that follows then peaks higher
        parts = []
        while chunk := b"".join(fh.readlines(1 << 15)):
            if not _PLAIN_PAIRS.fullmatch(chunk):
                break
            parts.append(np.fromstring(chunk.replace(b"\n", b","), dtype=np.int64, sep=","))
        else:
            if parts:
                return _mask(path, rows, cols, np.concatenate(parts))
    flat = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line_no, raw in enumerate(reader):
            if not raw:
                continue
            if len(raw) != 2:
                raise CsvParseError(path, line_no, 0, f"expected 'i,j', got {raw!r}")
            try:
                flat += (int(raw[0]), int(raw[1]))
            except ValueError:
                raise CsvParseError(
                    path, line_no, 0, f"indices must be integers, got {raw!r}"
                ) from None
    return _mask(path, rows, cols, np.array(flat))


# at most 18 digits, so every index fits an int64
_PLAIN_PAIRS = re.compile(rb"(?:[0-9]{1,18},[0-9]{1,18}\n)+")


def _mask(path, rows: int, cols: int, flat: np.ndarray) -> ObservationMask:
    try:
        return ObservationMask(rows, cols, flat.reshape(-1, 2))
    except ValueError as exc:
        raise CsvParseError(path, -1, -1, str(exc)) from exc


# ---------------------------------------------------------------------------
# benchmark config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkConfig:
    """A synthetic grid, or a sweep of the ground truth at ``matrix_path``."""

    spec: ExperimentGrid | RealSweep
    matrix_path: str | None = None  # None for a synthetic grid


def _require(cp, section: str, key: str) -> str:
    if not cp.has_option(section, key):
        raise ConfigError(f"{section}.{key}: missing required key")
    return cp.get(section, key)


def _typed(section, key, text, conv):
    try:
        return conv(text)
    except ValueError:
        kind = "an integer" if conv is int else "a number"
        raise ConfigError(f"{section}.{key}: expected {kind}, got {text!r}") from None


def _get(cp, section, key, conv, default=None):
    if default is not None and not cp.has_option(section, key):
        return default
    return _typed(section, key, _require(cp, section, key), conv)


def _get_float_list(cp, section, key):
    text = _require(cp, section, key)
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ConfigError(f"{section}.{key}: expected a comma-separated list of numbers")
    return tuple(_typed(section, key, t, float) for t in tokens)


# every section and key that load_config reads; any other is an error
_KNOWN_KEYS = {
    "experiment": {"kind", "alphas", "zero_rates", "nonzero_rates", "trials", "base_seed",
                   "noise_sigma"},
    "generator": {"rows", "cols", "rank", "density_left", "density_right"},
    "real": {"matrix", "row_subsample"},
    "solver": {f.name for f in dataclasses.fields(SolverConfig)},
}


def _solver_from(cp) -> SolverConfig:
    fields = dataclasses.fields(SolverConfig)
    values = {f.name: _get(cp, "solver", f.name, type(f.default), f.default) for f in fields}
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
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"{section}: unknown section")
        for key in cp.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
    if not cp.has_section("experiment"):
        raise ConfigError("experiment: missing required section")
    kind = _require(cp, "experiment", "kind")
    if kind not in ("synthetic", "real"):
        raise ConfigError(f"experiment.kind: expected 'synthetic' or 'real', got {kind!r}")
    common = dict(
        alphas=_get_float_list(cp, "experiment", "alphas"),
        zero_rates=_get_float_list(cp, "experiment", "zero_rates"),
        nonzero_rates=_get_float_list(cp, "experiment", "nonzero_rates"),
        trials=_get(cp, "experiment", "trials", int),
        base_seed=_get(cp, "experiment", "base_seed", int),
        noise_sigma=_get(cp, "experiment", "noise_sigma", float, 0.0),
        solver=_solver_from(cp),
    )
    try:
        if kind == "synthetic":
            if not cp.has_section("generator"):
                raise ConfigError("generator: missing required section (synthetic runs)")
            generator = GeneratorSpec(
                n1=_get(cp, "generator", "rows", int),
                n2=_get(cp, "generator", "cols", int),
                rank=_get(cp, "generator", "rank", int),
                density_left=_get(cp, "generator", "density_left", float),
                density_right=_get(cp, "generator", "density_right", float),
            )
            return BenchmarkConfig(ExperimentGrid(generator=generator, **common))
        if not cp.has_section("real"):
            raise ConfigError("real: missing required section (real runs)")
        matrix_rel = _require(cp, "real", "matrix")
        matrix_path = os.path.join(os.path.dirname(os.path.abspath(path)), matrix_rel)
        row_subsample = (_get(cp, "real", "row_subsample", int)
                         if cp.has_option("real", "row_subsample") else None)
        return BenchmarkConfig(RealSweep(row_subsample=row_subsample, **common), matrix_path)
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
    """JSON run manifest or solve diagnostics: sorted keys, two-space indent."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
