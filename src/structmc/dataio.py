"""CSV matrix/mask interchange, benchmark config files, result serialization.

File conventions
----------------
* Matrix CSV: headerless rows of decimal values; an empty cell marks an
  unobserved entry (only meaningful under the "mask" ingest policy).
* Mask CSV: headerless ``i,j`` zero-based index pairs, row-major order;
  every pair lies inside the matrix and none repeats.
* Config: INI-style key/value document whose sections and keys are those
  of ``_SCHEMA``, read literally; schema errors, unknown sections and keys
  among them, report the offending ``section.key``.
* Results CSV / heatmap CSVs: fixed column order, ``\\n`` line endings, and
  shortest round-trip float formatting, so a rerun of the same config is
  byte-identical.

Floats are serialized with :func:`repr`, which round-trips float64 exactly.
Text files are read as UTF-8; a leading byte-order mark, as spreadsheet
"CSV UTF-8" exports write, is skipped.  Both CSV readers first read the file
with numpy's CSV reader (``np.loadtxt``), which reads ``\\r\\n`` and ``\\r`` as
``\\n`` and skips blank lines; the matrix reader takes each cell's value from
one rule, :func:`_cell_value`.  A file numpy cannot read whole goes through a
loop that names its first bad cell.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import io
import json
import math
import os
import warnings
from dataclasses import MISSING

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
    Rows become Python floats one at a time, so the write holds one row's
    floats, not the whole matrix's.
    """
    m = np.asarray(m, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in m)


def ingest_matrix_csv(path, policy: str = "strict"):
    """Read a matrix CSV; returns ``(matrix, mask)``.

    Policy "strict": empty cells are an error (complete ground-truth files);
    mask comes back None.  Policy "mask": empty cells are unobserved (0.0
    placeholder) and the returned mask excludes them.  numpy's CSV reader,
    and for any file it cannot read whole the cell loop that names the first
    bad cell, take each value from :func:`_cell_value`: NaN when empty.
    """
    if policy not in ("strict", "mask"):
        raise ValueError(f"unknown empty-cell policy {policy!r}")
    table = _numpy_table(path, converters=_cell_value)
    if table is None or (policy == "strict" and np.isnan(table).any()):
        table = _parse_matrix_cells(path, policy)
    unobserved = np.isnan(table)
    table[unobserved] = 0.0
    return as_matrix(table), None if policy == "strict" else ObservationMask(~unobserved)


def _cell_value(text: str) -> float:
    """A matrix cell's value: NaN when empty after stripping, else a finite float."""
    text = text.strip()
    if not text:
        return math.nan
    try:
        v = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"non-finite value: {text!r}")
    return v


def _text(path, error=ValueError):
    """A UTF-8 file, after any byte-order mark, as a text stream; decoded whole, so
    a bad byte is named by its file offset, not by its offset in an 8 KB chunk."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode().removeprefix("\ufeff"), newline="")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def _numpy_table(path, **kwargs):
    """The file's table as numpy's CSV reader reads it whole; None on a bad cell or any
    warning (an empty file; numpy 1.x may warn where 2.x raises)."""
    with open(path, encoding="utf-8-sig") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, **kwargs)
        except (ValueError, Warning):
            return None


def _parse_matrix_cells(path, policy: str):
    """The cell loop: the float table, NaN in each empty cell, or the first bad cell's error."""
    rows: list[list[float]] = []
    with _text(path) as fh:
        for i, raw in enumerate(csv.reader(fh)):
            if not raw:
                continue  # ignore trailing blank lines
            values = []
            for j, cell in enumerate(raw):
                try:
                    v = _cell_value(cell)
                except ValueError as exc:
                    raise CsvParseError(path, i, j, str(exc)) from None
                if policy == "strict" and math.isnan(v):
                    raise CsvParseError(path, i, j, "empty cell in a complete matrix")
                values.append(v)
            if rows and len(values) != len(rows[0]):
                raise CsvParseError(
                    path, i, len(values),
                    f"ragged row: expected {len(rows[0])} columns, got {len(values)}",
                )
            rows.append(values)
    if not rows:
        raise CsvParseError(path, 0, 0, "empty file")
    return np.array(rows)


def emit_mask_csv(path, mask: ObservationMask) -> None:
    """Write observed index pairs, one ``i,j`` line per entry, row-major, a row at a time."""
    with open(path, "w", newline="") as fh:
        for i, row in enumerate(mask.lookup):
            fh.writelines(f"{i},{j}\n" for j in np.flatnonzero(row).tolist())


def ingest_mask_csv(path, rows: int, cols: int) -> ObservationMask:
    """Read an index-pair CSV into a mask for a ``rows x cols`` matrix.

    Every pair must lie inside the matrix and none may repeat.  numpy's CSV
    reader reads a file of ``i,j`` integer lines whole; when its pairs pass
    both checks that read is the only one.  Any other file goes through the
    line loop, which names the line of the first bad pair.
    """
    pairs = _numpy_table(path, dtype=np.int64)
    if pairs is not None and pairs.shape[1] == 2 and ((0 <= pairs) & (pairs < (rows, cols))).all():
        lookup = np.zeros(rows * cols, dtype=bool)
        lookup[pairs[:, 0] * cols + pairs[:, 1]] = True
        if np.count_nonzero(lookup) == len(pairs):  # no pair repeats
            return ObservationMask(lookup.reshape(rows, cols))
    lookup = np.zeros((rows, cols), dtype=bool)
    with _text(path) as fh:
        for line_no, raw in enumerate(csv.reader(fh)):
            if not raw:
                continue
            if len(raw) != 2:
                raise CsvParseError(path, line_no, 0, f"expected 'i,j', got {raw!r}")
            try:
                i, j = int(raw[0]), int(raw[1])
            except ValueError:
                raise CsvParseError(
                    path, line_no, 0, f"indices must be integers, got {raw!r}"
                ) from None
            if not (0 <= i < rows and 0 <= j < cols):
                raise CsvParseError(
                    path, line_no, 0, f"index ({i}, {j}) outside a {rows}x{cols} mask"
                )
            if lookup[i, j]:
                raise CsvParseError(path, line_no, 0, f"duplicate index pair ({i}, {j})")
            lookup[i, j] = True
    return ObservationMask(lookup)


# ---------------------------------------------------------------------------
# benchmark config
# ---------------------------------------------------------------------------


def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(t) for t in text.split(",") if t.strip())
    if not values:
        raise ValueError(text)
    return values


def _kind(text: str) -> str:
    if text not in ("synthetic", "real"):
        raise ValueError(text)
    return text


# what a converter's text must be, for its error message
_EXPECTED = {int: "an integer", float: "a number",
             _float_list: "a comma-separated list of numbers", _kind: "'synthetic' or 'real'"}

# section -> key -> (converter, default or MISSING if required); no other section or key is read
_SCHEMA = {
    "experiment": {
        "kind": (_kind, MISSING),
        "alphas": (_float_list, MISSING),
        "zero_rates": (_float_list, MISSING),
        "nonzero_rates": (_float_list, MISSING),
        "trials": (int, MISSING),
        "base_seed": (int, MISSING),
        "noise_sigma": (float, 0.0),
    },
    # in GeneratorSpec's field order; also `structmc generate`'s flags and manifest keys
    "generator": {"rows": (int, MISSING), "cols": (int, MISSING), "rank": (int, MISSING),
                  "density_left": (float, MISSING), "density_right": (float, MISSING)},
    "real": {"matrix": (str, MISSING), "row_subsample": (int, None)},
    "solver": {f.name: (type(f.default), f.default) for f in dataclasses.fields(SolverConfig)},
}


def _section(cp, name: str) -> dict:
    """Section ``name``'s values, converted, with defaults for omitted keys."""
    values = {}
    for key, (conv, default) in _SCHEMA[name].items():
        text = cp.get(name, key, fallback=None)
        if text is None and default is MISSING:
            raise ConfigError(f"{name}.{key}: missing required key")
        try:
            values[key] = default if text is None else conv(text)
        except ValueError:
            raise ConfigError(f"{name}.{key}: expected {_EXPECTED[conv]}, got {text!r}") from None
    return values


def load_config(path):
    """Parse a benchmark config into ``(spec, matrix_path)``; a synthetic grid's path is None.

    Values are read literally: no ``%`` interpolation, no ``[DEFAULT]`` section.
    """
    cp = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section=None
    )
    try:
        cp.read_file(_text(path, ConfigError), source=str(path))
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{section}: unknown section")
        for key in cp.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
    if not cp.has_section("experiment"):
        raise ConfigError("experiment: missing required section")
    common = _section(cp, "experiment")
    kind = common.pop("kind")
    solver = _section(cp, "solver")
    try:
        common["solver"] = SolverConfig(**solver)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc
    section = "generator" if kind == "synthetic" else "real"
    if not cp.has_section(section):
        raise ConfigError(f"{section}: missing required section ({kind} runs)")
    values = _section(cp, section)
    try:
        if kind == "synthetic":
            generator = GeneratorSpec(*values.values())
            return ExperimentGrid(generator=generator, **common), None
        matrix_path = os.path.join(os.path.dirname(os.path.abspath(path)), values["matrix"])
        return RealSweep(row_subsample=values["row_subsample"], **common), matrix_path
    except ValueError as exc:
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


def _json_value(value):
    """``value`` with every non-finite float, which JSON cannot hold, made None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def write_manifest(path, payload: dict) -> None:
    """JSON run manifest or solve diagnostics: sorted keys, two-space indent.

    A non-finite float (the residuals of a solve that failed early) is written
    as ``null``, so the file stays standard JSON.
    """
    with open(path, "w") as fh:
        json.dump(_json_value(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
