"""Output checks: each compares the program's files with a computation made
here, or with a property every correct solve has.  None compares with a
stored copy of earlier output.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from instances import Completion, read_matrix_csv

# SolverConfig's primal and dual tolerance; the benchmark never overrides it
TOL = 1e-6
CONVERGED = "converged"
SWEEP_FILES = ("results.csv", "heatmap_ratio.csv", "heatmap_alpha.csv")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _nuclear(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# one `complete` call
# ---------------------------------------------------------------------------


def objective(mode, data, observed, alpha, rho, completed, sparse=None) -> float:
    """The formulation's objective, evaluated with this module's own SVD."""
    fit = float(np.linalg.norm(np.where(observed, data - completed, 0.0)))
    l1_unobserved = float(np.abs(np.where(observed, 0.0, completed)).sum())
    if mode == "nnm-exact":
        return _nuclear(completed)
    if mode == "nnm-reg":
        return _nuclear(completed) + alpha * l1_unobserved
    if mode == "nnm-noisy":
        return 0.5 * fit**2 + rho * _nuclear(completed)
    if mode == "nnm-noisy-reg":
        return 0.5 * fit**2 + rho * _nuclear(completed) + alpha * l1_unobserved
    if mode == "rpca-restricted":
        return _nuclear(completed) + alpha * float(np.abs(sparse).sum())
    raise ValueError(mode)


def objective_slack(mode, shape, alpha, rho, completed, fit, reference) -> float:
    """How far a converged solve may sit above the optimum.

    ADMM's suboptimality bound (Boyd et al. 2011, section 3.3.1) at the
    returned iterate is ``|y|*|r| + |x - x*|*|s|`` with the primal and dual
    residuals ``|r|, |s|`` at most eps = tol*sqrt(n1*n2).  The dual ``y``
    and the optimum ``x*`` are bounded through the subgradients of each
    term and through ``reference``, the objective at a feasible point built
    from the ground truth, which is no smaller than the optimum.  Where the
    solver returns a block other than the one the bound speaks of, the
    objective's Lipschitz constant over a distance eps is added.  The
    README gives the derivation per mode.
    """
    n1, n2 = shape
    eps = TOL * math.sqrt(n1 * n2)
    g = math.sqrt(min(n1, n2))  # |X|_F <= g for |X|_op <= 1
    n = math.sqrt(n1 * n2)  # |X|_F <= n for max |X_ij| <= 1
    norm = float(np.linalg.norm(completed))
    if mode in ("nnm-exact", "nnm-reg"):
        return (2 * g + eps) * eps + (norm + eps + reference) * eps
    fit_move = (fit + eps) * eps + 0.5 * eps**2
    if mode == "nnm-noisy":
        return rho * g * eps + (norm + eps + reference / rho) * eps + fit_move
    if mode == "nnm-noisy-reg":
        dual = eps + (fit + eps) + rho * g + alpha * n
        spread = math.sqrt(3.0) * (norm + reference / rho) + eps
        return dual * eps + spread * eps + fit_move + (rho * g + alpha * n) * eps
    if mode == "rpca-restricted":
        return min(alpha * n, g + eps) * eps + (norm + reference) * eps
    raise ValueError(mode)


@dataclass
class CompleteOutcome:
    status: str
    iterations: int
    rank_estimate: int
    problems: list

    @property
    def failed(self) -> bool:
        return self.status != CONVERGED or bool(self.problems)


def check_complete(inst: Completion, mode: str, out: Path) -> CompleteOutcome:
    """Check ``out/<mode>.csv`` and its diagnostics against the instance."""
    problems = []
    diag = json.loads((out / f"{mode}.diag.json").read_text())
    completed = read_matrix_csv(out / f"{mode}.csv")
    status = diag["status"]
    outcome = CompleteOutcome(status, diag["iterations"], diag["rank_estimate"], problems)
    if completed.shape != inst.shape:
        problems.append(f"{mode}: output shape {completed.shape} != input {inst.shape}")
        return outcome
    if not np.isfinite(completed).all():
        problems.append(f"{mode}: output has non-finite entries")
        return outcome
    n1, n2 = inst.shape
    observed = inst.observed
    data = inst.data(mode)
    if (diag["rows"], diag["cols"], diag["observed"]) != (n1, n2, int(observed.sum())):
        problems.append(f"{mode}: diagnostics echo the wrong shape or observed count")
    alpha = inst.alpha(mode)
    rho = None
    if inst.sigma(mode) is not None:
        rho = (math.sqrt(n1) + math.sqrt(n2)) * math.sqrt(observed.sum() / (n1 * n2)) * inst.sigma(mode)
        if not _close(diag["rho"], rho, 1e-12):
            problems.append(f"{mode}: rho {diag['rho']} != calibration {rho}")
        rho = diag["rho"]
    sparse = None
    zero_filled = np.where(observed, data, 0.0)
    if mode == "rpca-restricted":
        sparse = read_matrix_csv(out / f"{mode}.sparse.csv")
        if sparse.shape != inst.shape or not np.isfinite(sparse).all():
            problems.append(f"{mode}: sparse component has the wrong shape or non-finite entries")
            return outcome
    if mode in ("nnm-exact", "nnm-reg") and not np.array_equal(completed[observed], data[observed]):
        problems.append(f"{mode}: output differs from the input on observed entries")
    obj = objective(mode, data, observed, alpha, rho, completed, sparse)
    if not _close(obj, diag["objective"], 1e-9):
        problems.append(f"{mode}: diagnostics objective {diag['objective']} != recomputed {obj}")
    if status != CONVERGED:
        return outcome  # the remaining properties hold only at convergence
    eps = TOL * math.sqrt(n1 * n2)
    if sparse is not None:
        gap = float(np.linalg.norm(completed + sparse - zero_filled))
        if gap > eps * (1 + 1e-9):
            problems.append(f"{mode}: |A + S - P_O(M)| = {gap:.3e} exceeds tolerance {eps:.3e}")
        reference = objective(mode, data, observed, alpha, rho, inst.truth, zero_filled - inst.truth)
    else:
        reference = objective(mode, data, observed, alpha, rho, inst.truth)
    fit = float(np.linalg.norm(np.where(observed, data - completed, 0.0)))
    slack = objective_slack(mode, inst.shape, alpha, rho, completed, fit, reference)
    if obj > reference + slack:
        problems.append(
            f"{mode}: objective {obj:.9g} exceeds the ground-truth point's {reference:.9g} "
            f"by more than the slack {slack:.3g}"
        )
    if mode == "nnm-exact":
        rel = float(np.linalg.norm(completed - inst.truth) / np.linalg.norm(inst.truth))
        if not rel < 1e-3:
            problems.append(f"{mode}: relative recovery error {rel:.3e} is not below 1e-3")
    return outcome


def same_files(a: Path, b: Path, names) -> list:
    return [
        f"{name} differs between {a.name} and {b.name}"
        for name in names
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]


# ---------------------------------------------------------------------------
# one `benchmark` sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    zero_rates: tuple
    nonzero_rates: tuple
    alphas: tuple
    trials: int
    trial_shape: tuple  # shape of each trial's ground truth

    @property
    def exact_tol(self) -> float:
        # documented "both exact" threshold: the solver's convergence scale
        return max(1e-12, TOL * math.sqrt(self.trial_shape[0] * self.trial_shape[1]))


@dataclass
class SweepOutcome:
    trials: int
    failed: int
    failed_rows: list
    manifest_failed_trials: int
    results_sha256: str
    problems: list


def _expected_ratio(err_reg: float, err_nnm: float, tol: float) -> float:
    if err_nnm > tol:
        return err_reg / err_nnm
    return math.nan if err_reg <= tol else math.inf


def _read_heatmap(path: Path, spec: SweepSpec, problems: list) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = ["rate_zero"] + [repr(r) for r in spec.nonzero_rates]
    if rows[0] != header:
        problems.append(f"{path.name}: header {rows[0]} != {header}")
        return {}
    table = {}
    for rz, row in zip(spec.zero_rates, rows[1:]):
        for rnz, text in zip(spec.nonzero_rates, row[1:]):
            table[(rz, rnz)] = math.nan if text == "" else float(text)
    if len(rows) != 1 + len(spec.zero_rates):
        problems.append(f"{path.name}: {len(rows) - 1} rows, expected {len(spec.zero_rates)}")
    return table


def _same_mean(got: float, values: list) -> bool:
    if not values:
        return math.isnan(got)
    want = float(np.mean(values))
    if math.isinf(want) or math.isinf(got):
        return want == got
    return _close(got, want, 1e-12)


def check_sweep(out: Path, spec: SweepSpec) -> SweepOutcome:
    """Check results.csv, both heatmaps and the manifest of one sweep."""
    problems = []
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    manifest = json.loads((out / "manifest.json").read_text())
    expected_keys = [
        (rz, rnz, t) for rz in spec.zero_rates for rnz in spec.nonzero_rates
        for t in range(spec.trials)
    ]
    got_keys = [(float(r["rate_zero"]), float(r["rate_nonzero"]), int(r["trial"])) for r in rows]
    if got_keys != expected_keys:
        problems.append("results.csv rows are not one per (cell, trial) in cell-major order")
    if manifest["records"] != len(rows):
        problems.append(f"manifest records {manifest['records']} != {len(rows)} rows")
    ratios, alphas_used, failed_rows = {}, {}, []
    for row, key in zip(rows, got_keys):
        cell = key[:2]
        ratios.setdefault(cell, [])
        alphas_used.setdefault(cell, [])
        if (row["outcome"] == "failed" or row["status_baseline"] != CONVERGED
                or row["status_reg"] != CONVERGED):
            failed_rows.append(
                f"cell {cell} trial {key[2]}: outcome {row['outcome']}, "
                f"baseline {row['status_baseline'] or '-'}, regularized {row['status_reg'] or '-'}"
            )
        if row["outcome"] == "failed":
            continue
        alpha = float(row["alpha"])
        if alpha not in spec.alphas:
            problems.append(f"{key}: chosen alpha {alpha} is not a configured alpha")
        want = _expected_ratio(float(row["err_reg"]), float(row["err_nnm"]), spec.exact_tol)
        want_text = "" if math.isnan(want) else "inf" if math.isinf(want) else repr(want)
        want_outcome = "both-exact" if math.isnan(want) else "inf" if math.isinf(want) else "ok"
        if (row["ratio"], row["outcome"]) != (want_text, want_outcome):
            problems.append(
                f"{key}: ratio {row['ratio']!r} / {row['outcome']} != recomputed "
                f"{want_text!r} / {want_outcome}"
            )
        if not math.isnan(want):
            ratios[cell].append(want)
        alphas_used[cell].append(alpha)
    for name, values in (("heatmap_ratio.csv", ratios), ("heatmap_alpha.csv", alphas_used)):
        table = _read_heatmap(out / name, spec, problems)
        for cell, got in table.items():
            if not _same_mean(got, values.get(cell, [])):
                problems.append(f"{name}: cell {cell} holds {got}, recomputed mean differs")
    effect = ratios.get((0.1, 0.9), [])
    if (0.1, 0.9) in ratios and not (effect and float(np.mean(effect)) < 1.0):
        problems.append("mean error ratio in cell (0.1, 0.9) is not below 1")
    return SweepOutcome(
        trials=len(rows),
        failed=len(failed_rows),
        failed_rows=failed_rows,
        manifest_failed_trials=manifest["failed_trials"],
        results_sha256=sha256(out / "results.csv"),
        problems=problems,
    )
