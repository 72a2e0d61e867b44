"""End-to-end benchmark of structmc, with an optional traced run per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program runs from ``src/`` as
separate ``python -m structmc`` processes; the benchmark makes every input
itself, checks every output, and prints one JSON object as the last line of
its standard output.  With ``--trace 1`` the workload's serial batch runs
in this process through ``structmc.cli.main`` with every layer boundary
wrapped, and the per-layer metrics replace the end-to-end ones.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from checks import SWEEP_FILES, SweepSpec, check_complete, check_sweep, same_files
from instances import (
    DEFAULT_SEED,
    MODES,
    Completion,
    sparse_factor_completion,
    survey_table,
    write_matrix_csv,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 5
ROUND_S = 10.0  # --seconds S runs round(S / ROUND_S) rounds, at least one
ALPHAS = (0.1, 0.01, 0.001, 0.0001)
RATES = (0.1, 0.9)

END_TO_END_UNITS = {"setup_s": "s", "batch_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run the workload to its end."""


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One sweep, or one completion instance for the five modes.

    Both are drawn at the default seed.  The run's seed shuffles the rows
    and columns of the completion instance, which changes every input file
    but not the work; the sweeps' draws stay fixed, because their cost and
    their count of non-converged trials depend on the draws.
    """

    sweep: Callable[[bool, Path], SweepSpec] | None = None
    completion: Callable[[bool], Completion] | None = None


def _experiment(kind, trials, noise_sigma, rates) -> str:
    def joined(values):
        return ", ".join(repr(v) for v in values)

    return (
        f"[experiment]\nkind = {kind}\ntrials = {trials}\nbase_seed = {DEFAULT_SEED}\n"
        f"noise_sigma = {noise_sigma!r}\nalphas = {joined(ALPHAS)}\n"
        f"zero_rates = {joined(rates[0])}\nnonzero_rates = {joined(rates[1])}\n"
    )


def _rates(tiny):
    return ((0.1,), (0.9,)) if tiny else (RATES, RATES)


def trend_sweep(tiny: bool, directory: Path) -> SweepSpec:
    """The grid of demos/configs/trend_cells.ini."""
    n, trials = (15, 1) if tiny else (30, 10)
    rates = _rates(tiny)
    (directory / "config.ini").write_text(
        _experiment("synthetic", trials, 0.0, rates)
        + f"\n[generator]\nrows = {n}\ncols = {n}\nrank = 2\n"
        "density_left = 0.3\ndensity_right = 0.5\n"
    )
    return SweepSpec(rates[0], rates[1], ALPHAS, trials, (n, n))


def _survey(tiny):
    rows, cols, subsample = (40, 12, 20) if tiny else (120, 30, 50)
    return survey_table(DEFAULT_SEED, rows, cols), subsample


def survey_sweep(tiny: bool, directory: Path) -> SweepSpec:
    table, subsample = _survey(tiny)
    trials = 1 if tiny else 2
    rates = _rates(tiny)
    write_matrix_csv(directory / "survey.csv", table)
    (directory / "config.ini").write_text(
        _experiment("real", trials, 0.1, rates)
        + f"\n[real]\nmatrix = survey.csv\nrow_subsample = {subsample}\n"
    )
    return SweepSpec(rates[0], rates[1], ALPHAS, trials, (subsample, table.shape[1]))


def large_instance(tiny: bool) -> Completion:
    n, rank = (30, 3) if tiny else (200, 5)
    return sparse_factor_completion(DEFAULT_SEED, n, rank)


WORKLOADS = {
    "sweep-trend": Workload(sweep=trend_sweep),
    "sweep-survey-noisy": Workload(sweep=survey_sweep),
    "complete-large": Workload(completion=large_instance),
}


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------


class Runner:
    """Starts ``python -m structmc`` processes and times them."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.calls = 0

    def call(self, argv) -> tuple[float, int]:
        """Wall time and exit code of one process."""
        self.calls += 1
        log = self.work / "logs" / f"{self.calls:04d}.log"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        with open(log, "w") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "structmc", *map(str, argv)],
                                    env=self.env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
            # a wait with a timeout polls at up to 50 ms steps; a blocking wait
            # returns when the process ends, and the timer enforces the limit
            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        if killed.is_set():
            raise BenchError(f"timed out: structmc {' '.join(map(str, argv))}")
        return seconds, code

    def must(self, argv) -> float:
        seconds, code = self.call(argv)
        if code != 0:
            raise BenchError(f"structmc {argv[0]} exited {code}; see {self.work / 'logs'}")
        return seconds


def complete_argv(inst: Completion, mode: str, inputs: Path, out: Path) -> list:
    argv = ["complete", "--input", inputs / inst.input_name(mode), "--mask", inputs / "mask.csv",
            "--mode", mode, "--output", out / f"{mode}.csv",
            "--diagnostics", out / f"{mode}.diag.json"]
    if inst.alpha(mode) is not None:
        argv += ["--alpha", repr(inst.alpha(mode))]
    if inst.sigma(mode) is not None:
        argv += ["--sigma", repr(inst.sigma(mode))]
    if mode == "rpca-restricted":
        argv += ["--sparse-out", out / f"{mode}.sparse.csv"]
    return argv


def sweep_argv(inputs: Path, out: Path, workers: int) -> list:
    return ["benchmark", "--config", inputs / "config.ini", "--outdir", out,
            "--workers", str(workers)]


class Tally:
    """Operations attempted and failed, output problems, and report lines."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems, self.lines = [], []

    def report(self, line: str):
        if line not in self.lines:  # rounds repeat the same outcomes
            self.lines.append(line)

    def completes(self, inst, out: Path, codes: dict):
        truth_rank = int(np.linalg.matrix_rank(inst.truth))
        for mode in MODES:
            self.attempted += 1
            if codes[mode] != 0:
                self.failed += 1
                self.report(f"  complete {mode}: exit code {codes[mode]}")
                continue
            res = check_complete(inst, mode, out)
            self.failed += res.failed
            self.problems += res.problems
            self.report(
                f"  complete {mode}: {res.status} after {res.iterations} iterations, "
                f"rank_estimate {res.rank_estimate} (truth rank {truth_rank})"
            )

    def sweep(self, out: Path, spec: SweepSpec):
        res = check_sweep(out, spec)
        self.attempted += res.trials
        self.failed += res.failed
        self.problems += res.problems
        self.report(
            f"  sweep: {res.trials} trials, {res.failed} failed; manifest failed_trials "
            f"{res.manifest_failed_trials}; results.csv sha256 {res.results_sha256}"
        )
        for row in res.failed_rows:
            self.report(f"    failed trial: {row}")


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def untraced_round(w: Workload, runner: Runner, inst, inputs: Path, out: Path) -> tuple:
    """Times one round; returns ``batch_s`` and the exit code of each ``complete`` call."""
    if w.sweep is not None:
        return runner.must(sweep_argv(inputs, out / "sweep", 1)), {}
    (out / "complete").mkdir(parents=True)
    seconds, codes = 0.0, {}
    for mode in MODES:
        took, codes[mode] = runner.call(complete_argv(inst, mode, inputs, out / "complete"))
        seconds += took
    return seconds, codes


def measure_setup(runner: Runner) -> float:
    runner.must(["--version"])  # fills the bytecode cache once
    return statistics.median(runner.must(["--version"]) for _ in range(SETUP_REPEATS))


def run_untraced(w, runner, inst, spec, inputs, seconds, tally) -> dict:
    setup = measure_setup(runner)
    # the first solve of a run is slower; users who complete many matrices do
    # not pay that every time
    if inst is not None:
        runner.must(complete_argv(inst, MODES[0], inputs, fresh(runner.work / "warm-up")))
    # a fixed number of rounds: a limit on measured time would give some runs
    # one round more than others whenever a round lasts about that long
    rounds = []
    start = time.monotonic()
    for k in range(max(1, round(seconds / ROUND_S))):
        if k and time.monotonic() + (time.monotonic() - start) / k > runner.deadline:
            break
        rounds.append(untraced_round(w, runner, inst, inputs, runner.work / f"round-{k}"))
    # checks run after the timing: this process's own BLAS threads keep
    # spinning for a while after an SVD and would slow the next timed process
    for k, (_, codes) in enumerate(rounds):
        out = runner.work / f"round-{k}"
        if w.sweep is not None:
            tally.sweep(out / "sweep", spec)
        else:
            tally.completes(inst, out / "complete", codes)
    batch = [seconds for seconds, _ in rounds]
    tally.report(f"  rounds: {len(rounds)}, batch_s " + " ".join(f"{v:.3f}" for v in batch))
    return {
        "setup_s": setup,
        "batch_s": statistics.median(batch),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def run_traced(w, runner, inst, spec, inputs, tally, spans_path: Path) -> dict:
    """The serial batch in this process, once plain and once traced."""
    parallel = pool_efficiency = 0.0
    if w.sweep is not None:
        serial = runner.must(sweep_argv(inputs, runner.work / "sweep-w1", 1))
        parallel = runner.must(sweep_argv(inputs, runner.work / "sweep-w2", 2))
        pool_efficiency = serial / (2.0 * parallel)
        tally.problems += same_files(runner.work / "sweep-w1", runner.work / "sweep-w2", SWEEP_FILES)
    sys.path.insert(0, str(SRC))
    from structmc import cli
    import tracing

    if Path(cli.__file__).resolve().parent != SRC / "structmc":
        raise BenchError(f"imported structmc from {cli.__file__}, not from {SRC}")

    def batch(tag):
        if w.sweep is not None:
            return [[str(a) for a in sweep_argv(inputs, runner.work / f"{tag}-sweep", 1)]], None
        out = fresh(runner.work / f"{tag}-complete")
        return [[str(a) for a in complete_argv(inst, mode, inputs, out)] for mode in MODES], out

    def main(argv):
        code = cli.main(argv)
        if code != 0 and argv[0] == "benchmark":
            raise BenchError(f"in-process structmc benchmark returned {code}")
        return code

    def timed(tag, tracer=None):
        jobs, out = batch(tag)
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            codes = [tracer.root(main, argv) if tracer else main(argv) for argv in jobs]
        finally:
            if tracer is not None:
                tracer.uninstall()
        return time.perf_counter() - start, codes, out

    # plain, traced, traced, plain: a steady drift of the machine's speed cancels
    tracer = tracing.Tracer()
    plain, _, _ = timed("plain-0")
    traced, codes, out = timed("traced", tracer)
    traced += timed("traced-1", tracing.Tracer())[0]
    plain += timed("plain-1")[0]
    if w.sweep is not None:
        tally.sweep(runner.work / "traced-sweep", spec)
        tally.problems += same_files(runner.work / "sweep-w1", runner.work / "traced-sweep", SWEEP_FILES)
    else:
        tally.completes(inst, out, dict(zip(MODES, codes)))
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["harness.sweep_2w_s"] = parallel
    metrics["harness.pool_efficiency"] = pool_efficiency
    metrics["trace.slowdown"] = traced / plain
    tally.report(
        f"  tracing: {len(tracer.spans)} spans; traced batches {traced:.3f} s against "
        f"{plain:.3f} s untraced ({100 * (traced / plain - 1):+.1f}%)"
    )
    tracer.write(spans_path)
    return metrics


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def machine_block() -> list:
    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    return [
        "machine:",
        f"  nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})",
        f"  python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, openblas {openblas_version()}",
        "  thread variables: " + (", ".join(f"{k}={v}" for k, v in threads.items()) or "none set"),
    ]


PER_LAYER_UNITS = {
    "prox.svt.calls": "count", "prox.svt.s": "s", "prox.svt.us_per_call": "us",
    "prox.soft_threshold.s": "s", "prox.enforce_observed.s": "s", "prox.obs_fit_quad.s": "s",
    "solvers.solves": "count", "solvers.iterations": "count",
    **{f"solvers.iterations.{m}": "count" for m in MODES},
    **{f"solvers.us_per_iter.{m}": "us" for m in MODES},
    "solvers.loop.s": "s", "solvers.finalize.s": "s", "solvers.converged_ratio": "ratio",
    "harness.trials": "count", "harness.trial_p50_s": "s", "harness.self.s": "s",
    "harness.sweep_2w_s": "s", "harness.pool_efficiency": "ratio",
    "synth.calls": "count", "synth.s": "s",
    "dataio.read.s": "s", "dataio.write.s": "s", "dataio.bytes_written": "bytes",
    "cli.self.s": "s", "trace.slowdown": "ratio",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one cell, one trial and small instances (self-test)")
    args = parser.parse_args()
    if not (SRC / "structmc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'structmc'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    tiny = args.size == "tiny"
    w = WORKLOADS[args.workload]
    work = fresh(OUT / args.workload)
    (work / "logs").mkdir()
    inputs = work / "inputs"
    inputs.mkdir()
    inst = spec = None
    if w.completion is not None:
        inst = w.completion(tiny).permuted(args.seed)
        inst.write(inputs)
    else:
        spec = w.sweep(tiny, inputs)
    runner = Runner(work, deadline)
    tally = Tally()
    for line in machine_block():
        print(line)
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, trace {args.trace}")
    try:
        if args.trace:
            values = run_traced(w, runner, inst, spec, inputs, tally, work / "spans.jsonl")
            units = PER_LAYER_UNITS
        else:
            values = run_untraced(w, runner, inst, spec, inputs, args.seconds, tally)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in tally.lines:
        print(line)
    for problem in tally.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
