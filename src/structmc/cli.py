"""Command-line front door: ``complete``, ``generate``, ``benchmark``.

Exit codes: 0 success, 2 usage error, 3 data/parse error, 4 numerical
failure.  The CLI is a thin layer: parsing and validation here, all real
work in the library modules.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import __version__
from .dataio import (
    _SCHEMA,
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
from .errors import UsageError
from .harness import run_grid, run_real_matrix
from .solvers import (
    CONVERGED,
    FORMULATIONS,
    NUMERICAL_FAILURE,
    MAX_ITERS,
    NEEDS_ALPHA,
    NEEDS_RHO,
    CompletionProblem,
    SolverConfig,
    _one_blas_thread,
    solve,
    solve_rpca_restricted,
)
from .synth import GeneratorSpec, SamplingSpec, generate_low_rank, rho_for_noise, sample_structured_mask

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _add_solver_flags(parser) -> None:
    parser.add_argument("--max-iters", type=int, default=SolverConfig.max_iters,
                        help="ADMM iteration cap (default %(default)s)")
    parser.add_argument("--primal-tol", type=float, default=SolverConfig.primal_tol,
                        help="primal residual tolerance (default %(default)s)")
    parser.add_argument("--dual-tol", type=float, default=SolverConfig.dual_tol,
                        help="dual residual tolerance (default %(default)s)")
    parser.add_argument("--penalty", type=float, default=SolverConfig.admm_penalty,
                        dest="admm_penalty", metavar="PENALTY",
                        help="initial ADMM penalty (default %(default)s)")


def _check_mode_flags(args) -> None:
    mode = args.mode
    needs_alpha, needs_rho = mode in NEEDS_ALPHA, mode in NEEDS_RHO
    if needs_alpha and args.alpha is None:
        raise UsageError(f"mode {mode} requires --alpha")
    if not needs_alpha and args.alpha is not None:
        raise UsageError(f"mode {mode} does not take --alpha")
    has_rho = args.rho is not None or args.sigma is not None
    if needs_rho and not has_rho:
        raise UsageError(f"mode {mode} requires --rho or --sigma")
    if not needs_rho and has_rho:
        raise UsageError(f"mode {mode} does not take --rho/--sigma")
    if args.rho is not None and args.sigma is not None:
        raise UsageError("choose one of --rho or --sigma, not both")
    if mode != "rpca-restricted" and args.sparse_out is not None:
        raise UsageError(f"mode {mode} does not take --sparse-out")


def cmd_complete(args) -> int:
    try:
        cfg = SolverConfig(**{f.name: getattr(args, f.name)
                              for f in dataclasses.fields(SolverConfig)})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if (args.mask is not None) == args.infer_mask:
        raise UsageError("provide one of --mask FILE or --infer-mask")
    _check_mode_flags(args)
    matrix, filled = ingest_matrix_csv(args.input, policy="mask")
    mask = filled
    if args.mask is not None:
        mask = ingest_mask_csv(args.mask, matrix.shape[0], matrix.shape[1])
        empty = np.argwhere(mask.lookup & ~filled.lookup)
        if empty.size:
            i, j = empty[0]
            raise ValueError(
                f"{args.mask}: observed entry ({i}, {j}) is an empty cell of {args.input}"
            )
    if mask.size == 0:
        raise ValueError(f"{args.mask or args.input}: no entry is observed")
    rho = args.rho
    try:
        if args.sigma is not None:
            rho = rho_for_noise(matrix.shape[0], matrix.shape[1], mask.size, args.sigma)
        problem = CompletionProblem(
            matrix,
            mask,
            args.mode,
            alpha=args.alpha if args.alpha is not None else 0.0,
            rho=rho if rho is not None else 0.0,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.mode == "rpca-restricted":
        result, sparse = solve_rpca_restricted(problem, cfg)
        if args.sparse_out:
            emit_matrix_csv(args.sparse_out, sparse)
    else:
        result = solve(problem, cfg)
    emit_matrix_csv(args.output, result.completed)
    diagnostics = {
        "mode": args.mode,
        "alpha": args.alpha,
        "rho": rho,
        "sigma": args.sigma,
        "rows": matrix.shape[0],
        "cols": matrix.shape[1],
        "observed": mask.size,
        **{f.name: getattr(result, f.name) for f in dataclasses.fields(result) if f.repr},
        "solver": dataclasses.asdict(cfg),
        "one_blas_thread": _one_blas_thread.switch is not None,
    }
    write_manifest(args.diagnostics or args.output + ".diag.json", diagnostics)
    if result.status == NUMERICAL_FAILURE:
        steps = "iteration" if result.iterations == 1 else "iterations"
        print(f"numerical failure after {result.iterations} {steps}", file=sys.stderr)
        return EXIT_NUMERICAL
    if result.status == MAX_ITERS:
        print(
            f"warning: stopped at the iteration cap ({result.iterations}); "
            f"residuals {fmt_float(result.primal_residual)} / "
            f"{fmt_float(result.dual_residual)}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        spec = GeneratorSpec(*(getattr(args, k) for k in _SCHEMA["generator"]), seed=args.seed)
        sampling = SamplingSpec(args.rate_zero, args.rate_nonzero, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    matrix = generate_low_rank(spec)
    if not matrix.any():
        raise ValueError(
            "generator produced the all-zero matrix; raise the densities or change the seed"
        )
    mask = sample_structured_mask(matrix, sampling)
    emit_matrix_csv(args.matrix_out, matrix)
    emit_mask_csv(args.mask_out, mask)
    manifest = {
        **{k: getattr(args, k) for k in (*_SCHEMA["generator"], "seed", "rate_zero", "rate_nonzero")},
        "observed": mask.size,
        "matrix_file": os.path.basename(args.matrix_out),
        "mask_file": os.path.basename(args.mask_out),
        "version": __version__,
    }
    manifest_path = args.manifest_out or args.matrix_out + ".manifest.json"
    write_manifest(manifest_path, manifest)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    spec, matrix_path = load_config(args.config)
    matrix = None if matrix_path is None else ingest_matrix_csv(matrix_path, policy="strict")[0]
    started = time.monotonic()
    result = (run_grid(spec, workers=args.workers) if matrix is None
              else run_real_matrix(matrix, spec, workers=args.workers))
    wall = time.monotonic() - started
    # made once the sweep returns, so that a sweep that fails its checks leaves no directory
    os.makedirs(args.outdir, exist_ok=True)
    write_results_csv(os.path.join(args.outdir, "results.csv"), result)
    write_heatmap_csv(
        os.path.join(args.outdir, "heatmap_ratio.csv"),
        spec.zero_rates, spec.nonzero_rates, result.mean_ratio,
    )
    write_heatmap_csv(
        os.path.join(args.outdir, "heatmap_alpha.csv"),
        spec.zero_rates, spec.nonzero_rates, result.mean_alpha,
    )
    import scipy  # only the manifest's version string needs it; keeps it out of start-up

    n_failed = int(result.failures.sum())
    n_nonconverged = sum(
        1 for r in result.records
        if r.error is None and (r.status_baseline, r.status_reg) != (CONVERGED, CONVERGED)
    )
    spec_fields = dataclasses.asdict(spec)
    if matrix_path is None:
        # each truth's seed derives from base_seed (harness.run_cell), not this one
        spec_fields["generator"]["seed"] = None
    else:
        spec_fields["matrix_file"] = matrix_path
    # the numeric stack, so that other bytes on another machine can be traced to it
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "kind": "synthetic" if matrix_path is None else "real",
        "config_file": os.path.abspath(args.config),
        **spec_fields,
        "records": len(result.records),
        "failed_trials": n_failed,
        "nonconverged_trials": n_nonconverged,
        "both_exact_trials": int(result.both_exact.sum()),
        "wall_time_s": wall,
        "version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "python_version": sys.version.split()[0],
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        **{n.lower(): os.environ.get(n) for n in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "one_blas_thread": _one_blas_thread.switch is not None,
    }
    write_manifest(os.path.join(args.outdir, "manifest.json"), manifest)
    if n_failed:
        print(f"warning: {n_failed} trial(s) failed; see results.csv", file=sys.stderr)
    if n_nonconverged:
        print(f"warning: {n_nonconverged} trial(s) did not converge; see results.csv",
              file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structmc",
        description="Low-rank matrix completion with regularization of the unobserved entries.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_complete = sub.add_parser(
        "complete", help="complete a matrix CSV with one of the solver modes"
    )
    p_complete.add_argument("--input", required=True, help="matrix CSV (may have empty cells)")
    p_complete.add_argument("--mask", help="index-pair CSV of observed entries")
    p_complete.add_argument("--infer-mask", action="store_true",
                            help="treat empty CSV cells as unobserved")
    p_complete.add_argument("--mode", required=True, choices=FORMULATIONS)
    p_complete.add_argument("--alpha", type=float,
                            help="weight on the unobserved-entry regularizer")
    p_complete.add_argument("--rho", type=float, help="nuclear-norm weight (noisy modes)")
    p_complete.add_argument("--sigma", type=float,
                            help="noise level; derives --rho from the observation count")
    p_complete.add_argument("--output", required=True, help="completed matrix CSV")
    p_complete.add_argument("--sparse-out", help="sparse component CSV (rpca-restricted)")
    p_complete.add_argument("--diagnostics",
                            help="diagnostics JSON path (default: OUTPUT.diag.json)")
    _add_solver_flags(p_complete)
    p_complete.set_defaults(func=cmd_complete)

    p_generate = sub.add_parser(
        "generate", help="draw a sparse-factor low-rank matrix and a structured mask"
    )
    for key, (conv, _) in _SCHEMA["generator"].items():  # a config's [generator] keys
        p_generate.add_argument("--" + key.replace("_", "-"), type=conv, required=True)
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.add_argument("--rate-zero", type=float, required=True,
                            help="fraction of zero entries observed")
    p_generate.add_argument("--rate-nonzero", type=float, required=True,
                            help="fraction of nonzero entries observed")
    p_generate.add_argument("--matrix-out", required=True)
    p_generate.add_argument("--mask-out", required=True)
    p_generate.add_argument("--manifest-out",
                            help="manifest JSON path (default: MATRIX_OUT.manifest.json)")
    p_generate.set_defaults(func=cmd_generate)

    p_benchmark = sub.add_parser(
        "benchmark", help="run an error-ratio sweep from a config file"
    )
    p_benchmark.add_argument("--config", required=True, help="INI-style benchmark config")
    p_benchmark.add_argument("--outdir", required=True, help="output directory")
    p_benchmark.add_argument("--workers", type=int, default=1,
                             help="parallel trial processes (default %(default)s)")
    p_benchmark.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a file that cannot be read or written
        print(f"data error: {exc.filename}: {exc.strerror}" if exc.filename is not None
              else f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
