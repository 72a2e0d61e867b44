import csv
import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import structmc
from structmc import SolverConfig
from structmc.cli import main
from structmc.dataio import emit_matrix_csv, ingest_matrix_csv

SYNTH_CONFIG = """
[experiment]
kind = synthetic
trials = 1
base_seed = 271828
alphas = 0.1, 0.01
zero_rates = 0.3
nonzero_rates = 0.9

[generator]
rows = 10
cols = 10
rank = 2
density_left = 0.4
density_right = 0.6
"""


def run_cli(*argv):
    return main(list(argv))


def run_python(script, *args, **env):
    """Run ``script`` with ``args`` in a fresh interpreter on this checkout,
    ``env`` added to its environment; its last stdout line."""
    src = str(Path(structmc.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        path for path in (src, os.environ.get("PYTHONPATH")) if path))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestComplete:
    def test_fully_observed_is_identity(self, tmp_path):
        src = tmp_path / "m.csv"
        out = tmp_path / "out.csv"
        src.write_text("1,2\n3,4\n")
        code = run_cli(
            "complete", "--input", str(src), "--infer-mask",
            "--mode", "nnm-exact", "--output", str(out),
        )
        assert code == 0
        completed, _ = ingest_matrix_csv(out, policy="strict")
        np.testing.assert_array_equal(completed, [[1.0, 2.0], [3.0, 4.0]])
        diag = json.loads((tmp_path / "out.csv.diag.json").read_text())
        assert diag["status"] == "converged"
        assert diag["observed"] == 4
        assert 0 <= diag["penalty_changes"] <= diag["iterations"]
        assert 0 <= diag["rejected_steps"] <= diag["accelerated_steps"] <= diag["iterations"]
        assert 0 <= diag["warm_svt_steps"] < diag["iterations"]
        assert set(diag) == {
            "mode", "alpha", "rho", "sigma", "rows", "cols", "observed", "solver",
            "objective", "iterations", "primal_residual", "dual_residual", "status",
            "rank_estimate", "penalty_changes", "accelerated_steps", "rejected_steps",
            "warm_svt_steps", "one_blas_thread",
        }

    def test_one_missing_cell_completes_to_one(self, tmp_path):
        src = tmp_path / "m.csv"
        out = tmp_path / "out.csv"
        src.write_text("1,1\n1,\n")
        code = run_cli(
            "complete", "--input", str(src), "--infer-mask",
            "--mode", "nnm-exact", "--output", str(out),
            "--primal-tol", "1e-9", "--dual-tol", "1e-9", "--max-iters", "20000",
        )
        assert code == 0
        completed, _ = ingest_matrix_csv(out, policy="strict")
        assert abs(completed[1, 1] - 1.0) < 1e-3

    def test_explicit_mask_file(self, tmp_path):
        src = tmp_path / "m.csv"
        maskf = tmp_path / "mask.csv"
        out = tmp_path / "out.csv"
        src.write_text("1,1\n1,0\n")
        maskf.write_text("0,0\n0,1\n1,0\n")
        code = run_cli(
            "complete", "--input", str(src), "--mask", str(maskf),
            "--mode", "nnm-exact", "--output", str(out),
        )
        assert code == 0
        completed, _ = ingest_matrix_csv(out, policy="strict")
        assert abs(completed[1, 1] - 1.0) < 1e-2

    def test_mask_that_observes_an_empty_cell_is_data_error(self, tmp_path, capsys):
        src, maskf = tmp_path / "in.csv", tmp_path / "mask.csv"
        src.write_text("1,2,\n4,5,6\n,8,9\n")
        maskf.write_text("0,0\n0,2\n1,1\n2,0\n")
        code = run_cli(
            "complete", "--input", str(src), "--mask", str(maskf),
            "--mode", "nnm-exact", "--output", str(tmp_path / "o.csv"),
        )
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {maskf}: observed entry (0, 2) is an empty cell of {src}\n")
        assert not (tmp_path / "o.csv").exists()

    def test_round_trip_serialization(self, tmp_path):
        src = tmp_path / "m.csv"
        out = tmp_path / "out.csv"
        values = np.array([[0.1, 1 / 3], [1e-12, 7.0]])
        emit_matrix_csv(src, values)
        code = run_cli(
            "complete", "--input", str(src), "--infer-mask",
            "--mode", "nnm-exact", "--output", str(out),
        )
        assert code == 0
        completed, _ = ingest_matrix_csv(out, policy="strict")
        assert completed.tobytes() == values.tobytes()

    def test_sigma_derives_rho(self, tmp_path):
        src = tmp_path / "m.csv"
        out = tmp_path / "out.csv"
        src.write_text("1,1\n1,\n")
        code = run_cli(
            "complete", "--input", str(src), "--infer-mask",
            "--mode", "nnm-noisy", "--sigma", "0.1", "--output", str(out),
        )
        assert code == 0
        diag = json.loads((tmp_path / "out.csv.diag.json").read_text())
        expected_rho = (np.sqrt(2) + np.sqrt(2)) * np.sqrt(3 / 4) * 0.1
        assert diag["rho"] == pytest.approx(expected_rho, rel=1e-12)

    def test_rpca_writes_sparse(self, tmp_path):
        src = tmp_path / "m.csv"
        out = tmp_path / "out.csv"
        sparse_out = tmp_path / "sparse.csv"
        src.write_text("1,1\n1,1\n")
        code = run_cli(
            "complete", "--input", str(src), "--infer-mask",
            "--mode", "rpca-restricted", "--alpha", "0.9",
            "--output", str(out), "--sparse-out", str(sparse_out),
        )
        assert code == 0
        sparse, _ = ingest_matrix_csv(sparse_out, policy="strict")
        assert np.abs(sparse).max() < 1e-5

    def test_alpha_with_exact_mode_is_usage_error(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("1,2\n3,4\n")
        code = run_cli(
            "complete", "--input", str(src), "--infer-mask",
            "--mode", "nnm-exact", "--alpha", "0.1", "--output", str(tmp_path / "o.csv"),
        )
        assert code == 2

    def test_missing_mask_flags_is_usage_error(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("1,2\n3,4\n")
        code = run_cli(
            "complete", "--input", str(src),
            "--mode", "nnm-exact", "--output", str(tmp_path / "o.csv"),
        )
        assert code == 2

    def test_missing_rho_is_usage_error(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("1,2\n3,4\n")
        code = run_cli(
            "complete", "--input", str(src), "--infer-mask",
            "--mode", "nnm-noisy", "--output", str(tmp_path / "o.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "mode,needs_alpha,needs_rho",
        [
            ("nnm-exact", False, False),
            ("nnm-reg", True, False),
            ("nnm-noisy", False, True),
            ("nnm-noisy-reg", True, True),
            ("rpca-restricted", True, False),
        ],
    )
    def test_mode_flag_rules(self, tmp_path, mode, needs_alpha, needs_rho):
        src = tmp_path / "m.csv"
        src.write_text("1,2\n3,\n")
        base = ["complete", "--input", str(src), "--infer-mask", "--mode", mode,
                "--output", str(tmp_path / "o.csv")]
        alpha = ["--alpha", "0.1"]
        rho, sigma = ["--rho", "0.1"], ["--sigma", "0.1"]
        required = (alpha if needs_alpha else []) + (rho if needs_rho else [])
        assert run_cli(*base, *required) == 0
        if needs_alpha:
            assert run_cli(*base, *(rho if needs_rho else [])) == 2
        else:
            assert run_cli(*base, *required, *alpha) == 2
        if needs_rho:
            assert run_cli(*base, *(alpha if needs_alpha else [])) == 2
            assert run_cli(*base, *required, *sigma) == 2  # --rho and --sigma together
        else:
            assert run_cli(*base, *required, *rho) == 2
            assert run_cli(*base, *required, *sigma) == 2
        # an infinite weight is a usage error, not a NaN objective
        if needs_alpha:
            assert run_cli(*base, "--alpha", "inf", *(rho if needs_rho else [])) == 2
        if needs_rho:
            assert run_cli(*base, *(alpha if needs_alpha else []), "--rho", "inf") == 2
            assert run_cli(*base, *(alpha if needs_alpha else []), "--sigma", "inf") == 2
        sparse_out = tmp_path / "s.csv"
        code = run_cli(*base, *required, "--sparse-out", str(sparse_out))
        assert code == (0 if mode == "rpca-restricted" else 2)
        assert sparse_out.exists() == (mode == "rpca-restricted")

    def test_unknown_mode_is_usage_error(self, tmp_path):
        code = run_cli("complete", "--input", "x.csv", "--mode", "magic", "--output", "y.csv")
        assert code == 2

    def test_ragged_csv_is_data_error(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("1,2\n3\n")
        code = run_cli(
            "complete", "--input", str(src), "--infer-mask",
            "--mode", "nnm-exact", "--output", str(tmp_path / "o.csv"),
        )
        assert code == 3

    @pytest.mark.parametrize("flag,value", [
        ("--max-iters", "0"), ("--primal-tol", "-1"), ("--primal-tol", "nan"),
        ("--dual-tol", "0"), ("--penalty", "0"), ("--penalty", "inf"), ("--primal-tol", "inf"),
        ("--alpha", "0.1"), ("--rho", "0.1"), ("--sparse-out", "s.csv"),
    ])
    def test_bad_solver_flag_is_usage_error_before_any_read(self, tmp_path, capsys, flag, value):
        # the input does not exist: the flag is rejected before it is read
        code = run_cli(
            "complete", "--input", str(tmp_path / "missing.csv"), "--infer-mask",
            "--mode", "nnm-exact", "--output", str(tmp_path / "o.csv"), flag, value,
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("mode,mask_flags", [
        ("nnm-exact", ()), ("nnm-reg", ("--mask", "missing_mask.csv")),
        ("nnm-exact", ("--mask", "missing_mask.csv", "--infer-mask")),
    ], ids=["no-mask-flag", "no-alpha", "two-mask-sources"])
    def test_missing_flag_is_usage_error_before_any_read(self, tmp_path, capsys, mode, mask_flags):
        # no mask source, two of them, or no --alpha: neither file exists, and neither is read
        code = run_cli(
            "complete", "--input", str(tmp_path / "missing.csv"), *mask_flags,
            "--mode", mode, "--output", str(tmp_path / "o.csv"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # observations near 1e200 overflow the Gram product of the first svt
        src = tmp_path / "m.csv"
        src.write_text("1e200,1e200,1e200\n1e200,1e200,1e200\n1e200,1e200,1e200\n")
        code = run_cli(
            "complete", "--input", str(src), "--infer-mask",
            "--mode", "nnm-exact", "--output", str(tmp_path / "o.csv"),
        )
        assert code == 4
        assert capsys.readouterr().err == "numerical failure after 1 iteration\n"
        diag = json.loads((tmp_path / "o.csv.diag.json").read_text())
        assert diag["status"] == "numerical-failure"

    def test_finalization_failure_writes_null_objective(self, tmp_path, capsys, monkeypatch):
        # the loop's svt at 12x10 runs on the Gram eigh, so only the objective's
        # and the rank's SVDs after it raise
        src = tmp_path / "m.csv"
        src.write_text("".join(
            ",".join("" if (3 * i + j) % 4 == 0 else str((i % 3 + 1) * (j % 4 + 1) + i % 2 * j)
                     for j in range(10)) + "\n"
            for i in range(12)
        ))
        out = tmp_path / "o.csv"
        argv = ("complete", "--input", str(src), "--infer-mask", "--mode", "nnm-exact")
        assert run_cli(*argv, "--output", str(out)) == 0
        good = json.loads((tmp_path / "o.csv.diag.json").read_text())
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        assert run_cli(*argv, "--output", str(out)) == 4
        assert capsys.readouterr().err == f"numerical failure after {good['iterations']} iterations\n"
        diag = json.loads((tmp_path / "o.csv.diag.json").read_text())
        assert diag["status"] == "numerical-failure"
        assert diag["objective"] is None
        assert diag["rank_estimate"] == -1
        assert diag["iterations"] == good["iterations"] > 1

    def test_iteration_cap_is_a_warning(self, tmp_path, capsys):
        src = tmp_path / "m.csv"
        src.write_text("1,1\n1,\n")
        code = run_cli(
            "complete", "--input", str(src), "--infer-mask",
            "--mode", "nnm-exact", "--output", str(tmp_path / "o.csv"), "--max-iters", "1",
        )
        assert code == 0
        assert capsys.readouterr().err.startswith(
            "warning: stopped at the iteration cap (1); residuals "
        )
        diag = json.loads((tmp_path / "o.csv.diag.json").read_text())
        assert diag["status"] == "max-iters"
        assert diag["iterations"] == 1

    def test_diagnostics_of_an_early_failure_are_standard_json(self, tmp_path):
        # the svt's Gram matrix overflows in the first step, so the residuals
        # are never computed and stay infinite
        src = tmp_path / "m.csv"
        src.write_text("1e300,1e300,1e300\n1e300,1e300,1e300\n1e300,1e300,\n")
        code = run_cli(
            "complete", "--input", str(src), "--infer-mask",
            "--mode", "nnm-exact", "--output", str(tmp_path / "o.csv"),
        )
        assert code == 4

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        diag = json.loads((tmp_path / "o.csv.diag.json").read_text(), parse_constant=reject)
        assert diag["status"] == "numerical-failure"
        assert diag["primal_residual"] is None and diag["dual_residual"] is None


class TestGenerate:
    def test_deterministic_files(self, tmp_path):
        args = [
            "generate", "--rows", "12", "--cols", "10", "--rank", "2",
            "--density-left", "0.4", "--density-right", "0.6", "--seed", "9",
            "--rate-zero", "0.3", "--rate-nonzero", "0.8",
        ]
        a_matrix, a_mask = tmp_path / "a.csv", tmp_path / "a_mask.csv"
        b_matrix, b_mask = tmp_path / "b.csv", tmp_path / "b_mask.csv"
        assert run_cli(*args, "--matrix-out", str(a_matrix), "--mask-out", str(a_mask)) == 0
        assert run_cli(*args, "--matrix-out", str(b_matrix), "--mask-out", str(b_mask)) == 0
        assert a_matrix.read_bytes() == b_matrix.read_bytes()
        assert a_mask.read_bytes() == b_mask.read_bytes()

    def test_manifest_echoes_parameters(self, tmp_path):
        matrix_out = tmp_path / "m.csv"
        code = run_cli(
            "generate", "--rows", "30", "--cols", "30", "--rank", "2",
            "--density-left", "0.3", "--density-right", "0.5", "--seed", "4",
            "--rate-zero", "0.2", "--rate-nonzero", "0.7",
            "--matrix-out", str(matrix_out), "--mask-out", str(tmp_path / "k.csv"),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest == {
            "rows": 30, "cols": 30, "rank": 2, "density_left": 0.3, "density_right": 0.5,
            "seed": 4, "rate_zero": 0.2, "rate_nonzero": 0.7,
            "observed": 275, "matrix_file": "m.csv", "mask_file": "k.csv",
            "version": structmc.__version__,
        }

    def test_rank_out_of_range_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "generate", "--rows", "6", "--cols", "6", "--rank", "0",
            "--density-left", "0.5", "--density-right", "0.5", "--seed", "1",
            "--rate-zero", "0.5", "--rate-nonzero", "0.5",
            "--matrix-out", str(tmp_path / "m.csv"), "--mask-out", str(tmp_path / "k.csv"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "usage error: rank must lie in [1, min(n1, n2)] = [1, 6]"
        )
        assert not (tmp_path / "m.csv").exists()

    def test_degenerate_draw_is_data_error(self, tmp_path):
        code = run_cli(
            "generate", "--rows", "6", "--cols", "6", "--rank", "1",
            "--density-left", "0", "--density-right", "0.5", "--seed", "1",
            "--rate-zero", "0.5", "--rate-nonzero", "0.5",
            "--matrix-out", str(tmp_path / "m.csv"), "--mask-out", str(tmp_path / "k.csv"),
        )
        assert code == 3
        assert not (tmp_path / "m.csv").exists()


class TestBenchmark:
    def test_single_cell_run(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SYNTH_CONFIG)
        outdir = tmp_path / "out"
        code = run_cli("benchmark", "--config", str(cfg), "--outdir", str(outdir))
        assert code == 0
        lines = (outdir / "results.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one trial
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["records"] == 1
        assert manifest["kind"] == "synthetic"
        assert "matrix_file" not in manifest
        heat = (outdir / "heatmap_ratio.csv").read_text().splitlines()
        assert heat[0] == "rate_zero,0.9"

    def test_rerun_byte_identical_results(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SYNTH_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli("benchmark", "--config", str(cfg), "--outdir", str(out1)) == 0
        assert run_cli("benchmark", "--config", str(cfg), "--outdir", str(out2)) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "heatmap_ratio.csv").read_bytes() == (out2 / "heatmap_ratio.csv").read_bytes()
        assert (out1 / "heatmap_alpha.csv").read_bytes() == (out2 / "heatmap_alpha.csv").read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_non_positive_workers_is_usage_error(self, tmp_path, workers, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SYNTH_CONFIG)
        outdir = tmp_path / "out"
        code = run_cli("benchmark", "--config", str(cfg), "--outdir", str(outdir),
                       "--workers", workers)
        assert code == 2
        assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not outdir.exists()

    def test_real_matrix_run(self, tmp_path):
        truth = tmp_path / "truth.csv"
        rows = ["0,1,2,0,3", "4,0,1,2,0", "0,2,0,1,4", "3,0,2,0,1", "1,2,0,4,0", "0,0,3,1,2"]
        truth.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[experiment]\nkind = real\ntrials = 1\nbase_seed = 5\nalphas = 0.1\n"
            "zero_rates = 0.5\nnonzero_rates = 0.9\n\n[real]\nmatrix = truth.csv\nrow_subsample = 4\n"
        )
        outdir = tmp_path / "out"
        code = run_cli("benchmark", "--config", str(cfg), "--outdir", str(outdir))
        assert code == 0
        assert (outdir / "results.csv").exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["kind"] == "real"
        assert manifest["row_subsample"] == 4
        assert manifest["matrix_file"] == str(truth)

    def test_output_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        """One and two OpenBLAS threads write the same files, byte for byte.

        Cases: sweeps of 10x10 and 110x110 truths, a 200x200 and a 300x300
        ``complete``.  OpenBLAS splits a dot product of more than 10,000
        entries between its threads, which changes its summation order, as
        in the error norms of the 110x110 sweep; from 300 wide its eigh, SVD
        and matrix products round otherwise on two threads.  Every solve and
        every trial's scoring run on one BLAS thread, whatever the caller set.
        """
        cfg, wide_cfg = tmp_path / "cfg.ini", tmp_path / "wide.ini"
        cfg.write_text(SYNTH_CONFIG.replace("zero_rates = 0.3", "zero_rates = 0.3, 0.6"))
        # noisy: the noiseless trial's error norms came out the same on two threads
        wide_cfg.write_text(SYNTH_CONFIG.replace("= 10\n", "= 110\n").replace(
            "nonzero_rates", "noise_sigma = 0.1\nnonzero_rates"))
        sweep = ("results.csv", "heatmap_ratio.csv", "heatmap_alpha.csv")
        # each case: its command line, a directory to finish it, and the files it writes
        cases = [
            (["benchmark", "--config", str(cfg), "--workers", "1", "--outdir"], "", sweep),
            (["benchmark", "--config", str(wide_cfg), "--workers", "1", "--outdir"], "", sweep),
        ]
        for n, (zero, nonzero), mode in (
            (200, ("0.1", "0.9"), ["nnm-noisy-reg", "--alpha", "0.01", "--sigma", "0.1"]),
            (300, ("0.3", "0.3"), ["nnm-exact"]),
        ):
            truth, mask = tmp_path / f"truth{n}.csv", tmp_path / f"mask{n}.csv"
            assert run_cli("generate", "--rows", str(n), "--cols", str(n), "--rank", "5",
                           "--density-left", "0.3", "--density-right", "0.5",
                           "--rate-zero", zero, "--rate-nonzero", nonzero,
                           "--matrix-out", str(truth), "--mask-out", str(mask)) == 0
            cases.append((["complete", "--input", str(truth), "--mask", str(mask), "--mode", *mode,
                           "--output"], "completed.csv",
                          ("completed.csv", "completed.csv.diag.json")))
        script = "import sys; from structmc.cli import main; print(main(sys.argv[1:]))"
        for k, (argv, target, names) in enumerate(cases):
            outputs = []
            for threads in ("1", "2"):
                outdir = tmp_path / f"{k}-{threads}"
                outdir.mkdir()
                assert run_python(script, *argv, str(outdir / target),
                                  OPENBLAS_NUM_THREADS=threads) == "0"
                outputs.append([(outdir / name).read_bytes() for name in names])
            assert outputs[0] == outputs[1], argv[:3]

    def test_percent_in_matrix_name(self, tmp_path):
        # values are literal: configparser's % interpolation would reject "a%b"
        (tmp_path / "a%b.csv").write_text("0,1,2\n3,0,1\n1,2,0\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[experiment]\nkind = real\ntrials = 1\nbase_seed = 5\nalphas = 0.1\n"
            "zero_rates = 0.5\nnonzero_rates = 0.9\n\n[real]\nmatrix = a%b.csv\n"
        )
        outdir = tmp_path / "out"
        assert run_cli("benchmark", "--config", str(cfg), "--outdir", str(outdir)) == 0
        assert (outdir / "results.csv").exists()

    def test_percent_in_value_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SYNTH_CONFIG.replace("alphas = 0.1, 0.01", "alphas = 10%"))
        outdir = tmp_path / "o"
        assert run_cli("benchmark", "--config", str(cfg), "--outdir", str(outdir)) == 3
        assert capsys.readouterr().err == (
            "data error: experiment.alphas: expected a comma-separated list of numbers, "
            "got '10%'\n")
        assert not outdir.exists()

    def test_failed_cells_marked_not_fatal(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SYNTH_CONFIG.replace("zero_rates = 0.3", "zero_rates = 0.0").replace(
            "nonzero_rates = 0.9", "nonzero_rates = 0.0"))
        outdir = tmp_path / "out"
        code = run_cli("benchmark", "--config", str(cfg), "--outdir", str(outdir))
        assert code == 0
        # every redraw observes nothing; the failed trial's attempts cell is
        # empty, like its other numbers, not the record's default 1
        rows = list(csv.DictReader((outdir / "results.csv").read_text().splitlines()))
        assert [(r["outcome"], r["attempts"], r["error"]) for r in rows] == [
            ("failed", "", "degenerate draws exhausted 8 attempts")]

    def test_manifest_records_solver_settings(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SYNTH_CONFIG + "\n[solver]\nprimal_tol = 1e-8\n")
        outdir = tmp_path / "out"
        assert run_cli("benchmark", "--config", str(cfg), "--outdir", str(outdir)) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["solver"] == dict(dataclasses.asdict(SolverConfig()), primal_tol=1e-8)

    def test_manifest_records_the_numeric_stack(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SYNTH_CONFIG)
        outdir = tmp_path / "out"
        assert run_cli("benchmark", "--config", str(cfg), "--outdir", str(outdir)) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert (manifest["blas_name"], manifest["blas_version"]) == (blas["name"], blas["version"])
        assert manifest["numpy_version"] == np.__version__
        assert manifest["openblas_num_threads"] == "1"
        assert manifest["omp_num_threads"] is None
        # numpy's OpenBLAS exports the switch that pins each solve to one thread
        assert manifest["one_blas_thread"] is ("openblas" in blas["name"])

    def test_manifest_records_the_generator(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SYNTH_CONFIG)
        outdir = tmp_path / "out"
        assert run_cli("benchmark", "--config", str(cfg), "--outdir", str(outdir)) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        # SYNTH_CONFIG's [generator]; no truth is drawn with the generator's
        # seed, each one's derives from base_seed
        assert manifest["generator"] == {"n1": 10, "n2": 10, "rank": 2, "density_left": 0.4,
                                         "density_right": 0.6, "seed": None}
        assert "row_subsample" not in manifest

    def test_nonconverged_trials_reported(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SYNTH_CONFIG + "\n[solver]\nmax_iters = 3\n")
        outdir = tmp_path / "out"
        code = run_cli("benchmark", "--config", str(cfg), "--outdir", str(outdir))
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["failed_trials"] == 0
        assert manifest["nonconverged_trials"] == 1
        assert "1 trial(s) did not converge" in capsys.readouterr().err

    def test_converged_run_reports_zero_nonconverged(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SYNTH_CONFIG)
        outdir = tmp_path / "out"
        assert run_cli("benchmark", "--config", str(cfg), "--outdir", str(outdir)) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["nonconverged_trials"] == 0
        assert "did not converge" not in capsys.readouterr().err

    def test_bad_config_is_data_error(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[experiment]\nkind = synthetic\n")
        code = run_cli("benchmark", "--config", str(cfg), "--outdir", str(tmp_path / "o"))
        assert code == 3

    def test_config_typo_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SYNTH_CONFIG.replace("trials = 1", "trials = 1\nnoise_sgima = 0.1"))
        outdir = tmp_path / "o"
        assert run_cli("benchmark", "--config", str(cfg), "--outdir", str(outdir)) == 3
        assert capsys.readouterr().err == "data error: experiment.noise_sgima: unknown key\n"
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "kind,alphas,sigma",
        [
            ("synthetic", "0.1", "-0.1"),
            ("synthetic", "0.1", "nan"),
            ("synthetic", "0.1, inf", "0"),
            ("real", "0.1", "-0.1"),
            ("real", "0.1", "nan"),
            ("real", "nan", "0"),
        ],
    )
    def test_invalid_sweep_values_are_data_error(self, tmp_path, kind, alphas, sigma):
        (tmp_path / "truth.csv").write_text("0,1,2\n3,0,1\n1,2,0\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            f"[experiment]\nkind = {kind}\ntrials = 1\nbase_seed = 5\nalphas = {alphas}\n"
            f"noise_sigma = {sigma}\nzero_rates = 0.5\nnonzero_rates = 0.9\n\n"
            "[generator]\nrows = 6\ncols = 6\nrank = 1\ndensity_left = 0.5\n"
            "density_right = 0.5\n\n[real]\nmatrix = truth.csv\n"
        )
        outdir = tmp_path / "out"
        code = run_cli("benchmark", "--config", str(cfg), "--outdir", str(outdir))
        assert code == 3
        assert not (outdir / "results.csv").exists()

    def test_missing_config_is_data_error(self, tmp_path):
        code = run_cli("benchmark", "--config", str(tmp_path / "nope.ini"),
                       "--outdir", str(tmp_path / "o"))
        assert code == 3


class TestFileErrors:
    """A file that cannot be read or written is a data error (exit 3), not a traceback."""

    @staticmethod
    def _inputs(tmp_path):
        (tmp_path / "m.csv").write_text("1,2\n3,\n")
        (tmp_path / "k.csv").write_text("0,0\n0,1\n1,0\n")
        (tmp_path / "file").write_text("a regular file\n")
        return str(tmp_path)

    def _assert_data_error(self, capsys, code, path):
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: "), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--input", "--mask"])
    def test_missing_input_file(self, tmp_path, capsys, flag):
        d = self._inputs(tmp_path)
        paths = {"--input": d + "/m.csv", "--mask": d + "/k.csv", flag: d + "/nope.csv"}
        code = run_cli("complete", "--input", paths["--input"], "--mask", paths["--mask"],
                       "--mode", "nnm-exact", "--output", d + "/o.csv")
        self._assert_data_error(capsys, code, d + "/nope.csv")

    @pytest.mark.parametrize("source", ["--infer-mask", "--mask"])
    def test_input_that_observes_nothing(self, tmp_path, capsys, source):
        # the flags are valid; the file that gives the mask observes no entry
        d = self._inputs(tmp_path)
        (tmp_path / "blank.csv").write_text(",\n,\n")
        (tmp_path / "empty.csv").write_text("")
        if source == "--infer-mask":
            path, flags = d + "/blank.csv", ["--input", d + "/blank.csv", "--infer-mask"]
        else:
            path, flags = d + "/empty.csv", ["--input", d + "/m.csv", "--mask", d + "/empty.csv"]
        code = run_cli("complete", *flags, "--mode", "nnm-exact", "--output", d + "/o.csv")
        self._assert_data_error(capsys, code, path)

    def test_complete_output_in_missing_directory(self, tmp_path, capsys):
        d = self._inputs(tmp_path)
        code = run_cli("complete", "--input", d + "/m.csv", "--infer-mask",
                       "--mode", "nnm-exact", "--output", d + "/no/dir/o.csv")
        self._assert_data_error(capsys, code, d + "/no/dir/o.csv")

    def test_generate_matrix_out_in_missing_directory(self, tmp_path, capsys):
        d = self._inputs(tmp_path)
        code = run_cli("generate", "--rows", "6", "--cols", "6", "--rank", "1",
                       "--density-left", "1", "--density-right", "1", "--rate-zero", "0.5",
                       "--rate-nonzero", "0.5", "--matrix-out", d + "/no/m.csv",
                       "--mask-out", d + "/k2.csv")
        self._assert_data_error(capsys, code, d + "/no/m.csv")

    @pytest.mark.parametrize("name", ["nope.ini", "."], ids=["missing", "directory"])
    def test_unreadable_config(self, tmp_path, capsys, name):
        path = str(tmp_path / name)
        code = run_cli("benchmark", "--config", path, "--outdir", str(tmp_path / "out"))
        self._assert_data_error(capsys, code, path)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("read", ["input", "mask", "truth"])
    def test_csv_not_utf8_names_the_file(self, tmp_path, capsys, read):
        d = self._inputs(tmp_path)
        bad = d + "/bad.csv"
        (tmp_path / "bad.csv").write_bytes(b"0,0\n1,\xff\n")
        (tmp_path / "cfg.ini").write_text(
            "[experiment]\nkind = real\ntrials = 1\nbase_seed = 5\nalphas = 0.1\n"
            "zero_rates = 0.5\nnonzero_rates = 0.9\n\n[real]\nmatrix = bad.csv\n"
        )
        complete = ["--mode", "nnm-exact", "--output", d + "/o.csv"]
        code = run_cli(*{
            "input": ["complete", "--input", bad, "--infer-mask", *complete],
            "mask": ["complete", "--input", d + "/m.csv", "--mask", bad, *complete],
            "truth": ["benchmark", "--config", d + "/cfg.ini", "--outdir", d + "/out"],
        }[read])
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {bad}: not valid UTF-8 (invalid start byte at byte 6)\n")

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_bytes(b"\xff" + SYNTH_CONFIG.encode())
        code = run_cli("benchmark", "--config", str(cfg), "--outdir", str(tmp_path / "out"))
        self._assert_data_error(capsys, code, str(cfg))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("matrix", ["", "nope.csv"], ids=["directory", "missing"])
    def test_unreadable_real_matrix_makes_no_outdir(self, tmp_path, capsys, matrix):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[experiment]\nkind = real\ntrials = 1\nbase_seed = 5\nalphas = 0.1\n"
            f"zero_rates = 0.5\nnonzero_rates = 0.9\n\n[real]\nmatrix = {matrix}\n"
        )
        code = run_cli("benchmark", "--config", str(cfg), "--outdir", str(tmp_path / "out"))
        self._assert_data_error(capsys, code, os.path.join(str(tmp_path), matrix))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("matrix,row_subsample,message", [
        ("1,2,3\n4,5,6\n", 5, "cannot subsample 5 rows from 2"),
        ("0,0,0\n0,0,0\n", 1, "ground-truth matrix has no nonzero entries"),
    ], ids=["subsample", "all-zero"])
    def test_real_sweep_that_fails_its_checks_makes_no_outdir(
            self, tmp_path, capsys, matrix, row_subsample, message):
        (tmp_path / "m.csv").write_text(matrix)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[experiment]\nkind = real\ntrials = 1\nbase_seed = 5\nalphas = 0.1\n"
            "zero_rates = 0.5\nnonzero_rates = 0.9\n\n[real]\nmatrix = m.csv\n"
            f"row_subsample = {row_subsample}\n"
        )
        code = run_cli("benchmark", "--config", str(cfg), "--outdir", str(tmp_path / "out"))
        assert code == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_benchmark_outdir_under_a_regular_file(self, tmp_path, capsys):
        d = self._inputs(tmp_path)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SYNTH_CONFIG)
        code = run_cli("benchmark", "--config", str(cfg), "--outdir", d + "/file/out")
        self._assert_data_error(capsys, code, d + "/file/out")


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert run_cli() == 2

    def test_version_exits_zero(self, capsys):
        assert run_cli("--version") == 0
        assert "structmc" in capsys.readouterr().out

    def test_start_up_leaves_unused_modules_unloaded(self):
        # multiprocessing serves only pooled sweeps, scipy only the benchmark
        # manifest's version string and numpy.random only unported draws
        script = ("import sys, structmc.cli; print('LOADED', [name for name in "
                  "('hashlib', 'multiprocessing', 'concurrent.futures', 'scipy', "
                  "'numpy.random') if name in sys.modules])")
        assert run_python(script) == "LOADED []"

    @pytest.mark.parametrize("kind", ["synthetic", "real-noisy"])
    def test_sweep_leaves_numpy_random_and_openssl_unloaded(self, tmp_path, kind):
        # the draws run on the numpy port of Philox; seed tags hash with
        # _blake2, not hashlib and its OpenSSL binding _hashlib; only noise
        # draws load statistics
        unloaded = ("numpy.random", "hashlib", "_hashlib")
        cfg = tmp_path / "cfg.ini"
        if kind == "synthetic":
            cfg.write_text(SYNTH_CONFIG)
            unloaded += ("statistics",)
        else:
            (tmp_path / "truth.csv").write_text(
                "0,1,2,0,3\n4,0,1,2,0\n0,2,0,1,4\n3,0,2,0,1\n1,2,0,4,0\n0,0,3,1,2\n")
            cfg.write_text(
                "[experiment]\nkind = real\ntrials = 1\nbase_seed = 5\nalphas = 0.1\n"
                "noise_sigma = 0.1\nzero_rates = 0.5\nnonzero_rates = 0.9\n\n"
                "[real]\nmatrix = truth.csv\nrow_subsample = 4\n")
        script = textwrap.dedent(f"""
            import runpy, sys
            sys.argv = ["structmc", "benchmark", "--config", {str(cfg)!r},
                        "--outdir", {str(tmp_path / "out")!r}]
            try:
                runpy.run_module("structmc", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                assert exc.code == 0, exc.code
            print("LOADED", [m for m in {unloaded!r} if m in sys.modules])
        """)
        assert run_python(script) == "LOADED []"
        assert (tmp_path / "out" / "results.csv").exists()

    def test_complete_leaves_heavy_scipy_modules_unloaded(self, tmp_path):
        # scipy.optimize serves only the oracle; a CLI process that imports it
        # or scipy.special pays for it at start-up.  generate and complete draw
        # no noise (--sigma only sets rho), so statistics stays unloaded too
        script = textwrap.dedent(f"""
            import sys
            from structmc.cli import main
            out = {str(tmp_path)!r}
            assert main(["generate", "--rows", "120", "--cols", "120", "--rank", "4",
                         "--density-left", "0.5", "--density-right", "0.5", "--seed", "3",
                         "--rate-zero", "0.4", "--rate-nonzero", "0.8",
                         "--matrix-out", out + "/m.csv", "--mask-out", out + "/k.csv"]) == 0
            assert main(["complete", "--input", out + "/m.csv", "--mask", out + "/k.csv",
                         "--mode", "nnm-noisy", "--sigma", "0.1",
                         "--output", out + "/c.csv"]) == 0
            heavy = ("scipy.optimize", "scipy.special", "scipy.linalg", "statistics")
            print("LOADED", [name for name in heavy if name in sys.modules])
        """)
        assert run_python(script) == "LOADED []"
        assert (tmp_path / "c.csv").exists()

    def test_noisy_sweep_leaves_scipy_special_unloaded(self, tmp_path):
        # noise draws use the standard library's NormalDist, not scipy.special
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SYNTH_CONFIG.replace("nonzero_rates", "noise_sigma = 0.1\nnonzero_rates"))
        # runs ``python -m structmc benchmark ...`` in the fresh interpreter
        script = textwrap.dedent(f"""
            import runpy, sys
            sys.argv = ["structmc", "benchmark", "--config", {str(cfg)!r},
                        "--outdir", {str(tmp_path / "out")!r}]
            try:
                runpy.run_module("structmc", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                assert exc.code == 0, exc.code
            print("LOADED", [m for m in ("scipy.special", "scipy.optimize", "statistics")
                             if m in sys.modules])
        """)
        assert run_python(script) == "LOADED ['statistics']"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["noise_sigma"] == 0.1
