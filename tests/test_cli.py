import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import structmc
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

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import structmc.solvers as solvers_mod
        from structmc.errors import NumericalError

        def failing_svt(*args, **kwargs):
            raise NumericalError("synthetic SVD breakdown")

        monkeypatch.setattr(solvers_mod, "svt", failing_svt)
        src = tmp_path / "m.csv"
        src.write_text("1,1\n1,\n")
        code = run_cli(
            "complete", "--input", str(src), "--infer-mask",
            "--mode", "nnm-exact", "--output", str(tmp_path / "o.csv"),
        )
        assert code == 4


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
        assert manifest["rows"] == 30
        assert manifest["cols"] == 30
        assert manifest["rank"] == 2
        assert manifest["density_left"] == 0.3
        assert manifest["density_right"] == 0.5
        assert manifest["seed"] == 4

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

    def test_failed_cells_marked_not_fatal(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(SYNTH_CONFIG.replace("zero_rates = 0.3", "zero_rates = 0.0").replace(
            "nonzero_rates = 0.9", "nonzero_rates = 0.0"))
        outdir = tmp_path / "out"
        code = run_cli("benchmark", "--config", str(cfg), "--outdir", str(outdir))
        assert code == 0
        text = (outdir / "results.csv").read_text()
        assert "failed" in text

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


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert run_cli() == 2

    def test_version_exits_zero(self, capsys):
        assert run_cli("--version") == 0
        assert "structmc" in capsys.readouterr().out

    def test_complete_leaves_heavy_scipy_modules_unloaded(self, tmp_path):
        # scipy.optimize serves only the oracle and scipy.special only noise
        # draws; a CLI process that imports either pays for it at start-up
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
            heavy = ("scipy.optimize", "scipy.special", "scipy.linalg")
            print("LOADED", [name for name in heavy if name in sys.modules])
        """)
        src = str(Path(structmc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            path for path in (src, os.environ.get("PYTHONPATH")) if path))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "LOADED []"
        assert (tmp_path / "c.csv").exists()
