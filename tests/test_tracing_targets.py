"""The benchmark's tracer looks its targets up by name; they must exist and be called.

``bench/tracing.py`` wraps ``(module, attribute)`` pairs with ``getattr``
and ``setattr``, so renaming or deleting one of those package names breaks
the traced benchmark run, and a call that bypasses the name leaves its span
empty.  The pairs are read from the file's source; the traced run imports
the tracer and drives tiny sweeps and completions through ``structmc.cli``.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS tuple in {TRACING}")


@pytest.mark.parametrize("module,attribute,span", _targets())
def test_tracing_target_resolves(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute, None)), (
        f"{module}.{attribute} (span {span}) is not a callable of the package"
    )


def _tracing():
    """Import ``bench/tracing.py`` (and its ``instances``) without caching bytecode."""
    import sys

    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(TRACING.parent))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved


def test_traced_cli_runs_record_every_span(tmp_path):
    from structmc.cli import main

    (tmp_path / "truth.csv").write_text(
        "0,1,2,0,3\n4,0,1,2,0\n0,2,0,1,4\n3,0,2,0,1\n1,2,0,4,0\n0,0,3,1,2\n"
    )
    experiment = (
        "[experiment]\ntrials = 1\nbase_seed = 5\nalphas = 0.1, 0.01\n"
        "zero_rates = 0.5\nnonzero_rates = 0.9\n"
    )
    (tmp_path / "synthetic.ini").write_text(
        experiment + "kind = synthetic\n\n[generator]\nrows = 8\ncols = 8\nrank = 2\n"
        "density_left = 0.5\ndensity_right = 0.6\n"
    )
    (tmp_path / "real.ini").write_text(
        experiment + "kind = real\nnoise_sigma = 0.1\n\n[real]\nmatrix = truth.csv\n"
        "row_subsample = 4\n"
    )
    (tmp_path / "holes.csv").write_text("1,2,0\n2,4,\n0,,1\n")
    (tmp_path / "mask.csv").write_text("0,0\n0,1\n0,2\n1,0\n1,1\n2,0\n2,2\n")
    runs = [
        ["benchmark", "--config", tmp_path / "synthetic.ini", "--outdir", tmp_path / "s"],
        ["benchmark", "--config", tmp_path / "real.ini", "--outdir", tmp_path / "r"],
    ]
    mode_flags = {
        "nnm-exact": [],
        "nnm-reg": ["--alpha", "0.1"],
        "nnm-noisy": ["--sigma", "0.1"],
        "nnm-noisy-reg": ["--alpha", "0.1", "--sigma", "0.1"],
        "rpca-restricted": ["--alpha", "0.5", "--sparse-out", tmp_path / "sparse.csv"],
    }
    for mode, flags in mode_flags.items():
        runs.append(["complete", "--input", tmp_path / "holes.csv", "--mask",
                     tmp_path / "mask.csv", "--mode", mode, "--output",
                     tmp_path / f"{mode}.csv", *flags])
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [tracer.root(main, [str(a) for a in argv]) for argv in runs]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(runs)
    recorded = {span[tracing.NAME] for span in tracer.spans}
    missing = {span for _, _, span in _targets()} - recorded
    assert not missing, f"spans never recorded: {sorted(missing)}"
    # every solve here is below the warm svt gate, so each of its iterations
    # calls svt through the traced name once
    svt_calls = Counter(span[tracing.PARENT] for span in tracer.spans
                        if span[tracing.NAME] == "prox.svt")
    solves = [span for span in tracer.spans if span[tracing.NAME] == "solvers.solve"]
    assert solves
    for span in solves:
        assert svt_calls[span[tracing.ID]] == span[tracing.ATTRS]["iterations"], span
