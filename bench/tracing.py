"""Spans around the package's layers, recorded from outside the package.

Each wrapped function is replaced at the module attribute through which the
package calls it (``structmc.solvers.svt`` is the name the solvers look up,
``structmc.harness.solve`` the one the harness looks up), so every call
across a layer boundary opens one span.  Spans stay in memory and are
written out once, at the end.  A layer's self time is its spans' durations
minus the parts covered by their child spans; ``matrix`` and ``metrics`` are
not wrapped and so count inside their callers.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from pathlib import Path

from instances import MODES

# (module, attribute, span name); the layer is the span name's first part
TARGETS = (
    ("structmc.cli", "run_grid", "harness.run"),
    ("structmc.cli", "run_real_matrix", "harness.run"),
    ("structmc.harness", "run_cell", "harness.trial"),
    ("structmc.harness", "_real_trial", "harness.trial"),
    ("structmc.harness", "solve", "solvers.solve"),
    ("structmc.cli", "solve", "solvers.solve"),
    ("structmc.cli", "solve_rpca_restricted", "solvers.solve"),
    ("structmc.solvers", "objective_value", "solvers.finalize"),
    ("structmc.solvers", "estimate_rank", "solvers.finalize"),
    ("structmc.solvers", "svt", "prox.svt"),
    ("structmc.solvers", "soft_threshold", "prox.soft_threshold"),
    ("structmc.solvers", "enforce_observed", "prox.enforce_observed"),
    ("structmc.solvers", "prox_obs_fit_quad", "prox.obs_fit_quad"),
    ("structmc.harness", "generate_low_rank", "synth.generate_low_rank"),
    ("structmc.harness", "sample_structured_mask", "synth.sample_structured_mask"),
    ("structmc.harness", "add_noise", "synth.add_noise"),
    ("structmc.harness", "derive_seed", "synth.derive_seed"),
    ("structmc.harness", "stream", "synth.stream"),
    ("structmc.harness", "rho_for_noise", "synth.rho_for_noise"),
    ("structmc.cli", "rho_for_noise", "synth.rho_for_noise"),
    ("structmc.cli", "load_config", "dataio.read"),
    ("structmc.cli", "ingest_matrix_csv", "dataio.read"),
    ("structmc.cli", "ingest_mask_csv", "dataio.read"),
    ("structmc.cli", "emit_matrix_csv", "dataio.write"),
    ("structmc.cli", "write_results_csv", "dataio.write"),
    ("structmc.cli", "write_heatmap_csv", "dataio.write"),
    ("structmc.cli", "write_manifest", "dataio.write"),
)

# span fields, in the order each span list holds them
ID, PARENT, _TRACE, NAME, START, END, ATTRS = range(7)


def _solve_attrs(args, result):
    res = result[0] if isinstance(result, tuple) else result
    return {"mode": args[0].formulation, "iterations": res.iterations, "status": res.status}


def _write_attrs(args, result):
    return {"bytes": os.path.getsize(args[0])}


class Tracer:
    """Keeps one span per wrapped call: ``[id, parent, trace, name, start, end, attrs]``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._trace = -1
        self._undo = []

    def install(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            attrs = (_solve_attrs if name == "solvers.solve"
                     else _write_attrs if name == "dataio.write" else None)
            setattr(module, attr, self._wrap(original, name, attrs))
            self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def root(self, fn, *args):
        """Call ``fn`` as the root span ``cli.main`` of a new trace."""
        self._trace += 1
        return self._wrap(fn, "cli.main", None)(*args)

    def _wrap(self, fn, name, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self._trace, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "trace", "name", "start", "end", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from a list of spans."""
    duration = [s[END] - s[START] for s in spans]
    self_time = list(duration)
    for s, d in zip(spans, duration):
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= d

    def total(name, values=self_time):
        return sum(v for s, v in zip(spans, values) if s[NAME] == name)

    def layer_self(layer):
        return sum(v for s, v in zip(spans, self_time) if s[NAME].split(".")[0] == layer)

    def count(name):
        return sum(1 for s in spans if s[NAME] == name)

    solves = [(s[ATTRS], d) for s, d in zip(spans, duration) if s[NAME] == "solvers.solve"]
    trials = [d for s, d in zip(spans, duration) if s[NAME] == "harness.trial"]
    svt_calls = count("prox.svt")
    m = {
        "prox.svt.calls": svt_calls,
        "prox.svt.s": total("prox.svt"),
        "prox.svt.us_per_call": 1e6 * total("prox.svt") / svt_calls if svt_calls else 0.0,
        "prox.soft_threshold.s": total("prox.soft_threshold"),
        "prox.enforce_observed.s": total("prox.enforce_observed"),
        "prox.obs_fit_quad.s": total("prox.obs_fit_quad"),
        "solvers.solves": len(solves),
        "solvers.iterations": sum(a["iterations"] for a, _ in solves),
    }
    for mode in MODES:
        iterations = sum(a["iterations"] for a, _ in solves if a["mode"] == mode)
        seconds = sum(d for a, d in solves if a["mode"] == mode)
        m[f"solvers.iterations.{mode}"] = iterations
        m[f"solvers.us_per_iter.{mode}"] = 1e6 * seconds / iterations if iterations else 0.0
    converged = sum(1 for a, _ in solves if a["status"] == "converged")
    m.update({
        "solvers.loop.s": total("solvers.solve"),
        "solvers.finalize.s": total("solvers.finalize", duration),
        "solvers.converged_ratio": converged / len(solves) if solves else 0.0,
        "harness.trials": len(trials),
        "harness.trial_p50_s": statistics.median(trials) if trials else 0.0,
        "harness.self.s": layer_self("harness"),
        "synth.calls": sum(1 for s in spans if s[NAME].startswith("synth.")),
        "synth.s": layer_self("synth"),
        "dataio.read.s": total("dataio.read"),
        "dataio.write.s": total("dataio.write"),
        "dataio.bytes_written": sum(s[ATTRS]["bytes"] for s in spans if s[NAME] == "dataio.write"),
        "cli.self.s": layer_self("cli"),
    })
    return m
