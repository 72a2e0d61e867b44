"""The benchmark's tracer looks its targets up by name; they must exist.

``bench/tracing.py`` wraps ``(module, attribute)`` pairs with ``getattr``
and ``setattr``, so renaming or deleting one of those package names breaks
the traced benchmark run.  The pairs are read from the file's source, not
by importing it.
"""

import ast
import importlib
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
