"""The demos and the README's Python blocks use only names the package has.

Nothing runs them in the suite, so a renamed or deleted package name would
leave them broken unseen.  Each source is parsed with ``ast``: every
``<alias>.<name>`` on an ``import structmc as <alias>`` and every name in a
``from structmc... import`` must resolve.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = [*sorted((ROOT / "demos").glob("*.py")), README]


def _python(path):
    """The file's code; for the README, its ``python`` blocks."""
    if path.suffix == ".py":
        return path.read_text()
    return "\n".join(re.findall(r"^```python\n(.*?)^```", path.read_text(), re.M | re.S))


def _package_names(source):
    """``(module, name)`` for each package name ``source`` uses."""
    tree = ast.parse(source)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import structmc.cli" binds structmc, "import structmc.cli as c" the module
            aliases.update((a.asname, a.name) if a.asname else ("structmc", "structmc")
                           for a in node.names if a.name.split(".")[0] == "structmc")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "structmc":
            yield from ((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield aliases[node.value.id], node.attr


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_names_resolve(path):
    used = set(_package_names(_python(path)))
    assert used, f"{path.name} uses no structmc name"
    missing = sorted(f"{module}.{attr}" for module, attr in used
                     if not hasattr(importlib.import_module(module), attr))
    assert not missing, f"{path.name} uses names structmc does not have: {missing}"
