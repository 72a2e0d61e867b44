"""The demos and the README's Python blocks use only names the package has,
and the documented benchmark configs load.

Nothing runs them in the suite, so a renamed or deleted package name would
leave them broken unseen.  Each source is parsed with ``ast``: every
``<alias>.<name>`` on an ``import structmc as <alias>`` and every name in a
``from structmc... import`` must resolve.  The configs are the files in
``demos/configs`` and the README's ``ini`` block, once as written and once
with its commented-out sections switched on; that block also names exactly
the sections and keys the config reader knows.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from structmc.dataio import _SCHEMA, load_config

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = [*sorted((ROOT / "demos").glob("*.py")), README]
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.ini"))


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


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_demo_config_loads(path):
    assert load_config(path)[1] is None


def _readme_config():
    (block,) = re.findall(r"^```ini\n(.*?)^```", README.read_text(), re.M | re.S)
    return block


@pytest.mark.parametrize("uncomment", [False, True], ids=["as-written", "uncommented"])
def test_readme_config_loads(tmp_path, uncomment):
    block = _readme_config()
    if uncomment:
        block = re.sub(r"^; ", "", block, flags=re.M)
        assert "[solver]" in block and "[real]" in block
    path = tmp_path / "config.ini"
    path.write_text(block)
    spec, _ = load_config(path)
    assert spec.generator.n1 == 30
    if uncomment:
        assert spec.solver.max_iters == 5000


def test_readme_config_names_the_schema_keys():
    # commented-out sections and keys count: the block documents every key
    names, section = {}, None
    for line in _readme_config().splitlines():
        line = line.removeprefix("; ")
        if match := re.match(r"\[(\w+)\]", line):
            section = names.setdefault(match[1], set())
        elif match := re.match(r"(\w+) =", line):
            section.add(match[1])
    assert names == {s: set(keys) for s, keys in _SCHEMA.items()}
