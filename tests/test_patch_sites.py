"""Tests pin the engine's results and public inputs, not the functions it calls.

A test that replaces a function inside ``structmc.solvers``,
``structmc.harness`` or ``structmc.cli`` breaks when a refactor renames,
folds or stops calling it, even when the behaviour it checks is kept.  This
reads every test file with ``ast`` and lists each ``setattr``,
``monkeypatch.setattr``, ``patch.object`` or ``patch("module.name")`` call
on one of those modules that replaces

- a private callable: a name that starts with ``_`` and is not an
  UPPER_CASE constant, or
- a callable the module imported from another module
  (``obj.__module__ != module.__name__``), such as ``solvers.svt`` or
  ``harness.solve``.

Module constants (the engine's settings) and a module's own public
functions, such as ``harness.run_cell``, stay patchable.  A name given by a
variable counts as each string of the literal tuple or list that the
nearest loop binding it runs over, and as a finding when it is anything
else.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

GUARDED = ("structmc.solvers", "structmc.harness", "structmc.cli")

# (module, name) -> why a test may replace it
ALLOWED = {
    ("structmc.solvers", "_Anderson"): (
        "the accelerator's own tests subclass it to read its history and to run it in "
        "double precision; no public input reaches those, nor makes every "
        "extrapolation bad"
    ),
}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _module_names(tree):
    """Local name -> module, for every ``import`` in the file, function-local ones too."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    names[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _loop_strings(name, node, parents):
    """The strings ``name`` takes in the nearest loop around ``node`` that binds it.

    None unless that loop runs over a literal tuple or list of strings.
    """
    while node in parents:
        node = parents[node]
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            if node.target.id != name:
                continue
            items = node.iter.elts if isinstance(node.iter, (ast.Tuple, ast.List)) else [None]
            if all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in items):
                return [e.value for e in items]
            return None
    return None


def _targets(call, modules, parents):
    """(module, names) that ``call`` replaces, names None when they cannot be read."""
    func, args = call.func, call.args
    kind = _dotted(func) or ""
    if not (kind.split(".")[-1] in ("setattr", "patch") or kind.endswith("patch.object")):
        return None
    if len(args) >= 1 and isinstance(args[0], ast.Constant) and isinstance(args[0].value, str):
        # monkeypatch.setattr("package.module.name", value), mock.patch("package.module.name")
        module, _, name = args[0].value.rpartition(".")
        return module, [name]
    if len(args) < 2:
        return None
    target = _dotted(args[0])
    if target is None:
        return None
    head, _, rest = target.partition(".")
    module = ".".join(filter(None, [modules.get(head, head), rest]))
    name = args[1]
    if isinstance(name, ast.Constant) and isinstance(name.value, str):
        return module, [name.value]
    if isinstance(name, ast.Name):
        return module, _loop_strings(name.id, call, parents)
    return module, None


def _why_not(module, name):
    """Why replacing ``module.name`` reaches inside the engine, or None when it does not."""
    if (module, name) in ALLOWED:
        return None
    mod = importlib.import_module(module)
    obj = getattr(mod, name, None)
    if not callable(obj):
        return None
    if name.startswith("_") and not name.isupper():
        return "private callable"
    owner = getattr(obj, "__module__", None)
    if owner is not None and owner != mod.__name__:
        return f"imported from {owner}"
    return None


def patch_findings(source, filename, guarded=GUARDED):
    """One ``file:line: module.name (reason)`` line per replacement this guard forbids."""
    tree = ast.parse(source, filename)
    modules = _module_names(tree)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        found = _targets(node, modules, parents)
        if found is None or found[0] not in guarded:
            continue
        module, names = found
        where = f"{filename}:{node.lineno}"
        if names is None:
            findings.append((node.lineno, f"{where}: {module}.<not a literal name> "
                                          "(cannot be checked)"))
            continue
        for name in names:
            reason = _why_not(module, name)
            if reason:
                findings.append((node.lineno, f"{where}: {module}.{name} ({reason})"))
    return [line for _, line in sorted(findings)]


def test_no_test_replaces_an_engine_function():
    tests = Path(__file__).parent
    findings = [
        line
        for path in sorted(tests.glob("*.py"))
        for line in patch_findings(path.read_text(encoding="utf-8"), path.name)
    ]
    assert findings == [], "\n".join(findings)


def test_the_guard_finds_each_kind_of_replacement(monkeypatch):
    # a stand-in engine module, so that this test names none of the package's functions
    engine = types.ModuleType("engine")
    exec("from math import sqrt\n_CAP = 3\ndef _step(): pass\ndef run(): pass\n", vars(engine))
    monkeypatch.setitem(sys.modules, "engine", engine)
    source = '''
import engine as engine_mod
from unittest import mock

def test(monkeypatch):
    monkeypatch.setattr(engine_mod, "sqrt", None)
    with mock.patch.object(engine_mod, "_step"):
        pass
    setattr(engine_mod, "_step", None)
    monkeypatch.setattr("engine.sqrt", None)
    with mock.patch("engine._step"):
        pass
    for name in ("sqrt", "_step", "run"):
        monkeypatch.setattr(engine_mod, name, None)
    for name in names():
        monkeypatch.setattr(engine_mod, name, None)
    monkeypatch.setattr(engine_mod, "_CAP", 0)
    monkeypatch.setattr(engine_mod, "run", None)
    monkeypatch.setattr(engine_mod._step, "__doc__", None)
'''
    assert patch_findings(source, "t.py", guarded=("engine",)) == [
        "t.py:6: engine.sqrt (imported from math)",
        "t.py:7: engine._step (private callable)",
        "t.py:9: engine._step (private callable)",
        "t.py:10: engine.sqrt (imported from math)",
        "t.py:11: engine._step (private callable)",
        "t.py:14: engine._step (private callable)",
        "t.py:14: engine.sqrt (imported from math)",
        "t.py:16: engine.<not a literal name> (cannot be checked)",
    ]
