"""Checks on the package's structure: the benchmark's view of it, read
from ``bench/`` without importing the benchmark runner, a caller for
every export, the separation of the split oracles from what they check,
the one home of the split geometry, and the one module that encodes the
step rule and the row transfer's states."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pictomata

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
PACKAGE = ROOT / "src" / "pictomata"

#: Exports that nothing in ``src/`` or ``bench/`` calls, each with the
#: reason it stays public.
CALLED_FROM_OUTSIDE = {
    "picture_of": "the README's library example builds its picture with it",
    "transpose": "the picture half of the row/column duality; criterion 03"
    " checks transpose_automaton against it",
}


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_resolves_on_its_module():
    # the span tracer wraps these by name, so a renamed or removed public
    # function would break only a traced benchmark run
    traced = _traced()
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"pictomata.{layer}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            holder = getattr(module, owner) if owner else module
            assert attr in vars(holder), f"pictomata.{layer}.{name}"
            assert callable(vars(holder)[attr]), f"pictomata.{layer}.{name}"


def _names_used(paths):
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_export_has_a_caller():
    # what the package exports serves its own code or the benchmark; an
    # export only the tests call belongs in the tests.  A definition is
    # no call, nor is the re-export in __init__.py; a name the span
    # tracer wraps is read by the benchmark
    exports = {
        name
        for name, value in vars(pictomata).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    callers = _names_used(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    callers |= _names_used(sorted((ROOT / "bench").glob("*.py")))
    callers |= {name.rpartition(".")[2] for names in _traced().values() for name in names}
    assert exports - callers == set(CALLED_FROM_OUTSIDE)


def test_split_oracles_import_nothing_they_check():
    # concat.py is the ground truth for the constructions and the row
    # transfer sweeps, so it may not reach them
    tree = ast.parse((PACKAGE / "concat.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert "simulate" in imported  # the walk sees the imports that are there
    assert not imported & {"construct", "oracle", "RowTransfer"}


def test_only_the_split_table_names_a_kind():
    # concat._splits holds which blocks each kind of split hands the two
    # factors; both oracles read their windows from it and branch on no
    # kind, so the split geometry has one home
    def members(node):
        return {
            id(sub)
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "ConcatKind"
            and sub.attr in {"ROW", "COL", "DIAG"}
        }

    tree = ast.parse((PACKAGE / "concat.py").read_text(encoding="utf-8"))
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_splits":
            inside |= members(node)
    assert inside  # the walk sees the kinds that are there
    assert members(tree) == inside


def test_only_simulate_encodes_the_step_rule():
    # simulate._step defines one step, and simulate._search and its 2W
    # kernel apply the same rule inline, pinned to it by differential
    # tests; no other module steps configurations, so the rule stays in
    # one module
    users = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            for name in names & {"_step", "_search"}:
                users.setdefault(name, set()).add(path.name)
    assert "concat.py" in users["_search"]  # the walk sees the imports that are there
    assert users.get("_step", set()) <= {"simulate.py"}


def test_only_simulate_names_the_transfer_states():
    # a row transfer's states, the sticky ACCEPTED among them, and the cap
    # of its one memo (the step of each state and row, with the verdict of
    # the state it leaves) belong to simulate.RowTransfer; a sweep asks
    # RowTransfer.verdicts once per row prefix rather than folding,
    # memoizing steps or caching verdicts itself
    users = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            for name in names & {"ACCEPTED", "_MEMO_CAP"}:
                users.setdefault(name, set()).add(path.name)
    assert users == {"ACCEPTED": {"simulate.py"}, "_MEMO_CAP": {"simulate.py"}}
