"""Checks on the package's structure: the benchmark's view of it, read
from ``bench/`` without importing the benchmark runner, a caller for
every export, the separation of the split oracles from what they check,
and of the row oracle from the row machine it checks
(``test_the_row_oracle_reaches_nothing_it_checks``), the one home of the
split geometry, the one split loop behind both concatenation oracles,
the one sweep-and-compare loop behind the bounded sweeps, the one
breadth-first walk that builds the products, the one reachability
closure behind the border sets, the dead states and the row-restriction
trim (``test_one_reachability_closure``), the one input check that
hands the simulate entry points their compiled tables and the one table
of named witnesses (``test_one_input_check_and_one_witness_table``),
the one place that builds each product machine, cases held as plain
tuples and a conversion that keeps no visited set
(``test_one_product_builder_and_plain_records``),
the one module that encodes the step rule and the row transfer's
states, the modules that run the searches, and inside ``simulate`` only
``accepts``, so that no trace path runs one
(``test_only_the_verdict_layer_runs_the_searches``), the factors'
border sets, which replace an IBR machine in every product, the
README's library example, run as written, the README's CLI block, one
line per subcommand, the CLI's options, each declared once
(``test_each_cli_option_is_declared_once``), the table of live
moves, read only by the verdict paths
(``test_only_the_verdict_paths_read_the_live_table``), the ``slow``
marker, on a fixed list of tests that README names
(``test_the_slow_marker_is_on_a_fixed_list``), and the size count of
``tests/size.py``, over every module (``test_the_size_count_lists_every_module``)."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pictomata
from corpus import random_2d
from pictomata import BOUNDARY, border_normalize, serialize_automaton, to_ibr
from pictomata.cli import _parser
from pictomata.construct import _border_set

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

#: The tests that carry the ``slow`` marker, which ``pytest -m "not slow"``
#: deselects.  A fixed list, since which tests pass five seconds depends on
#: the machine's load when they are timed.
SLOW = {
    "test_acceptance.py::test_criterion_05_separated_diagonal",
    "test_constructions.py::test_split_separated_equals_its_definition",
    "test_oracle.py::test_flip_attack_flips_exactly_the_cells_some_accepting_run_avoids",
    "test_onedim.py::test_row_restriction_agrees_with_oracle_on_random_machines",
    "test_simulation.py::test_two_way_kernel_equals_the_generic_search",
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


def _uses_by_function(name):
    """Each (module, top-level function) in ``src/`` that reads ``name``,
    as a name, an attribute or an import; ``None`` for a read outside any
    function.  A read in a nested function counts for the function that
    holds it, a method for its class."""
    uses = set()

    def walk(node, owner, module):
        for sub in ast.iter_child_nodes(node):
            here = owner
            if owner is None and isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                here = sub.name
            if (
                (isinstance(sub, ast.Name) and sub.id == name and not isinstance(sub.ctx, ast.Store))
                or (isinstance(sub, ast.Attribute) and sub.attr == name)
                or (isinstance(sub, ast.ImportFrom) and name in {alias.name for alias in sub.names})
            ):
                uses.add((module, here))
            walk(sub, here, module)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), None, path.stem)
    return uses


def test_the_row_oracle_reaches_nothing_it_checks():
    # onedim.row_departure_oracle is the ground truth for row_restriction
    # and the string machines run on it, so neither it nor its helpers may
    # reach them
    oracle = {("onedim", f) for f in ("row_departure_oracle", "_check_row_machine", "_entry_column")}
    assert ("onedim", "row_departure_oracle") in _uses_by_function("_check_row_machine")  # the walk sees them
    for name in ("row_restriction", "simulate_1d", "Compiled1D", "two_way_to_one_way"):
        assert _uses_by_function(name)  # the walk sees each one read
        assert not _uses_by_function(name) & oracle, name


def test_one_split_loop_behind_both_concat_oracles():
    # concat._split_search is the one loop over the split table; the
    # public oracle calls it after its checks, and refute calls it for
    # every word after the first, which went through the public oracle
    assert _uses_by_function("_splits") == {("concat", "_split_search")}
    assert _uses_by_function("_split_search") == {
        ("concat", "concat_membership"),
        ("oracle", None),  # the import
        ("oracle", "refute"),
    }


def test_one_sweep_and_compare_loop():
    # oracle._swept walks every picture within bounds one row prefix at a
    # time; language_up_to reads it, and so does _first_difference, the one
    # loop that compares a candidate with a target for equivalent_up_to and
    # refute
    assert _uses_by_function("_swept") == {("oracle", "language_up_to"), ("oracle", "_first_difference")}


def test_one_product_walk():
    # construct._walk is the one breadth-first walk that finds and names
    # the states of the unary row product and of both diagonal products
    # (the column product is the row product's transpose); _fresh names
    # its states, and border_normalize's sweep state
    assert _uses_by_function("_walk") == {("construct", "unary_row_concat"), ("construct", "_diag_product")}
    assert _uses_by_function("_fresh") == {("construct", "_walk"), ("construct", "border_normalize")}


def test_one_reachability_closure():
    # automaton._closure is the one walk over a state graph's arcs: the
    # border set is the closure of accept over the reversed '#' arcs,
    # Compiled's states that are not dead the closure over every reversed
    # arc, and a row restriction keeps the states both its initial
    # state's closure and down's reversed one hold; onedim's read outside
    # a function is the import
    assert _uses_by_function("_closure") == {
        ("automaton", "boundary_reach"),
        ("automaton", "Compiled"),
        ("onedim", None),
        ("onedim", "row_restriction"),
    }
    assert not _uses_by_function("_reaching")


def test_one_input_check_and_one_witness_table():
    # simulate.check_input compiles the machine, checks the picture and
    # returns the compiled tables, so no entry point reads them itself;
    # RowTransfer checks no picture.  construct.build_witness builds its
    # four named machines from _WITNESSES with one Automaton2D call
    assert {use for use in _uses_by_function("compiled") if use[0] == "simulate"} == {
        ("simulate", "check_input"),
        ("simulate", "RowTransfer"),
    }
    tree = ast.parse((PACKAGE / "construct.py").read_text(encoding="utf-8"))
    (builder,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "build_witness"]
    calls = [
        node for node in ast.walk(builder)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Automaton2D"
    ]
    assert len(calls) == 1


def test_one_product_builder_and_plain_records():
    # construct._walk builds every product machine, so besides it only the
    # normal forms and the witness table call Automaton2D; the run-shape
    # cases of the unary row product are plain tuples, not a dataclass;
    # and two_way_to_one_way caps each crossing at |Q| passes instead of
    # keeping a set of the states it has seen
    tree = ast.parse((PACKAGE / "construct.py").read_text(encoding="utf-8"))
    builders = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "Automaton2D":
                    builders.add(node.name)
    assert builders == {"to_ibr", "border_normalize", "_walk", "build_witness"}
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert "CaseTag" in [node.name for node in classes]  # the walk sees the classes that are there
    assert not [d for node in classes for d in node.decorator_list if "dataclass" in ast.unparse(d)]
    tree = ast.parse((PACKAGE / "onedim.py").read_text(encoding="utf-8"))
    (convert,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "two_way_to_one_way"]
    assert not [
        node for node in ast.walk(convert)
        if isinstance(node, (ast.Set, ast.SetComp))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"))
    ]


def test_only_simulate_encodes_the_step_rule():
    # simulate._step defines one step, and simulate._search, its 2W
    # kernel and RowTransfer.step apply the same rule inline, pinned to it
    # by differential tests; no other module calls _step, and the modules
    # that run _search or the 2W kernel are fixed by
    # test_only_the_verdict_layer_runs_the_searches, so the rule stays in
    # one module (onedim.row_departure_oracle replays a row's moves on its
    # own tape, as the independent ground truth for row_restriction)
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


def test_only_the_verdict_layer_runs_the_searches():
    # simulate defines _search and its 2W kernel _two_way; concat's split
    # loop runs both, and oracle's 4W sweep runs _search, and no other
    # module runs either.  Inside simulate only accepts runs _search: no
    # trace path runs a search, since _first_trace is its own walk
    assert {module for module, _ in _uses_by_function("_search")} == {"simulate", "concat", "oracle"}
    assert {use for use in _uses_by_function("_search") if use[0] == "simulate"} == {("simulate", "accepts")}
    assert {module for module, _ in _uses_by_function("_two_way")} == {"simulate", "concat"}


def test_no_construction_builds_an_ibr_machine():
    # the products read each factor's border set (construct._border_set)
    # and build no to_ibr machine; to_ibr serves `construct ibr` alone,
    # besides its re-export
    assert _uses_by_function("to_ibr") - {("__init__", None)} == {("cli", None)}


def test_the_border_set_is_what_to_ibr_resolves():
    # a factor's border set holds exactly the states whose '#' read
    # to_ibr of its border-normalized form turns into a jump to acceptance
    rng = random.Random(27)
    for _ in range(300):
        bn = border_normalize(random_2d(rng, "2W", rng.choice(("det", "nondet"))))
        resolved = {q for (q, sym), image in to_ibr(bn).delta.items() if sym == BOUNDARY and image}
        assert _border_set(bn) == resolved, serialize_automaton(bn)


def test_only_the_verdict_paths_read_the_live_table():
    # Compiled.live drops every move into Compiled.dead, so only verdicts
    # may read it: the 2W kernel and the row transfer's step.  _step,
    # _search, the traces, replay and onedim's row oracle keep every move.
    # Dead states are dropped in one place: automaton builds live from
    # dead, and no other module reads dead
    outside = {("simulate", "_two_way"), ("simulate", "RowTransfer")}
    assert {use for use in _uses_by_function("live") if use[0] != "automaton"} == outside
    assert {use[0] for use in _uses_by_function("dead")} == {"automaton"}


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


def test_the_readme_library_example_runs():
    # the example shows the public API, so it may name nothing that is gone
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_the_readme_cli_block_names_every_subcommand():
    # the CLI block lists one usage line per verb, so a verb added to or
    # dropped from the parser must show there too
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```$", readme, re.M | re.S)
    (block,) = [b for b in blocks if b.startswith("pictomata ")]
    lines = block.splitlines()
    assert all(line.startswith("pictomata ") for line in lines)
    (sub,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {line.split()[1] for line in lines} == set(sub.choices)


def test_each_cli_option_is_declared_once():
    # an option several verbs share is declared in one helper that each of
    # them calls, so its type, default and help cannot drift between verbs
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    declared = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument":
            declared += [
                arg.value for arg in node.args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str) and arg.value.startswith("-")
            ]
    assert {"--max-rows", "--max-cols", "-o", "--output"} <= set(declared)  # the walk sees them
    assert [option for option, count in Counter(declared).items() if count > 1] == []


def test_the_slow_marker_is_on_a_fixed_list():
    # a test is marked slow by a decorator on its function and nowhere
    # else, the marked tests are exactly SLOW, and README names each
    marked = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        marks = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "slow"]
        decorated = [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and any(ast.unparse(d) == "pytest.mark.slow" for d in node.decorator_list)
        ]
        assert len(marks) == len(decorated), path.name
        marked.update(f"{path.name}::{name}" for name in decorated)
    assert marked == SLOW
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert all(f"`{name.partition('::')[2]}`" in readme for name in SLOW)


def test_the_size_count_lists_every_module():
    # the script prints a header, one line per module and the totals; its
    # line count of each module is the file's, as `wc -l` reads it
    script = ROOT / "tests" / "size.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, check=True).stdout
    *rows, total = [line.split() for line in out.splitlines()[1:]]
    files = sorted(PACKAGE.glob("*.py"))
    assert [name for name, _, _ in rows] == [path.name for path in files]
    assert [int(lines) for _, lines, _ in rows] == [path.read_bytes().count(b"\n") for path in files]
    assert total[:2] == ["total", str(sum(int(lines) for _, lines, _ in rows))]
