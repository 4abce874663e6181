"""The four workloads: seeded inputs, the checks each one times, and
the reference answer each check is held to.

A *check* is one call of a workload's top-level entry point.  Inputs
come only from the seed; the program sees nothing but the generated
machines, pictures, strings and fixture files.  Checks call the toolkit
through module attributes (``oracle.refute``, not a bound name), so the
span wrappers installed by ``spans.py`` see every call.
"""

import io
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref
from pictomata import automaton, cli, concat, construct, onedim, oracle, simulate
from pictomata.automaton import Automaton2D, make_delta
from pictomata.concat import ConcatKind
from pictomata.oracle import DimBounds
from pictomata.picture import BOUNDARY, Alphabet, Picture, format_picture

DEFAULT_SEED = 0
WORKLOADS = ("oracle-sweep", "separated-layouts", "refute-trace", "onedim-convert")

MODES = ("det", "nondet")
AB01 = Alphabet(("0", "1"))
UNARY = Alphabet(("a",))

#: Input counts and bounds.  "full" is what the benchmark measures;
#: "tiny" only exercises every code path for the self-test.
SIZES = {
    "oracle-sweep": {
        "full": {"diag": 80, "unary": 16, "lang3w": 12, "lang4w": 12, "bound": 3, "unary_bound": 6},
        "tiny": {"diag": 2, "unary": 2, "lang3w": 1, "lang4w": 1, "bound": 2, "unary_bound": 3},
    },
    "separated-layouts": {
        "full": {"pairs": 250, "rows": 3, "cols": 4},
        "tiny": {"pairs": 2, "rows": 3, "cols": 3},
    },
    "refute-trace": {
        "full": {"refute": 250, "rows": 2, "cols": 3, "traces": 30, "runs": 30, "cli_sets": 2, "spray": 10, "deep": 1500},
        "tiny": {"refute": 1, "rows": 2, "cols": 2, "traces": 2, "runs": 2, "cli_sets": 1, "spray": 4, "deep": 1500},
    },
    "onedim-convert": {
        "full": {"convert": 180, "restrict": 180, "length": 9},
        "tiny": {"convert": 2, "restrict": 2, "length": 3},
    },
}


@dataclass
class Check:
    cid: str
    #: Input words (pictures, layouts or strings) the check gives a verdict on.
    words: int
    #: The timed call; returns the raw result.
    run: Callable[[], object]
    #: Raw result -> JSON-comparable verdict, computed after the clock stops.
    verdict: Callable[[object], object]
    #: Expected verdict for this seed, computed outside the timed section.
    expect: Callable[[], object]
    #: A documented defect of the program: raising this type counts the
    #: check as not ok (``ok_ratio``) without failing the run.
    defect: type | None = None
    #: States the check constructs, from its raw result.
    states: Callable[[object], int] | None = None


@dataclass
class Plan:
    checks: list[Check] = field(default_factory=list)
    built_states: int = 0

    def reference(self) -> dict:
        return {c.cid: c.expect() for c in self.checks}


def build(workload: str, seed: int, size: str, work: Path) -> Plan:
    """Generate the workload's inputs from the seed and construct its
    machines; CLI fixture files go under ``work``."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, SIZES[workload][size], work)


# -- seeded inputs ---------------------------------------------------------

_DIRS = {"2W": ("D", "R"), "3W": ("D", "L", "R"), "4W": ("D", "L", "R", "U")}


def random_machine(rng, name, alphabet, variant="2W", mode="det", states=3, density=0.75):
    """Random machine with ``states`` working states plus ``acc``.

    A fixed share of the (state, symbol) pairs gets a transition, and in
    nondet mode a fixed share of those gets two, so that machines of one
    shape differ only in where their transitions go."""
    names = [f"q{i}" for i in range(states)] + ["acc"]
    keys = [(q, sym) for q in names[:-1] for sym in (*alphabet.symbols, BOUNDARY)]
    chosen = rng.sample(keys, round(density * len(keys)))
    entries = []
    for k, (q, sym) in enumerate(chosen):
        fan = 2 if mode == "nondet" and k % 3 == 0 else 1
        for _ in range(fan):
            entries.append((q, sym, rng.choice(names), rng.choice(_DIRS[variant])))
    return Automaton2D(name, variant, mode, alphabet, tuple(names), "q0", "acc", make_delta(entries))


def random_1d(rng, name, states):
    """Random deterministic two-way string machine over {0,1} with
    ``states`` states, the last one accepting."""
    names = tuple(f"s{i}" for i in range(states - 1)) + ("acc",)
    delta = {}
    for q in names[:-1]:
        for sym in ("0", "1", BOUNDARY):
            if rng.random() < 0.85:
                delta[(q, sym)] = (rng.choice(names), rng.choice("LR"))
    return onedim.Automaton1D(name, onedim.TWO_WAY, AB01, names, "s0", ("acc",), delta)


def strata(i: int, *axes):
    """The i-th combination of the given choices, cycling through all of
    them: every seed draws the same mix of machine shapes and sizes, and
    only the transitions and cell contents vary with the seed."""
    out = []
    for axis in axes:
        out.append(axis[i % len(axis)])
        i //= len(axis)
    return out


def random_picture(rng, symbols, m, n):
    return Picture(tuple("".join(rng.choice(symbols) for _ in range(n)) for _ in range(m)))


def _strings(length: int) -> list[str]:
    return ["".join(t) for k in range(1, length + 1) for t in itertools.product("01", repeat=k)]


# -- verdict shapes ----------------------------------------------------------


def _ce_verdict(ce):
    """A counterexample as the benchmark compares it.  The evidence trace is
    left out: it is one run among possibly many, not part of the answer."""
    if ce is None:
        return None
    return {"word": list(ce.word.rows), "expected": ce.expected, "got": ce.got}


def _language_verdict(words):
    return {"count": len(words), "digest": ref.digest(w.rows for w in words)}


def _agreement_verdict(raw):
    agree, accepted, _ = raw
    return {"agree": agree, "accepted": ref.digest(accepted)}


# -- oracle-sweep ----------------------------------------------------------


def _equivalence_check(cid, candidate, kind, a, b, bounds):
    symbols = a.alphabet.symbols

    def run():
        return oracle.equivalent_up_to(
            candidate, lambda w: concat.concat_membership(kind, a, b, w), bounds
        )

    def expect():
        cache = {}
        return ref.first_difference(
            candidate,
            lambda w: ref.split_member(kind.value, a, b, w, cache),
            symbols,
            bounds.max_rows,
            bounds.max_cols,
        )

    return Check(cid, oracle.count_pictures(a.alphabet, bounds), run, _ce_verdict, expect)


def _language_check(cid, machine, bounds):
    symbols = machine.alphabet.symbols
    return Check(
        cid,
        oracle.count_pictures(machine.alphabet, bounds),
        lambda: oracle.language_up_to(machine, bounds),
        _language_verdict,
        lambda: ref.language_digest(machine, symbols, bounds.max_rows, bounds.max_cols),
    )


def _oracle_sweep(rng, p, work) -> Plan:
    plan = Plan()
    bounds = DimBounds(p["bound"], p["bound"])
    for i in range(p["diag"]):
        sa, sb, ma, mb = strata(i, (1, 2, 3), (1, 2, 3), MODES, MODES)
        a = random_machine(rng, f"a{i}", AB01, mode=ma, states=sa)
        b = random_machine(rng, f"b{i}", AB01, mode=mb, states=sb)
        product = construct.diag_concat_nondet_2w(a, b)
        plan.built_states += len(product.states)
        plan.checks.append(_equivalence_check(f"diag-{i:03d}", product, ConcatKind.DIAG, a, b, bounds))
    unary_bounds = DimBounds(p["unary_bound"], p["unary_bound"])
    for i in range(p["unary"]):
        row, ma, mb, sa, sb = strata(i, (True, False), MODES, MODES, (1, 2), (1, 2))
        a = random_machine(rng, f"u{i}", UNARY, mode=ma, states=sa)
        b = random_machine(rng, f"v{i}", UNARY, mode=mb, states=sb)
        if row:
            kind, product = ConcatKind.ROW, construct.unary_row_concat(a, b)
        else:
            kind, product = ConcatKind.COL, construct.unary_col_concat(a, b)
        plan.built_states += len(product.states)
        plan.checks.append(_equivalence_check(f"unary-{i:03d}", product, kind, a, b, unary_bounds))
    for variant, count in (("3W", p["lang3w"]), ("4W", p["lang4w"])):
        for i in range(count):
            states, mode = strata(i, (2, 3), MODES)
            m = random_machine(rng, f"m{i}", AB01, variant, mode, states)
            plan.checks.append(_language_check(f"lang{variant}-{i:03d}", m, bounds))
    return plan


# -- separated-layouts -------------------------------------------------------


def _layouts(max_rows, max_cols, symbols):
    """Criterion 05's family: one full '#' row and one full '#' column at
    every position in the band, so degenerate layouts with an empty
    quadrant are included; yields (picture, separator row, separator col)."""
    for m in range(1, max_rows + 1):
        for n in range(1, max_cols + 1):
            for sr in range(1, m + 1):
                for sc in range(1, n + 1):
                    free = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1) if i != sr and j != sc]
                    for fill in itertools.product(symbols, repeat=len(free)):
                        cells = dict(zip(free, fill))
                        rows = tuple(
                            "".join(BOUNDARY if i == sr or j == sc else cells[(i, j)] for j in range(1, n + 1))
                            for i in range(1, m + 1)
                        )
                        yield Picture(rows, allow_hash=True), sr, sc


def _separated_check(cid, product, a, b, family):
    pictures = [p for p, _, _ in family]

    def run():
        cache = {}
        mismatches = 0
        accepted = []
        for idx, p in enumerate(pictures):
            got = simulate.accepts(product, p)
            parts = concat.split_separated(p)
            want = False
            if parts is not None:
                _, _, tl, br = parts
                ka, kb = ("A", tl.rows), ("B", br.rows)
                if ka not in cache:
                    cache[ka] = simulate.accepts(a, tl)
                if kb not in cache:
                    cache[kb] = simulate.accepts(b, br)
                want = cache[ka] and cache[kb]
            mismatches += got != want
            if got:
                accepted.append(idx)
        return mismatches, accepted

    def expect():
        cache = {}
        members = []
        for idx, (p, sr, sc) in enumerate(family):
            if not (2 <= sr <= p.m - 1 and 2 <= sc <= p.n - 1):
                continue
            tl = Picture(tuple(row[: sc - 1] for row in p.rows[: sr - 1]))
            br = Picture(tuple(row[sc:] for row in p.rows[sr:]))
            for key, machine, block in (("A", a, tl), ("B", b, br)):
                if (key, block.rows) not in cache:
                    cache[(key, block.rows)] = ref.accepts(machine, block)
            if cache[("A", tl.rows)] and cache[("B", br.rows)]:
                members.append(idx)
        return {"mismatches": 0, "accepted": ref.digest(members)}

    return Check(
        cid,
        len(pictures),
        run,
        lambda raw: {"mismatches": raw[0], "accepted": ref.digest(raw[1])},
        expect,
    )


def _separated_layouts(rng, p, work) -> Plan:
    plan = Plan()
    family = list(_layouts(p["rows"], p["cols"], AB01.symbols))
    for i in range(p["pairs"]):
        sa, sb = strata(i, (1, 2, 3), (1, 2, 3))
        a = random_machine(rng, f"a{i}", AB01, states=sa)
        b = random_machine(rng, f"b{i}", AB01, states=sb)
        product = construct.diag_concat_separated(a, b)
        plan.built_states += len(product.states)
        plan.checks.append(_separated_check(f"sep-{i:03d}", product, a, b, family))
    return plan


# -- refute-trace ------------------------------------------------------------


def _refute_check(cid, candidate, a, b, bounds):
    symbols = a.alphabet.symbols

    def expect():
        # Within bounds, every flip-pass witness is a word where candidate
        # and target differ, so refute finds one iff this search does, and
        # the exhaustive pass reports the first such word.
        cache = {}
        return ref.first_difference(
            candidate,
            lambda w: ref.split_member("diag", a, b, w, cache),
            symbols,
            bounds.max_rows,
            bounds.max_cols,
        )

    return Check(
        cid,
        oracle.count_pictures(a.alphabet, bounds),
        lambda: oracle.refute(candidate, ConcatKind.DIAG, a, b, bounds),
        _ce_verdict,
        expect,
    )


def _trace_check(cid, machine, w, defect=None):
    def verdict(trace):
        return {"accepted": trace is not None, "replays": trace is not None and ref.replays(machine, w, trace)}

    def expect():
        accepted = ref.accepts(machine, w)
        return {"accepted": accepted, "replays": accepted}

    return Check(cid, 1, lambda: simulate.first_accepting_trace(machine, w), verdict, expect, defect)


def _run_check(cid, machine, w):
    def expect():
        kind, trace = ref.det_run(machine, w)
        return {"kind": kind, "steps": len(trace)}

    return Check(
        cid,
        1,
        lambda: simulate.run_deterministic(machine, w),
        lambda r: {"kind": r.kind, "steps": len(r.trace)},
        expect,
    )


def _cli_check(cid, argv, work, words, expect):
    def run():
        out = io.StringIO()
        code = cli.dispatch(argv, out=out)
        return code, out.getvalue()

    return Check(
        cid,
        words,
        run,
        lambda raw: {"exit": raw[0], "stdout": raw[1].replace(str(work), "<work>")},
        expect,
    )


def _counterexample_text(candidate, ce) -> str:
    if ce is None:
        return "verdict: no-counterexample\n"
    text = (
        "verdict: counterexample\n"
        f"expected: {str(ce['expected']).lower()}\n"
        f"got: {str(ce['got']).lower()}\n" + ref.picture_text(ce["word"])
    )
    if ce["got"]:
        w = Picture(tuple(ce["word"]))
        text += ref.trace_text(w, ref.det_run(candidate, w)[1], "evidence")
    return text


def _cli_checks(tag, rng, work, bounds) -> tuple[list[Check], int]:
    """One fixture set: every CLI verb the workload times, on files written
    under ``work``; returns the checks and the states constructed."""
    a = random_machine(rng, f"A{tag}", AB01, states=2)
    b = random_machine(rng, f"B{tag}", AB01, mode="nondet", states=2)
    d = random_machine(rng, f"D{tag}", AB01, ("2W", "3W", "4W")[int(tag) % 3], states=3)
    product = construct.diag_concat_nondet_2w(a, b)
    one = random_1d(rng, f"T{tag}", 3)
    w = random_picture(rng, "01", 3, 3)
    files = {name: work / f"{tag}-{name}" for name in ("a.aut", "b.aut", "d.aut", "p.aut", "t.aut", "w.pic")}
    for name, m in (("a.aut", a), ("b.aut", b), ("d.aut", d), ("p.aut", product)):
        automaton.save_automaton(m, files[name])
    onedim.save_automaton_1d(one, files["t.aut"])
    files["w.pic"].write_text(format_picture(w), encoding="utf-8")
    f = {k: str(v) for k, v in files.items()}
    rows, cols = str(bounds.max_rows), str(bounds.max_cols)
    n_words = oracle.count_pictures(AB01, bounds)
    out_diag, out_one = work / f"{tag}-diag.aut", work / f"{tag}-one.aut"

    cache = {}

    def member(w):
        return ref.split_member("diag", a, b, w, cache)

    def run_expect():
        kind, trace = ref.det_run(d, w)
        return {"exit": 0 if kind == "accepted" else 1, "stdout": ref.trace_text(w, trace, kind)}

    def enum_expect():
        words = sorted(
            (p for p in ref.pictures("01", bounds.max_rows, bounds.max_cols) if ref.accepts(a, p)),
            key=lambda p: (p.m, p.n, p.rows),
        )
        body = "".join("\n" + ref.picture_text(p.rows) for p in words)
        return {"exit": 0, "stdout": f"count: {len(words)}\n{body}"}

    def equiv_expect():
        ce = ref.first_difference(product, member, "01", bounds.max_rows, bounds.max_cols)
        return {"exit": 0 if ce is None else 1, "stdout": _counterexample_text(product, ce) if ce else "verdict: ok\n"}

    def refute_expect():
        ce = ref.first_difference(a, member, "01", bounds.max_rows, bounds.max_cols)
        return {"exit": 0 if ce is None else 1, "stdout": _counterexample_text(a, ce)}

    def written(path, states):
        return {"exit": 0, "stdout": f"written: <work>/{path.name}\nstates: {states}\n"}

    checks = [
        _cli_check(f"cli{tag}-validate", ["validate", f["p.aut"]], work, 1,
                   lambda: {"exit": 0, "stdout": "valid: yes\n"}),
        _cli_check(f"cli{tag}-run", ["run", f["d.aut"], f["w.pic"], "--trace"], work, 1, run_expect),
        _cli_check(f"cli{tag}-enum", ["enum", f["a.aut"], "--max-rows", rows, "--max-cols", cols],
                   work, n_words, enum_expect),
        _cli_check(f"cli{tag}-equiv", ["equiv", f["p.aut"], "--against-concat", "diag", f["a.aut"], f["b.aut"],
                                        "--max-rows", rows, "--max-cols", cols], work, n_words, equiv_expect),
        _cli_check(f"cli{tag}-refute", ["refute", f["a.aut"], "--target-concat", "diag", f["a.aut"], f["b.aut"],
                                         "--max-rows", rows, "--max-cols", cols], work, n_words, refute_expect),
        _cli_check(f"cli{tag}-construct", ["construct", "diag", f["a.aut"], f["b.aut"], "-o", str(out_diag)],
                   work, 1, lambda: written(out_diag, len(product.states))),
        _cli_check(f"cli{tag}-to-oneway", ["to-oneway", f["t.aut"], "-o", str(out_one)], work, 1,
                   lambda: written(out_one, len(onedim.two_way_to_one_way(one).states))),
    ]
    return checks, len(product.states)


def _refute_trace(rng, p, work) -> Plan:
    plan = Plan()
    bounds = DimBounds(p["rows"], p["cols"])
    for i in range(p["refute"]):
        sa, sb, ma, mb, sc = strata(i, (1, 2), (1, 2), MODES, MODES, (1, 2))
        a = random_machine(rng, f"a{i}", AB01, mode=ma, states=sa)
        b = random_machine(rng, f"b{i}", AB01, mode=mb, states=sb)
        other = random_machine(rng, f"c{i}", AB01, mode=mb, states=sc)
        right = construct.diag_concat_nondet_2w(a, b)
        wrong = construct.diag_concat_nondet_2w(a, other)
        plan.built_states += len(right.states) + len(wrong.states)
        plan.checks.append(_refute_check(f"refute-ok-{i:03d}", right, a, b, bounds))
        plan.checks.append(_refute_check(f"refute-wrong-{i:03d}", wrong, a, b, bounds))
    for i in range(p["traces"]):
        rows, cols, states = strata(i, (2, 3, 4), (2, 3, 4), (2, 3, 4))
        m = random_machine(rng, f"n{i}", AB01, mode="nondet", states=states)
        w = random_picture(rng, "01", rows, cols)
        plan.checks.append(_trace_check(f"trace-{i:03d}", m, w))
    for i in range(p["runs"]):
        variant, states, rows, cols = strata(i, ("2W", "3W", "4W"), (2, 3, 4), (2, 5), (2, 5))
        m = random_machine(rng, f"r{i}", AB01, variant, states=states)
        w = random_picture(rng, "01", rows, cols)
        plan.checks.append(_run_check(f"run-{i:03d}", m, w))
    for s in range(p["cli_sets"]):
        checks, states = _cli_checks(str(s), rng, work, bounds)
        plan.checks.extend(checks)
        plan.built_states += states
    plan.checks.extend(_known_defects(p, work))
    return plan


def _known_defects(p, work) -> list[Check]:
    """Queries that expose documented defects; they stay in the workload so
    that fixing the defect shows in ``check_p90_ms`` and ``ok_ratio``.

    * ``run --trace`` on a nondeterministic machine decides its verdict by
      enumerating simple paths, exponential on a rejected all-zero square.
    * ``accepting_runs`` recurses once per step and raises RecursionError
      on a 1 x 1500 word.
    """
    k = p["spray"]
    spray = Automaton2D(
        "spray01", "2W", "nondet", AB01, ("q0", "q1", "acc"), "q0", "acc",
        make_delta([("q0", "0", "q0", "D"), ("q0", "0", "q0", "R"), ("q0", "1", "q1", "R"),
                    ("q1", "1", "q1", "R"), ("q1", BOUNDARY, "acc", "R")]),
    )
    zeros = Picture(tuple("0" * k for _ in range(k)))
    aut, pic = work / "spray.aut", work / "zeros.pic"
    automaton.save_automaton(spray, aut)
    pic.write_text(format_picture(zeros), encoding="utf-8")

    def spray_expect():
        verdict = "accepted" if ref.accepts(spray, zeros) else "rejected"
        return {"exit": 0 if verdict == "accepted" else 1, "stdout": f"verdict: {verdict}\n"}

    deep = construct.build_witness("first-row-zeros")
    return [
        _cli_check("defect-spray-run", ["run", str(aut), str(pic), "--trace"], work, 1, spray_expect),
        _trace_check("defect-deep-trace", deep, Picture(("0" * p["deep"],)), defect=RecursionError),
    ]


# -- onedim-convert ------------------------------------------------------------


def _convert_check(cid, machine, strings):
    def run():
        one = onedim.two_way_to_one_way(machine)
        agree = True
        accepted = []
        for idx, s in enumerate(strings):
            got = onedim.simulate_1d(one, s)
            agree &= got == onedim.simulate_1d(machine, s)
            if got:
                accepted.append(idx)
        return agree, accepted, len(one.states)

    def expect():
        return {"agree": True, "accepted": ref.digest(i for i, s in enumerate(strings) if ref.run_1d(machine, s))}

    return Check(cid, len(strings), run, _agreement_verdict, expect, states=lambda raw: raw[2])


def _restrict_check(cid, m2, entry, side, offset, rows):
    def run():
        n1 = onedim.row_restriction(m2, entry, side, offset)
        agree = True
        accepted = []
        for idx, row in enumerate(rows):
            got = onedim.simulate_1d(n1, row)
            agree &= got == onedim.row_departure_oracle(m2, entry, side, offset, row)
            if got:
                accepted.append(idx)
        return agree, accepted, len(n1.states)

    def expect():
        return {
            "agree": True,
            "accepted": ref.digest(
                i for i, row in enumerate(rows) if onedim.row_departure_oracle(m2, entry, side, offset, row)
            ),
        }

    return Check(cid, len(rows), run, _agreement_verdict, expect, states=lambda raw: raw[2])


def _onedim_convert(rng, p, work) -> Plan:
    plan = Plan()
    strings = _strings(p["length"])
    for i in range(p["convert"]):
        (states,) = strata(i, (2, 3, 4))
        plan.checks.append(_convert_check(f"convert-{i:03d}", random_1d(rng, f"t{i}", states), strings))
    for i in range(p["restrict"]):
        states, side = strata(i, (1, 2, 3), ("left", "right"))
        m2 = random_machine(rng, f"h{i}", AB01, "3W", states=states)
        entry = rng.choice(m2.states[:-1])
        offset = rng.randint(1, len(m2.states) + 1)
        plan.checks.append(_restrict_check(f"restrict-{i:03d}", m2, entry, side, offset, strings))
    return plan


_BUILDERS = {
    "oracle-sweep": _oracle_sweep,
    "separated-layouts": _separated_layouts,
    "refute-trace": _refute_trace,
    "onedim-convert": _onedim_convert,
}
