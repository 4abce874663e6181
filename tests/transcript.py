"""A byte-identity transcript of the command-line interface.

:func:`digests` writes its fixture files into the current directory and
runs ``cli.dispatch`` over every verb: the machines of ``corpus.py``, the
named witnesses and a few seeded ``random_2d`` machines, with pictures,
string machines and bad inputs enough that exit statuses 0, 1 and 2 all
occur.  Each call adds argv, exit status, stdout, stderr and the bytes of
the file it wrote (``-o``) to the sha256 of its verb; ``concat`` and
``construct`` count one verb per kind.  Each verb's entry holds its call
count, its exit statuses and the digest.  ``tests/transcript.json`` holds
the recorded entries, and ``tests/test_transcript.py`` compares them.

Every name on an argv is relative, so no path reaches a digest.  Later
calls read what earlier ones wrote: ``equiv`` and ``refute`` take the
products of ``construct`` as candidates, and ``to-oneway`` takes the
string machines of ``rowsim``.

To print the entries as JSON, from the repository root::

    PYTHONPATH=src python tests/transcript.py

It runs in a temporary directory, so it leaves no file behind.  A change
whose outputs move copies the entries of the verbs that moved into
``tests/transcript.json`` and names them in ``CHANGES.md``.

:func:`library_digests` does the same for the library's entry points,
called in process on the corpus machines, the named witnesses, seeded
random 2D and 1D machines (seed 35, which no digest test uses) and bad
inputs.  Each call adds its arguments and its result to the sha256 of its
entry point: a machine a construction returns goes through
``serialize_automaton`` or ``serialize_automaton_1d``, every set is
sorted first, and a raised ``ToolkitError`` is recorded as its class name
and its message.  ``tests/library_transcript.json`` holds the entries::

    PYTHONPATH=src python tests/transcript.py library
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter

from enum import Enum
from itertools import product

from corpus import (
    AB01,
    UNARY,
    _mk,
    corpus_1d,
    corpus_2w,
    corpus_3w_det,
    corpus_edge_walkers,
    diag_pairs,
    left_probe3w,
    random_2d,
    right_return3w,
    separated_layouts,
    separated_pairs,
    t9b,
    unary_pairs,
    zero_columns01,
)
from pictomata import (
    Alphabet,
    Automaton2D,
    ConcatKind,
    Configuration,
    Counterexample,
    Departure,
    DimBounds,
    Picture,
    RowTransfer,
    RunResult,
    ToolkitError,
    accepting_runs,
    accepts,
    border_normalize,
    build_witness,
    cli,
    col_concat,
    concat_membership,
    diag_concat_nondet_2w,
    diag_concat_separated,
    diag_concat_words,
    downward_departures,
    enumerate_pictures,
    equivalent_up_to,
    first_accepting_trace,
    flip_attack,
    language_up_to,
    refute,
    replay_accepts,
    row_concat,
    row_departure_oracle,
    row_restriction,
    run_deterministic,
    save_automaton,
    serialize_automaton,
    simulate_1d,
    split_separated,
    to_ibr,
    transpose_automaton,
    two_way_to_one_way,
    unary_col_concat,
    unary_row_concat,
)
from pictomata.onedim import ONE_WAY, TWO_WAY, Automaton1D, save_automaton_1d, serialize_automaton_1d

#: Picture fixtures: file name -> contents.  ``hash`` is read only with
#: ``--allow-hash``, ``foreign`` holds a symbol no machine knows, and
#: ``ragged`` and ``empty`` do not parse.
PICTURES = {
    "z1": "0\n",
    "o1": "1\n",
    "z3": "000\n",
    "m22": "01\n10\n",
    "z23": "000\n000\n",
    "r32": "10\n01\n11\n",
    "x44": "0000\n0010\n0000\n0101\n",
    "z36": "000000\n000000\n000000\n",
    "a2": "aa\naa\n",
    "a13": "aaa\n",
    "hash": "0#\n10\n",
    "foreign": "02\n",
    "ragged": "0\n00\n",
    "empty": "; no rows\n",
}

#: Automaton files that fail: ``bad`` parses but moves left in a 2W
#: machine, ``garbage`` does not parse.
BAD_MACHINES = {
    "bad": "automaton bad\nvariant 2W\nmode det\nalphabet 0\nstates q0 acc\n"
    "initial q0\naccept acc\nq0 0 -> q0 L\n",
    "garbage": "automaton\n",
}

BOUNDS = ["--max-rows", "2", "--max-cols", "3"]


def _machines():
    """The 2D machine fixtures by file stem, in a fixed order."""
    rng = random.Random(33)
    machines = [*corpus_2w(), zero_columns01(), *corpus_3w_det(), t9b(), right_return3w(), *corpus_edge_walkers()]
    machines += [random_2d(rng, v, m) for v in ("2W", "3W", "4W") for m in ("det", "nondet") for _ in range(2)]
    out = {}
    for a in machines:
        stem = a.name
        while stem in out:
            stem += "_"
        out[stem] = a
    return out


def _write_fixtures():
    """Write every fixture file; the 2D machines by stem."""
    machines = _machines()
    for stem, a in machines.items():
        save_automaton(a, f"{stem}.aut")
    for stem, text in BAD_MACHINES.items():
        with open(f"{stem}.aut", "w", encoding="utf-8") as f:
            f.write(text)
    for stem, text in PICTURES.items():
        with open(f"{stem}.pic", "w", encoding="utf-8") as f:
            f.write(text)
    for a in corpus_1d():
        save_automaton_1d(a, f"{a.name}.1d")
    return machines


def _stems(pairs):
    """The file stems of (a, b) pairs of corpus machines."""
    return [(a.name, b.name) for a, b in pairs]


def _calls(machines):
    """Every argv of the transcript, in order."""
    aut = [f"{stem}.aut" for stem in machines]
    calls = []
    calls += [["validate", f] for f in [*aut, "bad.aut", "garbage.aut", "missing.aut", "ends_zero.1d"]]
    for f in [*aut, "bad.aut", "garbage.aut"]:
        for p in PICTURES:
            calls += [["run", f, f"{p}.pic"], ["run", f, f"{p}.pic", "--trace"]]
        calls.append(["run", f, "hash.pic", "--allow-hash", "--trace"])
    calls.append(["run", "first-row-zeros.aut", "missing.pic"])
    calls += [["enum", f, *BOUNDS] for f in aut]
    calls += [
        ["enum", "universal01.aut", "--max-rows", "3", "--max-cols", "3", "--budget", "10"],
        ["enum", "universal01.aut", "--max-rows", "0", "--max-cols", "2"],
    ]
    small = ["z1", "o1", "z3", "m22", "a2", "hash", "ragged"]
    for kind in ("row", "col", "diag"):
        calls += [["concat", kind, f"{p}.pic", f"{q}.pic"] for p in small for q in small]
    calls.append(["concat", "diag", "m22.pic", "z3.pic", "--cap", "1"])

    calls += [["construct", "ibr", f, "-o", "ibr.aut"] for f in [*aut, "bad.aut"]]
    calls.append(["construct", "ibr", aut[0], aut[1], "-o", "ibr.aut"])
    products = {}  # the built products, by file: (kind, factor stems)
    refused = [("top-left-one", "first-row-zeros"), ("descend3w", "top-left-one"), ("bad", "bad")]
    for kind, pairs in (
        ("unary-row", _stems(unary_pairs())),
        ("unary-col", _stems(unary_pairs())),
        ("diag", _stems(diag_pairs() + separated_pairs()) + [("r2Wnondet", "r2Wdet")]),
        ("diag-sep", _stems(diag_pairs() + separated_pairs()) + [("r2Wdet", "r2Wdet_")]),
    ):
        for i, (a, b) in enumerate(pairs):
            out = f"{kind}-{i}.aut"
            calls.append(["construct", kind, f"{a}.aut", f"{b}.aut", "-o", out])
            products[out] = (kind, a, b)
        calls += [["construct", kind, f"{a}.aut", f"{b}.aut", "-o", "refused.aut"] for a, b in refused]
    witnesses = ("first-row-zeros", "top-left-one", "thm9-A", "thm9-B", "thm9-X(2)", "thm9-X(0)", "thm9-X(99)", "nope")
    calls += [["construct", "witness", name, "-o", "witness.out"] for name in witnesses]
    calls.append(["construct", "witness", "thm9-A", "thm9-B", "-o", "witness.out"])

    binary_2w = ["first-row-zeros", "top-left-one", "universal01", "one_row01", "spray01", "staircase01", "loopy01"]
    calls += [["equiv", f"{a}.aut", "--against-aut", f"{b}.aut", *BOUNDS] for a in binary_2w for b in binary_2w]
    calls += [
        ["equiv", "u_one_row.aut", "--against-aut", "first-row-zeros.aut", *BOUNDS],
        ["equiv", "thm9-A.aut", "--against-aut", "thm9-B.aut", *BOUNDS],
        ["equiv", "wander4w.aut", "--against-aut", "up_left_probe4w.aut", *BOUNDS],
        ["equiv", "first-row-zeros.aut", *BOUNDS],
        ["equiv", "first-row-zeros.aut", "--against-aut", "top-left-one.aut",
         "--against-concat", "row", "top-left-one.aut", "top-left-one.aut", *BOUNDS],
        ["equiv", "first-row-zeros.aut", "--against-concat", "nope", "a.aut", "b.aut", *BOUNDS],
    ]
    concat_kind = {"unary-row": "row", "unary-col": "col", "diag": "diag", "diag-sep": "diag"}
    for out, (kind, a, b) in products.items():
        target = [concat_kind[kind], f"{a}.aut", f"{b}.aut"]
        calls.append(["equiv", out, "--against-concat", *target, *BOUNDS])
        calls.append(["refute", out, "--target-concat", *target, *BOUNDS])
    for cand in ("first-row-zeros", "top-left-one", "spray01", "u_choose", "thm9-A", "wander4w"):
        for kind in ("row", "col", "diag"):
            for a, b in (("top-left-one", "top-left-one"), ("u_all_rows", "u_one_row")):
                calls.append(["refute", f"{cand}.aut", "--target-concat", kind, f"{a}.aut", f"{b}.aut", *BOUNDS])
    calls.append(["refute", "first-row-zeros.aut", "--target-concat", "nope", "a.aut", "b.aut", *BOUNDS])

    rowsim = []
    for stem in ("thm9-A", "thm9-B", "descend3w", "drift3w", "boustro3w", "right_return3w", "left_probe3w"):
        for q in machines[stem].states:
            for side in ("left", "right"):
                for off in (1, 2):
                    out = f"rowsim-{len(rowsim)}.1d"
                    rowsim.append(out)
                    calls.append(["rowsim", f"{stem}.aut", "--entry-state", q, "--side", side,
                                  "--offset", str(off), "-o", out])
        for p in ("z3", "z23", "z36", "m22", "x44"):
            for row in range(5):
                calls.append(["lemma2-check", f"{stem}.aut", f"{p}.pic", "--row", str(row)])
    calls += [
        ["lemma2-check", "first-row-zeros.aut", "z3.pic", "--row", "1"],
        ["lemma2-check", "r3Wnondet.aut", "z3.pic", "--row", "1"],
        ["rowsim", "thm9-A.aut", "--entry-state", "nope", "--side", "left", "--offset", "1", "-o", "r.1d"],
        ["rowsim", "thm9-A.aut", "--entry-state", "q0", "--side", "left", "--offset", "0", "-o", "r.1d"],
        ["rowsim", "first-row-zeros.aut", "--entry-state", "q0", "--side", "left", "--offset", "1", "-o", "r.1d"],
        ["rowsim", "r3Wnondet.aut", "--entry-state", "q0", "--side", "left", "--offset", "1", "-o", "r.1d"],
    ]

    for f in [f"{a.name}.1d" for a in corpus_1d()] + rowsim[::3]:
        calls.append(["to-oneway", f, "-o", "oneway.1d"])
    calls += [
        ["to-oneway", "oneway.1d", "-o", "again.1d"],
        ["to-oneway", "missing.1d", "-o", "again.1d"],
        ["to-oneway", "first-row-zeros.aut", "-o", "again.1d"],
    ]

    calls += [["bound", str(n)] for n in (*range(7), 40, 683, 684, -1)]
    return calls


def _verb(argv) -> str:
    return " ".join(argv[:2]) if argv[0] in ("concat", "construct") else argv[0]


def digests() -> dict:
    """Write the fixtures into the current directory, run every call and
    return each verb's entry: ``{"calls", "exit", "sha256"}``."""
    calls = _calls(_write_fixtures())
    hashes, statuses = {}, {}
    for argv in calls:
        written = argv[argv.index("-o") + 1] if "-o" in argv else None
        if written and os.path.exists(written):
            os.remove(written)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            status = cli.dispatch(argv, out=out)
        data = b""
        if written and os.path.exists(written):
            with open(written, "rb") as f:
                data = f.read()
        verb = _verb(argv)
        record = json.dumps([argv, status, out.getvalue(), err.getvalue(), data.hex()])
        hashes.setdefault(verb, hashlib.sha256()).update(record.encode() + b"\n")
        statuses.setdefault(verb, Counter())[str(status)] += 1
    entries = {}
    for verb, h in sorted(hashes.items()):
        exits = statuses[verb]
        entries[verb] = {"calls": sum(exits.values()), "exit": dict(sorted(exits.items())), "sha256": h.hexdigest()}
    return entries


def _plain(x):
    """A JSON value that says what ``x`` is; sets sorted, machines written
    in their file format."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Picture):
        return [list(x.rows), x.allow_hash]
    if isinstance(x, Automaton2D):
        return serialize_automaton(x)
    if isinstance(x, Automaton1D):
        return serialize_automaton_1d(x)
    if isinstance(x, Configuration):
        return [x.state, _plain(x.loc)]
    if isinstance(x, RunResult):
        return [x.kind, _plain(x.trace)]
    if isinstance(x, Counterexample):
        return [_plain(x.word), x.expected, x.got, _plain(x.evidence)]
    if isinstance(x, Departure):
        return [x.column, x.visited_first, x.visited_last]
    if isinstance(x, Alphabet):
        return list(x.symbols)
    if isinstance(x, RowTransfer):
        return ["start", _plain(x.start)]
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, (set, frozenset)):
        return sorted((_plain(v) for v in x), key=json.dumps)
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    raise TypeError(f"no plain form for {type(x).__name__}")


def _label(x):
    """A short stand-in for an argument: a machine by its name."""
    if isinstance(x, (Automaton2D, Automaton1D)):
        return x.name
    if isinstance(x, DimBounds):
        return [x.max_rows, x.max_cols]
    if callable(x) and not isinstance(x, Enum):
        return getattr(x, "__name__", "target")
    return _plain(x)


class _Transcript:
    """One sha256 per entry point over the (arguments, result) of each call."""

    def __init__(self):
        self.hashes, self.calls, self.raised = {}, Counter(), Counter()

    def __call__(self, entry: str, fn, *args):
        """Call ``fn(*args)`` and record it under ``entry``; return the result,
        or None when it raised a ``ToolkitError``."""
        try:
            result = fn(*args)
            out = _plain(result)
        except ToolkitError as exc:
            result, out = None, [type(exc).__name__, str(exc)]
            self.raised[entry] += 1
        record = json.dumps([[_label(a) for a in args], out])
        self.hashes.setdefault(entry, hashlib.sha256()).update(record.encode() + b"\n")
        self.calls[entry] += 1
        return result

    def entries(self) -> dict:
        return {
            entry: {"calls": self.calls[entry], "raised": self.raised[entry], "sha256": h.hexdigest()}
            for entry, h in sorted(self.hashes.items())
        }


#: Pictures that break a call: a foreign symbol, a unary one on a binary
#: machine, and a ``#`` cell.
_ODD_PICTURES = (Picture(("02",)), Picture(("aa", "aa")), Picture(("0#", "10"), allow_hash=True))

#: A 2W machine that moves left, which no check lets through.
_INVALID = _mk("invalid2w", ("q0", "acc"), "q0", "acc", [("q0", "0", "q0", "L")])


def _library_machines():
    """The 2D machines of the library transcript, in a fixed order."""
    rng = random.Random(35)
    witnesses = [build_witness(name) for name in ("first-row-zeros", "top-left-one", "thm9-A", "thm9-B")]
    machines = [*corpus_2w(), zero_columns01(), *corpus_3w_det(), t9b(), right_return3w(), *corpus_edge_walkers()]
    machines += witnesses
    machines += [random_2d(rng, v, m) for v in ("2W", "3W", "4W") for m in ("det", "nondet") for _ in range(3)]
    return machines


def _random_1d(rng):
    """A random two-way string machine over {0,1} with 2-4 states, the last one accepting."""
    names = (*(f"s{i}" for i in range(rng.randint(1, 3))), "acc")
    delta = {
        (q, sym): (rng.choice(names), rng.choice("LR"))
        for q in names[:-1]
        for sym in "01#"
        if rng.random() < 0.85
    }
    return Automaton1D("r1d", TWO_WAY, AB01, names, "s0", ("acc",), delta)


def _runs(t, machines):
    """accepts, run_deterministic, first_accepting_trace, replay_accepts
    and RowTransfer.verdicts."""
    for a in [*machines, _INVALID]:
        pictures = [*enumerate_pictures(a.alphabet, DimBounds(2, 2)), *_ODD_PICTURES]
        pictures += [Picture(("000", "010", "000")), Picture(("0000", "0010", "0000", "0101"))]
        for w in pictures:
            t("accepts", accepts, a, w)
            run = t("run_deterministic", run_deterministic, a, w)
            trace = t("first_accepting_trace", first_accepting_trace, a, w)
            for tr in (trace, run and run.trace):
                if tr:
                    t("replay_accepts", replay_accepts, a, w, tr)
                    t("replay_accepts", replay_accepts, a, w, tr[:-1])
                    t("replay_accepts", replay_accepts, a, w, (Configuration("nope", (1, 1)), *tr[1:]))
        transfer = t("RowTransfer.verdicts", RowTransfer, a)
        if transfer is not None:
            for n in (1, 2, 3):
                rows = ["".join(cells) for cells in product(a.alphabet.symbols, repeat=n)]
                for prefix in [(), *((row,) for row in rows), tuple(rows[:2])]:
                    t("RowTransfer.verdicts", transfer.verdicts, prefix, rows)


def _evidence(t, machines):
    """accepting_runs, at small limits and up to 3x3, and flip_attack,
    against a target that rejects every word and against the next
    machine, or the machine itself when the next reads other symbols."""
    for a in [*machines, _INVALID]:
        pictures = [*enumerate_pictures(a.alphabet, DimBounds(2, 2)), *_ODD_PICTURES]
        for w in pictures:
            for limit in (None, 0, 1, 2):
                t("accepting_runs", accepting_runs, a, w, limit)
        for w in [*enumerate_pictures(a.alphabet, DimBounds(3, 3))][30::7]:
            t("accepting_runs", accepting_runs, a, w, 3)
    for a, b in zip(machines, machines[1:] + machines[:1]):
        target = b if b.alphabet == a.alphabet else a
        for w in [*enumerate_pictures(a.alphabet, DimBounds(2, 3)), *_ODD_PICTURES]:
            t("flip_attack", flip_attack, a, w, lambda w: False)
            t("flip_attack", flip_attack, a, w, lambda w, b=target: accepts(b, w))
    t("flip_attack", flip_attack, _INVALID, _ODD_PICTURES[0], lambda w: False)


def _sweeps(t, machines):
    """language_up_to, equivalent_up_to and refute."""
    bounds = DimBounds(2, 3)
    for a in [*machines, _INVALID]:
        t("language_up_to", language_up_to, a, bounds)
    t("language_up_to", language_up_to, machines[0], bounds, 10)
    t("language_up_to", lambda: language_up_to(machines[0], DimBounds(0, 2)))
    binary = [a for a in machines if a.alphabet == AB01]
    for a, b in zip(binary, binary[1:] + binary[:1]):
        t("equivalent_up_to", equivalent_up_to, a, lambda w, b=b: accepts(b, w), bounds)
        t("equivalent_up_to", equivalent_up_to, a, lambda w, a=a: accepts(a, w), bounds)
    t("equivalent_up_to", equivalent_up_to, _INVALID, lambda w: True, bounds)
    t("equivalent_up_to", equivalent_up_to, binary[0], lambda w: True, bounds, 3)
    for kind in ConcatKind:
        for a, b in (*diag_pairs(), *separated_pairs(), (binary[-1], binary[-2])):
            for cand in (a, b, binary[2]):
                t("refute", refute, cand, kind, a, b, bounds)
        for a, b in unary_pairs()[:4]:
            t("refute", refute, a, kind, a, b, DimBounds(3, 3))
    t("refute", refute, unary_pairs()[0][0], ConcatKind.ROW, *diag_pairs()[0], bounds)
    t("refute", refute, _INVALID, ConcatKind.ROW, _INVALID, _INVALID, bounds)


def _words(t, machines):
    """concat_membership, split_separated, row_concat, col_concat and
    diag_concat_words."""
    binary = [a for a in machines if a.alphabet == AB01]
    pairs = [*diag_pairs(), *separated_pairs(), *zip(binary[-9:], binary[-8:])]
    pictures = [*enumerate_pictures(AB01, DimBounds(2, 3)), *_ODD_PICTURES]
    for kind in ConcatKind:
        for a, b in pairs:
            for w in pictures:
                t("concat_membership", concat_membership, kind, a, b, w)
        for a, b in unary_pairs():
            for w in enumerate_pictures(UNARY, DimBounds(3, 3)):
                t("concat_membership", concat_membership, kind, a, b, w)
        t("concat_membership", concat_membership, kind, binary[0], unary_pairs()[0][0], pictures[0])
        t("concat_membership", concat_membership, kind, _INVALID, binary[0], pictures[0])
    for p in separated_layouts(4, 4, "01"):
        t("split_separated", split_separated, p)
    for p in pictures[:6]:
        t("split_separated", split_separated, p)
    small = [*enumerate_pictures(AB01, DimBounds(2, 2))][::3] + [_ODD_PICTURES[2], Picture(("a",))]
    for w in small:
        for v in small:
            t("row_concat", row_concat, w, v)
            t("col_concat", col_concat, w, v)
    tiny = [Picture(("0",)), Picture(("1",)), Picture(("01",)), Picture(("1", "0")), _ODD_PICTURES[2]]
    for w in tiny:
        for v in tiny:
            t("diag_concat_words", diag_concat_words, w, v, AB01)
            t("diag_concat_words", diag_concat_words, w, v, AB01, 16)
            t("diag_concat_words", diag_concat_words, w, v, UNARY)


def _constructions(t, machines):
    """Every construction and transpose_automaton."""
    for a in [*machines, _INVALID]:
        for build in (to_ibr, border_normalize, transpose_automaton):
            t(build.__name__, build, a)
    for name in ("first-row-zeros", "top-left-one", "thm9-A", "thm9-B", "thm9-X(1)", "thm9-X(2)", "thm9-X(0)",
                 "thm9-X(9)", "thm9-X(" + "9" * 7 + ")", "nope"):
        t("build_witness", build_witness, name)
    two_way = [a for a in machines if a.variant == "2W"]
    unary = [a for a in two_way if a.alphabet == UNARY]
    bad = [(two_way[0], unary[0]), (machines[-1], machines[-1]), (_INVALID, two_way[0]), (two_way[0], _INVALID)]
    for build in (unary_row_concat, unary_col_concat):
        for a, b in [*unary_pairs(), *product(unary, repeat=2), *bad]:
            t(build.__name__, build, a, b)
    binary = [a for a in two_way if a.alphabet == AB01]
    for build in (diag_concat_nondet_2w, diag_concat_separated):
        for a, b in [*diag_pairs(), *separated_pairs(), *product(binary[::2], repeat=2), *bad]:
            t(build.__name__, build, a, b)


def _onedim(t, machines):
    """row_restriction, two_way_to_one_way, simulate_1d,
    row_departure_oracle and downward_departures."""
    row_machines = [a for a in machines if a.variant == "3W" and a.mode == "det"] + [left_probe3w()]
    rows = ["".join(cells) for n in range(4) for cells in product("01", repeat=n)]
    restrictions = []
    for m2 in row_machines:
        for q in m2.states:
            for side in ("left", "right"):
                for off in range(1, len(m2.states) + 2):
                    restrictions.append(t("row_restriction", row_restriction, m2, q, side, off))
                    for row in rows:
                        t("row_departure_oracle", row_departure_oracle, m2, q, side, off, row)
    for m2, args in ((row_machines[0], ("nope", "left", 1)), (row_machines[0], ("q0", "up", 1)),
                     (row_machines[0], ("q0", "left", 0)), (machines[0], ("q0", "left", 1))):
        t("row_restriction", row_restriction, m2, *args)
        t("row_departure_oracle", row_departure_oracle, m2, *args, "01")
    for row in ("2", "0#", "a"):
        t("row_departure_oracle", row_departure_oracle, row_machines[0], row_machines[0].initial, "left", 1, row)
    rng = random.Random(35)
    one_d = [*corpus_1d(), *(_random_1d(rng) for _ in range(120)), *restrictions[::5]]
    one_way = Automaton1D("ones", ONE_WAY, AB01, ("q0",), "q0", ("q0",), {("q0", "1"): "q0"})
    broken = Automaton1D("broken", TWO_WAY, AB01, ("q0", "acc"), "q0", ("acc",), {("q0", "0"): ("q9", "R")})
    for a in [*one_d, one_way, broken]:
        b = t("two_way_to_one_way", two_way_to_one_way, a)
        for m in (a, b) if b is not None else (a,):
            for s in [*rows, "2", "0#"]:
                t("simulate_1d", simulate_1d, m, s)
    zero_pictures = [Picture(("0" * n,) * m) for m in (1, 2, 3) for n in (1, 2, 3)] + [Picture(("000", "010", "000"))]
    for m2 in [*row_machines, machines[0], machines[-1]]:
        for w in zero_pictures:
            for i in range(5):
                t("downward_departures", downward_departures, m2, w, i)


def library_digests() -> dict:
    """Run every library entry point of the transcript and return each
    one's entry: ``{"calls", "raised", "sha256"}``."""
    t = _Transcript()
    machines = _library_machines()
    for part in (_runs, _evidence, _sweeps, _words, _constructions, _onedim):
        part(t, machines)
    return t.entries()


if __name__ == "__main__":
    if sys.argv[1:] == ["library"]:
        entries = library_digests()
    else:
        with tempfile.TemporaryDirectory() as scratch:
            here = os.getcwd()
            os.chdir(scratch)
            try:
                entries = digests()
            finally:
                os.chdir(here)
    print(json.dumps(entries, indent=1))
