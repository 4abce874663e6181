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
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from collections import Counter

from corpus import (
    corpus_1d,
    corpus_2w,
    corpus_3w_det,
    corpus_edge_walkers,
    diag_pairs,
    random_2d,
    right_return3w,
    separated_pairs,
    t9b,
    unary_pairs,
    zero_columns01,
)
from pictomata import cli, save_automaton
from pictomata.onedim import save_automaton_1d

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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            entries = digests()
        finally:
            os.chdir(here)
    print(json.dumps(entries, indent=1))
