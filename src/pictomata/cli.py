"""Command-line interface.

One verb per toolkit operation.  All inputs come from files and flags,
reports go to standard output, diagnostics to standard error.  Exit
status: 0 for success / Ok verdicts, 1 for rejections and found
counterexamples, 2 for usage or input errors.
"""

import argparse
import functools
import sys

from . import construct, onedim
from .automaton import load_automaton, save_automaton, validate
from .concat import ConcatKind, col_concat, diag_concat_words, row_concat
from .errors import CapacityError, ToolkitError
from .oracle import (
    DEFAULT_BUDGET,
    Counterexample,
    DimBounds,
    check_same_symbols,
    equivalent_up_to,
    language_up_to,
    refute,
)
from .picture import Alphabet, format_picture, load_picture, write_text
from .simulate import accepts, first_accepting_trace, format_trace, run_deterministic

_KINDS = [k.value for k in ConcatKind]


def _on_files(builder):
    """``builder`` over automaton files, all loaded first; it checks them."""
    return lambda *paths: builder(*[load_automaton(p) for p in paths])


#: ``construct`` kinds: (input count, what an input is, builder over the inputs).
_FILES = "automaton file(s)"
_BUILDERS = {
    "ibr": (1, _FILES, _on_files(construct.to_ibr)),
    "unary-row": (2, _FILES, _on_files(construct.unary_row_concat)),
    "unary-col": (2, _FILES, _on_files(construct.unary_col_concat)),
    "diag": (2, _FILES, _on_files(construct.diag_concat_nondet_2w)),
    "diag-sep": (2, _FILES, _on_files(construct.diag_concat_separated)),
    "witness": (1, "witness name", construct.build_witness),
}

#: Default ``concat diag --cap``: the most filler words it will build and
#: print.  Each free filler cell doubles them over two symbols, so without
#: a cap two 4x4 pictures would ask for 2**32 words.
DIAG_CAP = 2**16

#: Largest ``bound N`` that prints: h(2N+3) has 4,297 digits at N = 683
#: and 4,304 at N = 684, past the 4,300 digits to which Python limits
#: int-to-str conversion by default.
BOUND_MAX_N = 683


def _refute(cand, target_concat, args) -> Counterexample | None:
    """``refute`` against the ``KIND A B`` of ``equiv --against-concat``
    or ``refute --target-concat``: the kind is parsed before the factor
    files are loaded, so both verbs report a bad kind first."""
    name, pa, pb = target_concat
    if name not in _KINDS:
        raise ToolkitError(f"unknown concat kind {name!r}; one of {', '.join(_KINDS)}")
    kind = ConcatKind(name)
    return refute(cand, kind, load_automaton(pa), load_automaton(pb), DimBounds(args.max_rows, args.max_cols))


def _bounds(p) -> None:
    """The sweep bounds of ``enum``, ``equiv`` and ``refute``."""
    p.add_argument("--max-rows", type=int, required=True)
    p.add_argument("--max-cols", type=int, required=True)


def _output(p) -> None:
    """The file that ``construct``, ``rowsim`` and ``to-oneway`` write."""
    p.add_argument("-o", "--output", required=True)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it as it was, so
    every call of :func:`dispatch` reuses it."""
    top = argparse.ArgumentParser(prog="pictomata", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check automaton well-formedness")
    p.add_argument("aut")

    p = sub.add_parser("run", help="run an automaton on one picture")
    p.add_argument("aut")
    p.add_argument("pic")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--allow-hash", action="store_true")

    p = sub.add_parser("enum", help="list accepted pictures within bounds")
    p.add_argument("aut")
    _bounds(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("concat", help="concatenate two picture files")
    p.add_argument("kind", choices=_KINDS)
    p.add_argument("picA")
    p.add_argument("picB")
    p.add_argument("--cap", type=int, default=DIAG_CAP,
                   help=f"most words diag may build; more exit 2 (default {DIAG_CAP})")

    p = sub.add_parser("construct", help="build an automaton transformer output")
    p.add_argument("kind", choices=list(_BUILDERS))
    p.add_argument("inputs", nargs="+")
    _output(p)

    p = sub.add_parser("equiv", help="compare a candidate against a target within bounds")
    p.add_argument("cand")
    p.add_argument("--against-aut", metavar="B")
    p.add_argument("--against-concat", nargs=3, metavar=("KIND", "A", "B"))
    _bounds(p)

    p = sub.add_parser("refute", help="search for a concatenation counterexample")
    p.add_argument("cand")
    p.add_argument("--target-concat", nargs=3, metavar=("KIND", "A", "B"), required=True)
    _bounds(p)

    p = sub.add_parser("lemma2-check", help="report downward departures from a uniform row")
    p.add_argument("aut3w")
    p.add_argument("pic")
    p.add_argument("--row", type=int, required=True)

    p = sub.add_parser("rowsim", help="build the row-restriction string machine")
    p.add_argument("aut3w")
    p.add_argument("--entry-state", required=True)
    p.add_argument("--side", choices=["left", "right"], required=True)
    p.add_argument("--offset", type=int, required=True)
    _output(p)

    p = sub.add_parser("to-oneway", help="convert a two-way string machine")
    p.add_argument("aut1d")
    _output(p)

    p = sub.add_parser("bound", help="print the conversion state bound")
    p.add_argument("n", type=int)
    return top


def _report(ce: Counterexample | None, verdict: str, out) -> int:
    """The outcome of ``equiv`` or ``refute``: ``verdict: <verdict>`` and 0
    when no counterexample was found, else the counterexample and 1."""
    if ce is None:
        print(f"verdict: {verdict}", file=out)
        return 0
    print("verdict: counterexample", file=out)
    print(f"expected: {str(ce.expected).lower()}", file=out)
    print(f"got: {str(ce.got).lower()}", file=out)
    print(format_picture(ce.word), end="", file=out)
    if ce.evidence is not None:
        print(format_trace(ce.word, ce.evidence, "evidence"), end="", file=out)
    return 1


def _print_words(words: list, out) -> None:
    print(f"count: {len(words)}", file=out)
    for w in words:
        print("", file=out)
        print(format_picture(w), end="", file=out)


def _written(out, path, count: int, unit: str = "states") -> int:
    print(f"written: {path}", file=out)
    print(f"{unit}: {count}", file=out)
    return 0


def dispatch(argv, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args, out)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args, out) -> int:
    cmd = args.command
    if cmd == "validate":
        problems = validate(load_automaton(args.aut))
        print(f"valid: {'yes' if not problems else 'no'}", file=out)
        for p in problems:
            print(f"violation: {p}", file=out)
        return 0 if not problems else 1

    if cmd == "run":
        a = load_automaton(args.aut)
        w = load_picture(args.pic, allow_hash=args.allow_hash)
        if a.mode == "det":
            result = run_deterministic(a, w)
            verdict = result.kind
            trace = result.trace
        else:
            # accepts() decides; the trace search runs only to print an
            # accepting run.
            verdict = "accepted" if accepts(a, w) else "rejected"
            trace = first_accepting_trace(a, w) if args.trace and verdict == "accepted" else ()
        print(format_trace(w, trace if args.trace else (), verdict), end="", file=out)
        return 0 if verdict == "accepted" else 1

    if cmd == "enum":
        a = load_automaton(args.aut)
        words = language_up_to(a, DimBounds(args.max_rows, args.max_cols), args.budget)
        _print_words(sorted(words, key=lambda w: (w.m, w.n, w.rows)), out)
        return 0

    if cmd == "concat":
        a = load_picture(args.picA)
        b = load_picture(args.picB)
        if args.kind == "diag":
            syms = sorted({ch for w in (a, b) for row in w.rows for ch in row})
            words = diag_concat_words(a, b, Alphabet(tuple(syms)), cap=args.cap)
            _print_words(sorted(words, key=lambda w: w.rows), out)
        else:
            print(format_picture((row_concat if args.kind == "row" else col_concat)(a, b)), end="", file=out)
        return 0

    if cmd == "construct":
        # one arity check, one build and one write for every kind: a list
        # of words becomes a family file, a machine an automaton file
        arity, what, build = _BUILDERS[args.kind]
        if len(args.inputs) != arity:
            raise ToolkitError(f"construct {args.kind} takes {arity} {what}")
        built = build(*args.inputs)
        if isinstance(built, list):
            words = "".join("\n" + format_picture(w) for w in built)
            write_text(args.output, f"; family {args.inputs[0]}: {len(built)} words\n{words}")
            return _written(out, args.output, len(built), "words")
        save_automaton(built, args.output)
        return _written(out, args.output, len(built.states))

    if cmd == "equiv":
        cand = load_automaton(args.cand)
        if (args.against_aut is None) == (args.against_concat is None):
            raise ToolkitError("need exactly one of --against-aut / --against-concat")
        if args.against_aut:
            other = load_automaton(args.against_aut)
            check_same_symbols(cand, other)
            ce = equivalent_up_to(cand, lambda w: accepts(other, w), DimBounds(args.max_rows, args.max_cols))
        else:
            ce = _refute(cand, args.against_concat, args)
        return _report(ce, "ok", out)

    if cmd == "refute":
        return _report(_refute(load_automaton(args.cand), args.target_concat, args), "no-counterexample", out)

    if cmd == "lemma2-check":
        m2 = load_automaton(args.aut3w)
        w = load_picture(args.pic)
        bound = len(m2.states) + 1
        departures = onedim.downward_departures(m2, w, args.row)
        print(f"departures: {len(departures)}", file=out)
        for dep in departures:  # one or none: the head never moves up
            qualifying = dep.visited_first or dep.visited_last
            dist = min(dep.column, w.n + 1 - dep.column)
            ok = (not qualifying) or dist <= bound
            print(
                f"departure: col={dep.column} visited_first={str(dep.visited_first).lower()}"
                f" visited_last={str(dep.visited_last).lower()} ok={str(ok).lower()}",
                file=out,
            )
            return 0 if ok else 1
        return 0

    if cmd == "rowsim":
        m2 = load_automaton(args.aut3w)
        n1 = onedim.row_restriction(m2, args.entry_state, args.side, args.offset)
        onedim.save_automaton_1d(n1, args.output)
        return _written(out, args.output, len(n1.states))

    if cmd == "to-oneway":
        a1 = onedim.load_automaton_1d(args.aut1d)
        converted = onedim.two_way_to_one_way(a1)
        onedim.save_automaton_1d(converted, args.output)
        return _written(out, args.output, len(converted.states))

    # bound: argparse's required subcommand leaves no other command
    if args.n > BOUND_MAX_N:
        raise CapacityError(f"bound {args.n}: h(2n+3) has too many digits to print; n is at most {BOUND_MAX_N}")
    print(f"h({args.n}) = {onedim.kapoutsis_bound(args.n)}", file=out)
    print(f"k = h(2n+3) + 1 = {onedim.gadget_k(args.n)}", file=out)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
