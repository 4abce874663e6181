"""Command-line interface.

One verb per toolkit operation.  All inputs come from files and flags,
reports go to standard output, diagnostics to standard error.  Exit
status: 0 for success / Ok verdicts, 1 for rejections and found
counterexamples, 2 for usage or input errors.
"""

import argparse
import sys

from . import construct, onedim
from .automaton import load_automaton, save_automaton, validate
from .concat import ConcatKind, ConcatOracle, col_concat, diag_concat_words, row_concat
from .errors import CapacityError, ToolkitError
from .oracle import DEFAULT_BUDGET, Counterexample, DimBounds, equivalent_up_to, language_up_to, refute
from .picture import Alphabet, format_picture, load_picture
from .simulate import accepts, first_accepting_trace, format_trace, run_deterministic

_KINDS = {"row": ConcatKind.ROW, "col": ConcatKind.COL, "diag": ConcatKind.DIAG}

#: Default ``concat diag --cap``: the most filler words it will build and
#: print.  Each free filler cell doubles them over two symbols, so without
#: a cap two 4x4 pictures would ask for 2**32 words.
DIAG_CAP = 2**16

#: Largest ``bound N`` that prints: h(2N+3) has 4,297 digits at N = 683
#: and 4,304 at N = 684, past the 4,300 digits to which Python limits
#: int-to-str conversion by default.
BOUND_MAX_N = 683


def _kind(name: str) -> ConcatKind:
    if name not in _KINDS:
        raise ToolkitError(f"unknown concat kind {name!r}; one of {', '.join(_KINDS)}")
    return _KINDS[name]


def _parser() -> argparse.ArgumentParser:
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
    p.add_argument("--max-rows", type=int, required=True)
    p.add_argument("--max-cols", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("concat", help="concatenate two picture files")
    p.add_argument("kind", choices=["row", "col", "diag"])
    p.add_argument("picA")
    p.add_argument("picB")
    p.add_argument("--cap", type=int, default=DIAG_CAP,
                   help=f"most words diag may build; more exit 2 (default {DIAG_CAP})")

    p = sub.add_parser("construct", help="build an automaton transformer output")
    p.add_argument("kind", choices=["ibr", "unary-row", "unary-col", "diag", "diag-sep", "witness"])
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("equiv", help="compare a candidate against a target within bounds")
    p.add_argument("cand")
    p.add_argument("--against-aut", metavar="B")
    p.add_argument("--against-concat", nargs=3, metavar=("KIND", "A", "B"))
    p.add_argument("--max-rows", type=int, required=True)
    p.add_argument("--max-cols", type=int, required=True)

    p = sub.add_parser("refute", help="search for a concatenation counterexample")
    p.add_argument("cand")
    p.add_argument("--target-concat", nargs=3, metavar=("KIND", "A", "B"), required=True)
    p.add_argument("--max-rows", type=int, required=True)
    p.add_argument("--max-cols", type=int, required=True)

    p = sub.add_parser("lemma2-check", help="report downward departures from a uniform row")
    p.add_argument("aut3w")
    p.add_argument("pic")
    p.add_argument("--row", type=int, required=True)

    p = sub.add_parser("rowsim", help="build the row-restriction string machine")
    p.add_argument("aut3w")
    p.add_argument("--entry-state", required=True)
    p.add_argument("--side", choices=["left", "right"], required=True)
    p.add_argument("--offset", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("to-oneway", help="convert a two-way string machine")
    p.add_argument("aut1d")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("bound", help="print the conversion state bound")
    p.add_argument("n", type=int)
    return top


def _print_counterexample(ce: Counterexample, a, out) -> None:
    print("verdict: counterexample", file=out)
    print(f"expected: {str(ce.expected).lower()}", file=out)
    print(f"got: {str(ce.got).lower()}", file=out)
    print(format_picture(ce.word), end="", file=out)
    if ce.evidence is not None:
        print(format_trace(a, ce.word, ce.evidence, "evidence"), end="", file=out)


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
        if args.trace:
            print(format_trace(a, w, trace, verdict), end="", file=out)
        else:
            print(f"verdict: {verdict}", file=out)
        return 0 if verdict == "accepted" else 1

    if cmd == "enum":
        a = load_automaton(args.aut)
        words = language_up_to(a, DimBounds(args.max_rows, args.max_cols), args.budget)
        _print_words(sorted(words, key=lambda w: (w.m, w.n, w.rows)), out)
        return 0

    if cmd == "concat":
        a = load_picture(args.picA)
        b = load_picture(args.picB)
        if args.kind == "row":
            print(format_picture(row_concat(a, b)), end="", file=out)
        elif args.kind == "col":
            print(format_picture(col_concat(a, b)), end="", file=out)
        else:
            syms = sorted({ch for w in (a, b) for row in w.rows for ch in row})
            words = diag_concat_words(a, b, Alphabet(tuple(syms)), cap=args.cap)
            _print_words(sorted(words, key=lambda w: w.rows), out)
        return 0

    if cmd == "construct":
        return _run_construct(args, out)

    if cmd == "equiv":
        cand = load_automaton(args.cand)
        if (args.against_aut is None) == (args.against_concat is None):
            raise ToolkitError("need exactly one of --against-aut / --against-concat")
        if args.against_aut:
            other = load_automaton(args.against_aut)
            target = lambda w: accepts(other, w)
        else:
            kind, pa, pb = args.against_concat
            a = load_automaton(pa)
            b = load_automaton(pb)
            target = ConcatOracle(_kind(kind), a, b)
        ce = equivalent_up_to(cand, target, DimBounds(args.max_rows, args.max_cols))
        if ce is None:
            print("verdict: ok", file=out)
            return 0
        _print_counterexample(ce, cand, out)
        return 1

    if cmd == "refute":
        cand = load_automaton(args.cand)
        kind, pa, pb = args.target_concat
        ce = refute(
            cand,
            _kind(kind),
            load_automaton(pa),
            load_automaton(pb),
            DimBounds(args.max_rows, args.max_cols),
        )
        if ce is None:
            print("verdict: no-counterexample", file=out)
            return 0
        _print_counterexample(ce, cand, out)
        return 1

    if cmd == "lemma2-check":
        m2 = load_automaton(args.aut3w)
        w = load_picture(args.pic)
        bound = len(m2.states) + 1
        departures = onedim.downward_departures(m2, w, args.row)
        print(f"departures: {len(departures)}", file=out)
        status = 0
        for dep in departures:
            qualifying = dep.visited_first or dep.visited_last
            dist = min(dep.column, w.n + 1 - dep.column)
            ok = (not qualifying) or dist <= bound
            print(
                f"departure: col={dep.column} visited_first={str(dep.visited_first).lower()}"
                f" visited_last={str(dep.visited_last).lower()} ok={str(ok).lower()}",
                file=out,
            )
            if not ok:
                status = 1
        return status

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

    if cmd == "bound":
        if args.n > BOUND_MAX_N:
            raise CapacityError(f"bound {args.n}: h(2n+3) has too many digits to print; n is at most {BOUND_MAX_N}")
        print(f"h({args.n}) = {onedim.kapoutsis_bound(args.n)}", file=out)
        print(f"k = h(2n+3) + 1 = {onedim.gadget_k(args.n)}", file=out)
        return 0

    raise ToolkitError(f"unknown command {cmd!r}")


def _run_construct(args, out) -> int:
    kind = args.kind
    if kind == "witness":
        (name,) = args.inputs
        built = construct.build_witness(name)
        if isinstance(built, list):
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(f"; family {name}: {len(built)} words\n")
                for w in built:
                    fh.write("\n" + format_picture(w))
            return _written(out, args.output, len(built), "words")
        save_automaton(built, args.output)
        return _written(out, args.output, len(built.states))
    builders = {
        "ibr": (1, lambda ms: construct.to_ibr(ms[0])),
        "unary-row": (2, lambda ms: construct.unary_row_concat(ms[0], ms[1])),
        "unary-col": (2, lambda ms: construct.unary_col_concat(ms[0], ms[1])),
        "diag": (2, lambda ms: construct.diag_concat_nondet_2w(ms[0], ms[1])),
        "diag-sep": (2, lambda ms: construct.diag_concat_separated(ms[0], ms[1])),
    }
    arity, builder = builders[kind]
    if len(args.inputs) != arity:
        raise ToolkitError(f"construct {kind} takes {arity} automaton file(s)")
    machines = [load_automaton(p) for p in args.inputs]
    result = builder(machines)
    save_automaton(result, args.output)
    return _written(out, args.output, len(result.states))


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
