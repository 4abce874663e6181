"""Automaton-to-automaton constructions: border-acceptance normal forms,
concatenation closure builders, and the witness machines used by the
non-closure refuters.

Every builder returns a machine that passes :func:`pictomata.automaton.validate`;
their languages are checked against the split-enumeration oracles in
:mod:`pictomata.concat` by the test suite, which is the authority on
correctness here.

Conventions used by the product constructions below:

* ``border_normalize`` rewrites a two-way machine so that it only ever
  accepts on a boundary-marker read (an in-word accepting move becomes a
  rightward sweep to the border).  This makes "where does the accepting
  run end" a total case split.
* ``to_ibr`` makes a machine *immediately border-resolving*: its first
  boundary read either jumps straight to the accepting state (when
  acceptance was still reachable through boundary reads alone) or is
  undefined.  IBR machines read the marker at most once per accepting
  run, which lets a simulating product fuse "final in-word move" with
  "would accept on the next read" into a single transition.
"""

import enum
import re
from dataclasses import dataclass, replace
from itertools import product

from .automaton import Automaton2D, boundary_reach, make_delta, transpose_automaton
from .errors import AlphabetError, CapacityError, ToolkitError, VariantError
from .picture import BOUNDARY, Alphabet, Picture


def _require_2w(a: Automaton2D) -> None:
    if a.variant != "2W":
        raise VariantError(f"{a.name!r}: operation defined for two-way machines only")


def _require_pair(a: Automaton2D, b: Automaton2D) -> None:
    """Precondition of the product constructions: two two-way factors
    over one alphabet."""
    _require_2w(a)
    _require_2w(b)
    if a.alphabet.symbols != b.alphabet.symbols:
        raise AlphabetError("factor machines must share one alphabet")


def to_ibr(a: Automaton2D) -> Automaton2D:
    """Equivalent machine that resolves acceptance at its first boundary read.

    Keeps all in-word behaviour.  For each state q, the ``#`` entry
    becomes a direct jump to accept when accept was reachable from q over
    boundary reads, and disappears otherwise.
    """
    _require_2w(a)
    reach = boundary_reach(a)
    delta = {k: v for k, v in a.delta.items() if k[1] != BOUNDARY}
    for q in a.states:
        if q != a.accept and q in reach:
            delta[(q, BOUNDARY)] = frozenset({(a.accept, "D")})
    return Automaton2D(
        f"{a.name}_ibr", a.variant, a.mode, a.alphabet, a.states, a.initial, a.accept, delta
    )


def _fresh(name: str, taken) -> str:
    while name in taken:
        name += "_"
    return name


def border_normalize(a: Automaton2D) -> Automaton2D:
    """Equivalent two-way machine that accepts only on boundary reads.

    An accepting move taken on an in-word symbol is redirected through a
    sweep state that runs rightward to the border and accepts there; a
    machine whose initial state already accepts becomes the two-state
    machine accepting everything at its right border.
    """
    _require_2w(a)
    if a.initial == a.accept:
        delta = {("q0", s): frozenset({("q0", "R")}) for s in a.alphabet}
        delta[("q0", BOUNDARY)] = frozenset({("acc", "R")})
        return Automaton2D(
            f"{a.name}_bn", "2W", a.mode, a.alphabet, ("q0", "acc"), "q0", "acc", delta
        )
    hits = [
        (q, sym)
        for (q, sym), image in a.delta.items()
        if sym != BOUNDARY and any(q2 == a.accept for q2, _ in image)
    ]
    if not hits:
        return a
    sweep = _fresh("sweep", set(a.states))
    delta = dict(a.delta)
    for key in hits:
        delta[key] = frozenset(
            (sweep if q2 == a.accept else q2, d) for q2, d in delta[key]
        )
    for s in a.alphabet:
        delta[(sweep, s)] = frozenset({(sweep, "R")})
    delta[(sweep, BOUNDARY)] = frozenset({(a.accept, "R")})
    return Automaton2D(
        f"{a.name}_bn", "2W", a.mode, a.alphabet, a.states + (sweep,), a.initial, a.accept, delta
    )


class CaseTag(enum.Enum):
    """The five shapes an interleaved pair of accepting runs can take,
    split by which border each factor's run ends on."""

    BOTTOM_RIGHT = "c1"
    RIGHT_BOTTOM = "c2"
    BOTTOM_BOTTOM_BEFORE = "c3a"
    BOTTOM_BOTTOM_AFTER = "c3b"
    RIGHT_RIGHT = "c4"


@dataclass(frozen=True)
class _CaseCfg:
    tag: str            # the CaseTag value that opens the case's state names
    first: str          # which machine's down-phase opens a round
    guesser: str | None  # machine whose bottom border is guessed mid-word
    phase2: str | None   # machine simulated alone after the guess
    verify: str          # head direction whose border read closes the run


_CASES: dict[CaseTag, _CaseCfg] = {
    tag: _CaseCfg(tag.value, *fields)
    for tag, fields in (
        (CaseTag.BOTTOM_RIGHT, ("A", "A", "B", "R")),
        (CaseTag.RIGHT_BOTTOM, ("A", "B", "A", "R")),
        (CaseTag.BOTTOM_BOTTOM_BEFORE, ("B", "B", "A", "D")),
        (CaseTag.BOTTOM_BOTTOM_AFTER, ("A", "A", "B", "D")),
        (CaseTag.RIGHT_RIGHT, ("A", None, None, "R")),
    )
}


def _moves(m: Automaton2D, q: str, sym: str, d: str) -> list[str]:
    return [q2 for q2, dd in sorted(m.image(q, sym)) if dd == d]


def _border_ok(m: Automaton2D, q: str) -> bool:
    return bool(m.image(q, BOUNDARY))


def _turn_successors(cfg: _CaseCfg, turn: str) -> tuple[str, ...]:
    first = cfg.first + "d"
    second = ("Bd" if first == "Ad" else "Ad")
    if turn == first:
        return (first, second, "J")
    if turn == second:
        return (second, "J")
    return (first, second, "J")


def unary_row_concat(a: Automaton2D, b: Automaton2D) -> Automaton2D:
    """Nondeterministic two-way machine for L(a) stacked-on-top-of L(b),
    over a one-letter alphabet.

    The product guesses one of the five run-shape cases up front, then
    interleaves both component runs on the stacked word: repeated rounds
    of the first machine's downward moves, the second machine's downward
    moves, and one joint rightward move.  Down-phases may be empty; the
    interleaving keeps both virtual heads in the product head's column,
    with the product row equal to the component rows' sum minus one.

    Because the alphabet is unary, the only information in a read is
    "in-word or border".  The factor boundary between the two stacked
    words is invisible, so the guessing machine's bottom-border read is
    *pretended*: fused with its final downward move, legal exactly when
    that machine (made immediately border-resolving first) would accept
    on the marker.  The closing border read of the remaining machine is
    real and is demanded by a verifier state entered together with the
    final move in the case's closing direction; the right-right case
    instead closes on a joint rightward move with both components ready
    to accept, after spending one mandatory extra downward move so that
    the word is tall enough to contain both factors.
    """
    _require_pair(a, b)
    if not a.alphabet.unary:
        raise AlphabetError("row-concatenation closure construction needs a unary alphabet")
    sym = a.alphabet.symbols[0]
    a1 = to_ibr(border_normalize(a))
    b1 = to_ibr(border_normalize(b))
    comp = {"A": a1, "B": b1}
    right_right = _CASES[CaseTag.RIGHT_RIGHT]

    INIT, ACCEPT = "go", "ok"
    delta_entries: list[tuple[str, str, str, str]] = []
    seen: set[str] = set()
    order: list[str] = [INIT]
    work: list[tuple] = []

    def visit(state: tuple) -> str:
        name = _name(state)
        if name not in seen:
            seen.add(name)
            order.append(name)
            work.append(state)
        return name

    def _name(state: tuple) -> str:
        kind = state[0]
        if kind == "p1":
            # case tag, whose turn it is, and both component states
            return f"{state[1].tag}|{state[2]}|{state[3]}|{state[4]}"
        if kind == "p2":
            return f"{state[1].tag}|p2|{state[2]}"
        return f"{state[1].tag}|chk"

    def p1_edges(cfg: _CaseCfg, turn: str, qa: str, qb: str):
        if turn in ("Ad", "Bd"):
            x = turn[0]
            mx, qx = comp[x], (qa if x == "A" else qb)
            for q2 in _moves(mx, qx, sym, "D"):
                na, nb = (q2, qb) if x == "A" else (qa, q2)
                for t2 in _turn_successors(cfg, turn):
                    yield ("p1", cfg, t2, na, nb), "D"
                if cfg.guesser == x and _border_ok(mx, q2):
                    other = qb if x == "A" else qa
                    yield ("p2", cfg, other), "D"
        else:
            for qa2 in _moves(a1, qa, sym, "R"):
                for qb2 in _moves(b1, qb, sym, "R"):
                    for t2 in _turn_successors(cfg, "J"):
                        yield ("p1", cfg, t2, qa2, qb2), "R"
                    if cfg is right_right and _border_ok(a1, qa2) and _border_ok(b1, qb2):
                        yield ("chk", cfg), "R"

    def p2_edges(cfg: _CaseCfg, q: str):
        mz = comp[cfg.phase2]
        for q2, d in sorted(mz.image(q, sym)):
            yield ("p2", cfg, q2), d
            if d == cfg.verify and _border_ok(mz, q2):
                yield ("chk", cfg), d

    # The initial state carries the first move of every case, with any of
    # the three turn positions as the starting point (down-phases may be
    # empty); the right-right case instead opens with its slack row.
    qa0, qb0 = a1.initial, b1.initial
    for cfg in _CASES.values():
        for t0 in _turn_successors(cfg, "J"):
            if cfg is right_right:
                delta_entries.append((INIT, sym, visit(("p1", cfg, t0, qa0, qb0)), "D"))
            else:
                for target, move in p1_edges(cfg, t0, qa0, qb0):
                    delta_entries.append((INIT, sym, visit(target), move))

    while work:
        state = work.pop(0)
        name = _name(state)
        if state[0] == "p1":
            for target, move in p1_edges(state[1], state[2], state[3], state[4]):
                delta_entries.append((name, sym, visit(target), move))
        elif state[0] == "p2":
            for target, move in p2_edges(state[1], state[2]):
                delta_entries.append((name, sym, visit(target), move))
        else:
            delta_entries.append((name, BOUNDARY, ACCEPT, "D"))

    states = (INIT, *order[1:], ACCEPT)
    return Automaton2D(
        f"{a.name}_row_{b.name}",
        "2W",
        "nondet",
        a.alphabet,
        states,
        INIT,
        ACCEPT,
        make_delta(delta_entries),
    )


def unary_col_concat(a: Automaton2D, b: Automaton2D) -> Automaton2D:
    """Column-concatenation closure by row/column duality: transpose both
    factors, build the row product, transpose the result back."""
    out = transpose_automaton(
        unary_row_concat(transpose_automaton(a), transpose_automaton(b))
    )
    return replace(out, name=f"{a.name}_col_{b.name}")


_ACCEPT = "ok"


def _diag_product(a: Automaton2D, b: Automaton2D, tag: str, mode: str, crossings) -> Automaton2D:
    """Skeleton shared by the two diagonal products.

    ``crossings(a1)`` runs the first factor ``a1`` (border-normalized,
    immediately border-resolving) and crosses the filler; it returns the
    product's initial state, its transitions so far, and the crossing
    states from which the second factor starts.  The second factor then
    runs as-is (border-normalized), since its borders are the input's,
    and states unreachable from the initial one are dropped.
    """
    _require_pair(a, b)
    a1 = to_ibr(border_normalize(a))
    b1 = border_normalize(b)
    initial, entries, starters = crossings(a1)

    def bname(q: str) -> str:
        return _ACCEPT if q == b1.accept else f"B|{q}"

    syms = a.alphabet.symbols
    for s in syms:
        for q2, d in sorted(b1.image(b1.initial, s)):
            for src in starters:
                entries.append((src, s, bname(q2), d))
    for q in b1.states:
        if q == b1.accept:
            continue
        for s in (*syms, BOUNDARY):
            for q2, d in sorted(b1.image(q, s)):
                entries.append((bname(q), s, bname(q2), d))

    delta = make_delta(entries)
    reachable = _reachable_states(initial, delta, _ACCEPT)
    delta = {k: v for k, v in delta.items() if k[0] in reachable}
    return Automaton2D(
        f"{a.name}_{tag}_{b.name}", "2W", mode, a.alphabet, tuple(reachable), initial, _ACCEPT, delta
    )


def diag_concat_nondet_2w(a: Automaton2D, b: Automaton2D) -> Automaton2D:
    """Nondeterministic two-way machine for the diagonal concatenation of
    two general-alphabet languages.

    Simulates the first factor (border-normalized, immediately
    border-resolving) on the top-left corner, but may at any point treat
    the current in-word move as the move onto the factor's own bottom or
    right border: the border read is pretended, fused with the final real
    move, legal when the factor would accept on it.  After a pretended
    bottom the head slides right at least one cell, after a pretended
    right it slides down, and wherever the slide stops the second factor
    starts running; its borders are the real ones, so no further guessing
    is needed.  The filler corners are only ever crossed, never checked,
    which is exactly the freedom diagonal concatenation grants.
    """
    return _diag_product(a, b, "diag", "nondet", _guessed_crossings)


def _guessed_crossings(a1: Automaton2D):
    entries: list[tuple[str, str, str, str]] = []
    for q in a1.states:
        if q == a1.accept:
            continue
        for s in a1.alphabet.symbols:
            for q2, d in sorted(a1.image(q, s)):
                entries.append((f"A|{q}", s, f"A|{q2}", d))
                if _border_ok(a1, q2):
                    if d == "D":
                        entries.append((f"A|{q}", s, "sR0", "D"))
                    else:
                        entries.append((f"A|{q}", s, "sD0", "R"))
    for s in a1.alphabet.symbols:
        entries.append(("sR0", s, "sR1", "R"))
        entries.append(("sD0", s, "sD1", "D"))
        entries.append(("sR1", s, "sR1", "R"))
        entries.append(("sD1", s, "sD1", "D"))
    return f"A|{a1.initial}", entries, ("sR1", "sD1")


def _reachable_states(initial: str, delta, accept: str) -> list[str]:
    """Forward reachability in declaration order, accept pinned last."""
    adj: dict[str, list[str]] = {}
    for (q, _), image in sorted(delta.items()):
        adj.setdefault(q, []).extend(q2 for q2, _ in sorted(image))
    out = [initial]
    seen = {initial, accept}
    queue = [initial]
    while queue:
        q = queue.pop(0)
        for q2 in adj.get(q, ()):
            if q2 not in seen:
                seen.add(q2)
                out.append(q2)
                queue.append(q2)
    out.append(accept)
    return out


def diag_concat_separated(a: Automaton2D, b: Automaton2D) -> Automaton2D:
    """Machine for diagonal concatenations whose factors are separated by
    one boundary-marker row and one boundary-marker column.

    With the separators physically present, the first factor's borders
    are real marker reads: the simulation tracks the direction of the
    last move, and on a marker read that the (immediately
    border-resolving) factor would accept, the head crosses into the
    second factor's corner: down once and rightward across the filler and
    the separating column after a bottom-border accept, rightward once
    and downward after a right-border accept.  The second factor then
    runs as-is, since its borders coincide with the input's.  Inputs with
    an empty quadrant die on the crossing states, which insist on seeing
    at least one in-word symbol before and after the crossed marker.
    Determinism is preserved.
    """
    mode = "det" if a.mode == b.mode == "det" else "nondet"
    return _diag_product(a, b, "dsep", mode, _separator_crossings)


def _separator_crossings(a1: Automaton2D):
    entries: list[tuple[str, str, str, str]] = []
    for q in a1.states:
        if q == a1.accept:
            continue
        for last in ("S", "D", "R"):
            src = f"A|{q}|{last}"
            for s in a1.alphabet.symbols:
                for q2, d in sorted(a1.image(q, s)):
                    entries.append((src, s, f"A|{q2}|{d}", d))
            if _border_ok(a1, q):
                if last == "D":
                    entries.append((src, BOUNDARY, "xf", "D"))
                elif last == "R":
                    entries.append((src, BOUNDARY, "yf", "R"))
    for s in a1.alphabet.symbols:
        entries.append(("xf", s, "x1", "R"))
        entries.append(("x1", s, "x1", "R"))
        entries.append(("yf", s, "y1", "D"))
        entries.append(("y1", s, "y1", "D"))
    entries.append(("x1", BOUNDARY, "Bs", "R"))
    entries.append(("y1", BOUNDARY, "Bs", "D"))
    return f"A|{a1.initial}|S", entries, ("Bs",)


_X_FAMILY = re.compile(r"thm9-X\((\d+)\)")
#: Largest k for which :func:`thm9_x_family` builds its 4**k words:
#: 4**8 = 65,536, the default cap of ``pictomata concat diag``.
_X_FAMILY_MAX_K = 8


def build_witness(name: str):
    """Named witness machines and word families used by the non-closure
    arguments.

    ``first-row-zeros`` and ``top-left-one`` are the two-way witnesses over
    {0,1}; ``thm9-A`` and ``thm9-B`` are the deterministic three-way
    factor machines of the four-row diagonal gadget, and ``thm9-X(k)``
    is that gadget's word family of dimension 4 x 2k.
    """
    ab01 = Alphabet(("0", "1"))
    if name == "first-row-zeros":
        return Automaton2D(
            name, "2W", "det", ab01, ("q0", "acc"), "q0", "acc",
            make_delta([("q0", "0", "q0", "R"), ("q0", BOUNDARY, "acc", "R")]),
        )
    if name == "top-left-one":
        return Automaton2D(
            name, "2W", "det", ab01, ("q0", "acc"), "q0", "acc",
            make_delta([("q0", "1", "acc", "R")]),
        )
    if name == "thm9-A":
        return Automaton2D(
            name, "3W", "det", ab01, ("q0", "q1", "q2", "acc"), "q0", "acc",
            make_delta([
                ("q0", "0", "q0", "R"),
                ("q0", BOUNDARY, "q1", "L"),
                ("q1", "0", "q2", "D"),
                ("q2", BOUNDARY, "acc", "D"),
            ]),
        )
    if name == "thm9-B":
        return Automaton2D(
            name, "3W", "det", ab01,
            ("p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "acc"), "p0", "acc",
            make_delta([
                ("p0", "1", "p1", "R"),
                ("p1", "0", "p1", "R"),
                ("p1", BOUNDARY, "p2", "L"),
                ("p2", "0", "p3", "D"),
                ("p2", "1", "p3", "D"),
                ("p3", "0", "p3", "L"),
                ("p3", BOUNDARY, "p4", "D"),
                ("p4", BOUNDARY, "p5", "R"),
                ("p5", "0", "p5", "R"),
                ("p5", BOUNDARY, "p6", "L"),
                ("p6", "0", "p7", "D"),
                ("p7", BOUNDARY, "acc", "D"),
            ]),
        )
    match = _X_FAMILY.fullmatch(name)
    if match:
        return thm9_x_family(int(match.group(1)))
    raise ToolkitError(f"unknown witness {name!r}")


def thm9_x_family(k: int) -> list[Picture]:
    """All 4 x 2k words with zero rows 1 and 3, a single centred 1 in
    row 2, and a free fourth row; past k = 8 there are too many to build."""
    if k < 1:
        raise ToolkitError("family parameter must be at least 1")
    if k > _X_FAMILY_MAX_K:
        raise CapacityError(f"family thm9-X({k}) of 4**{k} words exceeds the cap of {4**_X_FAMILY_MAX_K}")
    zeros = "0" * (2 * k)
    marked = "0" * k + "1" + "0" * (k - 1)
    out = []
    for tail in product("01", repeat=2 * k):
        out.append(Picture((zeros, marked, zeros, "".join(tail))))
    return out
