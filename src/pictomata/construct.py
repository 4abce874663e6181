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
* A factor's *border set* is ``_border_set(bn)`` of its
  border-normalized form ``bn``: the states other than acceptance from
  which boundary reads alone reach acceptance, exactly the states whose
  ``#`` read ``to_ibr(bn)`` turns into a jump to acceptance.  A product
  fuses "final in-word move" with "would accept on the next read" into a
  single transition into a state of that set.
* Every product is one breadth-first walk, ``_walk``, over states that
  are tuples of strings.  A state's name is its tuple joined with ``|``,
  with underscores appended until it differs from every name taken, so
  states keep distinct names whatever the factors' state names contain.
  The walk takes each state's edges in the order the product generates
  them, and a product reads each factor's moves in sorted order, so no
  set order reaches the output.
"""

import enum
import re
from dataclasses import replace
from itertools import product

from .automaton import Automaton2D, boundary_reach, make_delta, require_valid, transpose_automaton
from .errors import AlphabetError, CapacityError, ToolkitError, VariantError
from .picture import BOUNDARY, Alphabet, Picture


def _require_2w(a: Automaton2D) -> None:
    """A valid two-way machine; every transform below checks its input here."""
    require_valid(a)
    if a.variant != "2W":
        raise VariantError(f"{a.name!r}: operation defined for two-way machines only")


def _normalized_pair(a: Automaton2D, b: Automaton2D) -> tuple[Automaton2D, Automaton2D]:
    """Both factors border-normalized, which checks each, ``a`` first;
    then they must list one set of symbols, in any order."""
    a1, b1 = border_normalize(a), border_normalize(b)
    if set(a.alphabet.symbols) != set(b.alphabet.symbols):
        raise AlphabetError("factor machines must share one alphabet")
    return a1, b1


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


#: Keyed by the CaseTag value that opens the case's state names: the
#: machine whose down-phase opens a round, the machine whose bottom border
#: is guessed mid-word, the machine simulated alone after the guess (no
#: guess and no such machine in the right-right case), and the head
#: direction whose border read closes the run.
_CASES: dict[str, tuple[str, str | None, str | None, str]] = {
    CaseTag.BOTTOM_RIGHT.value: ("A", "A", "B", "R"),
    CaseTag.RIGHT_BOTTOM.value: ("A", "B", "A", "R"),
    CaseTag.BOTTOM_BOTTOM_BEFORE.value: ("B", "B", "A", "D"),
    CaseTag.BOTTOM_BOTTOM_AFTER.value: ("A", "A", "B", "D"),
    CaseTag.RIGHT_RIGHT.value: ("A", None, None, "R"),
}


def _moves(m: Automaton2D, sym: str) -> dict[tuple[str, str], list[str]]:
    """Sorted targets of the moves on ``sym``, by (state, direction)."""
    out: dict[tuple[str, str], list[str]] = {}
    for (q, s), image in m.delta.items():
        if s == sym:
            for q2, d in sorted(image):
                out.setdefault((q, d), []).append(q2)
    return out


def _border_set(bn: Automaton2D) -> set[str]:
    """The border set of a border-normalized factor; see the module docstring."""
    return boundary_reach(bn) - {bn.accept}


def _turn_successors(opener: str, turn: str) -> tuple[str, ...]:
    first, second = ("Ad", "Bd") if opener == "A" else ("Bd", "Ad")
    return (second, "J") if turn == second else (first, second, "J")


_ACCEPT = ("ok",)


def _walk(name: str, mode: str, alphabet: Alphabet, initial: tuple, accept: tuple, edges) -> Automaton2D:
    """Breadth-first walk of a product over the (symbol, next state, move)
    triples of ``edges(state)``; see the module docstring.  Returns the
    two-way product, its states named in the order first reached,
    ``accept`` last."""
    names = {initial: "|".join(initial), accept: "|".join(accept)}
    taken = set(names.values())
    order = [initial]
    entries: list[tuple[str, str, str, str]] = []
    # Breadth first: the loop reaches each state appended to order.
    for state in order:
        src = names[state]
        for s, nxt, move in edges(state):
            dst = names.get(nxt)
            if dst is None:
                dst = _fresh("|".join(nxt), taken)
                names[nxt] = dst
                taken.add(dst)
                order.append(nxt)
            entries.append((src, s, dst, move))
    states = (*(names[s] for s in order), names[accept])
    return Automaton2D(name, "2W", mode, alphabet, states, names[initial], names[accept], make_delta(entries))


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
    that machine would accept on the marker (its border set).  The
    closing border read of the remaining machine is real and is demanded
    by a verifier state entered together with the final move in the
    case's closing direction; the right-right case instead closes on a
    joint rightward move with both components ready to accept, after
    spending one mandatory extra downward move so that the word is tall
    enough to contain both factors.

    A product state is a tuple of strings: (case tag, turn, a-state,
    b-state) while both factors run, (case tag, ``p2``, state) while the
    remaining factor runs alone, and (case tag, ``chk``) for the
    verifier, found and named by :func:`_walk`.  The initial state is
    ``go`` and the accepting one ``ok``.
    """
    a1, b1 = _normalized_pair(a, b)
    if not a.alphabet.unary:
        raise AlphabetError("row-concatenation closure construction needs a unary alphabet")
    sym = a.alphabet.symbols[0]
    moves = {"A": _moves(a1, sym), "B": _moves(b1, sym)}
    border = {"A": _border_set(a1), "B": _border_set(b1)}
    right_right = CaseTag.RIGHT_RIGHT.value
    INIT = ("go",)

    def edges(state: tuple):
        if state == INIT:
            # The initial state carries the first move of every case, with any
            # of the three turn positions as the starting point (down-phases
            # may be empty); the right-right case instead opens with its slack row.
            for tag, (opener, *_) in _CASES.items():
                for t0 in _turn_successors(opener, "J"):
                    if tag == right_right:
                        yield sym, (tag, t0, a1.initial, b1.initial), "D"
                    else:
                        yield from edges((tag, t0, a1.initial, b1.initial))
            return
        tag, phase, qs = state[0], state[1], state[2:]
        opener, guesser, phase2, verify = _CASES[tag]
        if phase == "chk":
            yield BOUNDARY, _ACCEPT, "D"
        elif phase == "p2":
            mz = a1 if phase2 == "A" else b1
            for q2, d in sorted(mz.image(qs[0], sym)):
                yield sym, (tag, "p2", q2), d
                if d == verify and q2 in border[phase2]:
                    yield sym, (tag, "chk"), d
        elif phase == "J":
            for qa2 in moves["A"].get((qs[0], "R"), ()):
                for qb2 in moves["B"].get((qs[1], "R"), ()):
                    for t2 in _turn_successors(opener, "J"):
                        yield sym, (tag, t2, qa2, qb2), "R"
                    if tag == right_right and qa2 in border["A"] and qb2 in border["B"]:
                        yield sym, (tag, "chk"), "R"
        else:  # the down-phase "Ad" or "Bd" of one factor
            x = phase[0]
            qx, other = (qs[0], qs[1]) if x == "A" else (qs[1], qs[0])
            for q2 in moves[x].get((qx, "D"), ()):
                na, nb = (q2, other) if x == "A" else (other, q2)
                for t2 in _turn_successors(opener, phase):
                    yield sym, (tag, t2, na, nb), "D"
                if guesser == x and q2 in border[x]:
                    yield sym, (tag, "p2", other), "D"

    return _walk(f"{a.name}_row_{b.name}", "nondet", a.alphabet, INIT, _ACCEPT, edges)


def unary_col_concat(a: Automaton2D, b: Automaton2D) -> Automaton2D:
    """Column-concatenation closure by row/column duality: transpose both
    factors, build the row product, transpose the result back."""
    out = transpose_automaton(
        unary_row_concat(transpose_automaton(a), transpose_automaton(b))
    )
    return replace(out, name=f"{a.name}_col_{b.name}")


def _diag_product(a: Automaton2D, b: Automaton2D, tag: str, mode: str, crossings) -> Automaton2D:
    """Skeleton shared by the two diagonal products: one :func:`_walk`
    over edges in generation order, each factor's moves read sorted.

    ``crossings(a1, border)`` runs the first factor ``a1``
    (border-normalized, with its border set ``border``) in states
    ``("A", q, ...)``.  It returns the initial state, the edges of an
    ``A`` state, the table of the crossing states, and those from which
    the second factor starts.  The second factor runs border-normalized in
    states ``("B", q)``, since its borders are the input's."""
    a1, b1 = _normalized_pair(a, b)
    syms = a.alphabet.symbols
    initial, first, table, starters = crossings(a1, _border_set(a1))

    def second(q: str, reads):
        for s in reads:
            for q2, d in sorted(b1.image(q, s)):
                yield s, _ACCEPT if q2 == b1.accept else ("B", q2), d

    def edges(state: tuple):
        kind = state[0]
        if kind == "A":
            yield from first(state)
        elif kind == "B":
            yield from second(state[1], (*syms, BOUNDARY))
        if kind in table:
            nxt, move, border = table[kind]
            yield from ((s, (nxt,), move) for s in syms)
            if border:
                yield BOUNDARY, (border,), move
        if kind in starters:
            yield from second(b1.initial, syms)

    return _walk(f"{a.name}_{tag}_{b.name}", mode, a.alphabet, initial, _ACCEPT, edges)


def diag_concat_nondet_2w(a: Automaton2D, b: Automaton2D) -> Automaton2D:
    """Nondeterministic two-way machine for the diagonal concatenation of
    two general-alphabet languages.

    Simulates the first factor (border-normalized) on the top-left
    corner, but may at any point treat the current in-word move as the
    move onto the factor's own bottom or right border: the border read is
    pretended, fused with the final real move, legal when the factor
    would accept on it.  After a pretended bottom the head slides right
    at least one cell, after a pretended right it slides down, and
    wherever the slide stops the second factor starts running; its
    borders are the real ones, so no further guessing is needed.  The
    filler corners are only ever crossed, never checked, which is exactly
    the freedom diagonal concatenation grants.
    """
    return _diag_product(a, b, "diag", "nondet", _guessed_crossings)


#: Crossing state -> (state after an in-word read, move, state after a
#: ``#`` read): the slides after a pretended bottom (sR) or right (sD).
_GUESSED_TABLE = {"sR0": ("sR1", "R", None), "sR1": ("sR1", "R", None),
                  "sD0": ("sD1", "D", None), "sD1": ("sD1", "D", None)}


def _guessed_crossings(a1: Automaton2D, border: set[str]):
    def first(state: tuple):
        for s in a1.alphabet.symbols:
            for q2, d in sorted(a1.image(state[1], s)):
                yield s, ("A", q2), d
                if q2 in border:
                    yield (s, ("sR0",), "D") if d == "D" else (s, ("sD0",), "R")

    return ("A", a1.initial), first, _GUESSED_TABLE, ("sR1", "sD1")


def diag_concat_separated(a: Automaton2D, b: Automaton2D) -> Automaton2D:
    """Machine for diagonal concatenations whose factors are separated by
    one boundary-marker row and one boundary-marker column.

    With the separators physically present, the first factor's borders
    are real marker reads: the simulation tracks the direction of the
    last move, and on a marker read that the factor would accept (in a
    state of its border set), the head crosses into the second factor's
    corner: down once and rightward across the filler and the separating
    column after a bottom-border accept, rightward once and downward after
    a right-border accept.  The second factor then runs as-is, since its
    borders coincide with the input's.  Inputs with an empty quadrant die
    on the crossing states, which insist on seeing at least one in-word
    symbol before and after the crossed marker.  Determinism is
    preserved.
    """
    mode = "det" if a.mode == b.mode == "det" else "nondet"
    return _diag_product(a, b, "dsep", mode, _separator_crossings)


#: As above: across the filler and the separator into ``Bs``, after a
#: bottom-border (x) or right-border (y) accept.
_SEPARATOR_TABLE = {"xf": ("x1", "R", None), "x1": ("x1", "R", "Bs"),
                    "yf": ("y1", "D", None), "y1": ("y1", "D", "Bs")}


def _separator_crossings(a1: Automaton2D, border: set[str]):
    def first(state: tuple):
        _, q, last = state
        for s in a1.alphabet.symbols:
            for q2, d in sorted(a1.image(q, s)):
                yield s, ("A", q2, d), d
        if last in ("D", "R") and q in border:
            yield BOUNDARY, ("xf" if last == "D" else "yf",), last

    return ("A", a1.initial, "S"), first, _SEPARATOR_TABLE, ("Bs",)


_X_FAMILY = re.compile(r"thm9-X\((\d+)\)")
#: Largest k for which :func:`thm9_x_family` builds its 4**k words:
#: 4**8 = 65,536, the default cap of ``pictomata concat diag``.
_X_FAMILY_MAX_K = 8


#: The named witness machines, each deterministic over {0,1}: name ->
#: (variant, states with the initial first and ``acc`` last, moves).
#: ``first-row-zeros`` and ``top-left-one`` are the two-way witnesses;
#: ``thm9-A`` and ``thm9-B`` the three-way factors of the diagonal gadget.
_WITNESSES = {
    "first-row-zeros": ("2W", ("q0", "acc"), (("q0", "0", "q0", "R"), ("q0", BOUNDARY, "acc", "R"))),
    "top-left-one": ("2W", ("q0", "acc"), (("q0", "1", "acc", "R"),)),
    "thm9-A": ("3W", ("q0", "q1", "q2", "acc"), (
        ("q0", "0", "q0", "R"),
        ("q0", BOUNDARY, "q1", "L"),
        ("q1", "0", "q2", "D"),
        ("q2", BOUNDARY, "acc", "D"),
    )),
    "thm9-B": ("3W", ("p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "acc"), (
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
    )),
}


def build_witness(name: str):
    """Named witness machines and word families used by the non-closure
    arguments.

    ``first-row-zeros`` and ``top-left-one`` are the two-way witnesses over
    {0,1}; ``thm9-A`` and ``thm9-B`` are the deterministic three-way
    factor machines of the four-row diagonal gadget, all four built from
    ``_WITNESSES``, and ``thm9-X(k)`` is that gadget's word family of
    dimension 4 x 2k.
    """
    if name in _WITNESSES:
        variant, states, moves = _WITNESSES[name]
        return Automaton2D(name, variant, "det", Alphabet(("0", "1")), states, states[0], "acc", make_delta(moves))
    match = _X_FAMILY.fullmatch(name)
    if match:
        # int() refuses a k of more than 4,300 digits; a k with more digits
        # than the cap of words is past that cap, so it is never parsed
        digits, cap = match.group(1).lstrip("0"), 4**_X_FAMILY_MAX_K
        if len(digits) > len(str(cap)):
            raise CapacityError(f"family thm9-X(k) with a k of {len(digits)} digits exceeds the cap of {cap}")
        return thm9_x_family(int(digits or "0"))
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
