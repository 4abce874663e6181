"""Hand-written machines shared across the test suite."""

from itertools import product

from pictomata import (
    BOUNDARY,
    Alphabet,
    Automaton2D,
    Configuration,
    DimensionError,
    Picture,
    Position,
    RunTrace,
    accepts,
    build_witness,
    make_delta,
    split_separated,
)
from pictomata.onedim import TWO_WAY, Automaton1D
from pictomata.picture import _trusted_picture
from pictomata.simulate import _step, _to_config, _to_triple, check_input

AB01 = Alphabet(("0", "1"))
UNARY = Alphabet(("a",))


def _mk(name, states, init, acc, trans, variant="2W", mode="det", ab=AB01):
    return Automaton2D(name, variant, mode, ab, tuple(states), init, acc, make_delta(trans))


def successors(a: Automaton2D, w: Picture, c: Configuration) -> set[Configuration]:
    """One-step successors under the partial transition map.

    The accepting state is terminal, and an undefined entry contributes
    nothing, so the result may be empty.
    """
    comp = a.compiled
    check_input(a, w)
    if c.state == a.accept:
        return set()
    return {_to_config(comp, t) for t in _step(comp, w.rows, -1, -1, w.m, w.n, *_to_triple(comp, c))}


def visited_cells(trace: RunTrace, w: Picture) -> set[Position]:
    """In-bounds positions of ``w`` occurring in a trace.

    Frame positions and the escape sink are excluded; a bare position list
    cannot tell a frame cell from a word cell, hence the picture argument.
    """
    return {
        c.loc
        for c in trace
        if c.loc is not None and 1 <= c.loc[0] <= w.m and 1 <= c.loc[1] <= w.n
    }


def is_ibr(a: Automaton2D) -> bool:
    """Structural check: every boundary read goes straight to accept."""
    return all(
        image <= {(a.accept, "D"), (a.accept, "R")}
        for (q, sym), image in a.delta.items()
        if sym == BOUNDARY
    )


def build_separated(w: Picture, v: Picture, fill_tr: Picture, fill_bl: Picture) -> Picture:
    """Assemble the separated diagonal layout with explicit filler blocks."""
    if fill_tr.m != w.m or fill_tr.n != v.n or fill_bl.m != v.m or fill_bl.n != w.n:
        raise DimensionError("filler blocks must match the factor dimensions")
    rows = [w.rows[i] + "#" + fill_tr.rows[i] for i in range(w.m)]
    rows.append("#" * (w.n + 1 + v.n))
    rows += [fill_bl.rows[i] + "#" + v.rows[i] for i in range(v.m)]
    return Picture(tuple(rows), allow_hash=True)


def first_row_zeros():
    return build_witness("first-row-zeros")


def top_left_one():
    return build_witness("top-left-one")


def universal01():
    # initial = accept: accepts every word instantly
    return _mk("universal01", ("q0",), "q0", "q0", [])


def one_row01():
    return _mk(
        "one_row01", ("q0", "q1", "acc"), "q0", "acc",
        [("q0", "0", "q1", "D"), ("q0", "1", "q1", "D"), ("q1", "#", "acc", "D")],
    )


def two_hash01():
    # needs two boundary reads before accepting; language is everything
    return _mk(
        "two_hash01", ("q0", "q1", "acc"), "q0", "acc",
        [("q0", "0", "q0", "R"), ("q0", "1", "q0", "R"),
         ("q0", "#", "q1", "D"), ("q1", "#", "acc", "D")],
    )


def spray01():
    return _mk(
        "spray01", ("q0", "q1", "acc"), "q0", "acc",
        [("q0", "0", "q0", "D"), ("q0", "0", "q0", "R"),
         ("q0", "1", "q1", "R"), ("q1", "1", "q1", "R"), ("q1", "#", "acc", "R")],
        mode="nondet",
    )


def zero_columns01():
    # walks row 1 and drops into every 0 column; a column of 0s from the
    # top that meets a 1 accepts.  The row transfer's state is the set of
    # such columns, so a width-n sweep meets 2**n of them.
    return _mk(
        "zero_columns01", ("q0", "q1", "acc"), "q0", "acc",
        [("q0", "0", "q0", "R"), ("q0", "0", "q1", "D"), ("q0", "1", "q0", "R"),
         ("q1", "0", "q1", "D"), ("q1", "1", "acc", "R")],
        mode="nondet",
    )


def staircase01():
    return _mk(
        "staircase01", ("q0", "q1", "acc"), "q0", "acc",
        [("q0", "0", "q1", "D"), ("q1", "0", "q0", "R"), ("q1", "#", "acc", "D")],
    )


def loopy01():
    # loops forever in the escape region: empty language
    return _mk("loopy01", ("q0", "acc"), "q0", "acc",
               [("q0", "0", "q0", "D"), ("q0", "#", "q0", "D")])


def rowzeros_tall01():
    # first row all zeros, at least superficially checks nothing below
    return _mk(
        "rowzeros_tall01", ("q0", "q1", "acc"), "q0", "acc",
        [("q0", "0", "q0", "R"), ("q0", "#", "q1", "D"), ("q1", "#", "acc", "D")],
    )


def u_one_row():
    return _mk("u_one_row", ("q0", "q1", "acc"), "q0", "acc",
               [("q0", "a", "q1", "D"), ("q1", "#", "acc", "D")], ab=UNARY)


def u_all_rows():
    return _mk("u_all_rows", ("q0", "acc"), "q0", "acc",
               [("q0", "a", "q0", "D"), ("q0", "#", "acc", "D")], ab=UNARY)


def u_all_right():
    return _mk("u_all_right", ("q0", "acc"), "q0", "acc",
               [("q0", "a", "q0", "R"), ("q0", "#", "acc", "R")], ab=UNARY)


def u_bottom_col2():
    # accepts any word with >= 2 columns, always at the bottom of column 2
    return _mk("u_bottom_col2", ("q0", "q1", "acc"), "q0", "acc",
               [("q0", "a", "q1", "R"), ("q1", "a", "q1", "D"), ("q1", "#", "acc", "D")],
               ab=UNARY)


def u_choose():
    return _mk("u_choose", ("q0", "acc"), "q0", "acc",
               [("q0", "a", "q0", "D"), ("q0", "a", "q0", "R"), ("q0", "#", "acc", "D")],
               ab=UNARY, mode="nondet")


def corpus_2w():
    """General two-way corpus: det and nondet, unary and binary."""
    return [
        first_row_zeros(), top_left_one(), universal01(), one_row01(),
        two_hash01(), spray01(), staircase01(), loopy01(), rowzeros_tall01(),
        u_one_row(), u_all_rows(), u_all_right(), u_bottom_col2(), u_choose(),
    ]


def corpus_2w_det():
    return [a for a in corpus_2w() if a.mode == "det"]


def unary_pairs():
    """Row-concatenation pairs chosen so every run-shape case fires."""
    return [
        (u_all_rows(), u_all_right()),   # first factor ends at the bottom, second at the right
        (u_all_right(), u_one_row()),    # first at the right, second at the bottom
        (u_bottom_col2(), u_all_rows()), # both at the bottom, second ends in an earlier column
        (u_all_rows(), u_all_rows()),    # both at the bottom, second at the same column or later
        (u_all_right(), u_all_right()),  # both at the right
        (u_one_row(), u_one_row()),
        (u_one_row(), u_all_rows()),
        (u_choose(), u_one_row()),
    ]


def diag_pairs():
    return [
        (top_left_one(), top_left_one()),
        (first_row_zeros(), top_left_one()),
        (universal01(), top_left_one()),
        (one_row01(), spray01()),
    ]


def separated_pairs():
    return [
        (top_left_one(), top_left_one()),
        (first_row_zeros(), one_row01()),
    ]


def separated_layouts(max_m, max_n, syms):
    """Every picture within bounds whose markers form one full row plus
    one full column (separator positions range over the whole band, so
    degenerate layouts with an empty quadrant are included).

    Order: by rows m, columns n, separator row sr, separator column sc,
    then the free cells (all but row sr and column sc) in row-major order
    as ``itertools.product`` over ``syms`` counts them.

    The layouts skip ``Picture``'s checks: their rows are nonempty, of
    one length, and hold only ``#`` and ``syms`` (single printable
    characters), so each equals ``Picture(rows, allow_hash=True)``.
    """
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            bar, w = "#" * n, n - 1
            starts = [k * w for k in range(m - 1)]  # where each non-separator row begins in the fill
            for sr in range(1, m + 1):
                for sc in range(1, n + 1):
                    for fill in product(syms, repeat=(m - 1) * w):
                        s = "".join(fill)
                        rows = [s[i : i + sc - 1] + "#" + s[i + sc - 1 : i + w] for i in starts]
                        rows.insert(sr - 1, bar)
                        yield _trusted_picture(tuple(rows), allow_hash=True)


def separated_member(a, b):
    """Layout oracle for the separated diagonal product of a and b.

    The returned predicate splits a layout with ``split_separated`` and
    runs a on the top-left and b on the bottom-right quadrant; malformed
    layouts are not members.  Verdicts are cached per quadrant.
    """
    cache = {}

    def member(p):
        parts = split_separated(p)
        if parts is None:
            return False
        _, _, tl, br = parts
        ka, kb = ("A", tl.rows), ("B", br.rows)
        if ka not in cache:
            cache[ka] = accepts(a, tl)
        if kb not in cache:
            cache[kb] = accepts(b, br)
        return cache[ka] and cache[kb]

    return member


def t9a():
    return build_witness("thm9-A")


def t9b():
    return build_witness("thm9-B")


def descend3w():
    return _mk("descend3w", ("q0", "acc"), "q0", "acc",
               [("q0", "0", "q0", "D")], variant="3W")


def drift3w():
    return _mk("drift3w", ("q0", "q1", "acc"), "q0", "acc",
               [("q0", "0", "q1", "R"), ("q1", "0", "q0", "D")], variant="3W")


def boustro3w():
    return _mk(
        "boustro3w", ("r", "l", "acc"), "r", "acc",
        [("r", "0", "r", "R"), ("r", "1", "r", "R"), ("r", "#", "l", "D"),
         ("l", "0", "l", "L"), ("l", "1", "l", "L"), ("l", "#", "r", "D")],
        variant="3W",
    )


def corpus_3w_det():
    """Deterministic three-way corpus, four states at most."""
    return [t9a(), descend3w(), drift3w(), boustro3w()]


def left_probe3w():
    # steps left off the first cell, where only '#' lets it accept
    return _mk("left_probe3w", ("q0", "q1", "acc"), "q0", "acc",
               [("q0", "0", "q1", "L"), ("q0", "1", "q1", "L"), ("q1", "#", "acc", "D")],
               variant="3W")


def right_return3w():
    # walks right off the word, steps back across the frame and accepts on
    # a '1' in the last column: a head on a band padded with '#' can, but
    # the escape sink never lets it back, so the toolkit rejects "1"
    return _mk("right_return3w", ("q0", "p", "s", "t", "acc"), "q0", "acc",
               [("q0", "0", "q0", "R"), ("q0", "1", "q0", "R"), ("q0", "#", "p", "R"),
                ("p", "#", "s", "L"), ("s", "#", "t", "L"), ("t", "1", "acc", "D")],
               variant="3W")


def up_left_probe4w():
    # steps up off the first cell, then left into the corner; accepts only
    # if both reads are '#'
    return _mk("up_left_probe4w", ("q0", "q1", "q2", "acc"), "q0", "acc",
               [("q0", "0", "q1", "U"), ("q0", "1", "q1", "U"),
                ("q1", "#", "q2", "L"), ("q2", "#", "acc", "D")],
               variant="4W")


def wander4w():
    # nondeterministic walk in every direction; accepts on reading a '1'
    # just after moving up or left
    return _mk("wander4w", ("q0", "q1", "acc"), "q0", "acc",
               [("q0", s, "q0", d) for s in "0#" for d in "DR"]
               + [("q0", s, "q1", d) for s in "01#" for d in "UL"]
               + [("q1", "0", "q0", "D"), ("q1", "#", "q0", "R"), ("q1", "1", "acc", "D")],
               variant="4W", mode="nondet")


def corpus_edge_walkers():
    """Three-way and four-way machines whose heads step off the word
    upward and leftward."""
    return [left_probe3w(), up_left_probe4w(), wander4w()]


def random_2d(rng, variant, mode):
    """A random machine over {0,1} with three working states, drawn from ``rng``."""
    dirs = {"2W": "DR", "3W": "DLR", "4W": "DLRU"}[variant]
    states = ("q0", "q1", "q2", "acc")
    entries = []
    for q in states[:-1]:
        for sym in "01#":
            if rng.random() < 0.7:
                for _ in range(2 if mode == "nondet" and rng.random() < 0.4 else 1):
                    entries.append((q, sym, rng.choice(states), rng.choice(dirs)))
    return _mk(f"r{variant}{mode}", states, "q0", "acc", entries, variant, mode)


def corpus_1d():
    """Deterministic two-way string machines, three states at most."""
    ends_zero = Automaton1D(
        "ends_zero", TWO_WAY, AB01, ("q0", "q1", "acc"), "q0", ("acc",),
        {("q0", "0"): ("q0", "R"), ("q0", "1"): ("q0", "R"),
         ("q0", "#"): ("q1", "L"), ("q1", "0"): ("acc", "R")},
    )
    bounce = Automaton1D(
        "bounce", TWO_WAY, AB01, ("r", "l", "acc"), "r", ("acc",),
        {("r", "0"): ("r", "R"), ("r", "1"): ("r", "R"), ("r", "#"): ("l", "L"),
         ("l", "0"): ("l", "L"), ("l", "1"): ("l", "L"), ("l", "#"): ("r", "R")},
    )
    even_len = Automaton1D(
        "even_len", TWO_WAY, AB01, ("e", "o", "acc"), "e", ("acc",),
        {("e", "0"): ("o", "R"), ("e", "1"): ("o", "R"),
         ("o", "0"): ("e", "R"), ("o", "1"): ("e", "R"), ("e", "#"): ("acc", "R")},
    )
    right_only = Automaton1D(
        "right_only", TWO_WAY, AB01, ("q0", "acc"), "q0", ("acc",),
        {("q0", "0"): ("q0", "R"), ("q0", "1"): ("q0", "R"), ("q0", "#"): ("acc", "R")},
    )
    return [ends_zero, bounce, even_len, right_only]
