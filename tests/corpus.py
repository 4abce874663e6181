"""Hand-written machines shared across the test suite."""

from pictomata import Alphabet, Automaton2D, build_witness, make_delta
from pictomata.onedim import TWO_WAY, Automaton1D

AB01 = Alphabet(("0", "1"))
UNARY = Alphabet(("a",))


def _mk(name, states, init, acc, trans, variant="2W", mode="det", ab=AB01):
    return Automaton2D(name, variant, mode, ab, tuple(states), init, acc, make_delta(trans))


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
