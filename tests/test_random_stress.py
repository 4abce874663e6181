"""Seeded randomized cross-checks of every construction against the
split-enumeration oracles.  Machines are drawn with arbitrary partial
transition maps (including marker moves from any state and machines
whose initial state accepts), which covers shapes the hand corpus does
not."""

import random

from corpus import separated_layouts, separated_member
from pictomata import (
    Alphabet,
    Automaton2D,
    ConcatKind,
    DimBounds,
    accepts,
    border_normalize,
    concat_membership,
    diag_concat_nondet_2w,
    diag_concat_separated,
    equivalent_up_to,
    make_delta,
    to_ibr,
    unary_col_concat,
    unary_row_concat,
    validate,
)


def random_machine(rng, name, syms, max_states=3):
    n = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(n)) + ("acc",)
    mode = rng.choice(["det", "nondet"])
    entries = []
    for q in states[:-1]:
        for s in (*syms, "#"):
            fan = rng.randint(0, 1) if mode == "det" else rng.randint(0, 2)
            for _ in range(fan):
                entries.append((q, s, rng.choice(states), rng.choice("DR")))
    return Automaton2D(
        name, "2W", mode, Alphabet(syms), states, rng.choice(states), "acc",
        make_delta(entries),
    )


def test_normal_forms_random():
    rng = random.Random(2024)
    bounds = DimBounds(3, 3)
    for trial in range(60):
        a = random_machine(rng, f"m{trial}", ("0", "1"))
        for conv in (border_normalize(a), to_ibr(a), to_ibr(border_normalize(a))):
            assert validate(conv) == [], (trial, validate(conv))
            assert equivalent_up_to(conv, lambda w: accepts(a, w), bounds) is None, trial


def test_unary_row_concat_random():
    rng = random.Random(12345)
    bounds = DimBounds(5, 5)
    for trial in range(150):
        a = random_machine(rng, f"A{trial}", ("a",), max_states=4)
        b = random_machine(rng, f"B{trial}", ("a",), max_states=4)
        m = unary_row_concat(a, b)
        assert validate(m) == [], trial
        ce = equivalent_up_to(m, lambda w: concat_membership(ConcatKind.ROW, a, b, w), bounds)
        assert ce is None, (trial, ce.word.rows, ce.expected, ce.got)


def test_unary_col_concat_random():
    rng = random.Random(999)
    bounds = DimBounds(5, 5)
    for trial in range(80):
        a = random_machine(rng, f"A{trial}", ("a",))
        b = random_machine(rng, f"B{trial}", ("a",))
        m = unary_col_concat(a, b)
        ce = equivalent_up_to(m, lambda w: concat_membership(ConcatKind.COL, a, b, w), bounds)
        assert ce is None, (trial, ce.word.rows)


def test_diag_concat_random():
    rng = random.Random(777)
    bounds = DimBounds(3, 3)
    for trial in range(120):
        a = random_machine(rng, f"A{trial}", ("0", "1"))
        b = random_machine(rng, f"B{trial}", ("0", "1"))
        m = diag_concat_nondet_2w(a, b)
        assert validate(m) == [], trial
        ce = equivalent_up_to(m, lambda w: concat_membership(ConcatKind.DIAG, a, b, w), bounds)
        assert ce is None, (trial, ce.word.rows, ce.expected, ce.got)


def test_diag_concat_separated_random():
    rng = random.Random(4242)
    for trial in range(40):
        a = random_machine(rng, f"A{trial}", ("0", "1"))
        b = random_machine(rng, f"B{trial}", ("0", "1"))
        c = diag_concat_separated(a, b)
        assert validate(c) == [], trial
        member = separated_member(a, b)
        for p in separated_layouts(4, 4, ("0", "1")):
            assert accepts(c, p) == member(p), (trial, p.rows)
