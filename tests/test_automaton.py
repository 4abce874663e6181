import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from corpus import AB01, UNARY, corpus_2w, first_row_zeros, top_left_one, u_all_rows, u_one_row
from pictomata import (
    Automaton2D,
    ConcatKind,
    DimBounds,
    ToolkitError,
    VariantError,
    accepts,
    concat_membership,
    enumerate_pictures,
    make_delta,
    parse_automaton,
    picture_of,
    refute,
    serialize_automaton,
    transpose,
    transpose_automaton,
    unary_col_concat,
    validate,
)
from pictomata.oracle import check_same_symbols


def test_validate_illegal_direction_for_variant():
    a = Automaton2D(
        "bad2w", "2W", "det", AB01, ("q0", "acc"), "q0", "acc",
        make_delta([("q0", "0", "q0", "L")]),
    )
    assert any("illegal direction" in v for v in validate(a))


def test_validate_det_fanout():
    a = Automaton2D(
        "fan", "2W", "det", AB01, ("q0", "acc"), "q0", "acc",
        make_delta([("q0", "0", "q0", "R"), ("q0", "0", "acc", "D")]),
    )
    assert any("fan-out" in v for v in validate(a))


def test_validate_accept_source_and_unknowns():
    a = Automaton2D(
        "bad", "2W", "det", AB01, ("q0", "acc"), "q0", "acc",
        make_delta([("acc", "0", "q0", "R"), ("q0", "2", "ghost", "R")]),
    )
    msgs = validate(a)
    assert any("accepting state" in v for v in msgs)
    assert any("unknown symbol" in v for v in msgs)
    assert any("unknown target state" in v for v in msgs)


def test_validate_reports_an_empty_image():
    # the file format cannot express one, so a machine built in code is the only source
    a = Automaton2D("e", "2W", "det", AB01, ("q0", "acc"), "q0", "acc", {("q0", "0"): frozenset()})
    assert validate(a) == ["empty image at (q0,'0')"]


_SHAPED = {("q0", "0"): frozenset({("q0", "R")}), ("q0", "#"): frozenset({("acc", "R")})}


@pytest.mark.parametrize(
    "entries, problems",
    [
        ({("q0", "0", "x"): frozenset({("q0", "R")})}, ["malformed transition key ('q0', '0', 'x')"]),
        ({("q0", "1"): frozenset({("acc", "R", "x")})}, ["malformed move ('acc', 'R', 'x') at (q0,'1')"]),
        ({(1, "1"): frozenset({("acc", "R")})}, ["malformed transition key (1, '1')"]),
        ({("q0", "1"): None}, ["malformed image None at (q0,'1')"]),
        (
            {("zz", "1"): frozenset({("acc", "R", "x"), ("acc", "R")}), ("q0", "1"): frozenset({("q9", "R")})},
            ["unknown target state 'q9' at (q0,'1')", "malformed move ('acc', 'R', 'x') at (zz,'1')"],
        ),
    ],
    ids=["long-key", "long-move", "int-state", "no-image", "after-the-shaped-entries"],
)
def test_validate_names_a_malformed_entry_and_accepts_refuses_it(entries, problems):
    # a machine built in code may hold entries of the wrong shape, which
    # the sort and the unpacking of validate cannot take: each is a
    # problem, never a ValueError or TypeError out of validate or accepts
    a = Automaton2D("m", "2W", "nondet", AB01, ("q0", "acc"), "q0", "acc", {**_SHAPED, **entries})
    assert validate(a) == problems
    with pytest.raises(ToolkitError) as got:
        accepts(a, picture_of(["0"]))
    assert str(got.value) == "invalid automaton 'm': " + "; ".join(problems)


def test_a_machine_whose_alphabet_is_not_an_alphabet_is_refused():
    # a machine built in code with a plain tuple of symbols: validate
    # reports it, and the compiled tables raise on it
    a = dataclasses.replace(first_row_zeros(), alphabet=("0", "1"))
    assert validate(a) == ["alphabet ('0', '1') is not an Alphabet"]
    with pytest.raises(ToolkitError) as got:
        accepts(a, picture_of(["0"]))
    assert type(got.value) is ToolkitError
    assert str(got.value) == "invalid automaton 'first-row-zeros': alphabet ('0', '1') is not an Alphabet"


_TUPLED = dataclasses.replace(first_row_zeros(), alphabet=("0", "1"))
_NOT_AN_ALPHABET = "'first-row-zeros': alphabet ('0', '1') is not an Alphabet"
_INVALID_TUPLED = "invalid automaton " + _NOT_AN_ALPHABET


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: serialize_automaton(_TUPLED), "cannot write automaton " + _NOT_AN_ALPHABET),
        (lambda: concat_membership(ConcatKind.ROW, _TUPLED, top_left_one(), picture_of(["0"])), _INVALID_TUPLED),
        (lambda: concat_membership(ConcatKind.COL, top_left_one(), _TUPLED, picture_of(["0"])), _INVALID_TUPLED),
        (lambda: refute(top_left_one(), ConcatKind.ROW, _TUPLED, top_left_one(), DimBounds(1, 1)), _INVALID_TUPLED),
        (lambda: check_same_symbols(_TUPLED, top_left_one()), _INVALID_TUPLED),
        (lambda: check_same_symbols(top_left_one(), _TUPLED), _INVALID_TUPLED),
    ],
    ids=["serialize_automaton", "concat_membership-a", "concat_membership-b", "refute", "check_same_symbols-candidate",
         "check_same_symbols-target"],
)
def test_a_tuple_alphabet_is_named_where_its_symbols_are_read(call, message):
    # these read alphabet.symbols before any check of the machine runs;
    # each names the alphabet, as validate does, never an AttributeError
    with pytest.raises(ToolkitError) as got:
        call()
    assert type(got.value) is ToolkitError
    assert str(got.value) == message


def test_witness_is_well_formed():
    assert validate(first_row_zeros()) == []


def test_corpus_is_well_formed():
    for a in corpus_2w():
        assert validate(a) == [], (a.name, validate(a))


def test_transpose_requires_two_or_four_way():
    a = Automaton2D("t3", "3W", "det", AB01, ("q0", "acc"), "q0", "acc", {})
    with pytest.raises(VariantError):
        transpose_automaton(a)


def test_transpose_involution():
    for a in corpus_2w():
        assert transpose_automaton(transpose_automaton(a)) == a


def test_transpose_of_one_row_accepts_one_column():
    rows1 = u_all_rows()
    # accepts every unary word at the bottom border; transpose accepts
    # every unary word at the right border: same language
    cols1 = transpose_automaton(rows1)
    for w in enumerate_pictures(UNARY, DimBounds(4, 4)):
        assert accepts(cols1, w) == accepts(rows1, transpose(w))


def test_transpose_duality_exhaustive():
    bounds = DimBounds(3, 3)
    for a in corpus_2w():
        at = transpose_automaton(a)
        for w in enumerate_pictures(a.alphabet, bounds):
            assert accepts(a, w) == accepts(at, transpose(w)), (a.name, w.rows)


def test_machines_are_immutable():
    a = top_left_one()
    zero = picture_of(["0"])
    assert not accepts(a, zero)  # compiles and caches the tables
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.delta = make_delta([("q0", "0", "acc", "R")])
    with pytest.raises(TypeError):
        a.delta[("q0", "0")] = frozenset({("acc", "R")})
    # A variant is a new machine with its own tables; the original keeps its answer.
    b = dataclasses.replace(a, delta=make_delta([("q0", "0", "acc", "R")]))
    assert accepts(b, zero) and not accepts(a, zero)
    # The constructor copies the mapping it is given.
    entries = make_delta([("q0", "1", "acc", "R")])
    c = Automaton2D("c", "2W", "det", AB01, ("q0", "acc"), "q0", "acc", entries)
    entries[("q0", "0")] = frozenset({("acc", "R")})
    assert not accepts(c, zero)

    x, y = u_one_row(), u_all_rows()
    before = (serialize_automaton(x), serialize_automaton(y))
    col = unary_col_concat(x, y)
    assert col.name == "u_one_row_col_u_all_rows"
    assert (serialize_automaton(x), serialize_automaton(y)) == before
    assert (x, y) == (u_one_row(), u_all_rows())


def test_serialize_parse_round_trip_corpus():
    for a in corpus_2w():
        assert parse_automaton(serialize_automaton(a)) == a


def test_parse_accumulates_duplicate_lines():
    text = """automaton nd
variant 2W
mode nondet
alphabet 0 1
states q0 acc
initial q0
accept acc
q0 0 -> q0 R
q0 0 -> acc D ; fan out
"""
    a = parse_automaton(text)
    assert a.image("q0", "0") == frozenset({("q0", "R"), ("acc", "D")})
    assert validate(a) == []


@st.composite
def random_automata(draw):
    n_states = draw(st.integers(2, 4))
    states = tuple(f"s{i}" for i in range(n_states))
    syms = draw(st.sampled_from([("a",), ("0", "1")]))
    mode = draw(st.sampled_from(["det", "nondet"]))
    variant = draw(st.sampled_from(["2W", "3W", "4W"]))
    dirs = sorted({"2W": ["D", "R"], "3W": ["D", "L", "R"], "4W": ["U", "D", "L", "R"]}[variant])
    entries = []
    for q in states[:-1]:
        for sym in (*syms, "#"):
            fan = draw(st.integers(0, 1 if mode == "det" else 2))
            for _ in range(fan):
                entries.append((q, sym, draw(st.sampled_from(states)), draw(st.sampled_from(dirs))))
    from pictomata import Alphabet

    return Automaton2D(
        draw(st.sampled_from(["m1", "m2"])), variant, mode, Alphabet(syms),
        states, states[0], states[-1], make_delta(entries),
    )


@given(random_automata())
@settings(max_examples=60)
def test_round_trip_random(a):
    assert parse_automaton(serialize_automaton(a)) == a
