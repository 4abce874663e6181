from itertools import product

import pytest

from corpus import boustro3w, corpus_1d, corpus_3w_det, descend3w, drift3w, t9a
from pictomata import (
    Alphabet,
    Departure,
    ModeError,
    PreconditionError,
    ToolkitError,
    downward_departures,
    kapoutsis_bound,
    picture_of,
    row_departure_oracle,
    row_restriction,
    simulate_1d,
    gadget_k,
    two_way_to_one_way,
)
from pictomata.onedim import (
    ONE_WAY,
    TWO_WAY,
    Automaton1D,
    parse_automaton_1d,
    serialize_automaton_1d,
)

AB = Alphabet(("0", "1"))


def strings(max_len):
    for length in range(0, max_len + 1):
        for cells in product("01", repeat=length):
            yield "".join(cells)


def test_simulate_one_way_all_zeros():
    a = Automaton1D(
        "zeros", ONE_WAY, AB, ("q0",), "q0", ("q0",), {("q0", "0"): "q0"}
    )
    assert simulate_1d(a, "000")
    assert not simulate_1d(a, "010")
    assert simulate_1d(a, "")  # empty input: verdict is the initial state's


def test_simulate_two_way_loop_detected():
    bounce = corpus_1d()[1]
    assert not any(simulate_1d(bounce, s) for s in strings(4))


def test_simulate_two_way_empty_string():
    ends_zero = corpus_1d()[0]
    assert not simulate_1d(ends_zero, "")
    even = corpus_1d()[2]
    assert simulate_1d(even, "")


def test_simulate_rejects_foreign_symbols():
    a = corpus_1d()[0]
    with pytest.raises(ToolkitError):
        simulate_1d(a, "02")


def test_downward_departures_sweeper():
    m = boustro3w()
    w = picture_of(["000", "000"])
    deps = downward_departures(m, w, 1)
    assert deps == [Departure(column=4, visited_first=True, visited_last=True)]


def test_downward_departures_immediate_descent():
    deps = downward_departures(descend3w(), picture_of(["000", "000"]), 1)
    assert deps == [Departure(column=1, visited_first=True, visited_last=False)]


def test_downward_departures_drift_misses_edges():
    deps = downward_departures(drift3w(), picture_of(["0000", "0000"]), 2)
    assert len(deps) == 1
    assert not deps[0].visited_last


def test_downward_departures_preconditions():
    with pytest.raises(PreconditionError):
        downward_departures(t9a(), picture_of(["010"]), 1)
    with pytest.raises(ModeError):
        from corpus import _mk

        nd = _mk("nd3", ("q0", "acc"), "q0", "acc", [("q0", "0", "q0", "D")],
                 variant="3W", mode="nondet")
        downward_departures(nd, picture_of(["000"]), 1)


def test_lemma2_bound_on_corpus():
    # every departure whose sojourn touched the first or last row symbol
    # happens within n_states + 1 of a boundary marker
    for m in corpus_3w_det():
        bound = len(m.states) + 1
        for n in range(1, 13):
            for rows in range(1, 4):
                w = picture_of(["0" * n] * rows)
                for i in range(1, rows + 1):
                    for dep in downward_departures(m, w, i):
                        if dep.visited_first or dep.visited_last:
                            dist = min(dep.column, n + 1 - dep.column)
                            assert dist <= bound, (m.name, n, i, dep)


def test_row_restriction_state_bound():
    for m in corpus_3w_det():
        nst = len(m.states)
        for q in m.states:
            for side in ("left", "right"):
                for off in range(1, nst + 2):
                    n1 = row_restriction(m, q, side, off)
                    assert len(n1.states) <= 2 * nst + 3


def test_row_restriction_offset_precondition():
    m = t9a()
    with pytest.raises(PreconditionError):
        row_restriction(m, "q0", "left", len(m.states) + 2)
    with pytest.raises(PreconditionError):
        row_restriction(m, "q0", "left", 0)


def test_row_machine_with_det_fan_out_is_a_toolkit_error():
    from corpus import _mk

    m = _mk("fan3w", ("q0", "acc"), "q0", "acc",
            [("q0", "0", "q0", "R"), ("q0", "0", "acc", "D")], variant="3W")
    with pytest.raises(ToolkitError, match="fan-out"):
        row_departure_oracle(m, "q0", "left", 1, "00")
    with pytest.raises(ToolkitError, match="fan-out"):
        row_restriction(m, "q0", "left", 1)


def test_row_restriction_unconditional_descent():
    m = descend3w()
    n1 = row_restriction(m, "q0", "left", 1)
    assert all(simulate_1d(n1, s) for s in strings(5) if s and set(s) == {"0"})


def test_row_restriction_agrees_with_oracle_short():
    for m in corpus_3w_det():
        nst = len(m.states)
        for q in m.states:
            for side in ("left", "right"):
                for off in range(1, nst + 2):
                    n1 = row_restriction(m, q, side, off)
                    for s in strings(7):
                        if not s:
                            continue
                        assert simulate_1d(n1, s) == row_departure_oracle(m, q, side, off, s), (
                            m.name, q, side, off, s,
                        )


def test_two_way_to_one_way_agreement():
    for m in corpus_1d():
        ow = two_way_to_one_way(m)
        assert ow.kind == ONE_WAY
        for s in strings(8):
            assert simulate_1d(ow, s) == simulate_1d(m, s), (m.name, s)


def test_two_way_to_one_way_empty_language():
    empty = Automaton1D("never", TWO_WAY, AB, ("q0", "acc"), "q0", ("acc",), {})
    ow = two_way_to_one_way(empty)
    assert not any(simulate_1d(ow, s) for s in strings(5))


def test_two_way_to_one_way_right_mover():
    right_only = corpus_1d()[3]
    ow = two_way_to_one_way(right_only)
    assert all(simulate_1d(ow, s) for s in strings(5))


def test_kapoutsis_values():
    assert kapoutsis_bound(1).h == 1
    assert kapoutsis_bound(2).h == 6
    assert kapoutsis_bound(3).h == 57
    assert gadget_k(1) == 10506
    with pytest.raises(PreconditionError):
        kapoutsis_bound(0)


def test_bound_growth():
    values = [kapoutsis_bound(n).h for n in range(1, 8)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(kapoutsis_bound(n).h >= n for n in range(1, 8))


def test_1d_serialization_round_trip():
    for m in corpus_1d():
        assert parse_automaton_1d(serialize_automaton_1d(m)) == m
    never = Automaton1D("never", TWO_WAY, AB, ("q0", "acc"), "q0", ("acc",), {})
    for ow in (two_way_to_one_way(corpus_1d()[0]), two_way_to_one_way(never)):
        assert parse_automaton_1d(serialize_automaton_1d(ow)) == ow
