import dataclasses
import hashlib
import io
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    _mk, boustro3w, corpus_1d, corpus_3w_det, descend3w, drift3w, first_row_zeros, left_probe3w, random_2d, t9a,
)
from pictomata import (
    Alphabet,
    AlphabetError,
    Departure,
    ModeError,
    PreconditionError,
    ToolkitError,
    VariantError,
    downward_departures,
    kapoutsis_bound,
    picture_of,
    row_departure_oracle,
    row_restriction,
    run_deterministic,
    simulate_1d,
    gadget_k,
    two_way_to_one_way,
)
from pictomata.cli import dispatch
from pictomata.onedim import (
    ONE_WAY,
    TWO_WAY,
    Automaton1D,
    _check_row_machine,
    _entry_column,
    parse_automaton_1d,
    serialize_automaton_1d,
)
from pictomata.picture import BOUNDARY

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


def test_simulate_1d_raises_an_alphabet_error_on_a_foreign_symbol():
    # as its siblings do for the same fault: row_departure_oracle,
    # check_input and concat_membership; '#' is the frame's, never the
    # string's
    two_way = corpus_1d()[0]
    for a in (two_way, two_way_to_one_way(two_way)):
        for s, foreign in (("02", ["2"]), ("0#", ["#"]), ("a0b", ["a", "b"])):
            with pytest.raises(ToolkitError) as got:
                simulate_1d(a, s)
            assert type(got.value) is AlphabetError, (a.kind, s)
            assert str(got.value) == f"string uses symbols {foreign} outside the alphabet"


def test_simulate_1d_refuses_a_machine_whose_alphabet_is_not_an_alphabet():
    # a machine built in code with a plain tuple of symbols, of either kind
    two_way = corpus_1d()[0]
    for a in (two_way, two_way_to_one_way(two_way)):
        b = dataclasses.replace(a, alphabet=("0", "1"))
        with pytest.raises(ToolkitError) as got:
            simulate_1d(b, "01")
        assert type(got.value) is ToolkitError, a.kind
        assert str(got.value) == f"invalid 1D automaton {a.name!r}: alphabet ('0', '1') is not an Alphabet"


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


def _reference_departures(m2, w, i):
    """Every move of the run from row i to row i+1, each with the columns
    of the stretch of row-i configurations before it, found by scanning
    back from the move."""
    trace = run_deterministic(m2, w).trace
    out = []
    for idx in range(1, len(trace)):
        prev, cur = trace[idx - 1], trace[idx]
        if prev.loc is None or cur.loc is None:
            continue
        if prev.loc[0] == i and cur.loc[0] == i + 1:
            start = idx - 1
            while start > 0 and trace[start - 1].loc is not None and trace[start - 1].loc[0] == i:
                start -= 1
            cols = {trace[j].loc[1] for j in range(start, idx)}
            out.append(Departure(prev.loc[1], 1 in cols, w.n in cols))
    return out


def test_downward_departures_equal_the_backward_scan_on_random_machines():
    # a 3W run leaves a row downward at most once, so the one forward pass
    # finds what the scan back from every move into row i+1 finds
    rng = random.Random(2020)
    departed = 0
    for _ in range(600):
        m2 = random_2d(rng, "3W", "det")
        for _ in range(4):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            i = rng.randint(1, m)
            rows = ["".join(rng.choice("01") for _ in range(n)) for _ in range(m)]
            rows[i - 1] = "0" * n
            w = picture_of(rows)
            got = downward_departures(m2, w, i)
            assert got == _reference_departures(m2, w, i), (m2.delta, rows, i)
            assert len(got) <= 1
            departed += len(got)
    assert departed > 200  # the machines do leave rows


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


def test_the_row_oracle_and_the_row_machine_refuse_a_symbol_outside_the_alphabet():
    # '#' included: the frame around a row is the oracle's, never the row's
    for m in corpus_3w_det():
        for q in m.states:
            for side in ("left", "right"):
                for off in range(1, len(m.states) + 2):
                    n1 = row_restriction(m, q, side, off)
                    for row in ("#", "01#", "2", "0120"):
                        foreign = sorted(set(row) - set(m.alphabet.symbols))
                        with pytest.raises(AlphabetError) as got:
                            row_departure_oracle(m, q, side, off, row)
                        assert str(got.value) == f"row uses symbols {foreign} outside the alphabet"
                        with pytest.raises(ToolkitError, match="outside the alphabet"):
                            simulate_1d(n1, row)


def _entries(m2):
    """Every (entry state, side, offset) a row restriction of m2 takes."""
    return [
        (q, side, off) for q in m2.states for side in ("left", "right") for off in range(1, len(m2.states) + 2)
    ]


def _random_row_machines(count):
    rng = random.Random(31)
    return [random_2d(rng, "3W", "det") for _ in range(count)]


def _on_a_path(a: Automaton1D) -> set:
    """The states of a two-way machine that lie on some path of its
    transition graph from the initial state to the accepting one."""
    reached, todo = {a.initial}, [a.initial]
    while todo:
        q = todo.pop()
        for (src, _), (dst, _) in a.delta.items():
            if src == q and dst not in reached:
                reached.add(dst)
                todo.append(dst)
    reaching, todo = {a.accept}, [a.accept]
    while todo:
        q = todo.pop()
        for (src, _), (dst, _) in a.delta.items():
            if dst == q and src not in reaching:
                reaching.add(src)
                todo.append(src)
    return reached & reaching


def test_row_restrictions_keep_only_the_states_on_a_path_to_down():
    # a state that no path from the initial state to `down` crosses is
    # dropped with its transitions; a restriction whose initial state has
    # no such path is that state and `down` alone
    trivial = 0
    for m2 in (*corpus_3w_det(), left_probe3w(), *_random_row_machines(300)):
        for q, side, off in _entries(m2):
            n1 = row_restriction(m2, q, side, off)
            assert len(n1.states) <= 2 * len(m2.states) + 3
            on_path = _on_a_path(n1)
            if n1.initial in on_path:
                ends = {end for (src, _), (dst, _) in n1.delta.items() for end in (src, dst)}
                assert set(n1.states) == on_path >= ends, (m2.delta, q, side, off)
            else:
                assert (n1.states, dict(n1.delta)) == ((n1.initial, "down"), {}), (m2.delta, q, side, off)
                trivial += 1
    assert trivial  # the walk sees restrictions that accept nothing


@pytest.mark.slow
def test_row_restriction_agrees_with_oracle_on_random_machines():
    # the corpus is checked by criterion 09 and the test above; these
    # machines give the trim states off every path to drop
    rows = [s for s in strings(7) if s]
    for m2 in _random_row_machines(300):
        for q, side, off in _entries(m2):
            n1 = row_restriction(m2, q, side, off)
            got = [simulate_1d(n1, row) for row in rows]
            assert got == [row_departure_oracle(m2, q, side, off, row) for row in rows], (m2.delta, q, side, off)


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
    assert kapoutsis_bound(1) == 1
    assert kapoutsis_bound(2) == 6
    assert kapoutsis_bound(3) == 57
    assert type(kapoutsis_bound(3)) is int
    assert gadget_k(1) == 10506
    with pytest.raises(PreconditionError):
        kapoutsis_bound(0)


def test_bound_growth():
    values = [kapoutsis_bound(n) for n in range(1, 8)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(kapoutsis_bound(n) >= n for n in range(1, 8))


def test_1d_serialization_round_trip():
    for m in corpus_1d():
        assert parse_automaton_1d(serialize_automaton_1d(m)) == m
    never = Automaton1D("never", TWO_WAY, AB, ("q0", "acc"), "q0", ("acc",), {})
    for ow in (two_way_to_one_way(corpus_1d()[0]), two_way_to_one_way(never)):
        assert parse_automaton_1d(serialize_automaton_1d(ow)) == ow


def _digests(inputs) -> dict[str, str]:
    """sha256 of each builder's written machines over its calls, by name."""
    out = {}
    for build, calls in inputs.items():
        digest = hashlib.sha256()
        for args in calls:
            digest.update(serialize_automaton_1d(build(*args)).encode())
        out[build.__name__] = digest.hexdigest()
    return out


def _random_1d(rng):
    """A random two-way string machine over {0,1} with 2-4 states, the last one accepting."""
    names = (*(f"s{i}" for i in range(rng.randint(1, 3))), "acc")
    delta = {
        (q, sym): (rng.choice(names), rng.choice("LR"))
        for q in names[:-1]
        for sym in ("0", "1", BOUNDARY)
        if rng.random() < 0.85
    }
    return Automaton1D("r1d", TWO_WAY, AB, names, "s0", ("acc",), delta)


#: sha256 of the written 1D machines, as in the construction digests of
#: tests/test_constructions.py: a change that means to alter a
#: construction's output updates its digest and says why in CHANGES.md.
#: The row restriction's were recorded when it came to keep only the
#: states on a path to `down`; the conversion's equal those of the code
#: before that change, which left the conversion alone.
_ONEDIM_DIGESTS = {
    "row_restriction": "e03130b7e9d0dd020015958c411cf07d3fdd5b55777472f1bfa7646b53a13a19",
    "two_way_to_one_way": "b3a785df3eaf398431a6132faafa1d67bb271e689a66144d028858c968d57df6",
}

_ONEDIM_RANDOM_DIGESTS = {
    "row_restriction": "c1d99618b471b272f0ad5481b425e3898a9813af6b3a0cea6649bc64632c6dea",
    "two_way_to_one_way": "6e398248fb3356aa8ef02b2c57d14f1c9b5af0f1a39ad9cb382ac5ffdee91cc6",
}


def test_onedim_output_bytes_match_recorded_digests():
    inputs = {
        row_restriction: [(m2, *entry) for m2 in (*corpus_3w_det(), left_probe3w()) for entry in _entries(m2)],
        two_way_to_one_way: [(m,) for m in corpus_1d()],
    }
    assert _digests(inputs) == _ONEDIM_DIGESTS


def test_onedim_output_bytes_on_random_machines_match_recorded_digests():
    rng = random.Random(37)
    inputs = {
        row_restriction: [(m2, *entry) for m2 in _random_row_machines(100) for entry in _entries(m2)],
        two_way_to_one_way: [(_random_1d(rng),) for _ in range(300)],
    }
    assert _digests(inputs) == _ONEDIM_RANDOM_DIGESTS


def test_1d_machines_are_immutable():
    a = corpus_1d()[0]  # ends_zero
    assert not simulate_1d(a, "01")  # compiles and caches the tables
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.delta = {}
    with pytest.raises(TypeError):
        a.delta[("q1", "1")] = ("acc", "R")
    # A variant is a new machine with its own tables; the original keeps its answer.
    b = dataclasses.replace(a, delta={**a.delta, ("q1", "1"): ("acc", "R")})
    assert simulate_1d(b, "01") and not simulate_1d(a, "01")
    # The constructor copies the mapping it is given.
    entries = dict(a.delta)
    c = Automaton1D("c", TWO_WAY, AB, a.states, a.initial, a.accept_states, entries)
    entries[("q1", "1")] = ("acc", "R")
    assert not simulate_1d(c, "01")
    assert c == dataclasses.replace(a, name="c")


MALFORMED = [
    Automaton1D("no_accept", TWO_WAY, AB, ("q0",), "q0", (), {("q0", "0"): ("q0", "R")}),
    Automaton1D("undeclared_target", TWO_WAY, AB, ("q0", "acc"), "q0", ("acc",), {("q0", "0"): ("zz", "R")}),
    Automaton1D("down_move", TWO_WAY, AB, ("q0", "acc"), "q0", ("acc",), {("q0", "0"): ("q0", "D")}),
    Automaton1D("duplicate_states", TWO_WAY, AB, ("q0", "q0", "acc"), "q0", ("acc",), {}),
    Automaton1D("one_way_undeclared", ONE_WAY, AB, ("q0",), "q0", ("q0",), {("q0", "0"): "zz"}),
]


@pytest.mark.parametrize("a", MALFORMED, ids=lambda a: a.name)
def test_malformed_machines_built_in_code_raise_toolkit_errors(a):
    with pytest.raises(ToolkitError, match="invalid 1D automaton"):
        simulate_1d(a, "0")
    if a.kind == TWO_WAY:
        with pytest.raises(ToolkitError, match="invalid 1D automaton"):
            two_way_to_one_way(a)


def test_parser_rejects_repeated_state_names(tmp_path, capsys):
    text = serialize_automaton_1d(corpus_1d()[0]).replace("states q0 q1 acc", "states q0 q0 q1 acc")
    assert "states q0 q0 q1 acc" in text
    with pytest.raises(ToolkitError, match="duplicate state identifiers"):
        parse_automaton_1d(text)
    # so a CLI verb stops at parse time, before it writes anything
    path, out = tmp_path / "dup.aut", tmp_path / "out.aut"
    path.write_text(text, encoding="utf-8")
    assert dispatch(["to-oneway", str(path), "-o", str(out)], out=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: duplicate state identifiers\n"
    assert not out.exists()


def test_two_way_accept_of_a_machine_without_one_is_a_toolkit_error():
    for accept_states in ((), ("q0", "acc")):
        a = Automaton1D("n", TWO_WAY, AB, ("q0", "acc"), "q0", accept_states, {})
        with pytest.raises(ToolkitError, match="exactly one accepting state"):
            a.accept


# -- the seen-set simulators that the compiled ones replaced, kept as specs --


def _spec_simulate_1d(a: Automaton1D, s: str) -> bool:
    """Run a string machine; always terminates."""
    bad = set(s) - set(a.alphabet.symbols)
    if bad:
        raise ToolkitError(f"string uses symbols {sorted(bad)} outside the alphabet")
    if a.kind == ONE_WAY:
        q = a.initial
        for ch in s:
            step = a.delta.get((q, ch))
            if step is None:
                return False
            q = step
        return q in a.accept_states
    accept = a.accept
    if a.initial == accept:
        return True
    n = len(s)
    q, pos = a.initial, 1
    seen = {(q, pos)}
    while True:
        sym = s[pos - 1] if 1 <= pos <= n else BOUNDARY
        step = a.delta.get((q, sym))
        if step is None:
            return False
        q2, d = step
        if q2 == accept:
            return True
        pos2 = pos + (1 if d == "R" else -1)
        if pos2 < 0 or pos2 > n + 1:
            return False
        if (q2, pos2) in seen:
            return False
        seen.add((q2, pos2))
        q, pos = q2, pos2


def _spec_row_departure_oracle(m2, entry_state: str, side: str, offset: int, row: str) -> bool:
    _check_row_machine(m2, entry_state, side, offset)
    n = len(row)
    pos = _entry_column(side, offset, n)
    if pos < 0 or pos > n + 1:
        return False
    q = entry_state
    seen = {(q, pos)}
    while True:
        if q == m2.accept:
            return False
        sym = row[pos - 1] if 1 <= pos <= n else BOUNDARY
        image = m2.image(q, sym)
        if not image:
            return False
        ((q2, d),) = image
        if d == "D":
            return True
        pos2 = pos + (1 if d == "R" else -1)
        if pos2 < 0 or pos2 > n + 1:
            return False
        if (q2, pos2) in seen:
            return False
        seen.add((q2, pos2))
        q, pos = q2, pos2


def _assert_simulators_agree(m, max_len):
    one = two_way_to_one_way(m)
    for s in strings(max_len):
        verdict = _spec_simulate_1d(m, s)
        assert simulate_1d(m, s) == verdict, (m.name, m.delta, s)
        assert simulate_1d(one, s) == _spec_simulate_1d(one, s) == verdict, (m.name, m.delta, s)


def _assert_oracles_agree(m2, max_len):
    for q in m2.states:
        for side in ("left", "right"):
            for off in range(1, len(m2.states) + 2):
                for s in strings(max_len):
                    assert row_departure_oracle(m2, q, side, off, s) == _spec_row_departure_oracle(
                        m2, q, side, off, s
                    ), (m2.name, q, side, off, s)


def test_simulate_1d_equals_its_spec_on_the_corpus():
    for m in corpus_1d():
        _assert_simulators_agree(m, 8)


def test_row_departure_oracle_equals_its_spec_on_the_corpus():
    for m2 in (*corpus_3w_det(), left_probe3w()):
        _assert_oracles_agree(m2, 8)


@st.composite
def two_way_machines(draw):
    """Two-way machines with 2-5 states; in about half of them every
    transition is defined, so that most runs loop."""
    names = tuple(f"s{i}" for i in range(draw(st.integers(1, 4)))) + ("acc",)
    total = draw(st.booleans())
    delta = {}
    for q in names:
        for sym in ("0", "1", BOUNDARY):
            if total or draw(st.booleans()):
                delta[(q, sym)] = (draw(st.sampled_from(names)), draw(st.sampled_from("LR")))
    return Automaton1D("h", TWO_WAY, AB, names, draw(st.sampled_from(names)), ("acc",), delta)


@st.composite
def three_way_machines(draw):
    """Deterministic three-way machines with 1-3 working states."""
    names = tuple(f"q{i}" for i in range(draw(st.integers(1, 3)))) + ("acc",)
    entries = []
    for q in names[:-1]:
        for sym in ("0", "1", BOUNDARY):
            if draw(st.integers(0, 4)):
                entries.append((q, sym, draw(st.sampled_from(names)), draw(st.sampled_from("DLR"))))
    return _mk("h3w", names, "q0", "acc", entries, variant="3W")


@given(two_way_machines())
@settings(max_examples=300, deadline=None)
def test_simulate_1d_equals_its_spec_on_random_machines(m):
    _assert_simulators_agree(m, 8)


@given(three_way_machines())
@settings(max_examples=60, deadline=None)
def test_row_departure_oracle_equals_its_spec_on_random_machines(m2):
    _assert_oracles_agree(m2, 8)


def _ends_zero_text():
    return serialize_automaton_1d(corpus_1d()[0])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: Automaton1D("zeros", ONE_WAY, AB, ("q0",), "q0", ("q0",), {}).accept,
            ModeError,
            "single accepting state is a two-way notion",
        ),
        (
            lambda: downward_departures(first_row_zeros(), picture_of(["00"]), 1),
            VariantError,
            "departure replay is defined for three-way machines",
        ),
        (
            lambda: downward_departures(descend3w(), picture_of(["00"]), 2),
            PreconditionError,
            "row 2 outside the 1x2 word",
        ),
        (
            lambda: downward_departures(descend3w(), picture_of(["00"]), 0),
            PreconditionError,
            "row 0 outside the 1x2 word",
        ),
        (
            lambda: row_restriction(dataclasses.replace(descend3w(), mode="nondet"), "q0", "left", 1),
            PreconditionError,
            "row restriction is defined for det three-way machines",
        ),
        (
            lambda: row_departure_oracle(first_row_zeros(), "q0", "left", 1, "00"),
            PreconditionError,
            "row restriction is defined for det three-way machines",
        ),
        (
            lambda: row_restriction(descend3w(), "zz", "left", 1),
            PreconditionError,
            "unknown entry state 'zz'",
        ),
        (
            lambda: row_restriction(descend3w(), "q0", "up", 1),
            PreconditionError,
            "side must be 'left' or 'right'",
        ),
        (
            lambda: parse_automaton_1d(_ends_zero_text().replace("mode det", "mode nondet")),
            ToolkitError,
            "1D machines are deterministic",
        ),
        (
            lambda: parse_automaton_1d(_ends_zero_text() + "q1 1 -> acc\n"),
            ToolkitError,
            "cannot parse 1D automaton transition ('q1', '1', 'acc') of a 1D-2W machine",
        ),
        (
            lambda: parse_automaton_1d(_ends_zero_text() + "q0 0 -> q1 L\n"),
            ToolkitError,
            "duplicate transition for ('q0', '0')",
        ),
    ],
    ids=[
        "one-way-accept", "departures-of-2w", "departures-below-the-word", "departures-above-the-word",
        "row-machine-nondet", "row-machine-2w", "row-machine-entry-state", "row-machine-side",
        "parse-mode", "parse-target-count", "parse-duplicate-pair",
    ],
)
def test_one_dimensional_preconditions_raise_their_errors(call, error, message):
    with pytest.raises(error) as got:
        call()
    assert type(got.value) is error and str(got.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda a: a.compiled, "invalid 1D automaton 'ends_zero': unknown kind '1D-3W'"),
        (lambda a: simulate_1d(a, "0"), "invalid 1D automaton 'ends_zero': unknown kind '1D-3W'"),
        (serialize_automaton_1d, "cannot write 1D automaton 'ends_zero': unknown kind '1D-3W'"),
    ],
    ids=["compiled", "simulate", "serialize"],
)
def test_a_machine_of_unknown_kind_is_refused(call, message):
    a = dataclasses.replace(corpus_1d()[0], kind="1D-3W")
    with pytest.raises(ToolkitError) as got:
        call(a)
    assert type(got.value) is ToolkitError and str(got.value) == message


def test_an_unknown_variant_is_refused_by_the_parser_and_the_cli(tmp_path, capsys):
    text = _ends_zero_text().replace("variant 1D-2W", "variant 2W")
    assert "variant 2W\n" in text
    with pytest.raises(ToolkitError) as got:
        parse_automaton_1d(text)
    assert type(got.value) is ToolkitError and str(got.value) == "unknown 1D variant '2W'"
    path, out = tmp_path / "two_way.aut", tmp_path / "out.aut"
    path.write_text(text, encoding="utf-8")
    assert dispatch(["to-oneway", str(path), "-o", str(out)], out=io.StringIO()) == 2
    assert capsys.readouterr().err == "error: unknown 1D variant '2W'\n"
    assert not out.exists()
