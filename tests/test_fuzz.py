"""Hypothesis fuzzing of the three file parsers, of their writers and of
the CLI verbs that read them.  Any text either parses and survives a
serialize/parse round trip, or is rejected with ``ToolkitError``; any
machine or picture built in code is either refused by its writer with
``ToolkitError`` or read back equal; a parsed string machine runs and
converts or raises ``ToolkitError``; the CLI answers 0, 1 or 2 and never
lets another exception escape."""

import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

import pytest

from pictomata import (
    Alphabet,
    Automaton2D,
    Picture,
    ToolkitError,
    format_picture,
    make_delta,
    parse_automaton,
    parse_picture,
    save_automaton,
    serialize_automaton,
    validate,
)
from pictomata.cli import dispatch
from pictomata.onedim import (
    ONE_WAY,
    TWO_WAY,
    Automaton1D,
    parse_automaton_1d,
    save_automaton_1d,
    serialize_automaton_1d,
    simulate_1d,
    two_way_to_one_way,
)

STATES = ["q0", "q1", "acc", "zz"]
_VALUES = {
    "automaton": ["m", "n"],
    "mode": ["det", "det", "nondet", "x"],
    "alphabet": ["0", "1", "#", "01"],
    "states": STATES,
    "initial": STATES,
    "accept": STATES,
}
VARIANTS_2D = ["2W", "3W", "4W", "1D-2W", "5W"]
VARIANTS_1D = ["1D-2W", "1D-1W", "2W"]

junk = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)


def _values(choices):
    # Mostly one value, sometimes none or several.
    pool = st.sampled_from(choices)
    return st.one_of(st.lists(pool, min_size=1, max_size=1), st.lists(pool, max_size=4))


@st.composite
def machine_texts(draw, variants):
    """Files close to the automaton format: each header key is usually
    present, values and transition lines are drawn from small pools, and
    a stray line may appear anywhere."""
    values = dict(_VALUES, variant=variants)
    lines = [
        " ".join([key, *draw(_values(choices))])
        for key, choices in values.items()
        if draw(st.integers(0, 15))
    ]
    transition = st.tuples(
        st.sampled_from(STATES),
        st.sampled_from(["0", "1", "#", "2"]),
        st.sampled_from(STATES),
        st.lists(st.sampled_from(["L", "R", "D", "U", "X"]), max_size=2),
    ).map(lambda t: " ".join([t[0], t[1], "->", t[2], *t[3]]))
    lines += draw(st.lists(transition, max_size=8))
    lines += draw(st.lists(st.one_of(junk, junk.map(lambda s: ";" + s)), max_size=1))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def onedim_texts(draw):
    """1D files that mostly parse, so that the machines reach the
    simulator: a well-formed header, now and then a repeated state, and
    transitions over declared states with moves of the file's kind."""
    two_way = draw(st.booleans())
    states = draw(st.lists(st.sampled_from(STATES), min_size=1, max_size=4, unique=True))
    if not draw(st.integers(0, 5)):
        states.append(states[0])
    accept = draw(st.lists(st.sampled_from(states), min_size=two_way, max_size=1 if two_way else 3))
    lines = [
        "automaton m",
        f"variant {'1D-2W' if two_way else '1D-1W'}",
        "mode det",
        "alphabet 0 1",
        "states " + " ".join(states),
        f"initial {draw(st.sampled_from(states))}",
        "accept " + " ".join(accept),
    ]
    keys = st.tuples(st.sampled_from(states), st.sampled_from(["0", "1", "#"]))
    for q, sym in draw(st.lists(keys, max_size=12, unique=True)):
        move = draw(st.sampled_from(["L", "R"])) if two_way else ""
        lines.append(f"{q} {sym} -> {draw(st.sampled_from(states))} {move}")
    return "\n".join(lines) + "\n"


#: Raw near-format text, which the 1D parser almost always rejects, and
#: files that mostly parse.
texts_1d = st.one_of(machine_texts(VARIANTS_1D), onedim_texts())

picture_texts = st.lists(st.text("01a#; ", max_size=3), max_size=3).map("\n".join)


@given(machine_texts(VARIANTS_2D), texts_1d, picture_texts, st.booleans())
@settings(max_examples=200, deadline=None)
def test_parsers_round_trip_or_reject(text2d, text1d, text_pic, allow_hash):
    for parse, serialize, text in (
        (parse_automaton, serialize_automaton, text2d),
        (parse_automaton_1d, serialize_automaton_1d, text1d),
        (lambda t: parse_picture(t, allow_hash), format_picture, text_pic),
    ):
        try:
            parsed = parse(text)
        except ToolkitError:
            continue
        assert parse(serialize(parsed)) == parsed


def _verdict(a, s):
    try:
        return simulate_1d(a, s)
    except ToolkitError as exc:
        return str(exc)


@given(onedim_texts(), st.lists(st.text("01#", max_size=4), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_parsed_1d_machines_run_and_convert_or_raise_toolkit_error(text, words):
    try:
        a = parse_automaton_1d(text)
        verdicts = [_verdict(a, s) for s in words]
        if a.kind == TWO_WAY:
            one = two_way_to_one_way(a)
            assert [_verdict(one, s) for s in words] == verdicts
    except ToolkitError:
        pass


@given(machine_texts(VARIANTS_2D), texts_1d, picture_texts, st.booleans())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exit_status_on_fuzzed_files(text2d, text1d, text_pic, allow_hash):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "m.aut").write_text(text2d, encoding="utf-8")
        (work / "n.aut").write_text(text1d, encoding="utf-8")
        (work / "w.pic").write_text(text_pic, encoding="utf-8")
        m, n, w, o = (str(work / f) for f in ("m.aut", "n.aut", "w.pic", "o.aut"))
        for argv in (
            ["validate", m],
            ["run", m, w, "--trace", *(["--allow-hash"] if allow_hash else [])],
            ["rowsim", m, "--entry-state", "q0", "--side", "right", "--offset", "2", "-o", o],
            ["to-oneway", n, "-o", o],
        ):
            assert dispatch(argv, out=io.StringIO()) in (0, 1, 2), argv


def _machine_2d(name="m", states=("q0", "acc"), symbols=("a",), source="q0", target=None, move="R"):
    return Automaton2D(
        name, "2W", "det", Alphabet(symbols), states, states[0], states[-1],
        make_delta([(source, symbols[0], target or states[-1], move)]),
    )


def test_writers_refuse_what_their_readers_cannot_read_back(tmp_path):
    probes_2d = [
        _machine_2d(states=("states", "acc"), source="states"),  # read back as another machine
        _machine_2d(states=("initial", "acc"), source="initial"),
        _machine_2d(states=("q 0", "acc"), source="q 0"),
        _machine_2d(states=("q;0", "acc"), source="q;0"),
        _machine_2d(symbols=(";",)),
        _machine_2d(symbols=(" ",)),
        _machine_2d(name="my machine"),
        _machine_2d(name=""),
        _machine_2d(target="p q"),  # written as 'q0 a -> p q R'
        _machine_2d(target="p;q"),
        _machine_2d(move=""),
    ]
    probes_1d = [
        Automaton1D(
            "n", TWO_WAY, Alphabet(("a",)), ("q0", "accept"), "q0", ("accept",),
            {("q0", "a"): ("accept", "R"), ("accept", "#"): ("q0", "L")},
        ),
        # an undeclared source, which the reader's check refuses
        Automaton1D("n", TWO_WAY, Alphabet(("a",)), ("q0", "acc"), "q0", ("acc",), {("zz", "a"): ("acc", "R")}),
    ]
    for probes, serialize, save in (
        (probes_2d, serialize_automaton, save_automaton),
        (probes_1d, serialize_automaton_1d, save_automaton_1d),
    ):
        for a in probes:
            with pytest.raises(ToolkitError):
                serialize(a)
            with pytest.raises(ToolkitError):
                save(a, tmp_path / "m.aut")
            assert not (tmp_path / "m.aut").exists()
    with pytest.raises(ToolkitError):
        format_picture(Picture((";a",)))
    # a header key is fine as a state without transitions, and a row may hold ';'
    a = _machine_2d(states=("q0", "accept"))
    assert parse_automaton(serialize_automaton(a)) == a
    assert parse_picture(format_picture(Picture(("a;",)))) == Picture(("a;",))


def test_an_empty_image_is_refused_and_no_other_invalid_machine_is(tmp_path):
    # the format writes one line per move, so an empty image would leave no
    # line and come back as an absent entry: a machine that validate passes
    ab = Alphabet(("0", "1"))
    empty = Automaton2D("m", "2W", "det", ab, ("q0", "acc"), "q0", "acc", {("q0", "0"): frozenset()})
    assert validate(empty) == ["empty image at (q0,'0')"]
    with pytest.raises(ToolkitError, match=r"^cannot write the empty image at \(q0,'0'\)"):
        serialize_automaton(empty)
    with pytest.raises(ToolkitError, match=r"\(q0,'0'\)"):
        save_automaton(empty, tmp_path / "m.aut")
    assert not (tmp_path / "m.aut").exists()
    # every other invalid machine is written as it is, for validate to report
    invalid = [
        _machine_2d(symbols=("0", "1"), move="U"),  # illegal direction for 2W
        _machine_2d(symbols=("0", "1"), source="acc"),  # transition from the accepting state
        _machine_2d(symbols=("0", "1"), source="zz"),  # undeclared source
        Automaton2D("m", "2W", "det", ab, ("q0", "acc"), "q0", "acc",
                    make_delta([("q0", "0", "acc", "R"), ("q0", "0", "q0", "D")])),  # fan-out in det mode
    ]
    for a in invalid:
        assert validate(a)
        save_automaton(a, tmp_path / "m.aut")
        assert parse_automaton((tmp_path / "m.aut").read_text(encoding="utf-8")) == a
        out = io.StringIO()
        assert dispatch(["validate", str(tmp_path / "m.aut")], out=out) == 1
        assert out.getvalue().splitlines()[1:] == [f"violation: {v}" for v in validate(a)]


#: Printable characters, with the ones the file formats give a meaning to
#: drawn often.
_char = st.one_of(st.characters(blacklist_categories=("C", "Z")), st.sampled_from(" ;#-"))
_name = st.one_of(st.text(_char, max_size=3), st.sampled_from([*_VALUES, "variant", "->"]))
_symbols = st.lists(_char.filter(lambda c: c != "#"), min_size=1, max_size=3, unique=True)


def _refused_or_read_back(write, read, obj):
    try:
        text = write(obj)
    except ToolkitError:
        return
    assert read(text) == obj


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_written_machines_and_pictures_read_back_equal_or_are_refused(data):
    draw = data.draw
    states = tuple(draw(st.lists(_name, min_size=1, max_size=3, unique=True)))
    symbols = tuple(draw(_symbols))
    keys = st.tuples(st.sampled_from(states), st.sampled_from([*symbols, "#"]))
    targets = st.one_of(st.sampled_from(states), _name)
    entries = [
        (q, sym, draw(targets), draw(st.one_of(st.sampled_from("DLRU"), _name)))
        for q, sym in draw(st.lists(keys, max_size=4))
    ]
    a = Automaton2D(
        draw(_name), draw(st.sampled_from(["2W", "3W", "4W"])), draw(st.sampled_from(["det", "nondet"])),
        Alphabet(symbols), states, draw(st.sampled_from(states)), draw(st.sampled_from(states)),
        make_delta(entries),
    )
    _refused_or_read_back(serialize_automaton, parse_automaton, a)

    kind = draw(st.sampled_from([TWO_WAY, ONE_WAY]))
    if kind == TWO_WAY:
        accept = (draw(st.sampled_from(states)),)
        moves = st.one_of(st.sampled_from("LR"), _name)
        delta = {k: (draw(targets), draw(moves)) for k in draw(st.lists(keys))}
    else:
        accept = tuple(draw(st.lists(st.sampled_from(states), unique=True)))
        delta = {k: draw(targets) for k in draw(st.lists(keys))}
    n = Automaton1D(draw(_name), kind, Alphabet(symbols), states, draw(st.sampled_from(states)), accept, delta)
    _refused_or_read_back(serialize_automaton_1d, parse_automaton_1d, n)

    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.text(_char, min_size=width, max_size=width), min_size=1, max_size=3))
    _refused_or_read_back(format_picture, lambda t: parse_picture(t, allow_hash=True), Picture(tuple(rows), True))
