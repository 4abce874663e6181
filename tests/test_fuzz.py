"""Hypothesis fuzzing of the three file parsers and of the CLI verbs that
read them.  Any text either parses and survives a serialize/parse round
trip, or is rejected with ``ToolkitError``; a parsed string machine runs
and converts or raises ``ToolkitError``; the CLI answers 0, 1 or 2 and
never lets another exception escape."""

import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from pictomata import ToolkitError, format_picture, parse_automaton, parse_picture, serialize_automaton
from pictomata.cli import dispatch
from pictomata.onedim import TWO_WAY, parse_automaton_1d, serialize_automaton_1d, simulate_1d, two_way_to_one_way

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
