import pytest
from hypothesis import given, settings, strategies as st

from corpus import AB01, corpus_2w, corpus_2w_det, first_row_zeros, loopy01, universal01
from pictomata import (
    AlphabetError,
    Automaton2D,
    Configuration,
    ModeError,
    accepting_runs,
    accepts,
    first_accepting_trace,
    make_delta,
    picture_of,
    replay_accepts,
    run_deterministic,
    successors,
    visited_cells,
)
from pictomata.simulate import ACCEPTED, REJECTED_LOOP, REJECTED_UNDEFINED


def cfg(state, loc):
    return Configuration(state, loc)


def test_successors_scan_step():
    a = first_row_zeros()
    w = picture_of(["00", "00"])
    assert successors(a, w, cfg("q0", (1, 1))) == {cfg("q0", (1, 2))}


def test_successors_empty_when_undefined():
    a = first_row_zeros()
    w = picture_of(["10"])
    assert successors(a, w, cfg("q0", (1, 1))) == set()


def test_successors_band_exit_to_escape_sink():
    a = Automaton2D(
        "runner", "2W", "det", AB01, ("q0", "acc"), "q0", "acc",
        make_delta([("q0", "#", "q0", "R"), ("q0", "0", "q0", "R")]),
    )
    w = picture_of(["0"])
    # band column n+1 = 2; a further R move leaves the band
    assert successors(a, w, cfg("q0", (1, 2))) == {cfg("q0", None)}
    # from the sink, reads stay '#'
    assert successors(a, w, cfg("q0", None)) == {cfg("q0", None)}


def test_successors_4w_band_exit_dropped():
    a = Automaton2D(
        "up", "4W", "det", AB01, ("q0", "acc"), "q0", "acc",
        make_delta([("q0", "#", "q0", "U"), ("q0", "0", "q0", "U")]),
    )
    w = picture_of(["0"])
    assert successors(a, w, cfg("q0", (1, 1))) == {cfg("q0", (0, 1))}
    assert successors(a, w, cfg("q0", (0, 1))) == set()


def test_accepts_first_row_zeros_on_witness_words():
    a = first_row_zeros()
    assert accepts(a, picture_of(["00", "00"]))
    assert not accepts(a, picture_of(["1"]))
    assert accepts(a, picture_of(["00", "11"]))


def test_accepts_immediate_when_initial_is_accept():
    a = universal01()
    assert accepts(a, picture_of(["1"]))
    assert accepts(a, picture_of(["01", "10"]))


def test_accepts_checks_alphabet():
    a = first_row_zeros()
    with pytest.raises(AlphabetError):
        accepts(a, picture_of(["2"]))


def test_run_deterministic_trace_shape():
    res = run_deterministic(first_row_zeros(), picture_of(["000"]))
    assert res.kind == ACCEPTED
    assert len(res.trace) == 5  # three symbol reads, one boundary read, accept
    assert [c.loc for c in res.trace[:4]] == [(1, 1), (1, 2), (1, 3), (1, 4)]
    assert res.trace[-1].state == "acc"


def test_run_deterministic_loop_detection():
    res = run_deterministic(loopy01(), picture_of(["0"]))
    assert res.kind == REJECTED_LOOP


def test_run_deterministic_undefined():
    a = Automaton2D("empty", "2W", "det", AB01, ("q0", "acc"), "q0", "acc", {})
    res = run_deterministic(a, picture_of(["0"]))
    assert res.kind == REJECTED_UNDEFINED
    assert len(res.trace) == 1


def test_run_deterministic_rejects_nondet():
    from corpus import spray01

    with pytest.raises(ModeError):
        run_deterministic(spray01(), picture_of(["0"]))


def _staircase_reach(m, n):
    """All monotone D/R paths from (1,1); returns max in-bounds cells."""
    best = 0
    stack = [((1, 1), {(1, 1)})]
    while stack:
        (r, c), seen = stack.pop()
        best = max(best, len(seen))
        for r2, c2 in ((r + 1, c), (r, c + 1)):
            if 1 <= r2 <= m and 1 <= c2 <= n:
                stack.append(((r2, c2), seen | {(r2, c2)}))
    return best


def test_two_way_traces_on_2x2_visit_at_most_three_cells():
    w = picture_of(["00", "00"])
    cap = _staircase_reach(2, 2)
    assert cap == 3
    for a in corpus_2w():
        if a.alphabet.symbols != ("0", "1"):
            continue
        for t in accepting_runs(a, w):
            assert len(visited_cells(t, w)) <= cap, (a.name, t)


def test_accepting_runs_empty_when_rejected():
    assert accepting_runs(first_row_zeros(), picture_of(["1"])) == []


def test_accepting_runs_follow_runs_deeper_than_the_recursion_limit():
    a = first_row_zeros()
    w = picture_of(["0" * 1500])
    trace = first_accepting_trace(a, w)
    assert trace is not None and len(trace) == 1502
    assert replay_accepts(a, w, trace)
    assert accepting_runs(a, w) == [trace]


def test_accepting_runs_unique_for_det():
    for a in corpus_2w_det():
        w = picture_of(["aa", "aa"]) if a.alphabet.unary else picture_of(["00", "00"])
        runs = accepting_runs(a, w)
        det_accepts = run_deterministic(a, w).accepted
        assert (len(runs) == 1) == det_accepts
        assert (len(runs) == 0) == (not det_accepts)


def test_accepts_agrees_with_accepting_runs():
    words = [picture_of(r) for r in (["0"], ["1"], ["01", "10"], ["000", "010"])]
    for a in corpus_2w():
        if a.alphabet.unary:
            continue
        for w in words:
            assert accepts(a, w) == bool(accepting_runs(a, w, limit=1))


def test_visited_cells_excludes_frame_and_sink():
    res = run_deterministic(first_row_zeros(), picture_of(["000"]))
    assert visited_cells(res.trace, picture_of(["000"])) == {(1, 1), (1, 2), (1, 3)}


def test_monotone_head_for_two_way():
    for a in corpus_2w():
        w = picture_of(["aaa", "aaa"]) if a.alphabet.unary else picture_of(["010", "001"])
        for t in accepting_runs(a, w, limit=16):
            locs = [c.loc for c in t if c.loc is not None]
            for (r1, c1), (r2, c2) in zip(locs, locs[1:]):
                assert r2 >= r1 and c2 >= c1


def test_three_way_rows_never_decrease():
    from corpus import corpus_3w_det

    for a in corpus_3w_det():
        for rows in (["000"], ["000", "000"], ["0000", "0000", "0000"]):
            t = run_deterministic(a, picture_of(rows)).trace
            locs = [c.loc for c in t if c.loc is not None]
            for (r1, _), (r2, _) in zip(locs, locs[1:]):
                assert r2 >= r1


@given(st.integers(0, 3))
@settings(max_examples=8)
def test_replay_soundness_after_offtrace_flip(seed):
    # an accepting trace stays an accepting run on any word agreeing with
    # the original on the visited cells
    w = picture_of(["00", "00"])
    for a in corpus_2w():
        if a.alphabet.unary or not accepts(a, w):
            continue
        for t in accepting_runs(a, w):
            seen = visited_cells(t, w)
            for pos in w.positions():
                if pos in seen:
                    continue
                flipped = w.with_cell(pos, "1")
                assert replay_accepts(a, flipped, t), (a.name, pos)
