import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    AB01,
    corpus_2w,
    corpus_2w_det,
    corpus_3w_det,
    corpus_edge_walkers,
    first_row_zeros,
    left_probe3w,
    loopy01,
    universal01,
    up_left_probe4w,
)
from pictomata import (
    AlphabetError,
    Automaton2D,
    Configuration,
    DimBounds,
    ModeError,
    WindowError,
    accepting_runs,
    accepts,
    accepts_window,
    enumerate_pictures,
    first_accepting_trace,
    make_delta,
    picture_of,
    replay_accepts,
    run_deterministic,
    subpicture,
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


def test_accepts_window_equals_accepts_on_subpicture():
    # every window of every picture up to 3x3, for two-, three- and
    # four-way machines; the reference copies the block out
    machines = corpus_2w() + corpus_3w_det() + corpus_edge_walkers()
    for a in machines:
        blocks = {}
        for w in enumerate_pictures(a.alphabet, DimBounds(3, 3)):
            for r1, c1 in product(range(1, w.m + 1), range(1, w.n + 1)):
                for r2, c2 in product(range(r1, w.m + 1), range(c1, w.n + 1)):
                    block = subpicture(w, r1, r2, c1, c2)
                    if block not in blocks:
                        blocks[block] = accepts(a, block)
                    assert accepts_window(a, w, r1, r2, c1, c2) == blocks[block], (
                        a.name, w.rows, (r1, r2, c1, c2)
                    )


def test_accepts_window_reads_marker_past_every_window_edge():
    # the probes accept only if the cells above / left of the window's
    # first cell read '#', although the parent word has '1' there
    w = picture_of(["111", "111", "111"])
    for probe in (left_probe3w(), up_left_probe4w()):
        assert accepts(probe, w)
        assert accepts_window(probe, w, 2, 3, 2, 3)
        assert accepts_window(probe, w, 3, 3, 3, 3)
    # scanning right stops at the window's right edge, not the word's
    scan = first_row_zeros()
    assert not accepts(scan, picture_of(["001"]))
    assert accepts_window(scan, picture_of(["001"]), 1, 1, 1, 2)


def test_accepts_window_errors_match_subpicture():
    a = first_row_zeros()
    w = picture_of(["02", "00"])
    for window in ((2, 1, 1, 2), (1, 3, 1, 2), (0, 1, 1, 1), (1, 1, 2, 3)):
        with pytest.raises(WindowError):
            subpicture(w, *window)
        with pytest.raises(WindowError):
            accepts_window(a, w, *window)
    # only the window's symbols are checked against the alphabet
    with pytest.raises(AlphabetError):
        accepts_window(a, w, 1, 1, 1, 2)
    assert accepts_window(a, w, 2, 2, 1, 2) == accepts(a, subpicture(w, 2, 2, 1, 2))
    assert accepts_window(a, w, 1, 2, 1, 1) == accepts(a, subpicture(w, 1, 2, 1, 1))


def _random_machine(rng, variant, mode):
    dirs = {"2W": "DR", "3W": "DLR", "4W": "DLRU"}[variant]
    states = ("q0", "q1", "q2", "acc")
    entries = []
    for q in states[:-1]:
        for sym in "01#":
            if rng.random() < 0.7:
                for _ in range(2 if mode == "nondet" and rng.random() < 0.4 else 1):
                    entries.append((q, sym, rng.choice(states), rng.choice(dirs)))
    return Automaton2D(f"r{variant}{mode}", variant, mode, AB01, states, "q0", "acc", make_delta(entries))


def _off_trace_flips(w, trace):
    seen = visited_cells(trace, w)
    for pos in w.positions():
        if pos not in seen:
            yield w.with_cell(pos, "1" if w.cell(*pos) == "0" else "0")


@given(
    st.integers(0, 2**32),
    st.sampled_from(["2W", "3W", "4W"]),
    st.sampled_from(["det", "nondet"]),
    st.integers(1, 3),
    st.integers(1, 3),
)
@settings(max_examples=300, deadline=None)
def test_runs_survive_off_trace_flips(seed, variant, mode, m, n):
    # Run preservation: a run reads only the cells it visits, so changing
    # any other cell keeps it a run.  Accepted words stay accepted under
    # off-trace flips of any accepting run, and a det machine's rejecting
    # run is the same run on every off-trace flip.  This is why flipping
    # cannot refute a candidate that exhaustive comparison within the
    # same bounds does not already refute.
    rng = random.Random(seed)
    a = _random_machine(rng, variant, mode)
    w = picture_of(["".join(rng.choice("01") for _ in range(n)) for _ in range(m)])
    if accepts(a, w):
        for trace in accepting_runs(a, w, limit=8):
            for flipped in _off_trace_flips(w, trace):
                assert replay_accepts(a, flipped, trace)
                assert accepts(a, flipped)
    elif mode == "det":
        result = run_deterministic(a, w)
        for flipped in _off_trace_flips(w, result.trace):
            assert run_deterministic(a, flipped) == result
            assert not accepts(a, flipped)
