import random

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
    random_2d,
    right_return3w,
    separated_layouts,
    spray01,
    successors,
    universal01,
    up_left_probe4w,
    visited_cells,
)
from pictomata import (
    AlphabetError,
    Automaton2D,
    Configuration,
    DimBounds,
    ModeError,
    RowTransfer,
    VariantError,
    accepting_runs,
    accepts,
    enumerate_pictures,
    first_accepting_trace,
    make_delta,
    picture_of,
    replay_accepts,
    run_deterministic,
)
from pictomata.simulate import ACCEPTED, REJECTED_LOOP, REJECTED_UNDEFINED, _search, _step, _two_way


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
    a = random_2d(rng, variant, mode)
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


def _transfer_accepts(a, w):
    t = RowTransfer(a)
    state = t.start
    for row in w.rows:
        state = t.step(state, row)
    return t.final(state)


def test_row_transfer_equals_accepts_on_small_pictures():
    # every picture up to 4x3; left_probe3w accepts only through the
    # left-escape sink, boustro3w only through the bottom frame row
    machines = [a for a in corpus_2w() + corpus_3w_det() if a.variant != "4W"] + [left_probe3w()]
    for a in machines:
        words = list(enumerate_pictures(a.alphabet, DimBounds(4, 3)))
        for w in words:
            assert _transfer_accepts(a, w) == accepts(a, w), (a.name, w.rows)
        # one transfer and its memo for every width, the widths interleaved
        t = RowTransfer(a)
        random.Random(0).shuffle(words)
        for w in words:
            assert t.decide(w) == accepts(a, w), (a.name, w.rows)


@given(
    st.integers(0, 2**32),
    st.sampled_from(["2W", "3W"]),
    st.sampled_from(["det", "nondet"]),
)
@settings(max_examples=200, deadline=None)
def test_row_transfer_equals_accepts_on_random_machines(seed, variant, mode):
    rng = random.Random(seed)
    a = random_2d(rng, variant, mode)
    t = RowTransfer(a)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        w = picture_of(["".join(rng.choice("01") for _ in range(n)) for _ in range(m)])
        assert _transfer_accepts(a, w) == accepts(a, w), w.rows
        assert t.decide(w) == accepts(a, w), w.rows


def test_row_transfer_start_state_and_variants():
    assert RowTransfer(universal01()).start == ACCEPTED
    t = RowTransfer(first_row_zeros())
    assert t.start == frozenset({(0, 1)})
    assert t.step(t.start, "01") == frozenset()
    assert t.step(ACCEPTED, "11") == ACCEPTED
    with pytest.raises(VariantError):
        RowTransfer(up_left_probe4w())


def _first_dfs_trace(a, w):
    runs = accepting_runs(a, w, limit=1)
    return runs[0] if runs else None


def test_first_accepting_trace_is_the_first_depth_first_trace():
    for a in corpus_2w() + corpus_3w_det() + corpus_edge_walkers():
        for w in enumerate_pictures(a.alphabet, DimBounds(3, 3)):
            assert first_accepting_trace(a, w) == _first_dfs_trace(a, w), (a.name, w.rows)


@given(
    st.integers(0, 2**32),
    st.sampled_from(["2W", "3W", "4W"]),
    st.integers(1, 4),
    st.integers(1, 4),
)
@settings(max_examples=300, deadline=None)
def test_first_accepting_trace_matches_depth_first_search_on_random_machines(seed, variant, m, n):
    rng = random.Random(seed)
    a = random_2d(rng, variant, "nondet")
    w = picture_of(["".join(rng.choice("01") for _ in range(n)) for _ in range(m)])
    assert first_accepting_trace(a, w) == _first_dfs_trace(a, w)


def test_first_accepting_trace_is_polynomial_on_spray_words():
    # spray01 branches down or right on every '0'; on k x k zeros with a
    # '1' at the top right the depth-first search would try every
    # monotone path below the first row, C(2k-2, k-1) of them
    a = spray01()
    k = 30
    w = picture_of(["0" * (k - 1) + "1"] + ["0" * k] * (k - 1))
    trace = first_accepting_trace(a, w)
    assert trace is not None and replay_accepts(a, w, trace)
    assert [c.loc for c in trace[:-2]] == [(1, c) for c in range(1, k + 1)]
    assert first_accepting_trace(a, picture_of(["0" * k] * k)) is None


def _closure_search(comp, rows, r0, c0, m, n, start, seen):
    """What :func:`_search` decides, as a plain breadth-first closure over
    :func:`_step`: whether ``start`` reaches an accepting configuration
    without entering ``seen``, to which it adds every configuration it
    enters."""
    if start[0] == comp.accept:
        return True
    seen.add(start)
    layer = [start]
    while layer:
        below = []
        for cfg in layer:
            for t in _step(comp, rows, r0, c0, m, n, *cfg):
                if t in seen:
                    continue
                if t[0] == comp.accept:
                    return True
                seen.add(t)
                below.append(t)
        layer = below
    return False


@given(
    st.integers(0, 2**32),
    st.sampled_from(["2W", "3W", "4W"]),
    st.sampled_from(["det", "nondet"]),
)
@settings(max_examples=300, deadline=None)
def test_search_equals_a_closure_over_step(seed, variant, mode):
    # _search applies the step rule inline; it must decide what the rule
    # decides, and a failed search must leave the caller's set holding
    # exactly what the closure entered (_first_trace and flip_attack
    # block those configurations)
    rng = random.Random(seed)
    a = random_2d(rng, variant, mode)
    comp = a.compiled
    states = range(len(comp.states))
    for _ in range(10):
        big_m, big_n = rng.randint(1, 4), rng.randint(1, 4)
        rows = tuple("".join(rng.choice("01") for _ in range(big_n)) for _ in range(big_m))
        if rng.random() < 0.5:  # the whole picture
            r0, c0, m, n = -1, -1, big_m, big_n
        else:  # a window, offset whenever it is smaller than the picture
            m, n = rng.randint(1, big_m), rng.randint(1, big_n)
            r0, c0 = rng.randint(-1, big_m - m - 1), rng.randint(-1, big_n - n - 1)
        band = [(si, r, c) for si in states for r in range(m + 2) for c in range(n + 2)]
        band += [(si, -1, -1) for si in states]
        start = None if rng.random() < 0.3 else rng.choice(band)
        begin = (comp.initial, 1, 1) if start is None else start
        blocked = None
        if rng.random() < 0.6:
            blocked = {t for t in rng.sample(band, rng.randint(0, len(band) // 3)) if t != begin}
        fused = None if blocked is None else set(blocked)
        plain = set() if blocked is None else set(blocked)
        verdict = _closure_search(comp, rows, r0, c0, m, n, begin, plain)
        assert _search(comp, rows, r0, c0, m, n, start, fused) == verdict
        if comp.is2w and start is None and blocked is None:  # a verdict's search
            assert _two_way(comp, rows, r0, c0, m, n) == verdict
        if fused is not None and not verdict:
            assert fused == plain


def _kernel_cases(alphabet):
    """The distinct blocks of the two-way kernel check over ``alphabet``,
    and the windows that read them: every window ``(rows, r0, c0, m, n)``
    of every picture up to 3x3, each offset it can have included, and
    every ``allow_hash`` separated layout up to 3x4 as a whole picture, so
    that ``#`` cells lie inside the word.  Each window comes with the
    index of its block."""
    blocks, ids, windows = [], {}, []

    def add(window, block):
        if block not in ids:
            ids[block] = len(blocks)
            blocks.append(block)
        windows.append((window, ids[block]))

    for w in enumerate_pictures(alphabet, DimBounds(3, 3)):
        rows = w.rows
        for m in range(1, w.m + 1):
            for n in range(1, w.n + 1):
                for r0 in range(-1, w.m - m):
                    for c0 in range(-1, w.n - n):
                        block = tuple([r[c0 + 1 : c0 + 1 + n] for r in rows[r0 + 1 : r0 + 1 + m]])
                        add((rows, r0, c0, m, n), block)
    for w in separated_layouts(3, 4, alphabet.symbols):
        add((w.rows, -1, -1, w.m, w.n), w.rows)
    return blocks, windows


def _assert_kernel_is_the_generic_search(a, cases):
    # passing start forces the generic search; it reads a window as it
    # reads the block copied out (test_search_equals_a_closure_over_step
    # pins it on windows), so it runs once per distinct block
    blocks, windows = cases
    comp = a.compiled
    assert comp.is2w
    start = (comp.initial, 1, 1)
    generic = [_search(comp, b, -1, -1, len(b), len(b[0]), start) for b in blocks]
    got = [_two_way(comp, *window) for window, _ in windows]
    want = [generic[k] for _, k in windows]
    if got != want:
        first = next(i for i, (g, e) in enumerate(zip(got, want)) if g != e)
        pytest.fail(f"{a.name}: kernel says {got[first]} on window {windows[first][0]}")


def test_two_way_kernel_equals_the_generic_search():
    # the verdicts of a 2W machine from the initial configuration go to
    # a kernel that reads only the window's cells, answers exits past row
    # m or column n from Compiled.reach, and walks a det run
    machines = corpus_2w()
    for seed in range(150):
        machines += [random_2d(random.Random(seed), "2W", mode) for mode in ("det", "nondet")]
    cases = {}
    for a in machines:
        if a.alphabet not in cases:
            cases[a.alphabet] = _kernel_cases(a.alphabet)
        _assert_kernel_is_the_generic_search(a, cases[a.alphabet])
    assert {a.compiled.det for a in machines} == {True, False}


# -- the escape sink against a padded band ---------------------------------

_PAD_MOVES = {"U": (-1, 0), "D": (1, 0), "L": (0, -1), "R": (0, 1)}


def _padded_accepts(a, w):
    """Acceptance with w embedded in a field of '#' |Q| + 2 cells wide on
    every side, where a move off the field is undefined: no escape sink,
    and nothing shared with the toolkit's simulator but the machine's
    ``delta``.  For 2W the pad is wide enough: once the head has left
    the bordered band it reads only '#', so acceptance, if reachable at
    all, is at most |Q| - 1 moves away."""
    pad = len(a.states) + 2
    rows, m, n = w.rows, len(w.rows), len(w.rows[0])
    start = (a.initial, 1, 1)
    seen, todo = {start}, [start]
    while todo:
        q, r, c = todo.pop()
        if q == a.accept:
            return True
        sym = rows[r - 1][c - 1] if 1 <= r <= m and 1 <= c <= n else "#"
        for q2, d in a.delta.get((q, sym), ()):
            dr, dc = _PAD_MOVES[d]
            nxt = (q2, r + dr, c + dc)
            if 1 - pad <= nxt[1] <= m + pad and 1 - pad <= nxt[2] <= n + pad and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return False


def test_escape_sink_equals_a_padded_band_for_two_way_corpus():
    for a in corpus_2w():
        for w in enumerate_pictures(a.alphabet, DimBounds(3, 3)):
            assert accepts(a, w) == _padded_accepts(a, w), (a.name, w.rows)


@given(st.integers(0, 2**32), st.sampled_from(["det", "nondet"]))
@settings(max_examples=300, deadline=None)
def test_escape_sink_equals_a_padded_band_for_random_two_way_machines(seed, mode):
    a = random_2d(random.Random(seed), "2W", mode)
    for w in enumerate_pictures(a.alphabet, DimBounds(3, 3)):
        assert accepts(a, w) == _padded_accepts(a, w), w.rows


def test_escape_sink_is_not_a_padded_band_for_three_way():
    # a 3W head that leaves past the right border could walk back in; the
    # sink forgoes that, so the toolkit and its row transfer reject what
    # a padded band accepts
    a = right_return3w()
    for rows in (["01"], ["1"]):
        w = picture_of(rows)
        assert _padded_accepts(a, w)
        assert not accepts(a, w)
        assert not _transfer_accepts(a, w)
    assert not _padded_accepts(a, picture_of(["10"]))
