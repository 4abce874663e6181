import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    AB01,
    corpus_2w,
    corpus_2w_det,
    corpus_3w_det,
    corpus_edge_walkers,
    decide,
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
from pictomata.simulate import (
    ACCEPTED,
    REJECTED_LOOP,
    REJECTED_UNDEFINED,
    _first_trace,
    _search,
    _step,
    _two_way,
)


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
    # a 3W head's D, L and R moves from the sink all stay in it, in image
    # order; no step has a branch for the sink, so this rests on where the
    # rule puts it
    b = Automaton2D(
        "fan", "3W", "nondet", AB01, ("q0", "q1", "q2", "q3", "acc"), "q0", "acc",
        make_delta([("q0", "0", "q0", "R"), ("q0", "#", "q1", "R"),
                    ("q1", "#", "q1", "D"), ("q1", "#", "q2", "L"), ("q1", "#", "q3", "R"),
                    ("q2", "#", "q0", "D"), ("q3", "1", "acc", "R")]),
    )
    comp, rows = b.compiled, w.rows
    assert _step(comp, rows, -1, -1, 1, 1, 0, 1, 2) == [(1, -1, -1)]
    assert _step(comp, rows, -1, -1, 1, 1, 1, -1, -1) == [(1, -1, -1), (2, -1, -1), (3, -1, -1)]
    assert _step(comp, rows, -1, -1, 1, 1, 2, -1, -1) == [(0, -1, -1)]
    # so a head that left the band never reads the word again: from a
    # sink whose D move reached the frame corner (0, 0), q1 would walk down
    # column 0 and q3 would step right onto the '1' below the first row
    for word in (["0"], ["0", "1"], ["0", "1", "1"]):
        p = picture_of(word)
        assert not accepts(b, p)
        assert not _search(b.compiled, p.rows, -1, -1, p.m, p.n)
        assert accepting_runs(b, p) == []


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
            assert decide(t, w) == accepts(a, w), (a.name, w.rows)


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
        assert decide(t, w) == accepts(a, w), w.rows


def test_row_transfer_start_state_and_variants():
    assert RowTransfer(universal01()).start == ACCEPTED
    t = RowTransfer(first_row_zeros())
    assert t.start == frozenset({(0, 1)})
    assert t.step(t.start, "01") == frozenset()
    assert t.step(ACCEPTED, "11") == ACCEPTED
    with pytest.raises(VariantError):
        RowTransfer(up_left_probe4w())


def _closure_step(comp, state, row, reach=None):
    """What :meth:`RowTransfer.step` computes, as a closure over
    :func:`_step` on the one-row window holding ``row``: the body the
    step had before it applied the rule inline.  ``reach`` stands in for
    ``comp.reach``, so a caller can tell an escape that accepts."""
    if state is ACCEPTED:
        return ACCEPTED
    reach = comp.reach if reach is None else reach
    rows, n = (row,), len(row)
    below = set()
    todo = [(si, 1, c) for si, c in state]
    seen = set(todo)
    while todo:
        for t in _step(comp, rows, -1, -1, 1, n, *todo.pop()):
            si, r, c = t
            if si == comp.accept or (r < 0 and si in reach):
                return ACCEPTED
            if r == 2:
                below.add((si, c))
            elif r == 1 and t not in seen:
                seen.add(t)
                todo.append(t)
    return frozenset(below)


def test_row_transfer_step_equals_a_closure_over_step():
    # step applies the rule inline; on states that folding rows of width
    # 1-6 reaches, and on arbitrary sets of pairs over the band columns
    # 0..n+1, it must give the closure's state without its dead pairs,
    # frame columns and escapes into Compiled.reach included
    frames = escapes = 0
    for seed in range(240):
        rng = random.Random(seed)
        a = random_2d(rng, ("2W", "3W")[seed % 2], ("det", "nondet")[seed // 2 % 2])
        comp, t = a.compiled, RowTransfer(a)
        dead = {si for si, q in enumerate(comp.states) if q in _brute_dead(a)}
        for _ in range(6):
            n = rng.randint(1, 6)
            rows = ["".join(rng.choice("01") for _ in range(n)) for _ in range(rng.randint(1, 4))]
            pairs = [(si, c) for si in range(len(comp.states)) for c in range(n + 2)]
            states = [t.start, frozenset(rng.sample(pairs, rng.randint(0, len(pairs))))]
            for row in rows:
                states.append(_closure_step(comp, states[-1], row))
            for state in states:
                row = rng.choice(rows)
                want = _closure_step(comp, state, row)
                if want is not ACCEPTED:
                    want = frozenset(p for p in want if p[0] not in dead)
                assert t.step(state, row) == want, (a.name, sorted(state), row)
                if state is not ACCEPTED and any(c in (0, n + 1) for _, c in state):
                    frames += 1
                if want is ACCEPTED and _closure_step(comp, state, row, frozenset()) is not ACCEPTED:
                    escapes += 1  # accepted only through an escape
    assert frames and escapes


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


def test_a_blocked_cell_keeps_the_first_trace_that_avoids_it():
    # _first_trace is the depth-first search of accepting_runs with every
    # configuration it enters marked; blocking a cell prunes the subtrees
    # that enter it and keeps the order of the rest, so it finds the
    # first trace of accepting_runs that never visits the cell
    for a in corpus_2w() + corpus_3w_det() + corpus_edge_walkers():
        comp = a.compiled
        for w in enumerate_pictures(a.alphabet, DimBounds(2, 3)):
            runs = accepting_runs(a, w)
            for pos in w.positions():
                cell = {(si, *pos) for si in range(len(comp.states))}
                got = _first_trace(comp, w.rows, w.m, w.n, cell)
                want = next((run for run in runs if all(c.loc != pos for c in run)), None)
                assert got == want, (a.name, w.rows, pos)


def _closure_search(comp, rows, r0, c0, m, n):
    """What :func:`_search` decides, as a plain breadth-first closure over
    :func:`_step`: whether the initial configuration reaches an accepting
    one."""
    start = (comp.initial, 1, 1)
    if start[0] == comp.accept:
        return True
    seen = {start}
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
    # decides, on whole pictures and on windows
    rng = random.Random(seed)
    a = random_2d(rng, variant, mode)
    comp = a.compiled
    for _ in range(10):
        big_m, big_n = rng.randint(1, 4), rng.randint(1, 4)
        rows = tuple("".join(rng.choice("01") for _ in range(big_n)) for _ in range(big_m))
        if rng.random() < 0.5:  # the whole picture
            r0, c0, m, n = -1, -1, big_m, big_n
        else:  # a window, offset whenever it is smaller than the picture
            m, n = rng.randint(1, big_m), rng.randint(1, big_n)
            r0, c0 = rng.randint(-1, big_m - m - 1), rng.randint(-1, big_n - n - 1)
        verdict = _closure_search(comp, rows, r0, c0, m, n)
        assert _search(comp, rows, r0, c0, m, n) == verdict
        if comp.is2w:
            assert _two_way(comp, rows, r0, c0, m, n) == verdict


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
    # the generic search reads a window as it reads the block copied out
    # (test_search_equals_a_closure_over_step pins it on windows), so it
    # runs once per distinct block
    blocks, windows = cases
    comp = a.compiled
    assert comp.is2w
    generic = [_search(comp, b, -1, -1, len(b), len(b[0])) for b in blocks]
    got = [_two_way(comp, *window) for window, _ in windows]
    want = [generic[k] for _, k in windows]
    if got != want:
        first = next(i for i, (g, e) in enumerate(zip(got, want)) if g != e)
        pytest.fail(f"{a.name}: kernel says {got[first]} on window {windows[first][0]}")


@pytest.mark.slow
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


# -- dead states and the live table ---------------------------------------


def _brute_dead(a):
    """The states of ``a`` from which no sequence of moves, whatever each
    reads, reaches ``a.accept``: one search of ``delta`` per state."""
    dead = set()
    for q in a.states:
        seen, todo = {q}, [q]
        while todo:
            p = todo.pop()
            for (src, _), image in a.delta.items():
                if src == p:
                    for q2, _ in image:
                        if q2 not in seen:
                            seen.add(q2)
                            todo.append(q2)
        if a.accept not in seen:
            dead.add(q)
    return dead


def _with_trap(rng, variant, mode):
    """A ``random_2d`` machine with a state ``trap`` that moves only to
    itself: some moves are sent into it (added beside the others in
    nondet mode), and some missing entries lead to it, so ``trap`` and
    every state that reaches only it are dead."""
    a = random_2d(rng, variant, mode)
    dirs = {"2W": "DR", "3W": "DLR"}[variant]
    delta = {}
    for key, image in a.delta.items():
        if rng.random() < 0.3:
            trapped = {("trap", rng.choice(dirs))}
            image = image | trapped if mode == "nondet" else frozenset(trapped)
        delta[key] = image
    for q in a.states[:-1]:
        for sym in "01#":
            if (q, sym) not in delta and rng.random() < 0.5:
                delta[q, sym] = frozenset({("trap", rng.choice(dirs))})
    for sym in "01#":
        if rng.random() < 0.7:
            delta["trap", sym] = frozenset({("trap", rng.choice(dirs))})
    return replace(a, name=f"{a.name}-trap", states=(*a.states[:-1], "trap", a.accept), delta=delta)


def _trap_machines(variants):
    return [
        _with_trap(random.Random(seed), variant, mode)
        for seed in range(40)
        for variant in variants
        for mode in ("det", "nondet")
    ]


def test_dead_states_are_those_that_reach_no_acceptance():
    # Compiled.dead against its definition; live is image without the
    # moves into dead states, shared where nothing is dropped, and det
    # counts the moves live keeps
    machines = corpus_2w() + corpus_3w_det() + corpus_edge_walkers() + _trap_machines(("2W", "3W"))
    for seed in range(200):
        machines.append(random_2d(random.Random(seed), ("2W", "3W", "4W")[seed % 3], ("det", "nondet")[seed // 3 % 2]))
    shared = trimmed = 0
    for a in machines:
        comp = a.compiled
        assert {comp.states[si] for si in comp.dead} == _brute_dead(a), a.name
        assert (comp.live is comp.image) == (not comp.dead)
        for moves, kept in zip(comp.image, comp.live):
            want = {sym: tuple(mv for mv in img if mv[0] not in comp.dead) for sym, img in moves.items()}
            assert kept == {sym: img for sym, img in want.items() if img}
            if comp.dead:
                shared += kept is moves
                trimmed += kept != moves
        assert comp.det == all(len(img) == 1 for moves in comp.live for img in moves.values())
    assert shared and trimmed


def test_two_way_kernel_on_dead_states_equals_the_generic_search():
    # the kernel reads Compiled.live, the generic search every move: on
    # machines with a trap state they decide the same, on every picture up
    # to 3x3 and each of its windows
    machines = _trap_machines(("2W",))
    assert all(a.compiled.dead for a in machines[:4])
    assert {a.compiled.det for a in machines if a.mode == "nondet"} == {True, False}
    cases = _kernel_cases(AB01)
    for a in machines:
        _assert_kernel_is_the_generic_search(a, cases)


def test_row_transfer_on_dead_states_equals_accepts():
    # verdicts folds each prefix through steps that drop dead pairs, and
    # judges the empty state rejected without stepping it
    words = list(enumerate_pictures(AB01, DimBounds(3, 3)))
    for a in _trap_machines(("2W", "3W")):
        comp, t = a.compiled, RowTransfer(a)
        for w in words:
            rows = w.rows
            want = accepts(a, w)
            assert _search(comp, rows, -1, -1, w.m, w.n) == want
            assert t.verdicts(rows[:-1], rows[-1:]) == [want], (a.name, rows)
        for state, _ in t.memo.values():
            assert state is ACCEPTED or not {si for si, _ in state} & comp.dead


def test_a_dead_prefix_steps_no_further(monkeypatch):
    # a first row holding a 1 sends this first_row_zeros twin into its
    # trap: the step drops the trap's pair, and no later row is stepped or
    # judged; the twin of
    # test_oracle.py::test_an_accepted_prefix_steps_no_further
    a = Automaton2D(
        "first-row-zeros-trap", "2W", "det", AB01, ("q0", "trap", "acc"), "q0", "acc",
        make_delta([("q0", "0", "q0", "R"), ("q0", "1", "trap", "R"), ("q0", "#", "acc", "R"),
                    ("trap", "0", "trap", "R"), ("trap", "1", "trap", "R"), ("trap", "#", "trap", "D")]),
    )
    t = RowTransfer(a)
    assert t.step(t.start, "01") == frozenset()
    stepped = []
    step = RowTransfer.step
    monkeypatch.setattr(RowTransfer, "step", lambda self, state, row: stepped.append(row) or step(self, state, row))
    lasts = ["".join(cells) for cells in product("01", repeat=2)]
    assert t.verdicts(("01", "00"), lasts) == [False] * 4
    assert stepped == ["01"]
    assert t.memo == {(t.start, "01"): (frozenset(), False)}
    assert t.verdicts(("00",), lasts) == [True] * 4
    assert t.verdicts(("10",), lasts) == [False] * 4
    assert stepped == ["01", "00", "10"]


def _random_steps():
    """(machine, transfer, state, row) for 300 seeded random 2W/3W det and
    nondet machines: rows of width 1-4, each with random sets of pairs
    over the band columns 0..n+1, dead states' pairs among them."""
    for seed in range(300):
        rng = random.Random(seed)
        a = random_2d(rng, ("2W", "3W")[seed % 2], ("det", "nondet")[seed // 2 % 2])
        t = RowTransfer(a)
        for n in range(1, 5):
            pairs = [(si, c) for si in range(len(a.states)) for c in range(n + 2)]
            for _ in range(5):
                row = "".join(rng.choice("01") for _ in range(n))
                yield a, t, frozenset(rng.sample(pairs, rng.randint(0, 4))), row


def test_row_transfer_step_is_the_union_of_singleton_steps():
    # the row-NFA protocol: ACCEPTED if some singleton step is, otherwise
    # the union of the singleton steps
    with_dead = 0
    for a, t, state, row in _random_steps():
        singles = [t.step(frozenset({p}), row) for p in state]
        want = ACCEPTED if ACCEPTED in singles else frozenset().union(*singles)
        assert t.step(state, row) == want, (a.name, sorted(state), row)
        with_dead += any(p[0] in a.compiled.dead for p in state)
    assert with_dead


def test_row_transfer_step_holds_no_dead_pair():
    # a step reads Compiled.live, so it holds no pair of a state that
    # cannot reach acceptance, though the closure over _step may
    dropped = 0
    for a, t, state, row in _random_steps():
        nxt = t.step(state, row)
        if nxt is not ACCEPTED:
            dead = _brute_dead(a)
            assert not [p for p in nxt if a.states[p[0]] in dead], (a.name, sorted(state), row)
            dropped += nxt != _closure_step(a.compiled, state, row)
    assert dropped


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


@pytest.mark.parametrize("limit", [0, -1])
def test_accepting_runs_with_no_room_returns_no_trace(limit):
    # a limit below one asks for no trace, so none is searched for, even
    # when the machine accepts at its initial configuration
    a, w = first_row_zeros(), picture_of(["00"])
    assert accepting_runs(a, w)  # the word has an accepting run to withhold
    assert accepting_runs(a, w, limit=limit) == []
    starts_accepted = Automaton2D("at-once", "2W", "det", a.alphabet, ("acc",), "acc", "acc", {})
    assert accepting_runs(starts_accepted, w, limit=limit) == []
