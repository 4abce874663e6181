"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with ``pytest -s`` to watch them stream).

Budget note: the exhaustive criteria are sized so the whole module runs
in a few minutes of pure Python.  Where a criterion's literal universe is
astronomically large (the uniform-row replay of criterion 8 and the
witness-language check of criterion 11), the check covers an equivalent
or strictly structured family instead, documented inline.
"""

import random
import time
from itertools import combinations, product

import pytest

from corpus import (
    AB01,
    corpus_1d,
    corpus_2w,
    corpus_3w_det,
    diag_pairs,
    first_row_zeros,
    rowzeros_tall01,
    separated_layouts,
    separated_member,
    separated_pairs,
    top_left_one,
    unary_pairs,
    universal01,
    visited_cells,
)
from pictomata import (
    Automaton2D,
    CaseTag,
    ConcatKind,
    DimBounds,
    Picture,
    accepting_runs,
    accepts,
    build_witness,
    concat_membership,
    diag_concat_nondet_2w,
    diag_concat_separated,
    downward_departures,
    enumerate_pictures,
    equivalent_up_to,
    kapoutsis_bound,
    make_delta,
    picture_of,
    refute,
    row_departure_oracle,
    row_restriction,
    run_deterministic,
    simulate_1d,
    gadget_k,
    thm9_x_family,
    to_ibr,
    transpose,
    transpose_automaton,
    two_way_to_one_way,
    unary_col_concat,
    unary_row_concat,
    validate,
    verify_counterexample,
)


def _report(num: int, desc: str, ok: bool, note: str = "") -> None:
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if note:
        line += f" ({note})"
    print(line)
    assert ok, line


def test_criterion_01_ibr_equivalence():
    t0 = time.time()
    machines = corpus_2w()
    assert len(machines) >= 10
    failures = []
    for a in machines:
        conv = to_ibr(a)
        if validate(conv):
            failures.append((a.name, "invalid"))
            continue
        ce = equivalent_up_to(conv, lambda w: accepts(a, w), DimBounds(3, 3))
        if ce is not None:
            failures.append((a.name, ce.word.rows))
    took = time.time() - t0
    _report(
        1,
        f"IBR conversion equivalent on {len(machines)} machines, dims <= 3x3",
        not failures and took < 60.0,
        f"{took:.1f}s",
    )


def test_criterion_02_unary_row_concatenation():
    pairs = unary_pairs()
    assert len(pairs) >= 6
    bounds = DimBounds(6, 6)
    failures = []
    worst = 0.0
    for a, b in pairs:
        t0 = time.time()
        m = unary_row_concat(a, b)
        if validate(m):
            failures.append((a.name, b.name, "invalid"))
            continue
        ce = equivalent_up_to(m, lambda w: concat_membership(ConcatKind.ROW, a, b, w), bounds)
        if ce is not None:
            failures.append((a.name, b.name, ce.word.rows))
        worst = max(worst, time.time() - t0)
    # every run-shape case must actually fire on some pair
    seen: set[str] = set()
    words = [picture_of(["a" * n] * m) for m in range(1, 5) for n in range(1, 5)]
    for a, b in pairs:
        m = unary_row_concat(a, b)
        for w in words:
            for trace in accepting_runs(m, w, limit=64):
                seen.update(
                    cfg.state.split("|", 1)[0]
                    for cfg in trace
                    if cfg.state.split("|", 1)[0] in {c.value for c in CaseTag}
                )
    cases_ok = seen == {c.value for c in CaseTag}
    _report(
        2,
        f"unary row concatenation matches the split oracle on {len(pairs)} pairs, dims <= 6x6,"
        " all five cases reachable",
        not failures and cases_ok and worst < 120.0,
        f"worst pair {worst:.1f}s, cases {sorted(seen)}",
    )


def test_criterion_03_column_duality():
    bounds = DimBounds(6, 6)
    failures = []
    for a, b in unary_pairs():
        m = unary_col_concat(a, b)
        if validate(m):
            failures.append((a.name, b.name, "invalid"))
            continue
        ce = equivalent_up_to(m, lambda w: concat_membership(ConcatKind.COL, a, b, w), bounds)
        if ce is not None:
            failures.append((a.name, b.name, ce.word.rows))
    duality_bad = []
    for a in corpus_2w():
        if a.alphabet.symbols != ("0", "1"):
            continue
        at = transpose_automaton(a)
        for w in enumerate_pictures(a.alphabet, DimBounds(3, 3)):
            if accepts(a, w) != accepts(at, transpose(w)):
                duality_bad.append((a.name, w.rows))
    _report(
        3,
        "unary column concatenation matches the split oracle; transpose duality exhaustive"
        " at 3x3 over {0,1}",
        not failures and not duality_bad,
    )


def test_criterion_04_diagonal_closure():
    pairs = diag_pairs()
    assert len(pairs) >= 4
    assert any(a.name == b.name == "top-left-one" for a, b in pairs)
    bounds = DimBounds(4, 4)
    failures = []
    for a, b in pairs:
        m = diag_concat_nondet_2w(a, b)
        if validate(m):
            failures.append((a.name, b.name, "invalid"))
            continue
        ce = equivalent_up_to(m, lambda w: concat_membership(ConcatKind.DIAG, a, b, w), bounds)
        if ce is not None:
            failures.append((a.name, b.name, ce.word.rows))
    _report(
        4,
        f"nondet diagonal concatenation matches the split oracle on {len(pairs)} pairs,"
        " dims <= 4x4 over {0,1}",
        not failures,
    )


@pytest.mark.slow
def test_criterion_05_separated_diagonal():
    t0 = time.time()
    failures = []
    # the first pair covers the full 5x5 family; the second, a 4x5 slice
    sizes = [(5, 5), (4, 5)]
    for (a, b), (mm, nn) in zip(separated_pairs(), sizes):
        c = diag_concat_separated(a, b)
        if validate(c):
            failures.append((a.name, b.name, "invalid"))
            continue
        member = separated_member(a, b)
        for p in separated_layouts(mm, nn, a.alphabet.symbols):
            if accepts(c, p) != member(p):
                failures.append((a.name, b.name, p.rows))
                break
    _report(
        5,
        "separated diagonal construction matches the layout oracle on every"
        " one-separator-row/column picture, dims <= 5x5",
        not failures,
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_06_row_nonclosure_mechanized():
    L = first_row_zeros()
    bounds = DimBounds(3, 3)
    target = lambda w: concat_membership(ConcatKind.ROW, L, L, w)
    wrong = [first_row_zeros(), universal01(), rowzeros_tall01()]
    refuted = []
    for cand in wrong:
        ce = refute(cand, ConcatKind.ROW, L, L, bounds)
        refuted.append(
            ce is not None
            and verify_counterexample(cand, target, ce)
            and ce.word.m <= 3
            and ce.word.n <= 3
        )
    # the flip bound: any accepting two-way run on the all-zero 2x2 word
    # visits at most three of its four cells
    w22 = picture_of(["00", "00"])
    flip_ok = True
    candidates = [a for a in corpus_2w() if a.alphabet.symbols == ("0", "1")] + wrong
    accepting_candidates = 0
    for cand in candidates:
        if not accepts(cand, w22):
            continue
        accepting_candidates += 1
        for t in accepting_runs(cand, w22):
            if len(visited_cells(t, w22)) > 3:
                flip_ok = False
    _report(
        6,
        f"refuter defeats {len(wrong)} wrong stacked-language candidates within 3x3;"
        f" visited-cell bound holds for {accepting_candidates} accepting machines",
        all(refuted) and flip_ok and accepting_candidates >= 2,
    )


def test_criterion_07_det_diagonal_gadget():
    gadget = picture_of(["100", "000", "000"])
    bottom_right = {(2, 2), (2, 3), (3, 2), (3, 3)}
    unvisited_ok = True
    checked = 0
    for cand in corpus_2w():
        if cand.mode != "det" or cand.alphabet.symbols != ("0", "1"):
            continue
        checked += 1
        seen = visited_cells(run_deterministic(cand, gadget).trace, gadget)
        if bottom_right <= seen:
            unvisited_ok = False
    L = top_left_one()
    target = lambda w: concat_membership(ConcatKind.DIAG, L, L, w)
    sweeper = Automaton2D(
        "det_sweeper", "2W", "det", AB01, ("q0", "acc"), "q0", "acc",
        make_delta([("q0", "0", "q0", "R"), ("q0", "1", "q0", "R"), ("q0", "#", "acc", "R")]),
    )
    dets = [top_left_one(), sweeper]
    refuted = []
    for cand in dets:
        ce = refute(cand, ConcatKind.DIAG, L, L, DimBounds(3, 3))
        refuted.append(ce is not None and verify_counterexample(cand, target, ce))
    _report(
        7,
        f"every det two-way machine ({checked} checked) misses part of the gadget's"
        " bottom-right block; refuter defeats det diagonal candidates",
        unvisited_ok and checked >= 4 and all(refuted),
    )


def _row_sojourn_check(m2, width: int, entry_state: str, entry_col: int, bound: int):
    """Confined replay of one row of zeros from an arbitrary entry; returns
    False on a bound violation, True otherwise."""
    q, pos = entry_state, entry_col
    seen_cols = {pos}
    seen_cfg = {(q, pos)}
    while True:
        if q == m2.accept:
            return True
        sym = "0" if 1 <= pos <= width else "#"
        image = m2.image(q, sym)
        if not image:
            return True
        ((q2, d),) = image
        if d == "D":
            if 1 in seen_cols or width in seen_cols:
                return min(pos, width + 1 - pos) <= bound
            return True
        pos2 = pos + (1 if d == "R" else -1)
        if pos2 < 0 or pos2 > width + 1:
            return True
        if (q2, pos2) in seen_cfg:
            return True
        seen_cfg.add((q2, pos2))
        seen_cols.add(pos2)
        q, pos = q2, pos2


def test_criterion_08_departure_distance_bound():
    # Literal replay on every all-zero picture up to 5x12 (each row is
    # uniform), plus the equivalent exhaustive sweep over every possible
    # row entry: a sojourn in a row of zeros depends only on the entry
    # state, the entry column, and the width, so this covers the
    # unenumerably many pictures sharing those parameters.
    violations = []
    for m2 in corpus_3w_det():
        assert len(m2.states) <= 4
        bound = len(m2.states) + 1
        for m in range(1, 6):
            for n in range(1, 13):
                w = picture_of(["0" * n] * m)
                for i in range(1, m + 1):
                    for dep in downward_departures(m2, w, i):
                        if dep.visited_first or dep.visited_last:
                            if min(dep.column, n + 1 - dep.column) > bound:
                                violations.append((m2.name, m, n, i, dep))
        for n in range(1, 13):
            for q in m2.states:
                for col in range(0, n + 2):
                    if not _row_sojourn_check(m2, n, q, col, bound):
                        violations.append((m2.name, n, q, col))
    _report(
        8,
        "downward departures from uniform rows stay within n+1 of a marker"
        " (replay on all-zero words <= 5x12 plus full entry sweep <= width 12)",
        not violations,
    )


def test_criterion_09_row_restriction():
    t0 = time.time()
    failures = 0
    for m2 in corpus_3w_det():
        nst = len(m2.states)
        combos = [
            (q, side, off)
            for q in m2.states
            for side in ("left", "right")
            for off in range(1, nst + 2)
        ]
        restrictions = {}
        for q, side, off in combos:
            n1 = row_restriction(m2, q, side, off)
            if len(n1.states) > 2 * nst + 3:
                failures += 1
            restrictions[(q, side, off)] = n1
        for length in range(1, 13):
            for cells in product("01", repeat=length):
                s = "".join(cells)
                for (q, side, off), n1 in restrictions.items():
                    if simulate_1d(n1, s) != row_departure_oracle(m2, q, side, off, s):
                        failures += 1
    _report(
        9,
        "row restrictions stay within 2n+3 states and agree with the confined-row"
        " oracle on all {0,1} strings of length <= 12",
        failures == 0,
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_10_conversion_and_bound():
    failures = []
    for m in corpus_1d():
        assert len(m.states) <= 3
        ow = two_way_to_one_way(m)
        for length in range(0, 11):
            for cells in product("01", repeat=length):
                s = "".join(cells)
                if simulate_1d(ow, s) != simulate_1d(m, s):
                    failures.append((m.name, s))
    values_ok = (
        kapoutsis_bound(1) == 1
        and kapoutsis_bound(2) == 6
        and kapoutsis_bound(3) == 57
        and gadget_k(1) == 5 * (5**5 - 4**5) + 1 == 10506
    )
    _report(
        10,
        "two-way to one-way conversion preserves verdicts on all strings <= 10;"
        " h(1)=1, h(2)=6, h(3)=57, k(1)=10506",
        not failures and values_ok,
    )


def _thm9_a_def(w: Picture) -> bool:
    return w.m == 1 and all(ch == "0" for ch in w.rows[0])


def _thm9_b_def(w: Picture) -> bool:
    cells = "".join(w.rows)
    return w.m == 3 and cells[0] == "1" and set(cells[1:]) <= {"0"}


def _witness_words(max_m: int, max_n: int, exhaustive_cells: int):
    """Every word whose cell count stays enumerable, then a structured
    slice of the larger shapes: all words with at most two non-zero
    cells, both target patterns, and a fixed-seed random sample."""
    rng = random.Random(0)
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            size = m * n
            if size <= exhaustive_cells:
                for cells in product("01", repeat=size):
                    yield Picture(tuple("".join(cells[i * n : (i + 1) * n]) for i in range(m)))
                continue
            base = ["0"] * size

            def assemble(flat):
                return Picture(tuple("".join(flat[i * n : (i + 1) * n]) for i in range(m)))

            yield assemble(base)
            for i in range(size):
                one = base.copy()
                one[i] = "1"
                yield assemble(one)
            for i, j in combinations(range(size), 2):
                two = base.copy()
                two[i] = two[j] = "1"
                yield assemble(two)
            for _ in range(64):
                yield assemble([rng.choice("01") for _ in range(size)])


def test_criterion_11_thm9_witnesses():
    a, b = build_witness("thm9-A"), build_witness("thm9-B")
    mismatches = []
    count = 0
    for w in _witness_words(4, 8, exhaustive_cells=16):
        count += 1
        if accepts(a, w) != _thm9_a_def(w):
            mismatches.append(("thm9-A", w.rows))
        if accepts(b, w) != _thm9_b_def(w):
            mismatches.append(("thm9-B", w.rows))
    fam_ok = True
    for k in (2, 3):
        for w in thm9_x_family(k):
            want = all(ch == "0" for ch in w.rows[3][-k:])
            if concat_membership(ConcatKind.DIAG, a, b, w) != want:
                fam_ok = False
    _report(
        11,
        f"gadget witnesses match their languages on {count} words <= 4x8;"
        " family membership equals the last-k-zeros criterion for k in {2,3}",
        not mismatches and fam_ok,
    )
