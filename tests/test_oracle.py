import collections
import dataclasses
import functools
import random
import re
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    AB01,
    corpus_2w,
    corpus_3w_det,
    corpus_edge_walkers,
    decide,
    diag_pairs,
    first_row_zeros,
    random_2d,
    rowzeros_tall01,
    spray01,
    t9a,
    top_left_one,
    u_one_row,
    unary_pairs,
    universal01,
    visited_cells,
    wander4w,
    zero_columns01,
)
from pictomata import (
    Alphabet,
    AlphabetError,
    Automaton2D,
    CapacityError,
    ConcatKind,
    Configuration,
    Counterexample,
    DimBounds,
    Picture,
    PreconditionError,
    RowTransfer,
    ToolkitError,
    accepting_runs,
    accepts,
    concat_membership,
    diag_concat_nondet_2w,
    enumerate_pictures,
    equivalent_up_to,
    first_accepting_trace,
    flip_attack,
    language_up_to,
    make_delta,
    picture_of,
    refute,
    replay_accepts,
    subpicture,
    to_ibr,
    verify_counterexample,
)
from pictomata import concat, oracle
from pictomata.simulate import _MEMO_CAP


def test_enumeration_order_is_total_and_deterministic():
    first = [w.rows for w in enumerate_pictures(AB01, DimBounds(2, 2))]
    second = [w.rows for w in enumerate_pictures(AB01, DimBounds(2, 2))]
    assert first == second
    assert first[:6] == [("0",), ("1",), ("00",), ("01",), ("10",), ("11",)]
    dims = [(len(r), len(r[0])) for r in first]
    assert dims == sorted(dims, key=lambda d: (d[0], d[1]))


@pytest.mark.parametrize(
    "symbols, rows, cols", [(("a",), 1, 1), (("a",), 5, 3), (("0", "1"), 1, 4), (("0", "1"), 3, 3), (("a", "b", "c"), 2, 3)]
)
def test_count_pictures_is_the_number_enumeration_yields(symbols, rows, cols):
    alphabet, bounds = Alphabet(symbols), DimBounds(rows, cols)
    assert oracle.count_pictures(alphabet, bounds) == sum(1 for _ in enumerate_pictures(alphabet, bounds, budget=None))


def test_enumeration_budget():
    with pytest.raises(CapacityError):
        list(enumerate_pictures(AB01, DimBounds(4, 4), budget=100))


def test_enumeration_budget_is_checked_at_the_call():
    # before any picture is asked for, so a sweep can check its budget
    # before it builds the decider that compiles the machine
    with pytest.raises(CapacityError):
        enumerate_pictures(AB01, DimBounds(4, 4), budget=100)


def test_enumeration_budget_stops_summing_once_it_is_passed():
    # 2**40000 pictures of one size alone; formatting that total raised
    # ValueError, and summing every size took time growing with the bounds
    for bounds in (DimBounds(200, 200), DimBounds(100, 100)):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"{bounds.max_rows}x{bounds.max_cols}") as info:
            enumerate_pictures(AB01, bounds)
        assert time.perf_counter() - start < 0.5
        assert len(str(info.value)) < 100
    with pytest.raises(CapacityError):
        enumerate_pictures(Alphabet(("a",)), DimBounds(10**6, 10**6))
    # a budget equal to the count is met, one less is exceeded
    for alphabet, bounds, count in ((Alphabet(("a",)), DimBounds(3, 4), 12), (AB01, DimBounds(2, 2), 26)):
        assert len(list(enumerate_pictures(alphabet, bounds, budget=count))) == count
        with pytest.raises(CapacityError):
            enumerate_pictures(alphabet, bounds, budget=count - 1)


def test_language_up_to_first_row_zeros_count():
    words = language_up_to(first_row_zeros(), DimBounds(2, 2))
    # independent count: per dimension, words whose first row is all zeros
    expected = set()
    for w in enumerate_pictures(AB01, DimBounds(2, 2)):
        if all(ch == "0" for ch in w.rows[0]):
            expected.add(w)
    assert len(expected) == 8
    assert words == expected


def test_language_up_to_empty_and_universal():
    empty = Automaton2D("none", "2W", "det", AB01, ("q0", "acc"), "q0", "acc", {})
    assert language_up_to(empty, DimBounds(2, 2)) == set()
    total = language_up_to(universal01(), DimBounds(2, 2))
    assert len(total) == 2 + 4 + 4 + 16


def test_equivalent_up_to_ok_and_smallest_counterexample():
    frz = first_row_zeros()
    assert equivalent_up_to(to_ibr(frz), lambda w: accepts(frz, w), DimBounds(3, 3)) is None
    ce = equivalent_up_to(
        universal01(), lambda w: all(ch == "0" for ch in w.rows[0]), DimBounds(2, 2)
    )
    assert ce.word == picture_of(["1"])
    assert ce.got and not ce.expected


def test_flip_attack_requires_accepted_word():
    with pytest.raises(PreconditionError):
        flip_attack(first_row_zeros(), picture_of(["1"]), lambda w: True)


def test_flip_attack_finds_row_two_flip():
    L = first_row_zeros()
    target = lambda w: concat_membership(ConcatKind.ROW, L, L, w)
    ce = flip_attack(L, picture_of(["00", "00"]), target)
    assert ce is not None
    assert ce.got and not ce.expected
    assert "1" in "".join(ce.word.rows)
    # replay soundness: the evidence trace still accepts the flipped word
    assert replay_accepts(L, ce.word, ce.evidence)
    assert verify_counterexample(L, target, ce)


def test_verify_counterexample_replays_the_evidence():
    # both verdicts re-derive correctly, so only the replay can tell a
    # forged accepting run from the real one
    L = first_row_zeros()
    target = lambda w: concat_membership(ConcatKind.ROW, L, L, w)
    ce = refute(universal01(), ConcatKind.ROW, L, L, DimBounds(3, 3))
    assert ce.evidence is not None and verify_counterexample(universal01(), target, ce)
    ce = flip_attack(L, picture_of(["00", "00"]), target)
    assert verify_counterexample(L, target, ce)
    trace = ce.evidence
    forged = [
        trace[1:],  # does not start at the initial configuration
        trace[:-1],  # stops short of acceptance
        trace[:1] + trace[2:],  # skips a step
        (*trace[:-1], Configuration(trace[-1].state, (9, 9))),  # accepts off the run
        (),
    ]
    for evidence in forged:
        assert not verify_counterexample(L, target, dataclasses.replace(ce, evidence=evidence)), evidence


def test_a_trace_naming_an_unknown_state_is_no_run():
    # replay compares configurations, so a state the machine lacks is
    # simply not a step, rather than a lookup that fails
    L, w = first_row_zeros(), picture_of(["00", "00"])
    trace = first_accepting_trace(L, w)
    forged = (trace[0], Configuration("nope", (1, 2)), *trace[1:])
    real = Counterexample(w, expected=False, got=True, evidence=trace)
    assert replay_accepts(L, w, trace) and verify_counterexample(L, lambda w: False, real)
    assert not replay_accepts(L, w, forged)
    assert not verify_counterexample(L, lambda w: False, dataclasses.replace(real, evidence=forged))


def test_flip_attack_none_when_all_cells_visited():
    # machine whose accepting run reads every cell of a 1xn word
    sweep = Automaton2D(
        "sweep_all", "2W", "det", AB01, ("q0", "acc"), "q0", "acc",
        make_delta([("q0", "0", "q0", "R"), ("q0", "1", "q0", "R"), ("q0", "#", "acc", "R")]),
    )
    assert flip_attack(sweep, picture_of(["010"]), lambda w: True) is None


def _flippable_cells(a, w):
    """Cells of w that flip_attack flips, each found with a target that
    rejects only one flip of that cell."""
    found = set()
    for pos in w.positions():
        bad = w.with_cell(pos, next(s for s in a.alphabet if s != w.cell(*pos)))
        ce = flip_attack(a, w, lambda v: v != bad)
        if ce is not None:
            assert ce.word == bad and replay_accepts(a, bad, ce.evidence), (a.name, w.rows, pos)
            found.add(pos)
    return found


@pytest.mark.slow
def test_flip_attack_flips_exactly_the_cells_some_accepting_run_avoids():
    # a unary machine has no flip to make
    machines = [a for a in _sweep_machines() if len(a.alphabet) > 1]
    for a in machines:
        for w in enumerate_pictures(a.alphabet, DimBounds(3, 3)):
            if not accepts(a, w):
                continue
            cells = set(w.positions())
            expected = set().union(*(cells - visited_cells(t, w) for t in accepting_runs(a, w)))
            assert _flippable_cells(a, w) == expected, (a.name, w.rows)
    # the only configuration on (1,2) is the accepting one, and it counts
    # as a read of that cell
    assert _flippable_cells(top_left_one(), picture_of(["10"])) == set()


def test_flip_attack_reports_the_first_flippable_cell_in_row_major_order():
    # the first depth-first accepting run reads (1,2) but not (1,3), so
    # the old trace-by-trace order reported 100; some other run avoids
    # (1,2), which comes first
    ce = flip_attack(wander4w(), picture_of(["101"]), lambda w: False)
    assert ce.word == picture_of(["111"])
    assert replay_accepts(wander4w(), ce.word, ce.evidence)


def test_flip_attack_is_polynomial_on_spray_words():
    # C(38, 19) simple accepting paths; the accepting runs all share the
    # first row, and every other cell is flippable
    k = 20
    w = picture_of(["0" * (k - 1) + "1"] + ["0" * k] * (k - 1))
    bad = w.with_cell((k, k), "1")
    ce = flip_attack(spray01(), w, lambda v: v != bad)
    assert ce.word == bad
    assert replay_accepts(spray01(), bad, ce.evidence)


def test_refute_wrong_candidates_for_stacked_language():
    L = first_row_zeros()
    bounds = DimBounds(3, 3)
    for cand in (first_row_zeros(), universal01(), rowzeros_tall01()):
        ce = refute(cand, ConcatKind.ROW, L, L, bounds)
        assert ce is not None, cand.name
        assert verify_counterexample(
            cand, lambda w: concat_membership(ConcatKind.ROW, L, L, w), ce
        )


def test_refute_finds_words_the_candidate_wrongly_rejects():
    # a det candidate with an empty language: the witness is the first
    # member of the stacked language in enumeration order
    L = first_row_zeros()
    never = Automaton2D("never", "2W", "det", AB01, ("q0", "acc"), "q0", "acc", {})
    ce = refute(never, ConcatKind.ROW, L, L, DimBounds(3, 3))
    assert ce.word == picture_of(["0", "0"])
    assert (ce.expected, ce.got, ce.evidence) == (True, False, None)


def test_refute_repeatable():
    L = first_row_zeros()
    bounds = DimBounds(3, 3)
    first = refute(universal01(), ConcatKind.ROW, L, L, bounds)
    second = refute(universal01(), ConcatKind.ROW, L, L, bounds)
    assert first.word == second.word
    assert (first.expected, first.got) == (second.expected, second.got)


def test_refute_nothing_for_correct_construction():
    from corpus import u_all_rows, u_one_row
    from pictomata import unary_row_concat

    a, b = u_one_row(), u_all_rows()
    m = unary_row_concat(a, b)
    assert refute(m, ConcatKind.ROW, a, b, DimBounds(5, 5)) is None


def test_refute_det_candidate_for_diagonal_language():
    tlo = top_left_one()
    ce = refute(tlo, ConcatKind.DIAG, tlo, tlo, DimBounds(3, 3))
    assert ce is not None
    assert verify_counterexample(
        tlo, lambda w: concat_membership(ConcatKind.DIAG, tlo, tlo, w), ce
    )


def test_refute_equals_the_sweep_against_the_public_oracle():
    # refute runs concat_membership's checks on the first word only and
    # asks the split loop directly for every later word; it must report
    # what a sweep against concat_membership reports: the same word,
    # verdicts and evidence, and evidence that replays
    rng = random.Random(1919)
    bounds = DimBounds(3, 3)
    found = agreed = 0
    for i in range(12):
        a = random_2d(rng, "2W", ("det", "nondet")[i % 2])
        b = random_2d(rng, ("2W", "3W", "4W")[i % 3], ("nondet", "det")[i // 2 % 2])
        for kind in ConcatKind:
            cands = [random_2d(rng, v, ("det", "nondet")[(i + k) % 2]) for k, v in enumerate(("2W", "3W", "4W"))]
            if kind is ConcatKind.DIAG and b.variant == "2W":
                cands.append(diag_concat_nondet_2w(a, b))
            target = functools.partial(concat_membership, kind, a, b)
            for c in cands:
                got = refute(c, kind, a, b, bounds)
                assert got == equivalent_up_to(c, target, bounds), (kind, i, c.name)
                if got is None:
                    agreed += 1
                else:
                    found += 1
                    assert verify_counterexample(c, target, got), (kind, i, c.name)
    assert found and agreed


def test_refute_raises_what_it_raised_when_faults_come_together():
    # one error per call, from the first check in refute's order: the
    # candidate's symbols, the budget, the candidate compiling, then the
    # oracle's own checks on the first word (the factors' symbols, the
    # word's, the kind, b compiling); for 2W, 3W and 4W candidates
    L = first_row_zeros()
    L012 = dataclasses.replace(L, name="frz012", alphabet=Alphabet(("0", "1", "2")))
    bad_b = Automaton2D("bad-b", "2W", "det", AB01, ("q0", "acc"), "q0", "acc",
                        make_delta([("q0", "0", "q0", "U")]))
    small, big = DimBounds(2, 2), DimBounds(4, 4)
    pair = (AlphabetError, "factor machines must share one alphabet")
    budget = (CapacityError, "pictures within 4x4 exceed the budget of 100")
    b_invalid = (ToolkitError, "invalid automaton 'bad-b': illegal direction 'U' for variant 2W at (q0,'0')")
    unknown = (ValueError, "unknown concat kind 'stack'")
    for variant, cand_invalid in (
        ("2W", "illegal direction 'U' for variant 2W at (q0,'0')"),
        ("3W", "illegal direction 'U' for variant 3W at (q0,'0')"),
        ("4W", "unknown direction 'X' at (q0,'0')"),
    ):
        move = "X" if variant == "4W" else "U"
        broken = Automaton2D("broken", variant, "det", AB01, ("q0", "acc"), "q0", "acc",
                             make_delta([("q0", "0", "q0", move)]))
        good = random_2d(random.Random(7), variant, "det")
        cases = [
            (broken, ConcatKind.ROW, L, L012, small, None, (ToolkitError, f"invalid automaton 'broken': {cand_invalid}")),
            (broken, "stack", L, bad_b, big, 100, budget),
            (good, "stack", L, L, big, 100, budget),
            (good, "stack", L, dataclasses.replace(bad_b, alphabet=L012.alphabet), small, None, pair),
            (good, "stack", L, bad_b, small, None, unknown),
        ]
        cases += [(good, kind, L, bad_b, small, None, b_invalid) for kind in ConcatKind]
        cases += [(good, kind, L, L012, small, None, pair) for kind in ConcatKind]
        for c, kind, a, b, bounds, cap, want in cases:
            with pytest.raises(Exception) as got:
                refute(c, kind, a, b, bounds, budget=cap)
            assert (type(got.value), str(got.value)) == want, (variant, c.name, kind, a.name, b.name)


def test_refute_needs_the_candidate_to_read_the_factors_symbols():
    # every word of two or more rows is in L(u)L(u); over {0} alone tall0
    # accepts exactly those, so a sweep of its own alphabet finds nothing,
    # though it rejects 1 on 1.  The check is on the set of symbols, before
    # the budget, and a candidate over more symbols fails it too
    u = universal01()
    tall0 = Automaton2D("tall0", "2W", "det", Alphabet(("0",)), ("q0", "q1", "acc"), "q0", "acc",
                        make_delta([("q0", "0", "q1", "D"), ("q1", "0", "acc", "R")]))
    bounds = DimBounds(3, 3)
    assert equivalent_up_to(tall0, lambda w: concat_membership(ConcatKind.ROW, u, u, w), bounds) is None
    for budget in (oracle.DEFAULT_BUDGET, 1):
        with pytest.raises(AlphabetError, match=r"^candidate 'tall0' reads symbols \['0'\], target 'universal01'"):
            refute(tall0, ConcatKind.ROW, u, u, bounds, budget)
    wide = dataclasses.replace(u, name="wide", alphabet=Alphabet(("0", "1", "2")))
    with pytest.raises(AlphabetError, match=r"reads symbols \['0', '1', '2'\]"):
        refute(wide, ConcatKind.ROW, u, u, bounds)
    # the same set in another order is the same alphabet
    swapped = dataclasses.replace(u, name="swapped", alphabet=Alphabet(("1", "0")))
    assert refute(swapped, ConcatKind.ROW, u, u, bounds).word == picture_of(["1"])


def test_factors_that_list_their_symbols_in_another_order_are_one_alphabet():
    # the factors' symbols are compared as sets, so the same machine over
    # ("1", "0") changes no verdict of the oracle and no result of refute
    bounds = DimBounds(3, 3)
    words = list(enumerate_pictures(AB01, bounds))
    for a, b in ((first_row_zeros(), top_left_one()), (t9a(), first_row_zeros())):
        a10, b10 = (dataclasses.replace(m, alphabet=Alphabet(("1", "0"))) for m in (a, b))
        for kind in ConcatKind:
            for w in words:
                want = concat_membership(kind, a, b, w)
                assert concat_membership(kind, a, b10, w) == want, (kind, a.name, w.rows)
                assert concat_membership(kind, a10, b, w) == want, (kind, a.name, w.rows)
            for cand in (a, universal01()):
                want = refute(cand, kind, a, b, bounds)
                assert refute(cand, kind, a, b10, bounds) == want, (kind, a.name, cand.name)
                assert refute(cand, kind, a10, b, bounds) == want, (kind, a.name, cand.name)


def test_concat_membership_rejects_foreign_symbols_before_splitting():
    # the factors' alphabet is checked on the whole word, so a foreign
    # symbol raises whatever the kind, the size or the split that would
    # be tried first (a 1 x n word has no row or diagonal split at all)
    L = first_row_zeros()
    words = [picture_of(["0a0"]), picture_of(["0", "a"]), picture_of(["00", "0a"]), picture_of(["a0", "00"])]
    for kind in ConcatKind:
        for w in words:
            with pytest.raises(AlphabetError):
                concat_membership(kind, L, L, w)


def test_concat_membership_rejects_hash_words_whatever_allow_hash_says():
    # reads '#' at (1,1) and accepts, rejects every word over {0,1}: L(a) is
    # empty, so no word is in L(a)L(a); a word of '#' cells must not be let
    # in through allow_hash, it raises like any other foreign symbol
    a = Automaton2D("hash_first", "2W", "det", AB01, ("q0", "acc"), "q0", "acc",
                    make_delta([("q0", "#", "acc", "R")]))
    words = {
        ConcatKind.ROW: picture_of(["#", "#"], allow_hash=True),
        ConcatKind.COL: picture_of(["##"], allow_hash=True),
        ConcatKind.DIAG: picture_of(["##", "##"], allow_hash=True),
    }
    for kind, w in words.items():
        with pytest.raises(AlphabetError, match=r"picture uses symbols \['#'\] unknown to 'hash_first'"):
            concat_membership(kind, a, a, w)
        with pytest.raises(AlphabetError, match=r"\['#'\]"):
            concat_membership(kind, a, a, picture_of(["0#", "00"], allow_hash=True))
        # the permission alone changes nothing on a word without '#' cells
        L = first_row_zeros()
        for rows in (["00", "00"], ["00", "10"]):
            assert concat_membership(kind, L, L, picture_of(rows, allow_hash=True)) == \
                concat_membership(kind, L, L, picture_of(rows))


# The bodies below are the sweeps as they were before 2W/3W candidates
# were decided by row transfer: one `accepts` and, for evidence, one
# depth-first trace per picture.  They are the specification the sweeps
# are pinned to.


def _old_enumerate_pictures(alphabet, bounds):
    syms = alphabet.symbols
    for m in range(1, bounds.max_rows + 1):
        for n in range(1, bounds.max_cols + 1):
            for cells in product(syms, repeat=m * n):
                yield Picture(tuple("".join(cells[i * n : (i + 1) * n]) for i in range(m)))


def _old_language_up_to(a, bounds):
    return {w for w in _old_enumerate_pictures(a.alphabet, bounds) if accepts(a, w)}


def _old_equivalent_up_to(candidate, target, bounds):
    for w in _old_enumerate_pictures(candidate.alphabet, bounds):
        got = accepts(candidate, w)
        expected = bool(target(w))
        if got != expected:
            evidence = accepting_runs(candidate, w, limit=1)[0] if got else None
            return Counterexample(w, expected=expected, got=got, evidence=evidence)
    return None


def _sweep_machines():
    return corpus_2w() + corpus_3w_det() + corpus_edge_walkers()


def test_enumeration_order_equals_the_cell_product_order():
    for alphabet, bounds in ((AB01, DimBounds(3, 3)), (Alphabet(("a", "b", "c")), DimBounds(2, 3))):
        got = [w.rows for w in enumerate_pictures(alphabet, bounds)]
        assert got == [w.rows for w in _old_enumerate_pictures(alphabet, bounds)]


def test_language_up_to_equals_the_per_picture_sweep():
    machines = _sweep_machines()
    assert {a.variant for a in machines} == {"2W", "3W", "4W"}
    for a in machines:
        assert language_up_to(a, DimBounds(3, 3)) == _old_language_up_to(a, DimBounds(3, 3)), a.name


def test_equivalent_up_to_equals_the_per_picture_sweep():
    # every candidate against every target machine over its alphabet and
    # against the empty and the full language, so that counterexamples of
    # both polarities, with and without evidence, are compared
    machines = _sweep_machines()
    bounds = DimBounds(3, 3)
    for cand in machines:
        targets = [lambda w: False, lambda w: True]
        targets += [lambda w, t=t: accepts(t, w) for t in machines if t.alphabet == cand.alphabet]
        for target in targets:
            ce = equivalent_up_to(cand, target, bounds)
            old = _old_equivalent_up_to(cand, target, bounds)
            assert ce == old, cand.name


def test_sweep_memo_stays_within_its_cap():
    # a 1 x 12 sweep meets 8,190 distinct (state, row) steps, one per
    # picture, so the memo must start over at least once
    t = RowTransfer(spray01())
    peak = 0
    for w in enumerate_pictures(AB01, DimBounds(1, 12)):
        assert decide(t, w) == accepts(spray01(), w)
        peak = max(peak, len(t.memo))
    assert peak == _MEMO_CAP
    # zero_columns01 leaves a row in the state of its set of 0 columns, so
    # a 1 x 13 sweep meets 2**13 = 8,192 states to judge, each through
    # its memo entry: the memo must start over here too
    a = zero_columns01()
    t = RowTransfer(a)
    peak = 0
    for w in enumerate_pictures(AB01, DimBounds(1, 13)):
        assert decide(t, w) == accepts(a, w)
        peak = max(peak, len(t.memo))
    assert peak == _MEMO_CAP


@given(
    st.integers(0, 2**32),
    st.sampled_from(["2W", "3W"]),
    st.sampled_from(["det", "nondet"]),
    st.sampled_from([DimBounds(3, 3), DimBounds(2, 5)]),
)
@settings(max_examples=100, deadline=None)
def test_prefix_shared_sweeps_equal_the_per_picture_sweep(seed, variant, mode, bounds):
    # the sweeps fold each row prefix once and step its last rows from the
    # state it leaves; they must give what accepts gives picture by picture
    rng = random.Random(seed)
    a = random_2d(rng, variant, mode)
    words = list(_old_enumerate_pictures(a.alphabet, bounds))
    language = {w for w in words if accepts(a, w)}
    assert language_up_to(a, bounds) == language
    assert equivalent_up_to(a, lambda w: accepts(a, w), bounds) is None
    # and the first disagreement is the first in enumeration order
    flipped = set(rng.sample(words, 3))
    first = next(w for w in words if w in flipped)
    ce = equivalent_up_to(a, lambda w: accepts(a, w) != (w in flipped), bounds)
    assert (ce.word, ce.got, ce.expected) == (first, first in language, first not in language)


def test_the_memo_starts_over_between_a_prefix_and_its_last_rows():
    # at 2x6 zero_columns01 meets 64 states after the first row, each met
    # with 64 last rows, so the memo fills up and starts over while the
    # last rows of some prefix are being stepped, after its fold
    a, bounds = zero_columns01(), DimBounds(2, 6)
    t = RowTransfer(a)
    midway = 0
    for m, rows in oracle._row_sets(AB01, bounds):
        for prefix in product(rows, repeat=m - 1):
            before = len(t.memo)
            got = t.verdicts(prefix, rows)
            assert got == [accepts(a, Picture((*prefix, last))) for last in rows], prefix
            # the fold adds at most one step per prefix row, so a smaller
            # memo afterwards that no fold could have filled started over
            # among the last rows
            if len(rows) + len(prefix) < before < _MEMO_CAP - len(prefix) and len(t.memo) < before:
                midway += 1
    assert midway > 0
    assert language_up_to(a, bounds) == _old_language_up_to(a, bounds)


def test_an_accepted_prefix_steps_no_further():
    # first_row_zeros accepts on the first row alone when it is all 0s, and
    # universal01 from its start state: no last row is stepped or judged
    rows = ["".join(cells) for cells in product("01", repeat=2)]
    t = RowTransfer(first_row_zeros())
    assert t.verdicts(("00", "11"), rows) == [True] * 4
    assert len(t.memo) == 1
    t = RowTransfer(universal01())
    assert t.verdicts(("01",), rows) == [True] * 4
    assert t.verdicts((), rows) == [True] * 4
    assert t.memo == {}


def test_sweeps_keep_their_error_order():
    # the budget is checked before any work, then the candidate
    broken = Automaton2D("broken", "2W", "det", AB01, ("q0", "acc"), "q0", "acc",
                         make_delta([("q0", "0", "q0", "U")]))
    with pytest.raises(CapacityError):
        language_up_to(broken, DimBounds(4, 4), budget=100)
    with pytest.raises(CapacityError):
        equivalent_up_to(broken, lambda w: True, DimBounds(4, 4), budget=100)
    for sweep in (lambda: language_up_to(broken, DimBounds(2, 2)),
                  lambda: equivalent_up_to(broken, lambda w: True, DimBounds(2, 2))):
        with pytest.raises(ToolkitError, match="illegal direction"):
            sweep()


def test_sweeps_check_their_budget_even_when_enumeration_is_lazy(monkeypatch):
    # a span tracer may wrap enumerate_pictures in a generator function,
    # which checks nothing before its first item; each sweep checks the
    # budget itself, so the budget still comes before an invalid machine
    real = oracle.enumerate_pictures

    def lazy(*args, **kwargs):
        yield from real(*args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_pictures", lazy)
    for variant in ("2W", "3W", "4W"):
        broken = Automaton2D("broken", variant, "det", AB01, ("q0", "acc"), "q0", "acc",
                             make_delta([("q0", "0", "q0", "X")]))
        with pytest.raises(CapacityError):
            language_up_to(broken, DimBounds(4, 4), budget=100)
        with pytest.raises(CapacityError):
            equivalent_up_to(broken, lambda w: True, DimBounds(4, 4), budget=100)
        with pytest.raises(ToolkitError, match="unknown direction 'X'"):
            language_up_to(broken, DimBounds(2, 2))


def test_enumerated_pictures_equal_checked_pictures():
    # enumerate_pictures builds its pictures without Picture's checks
    for alphabet, bounds in ((AB01, DimBounds(3, 3)), (Alphabet(("a", "b", "c")), DimBounds(2, 3))):
        for w in enumerate_pictures(alphabet, bounds):
            checked = Picture(w.rows)
            assert type(w) is Picture and vars(w) == vars(checked)
            assert w == checked and hash(w) == hash(checked) and w.allow_hash is False


def test_concat_oracle_raises_what_concat_membership_raises():
    # the same type and message on every call, in this order: the pair,
    # then the word's alphabet, then the kind, then a factor that fails to
    # compile, b included, before any split: on 11/11 no block of L is
    # accepted, and a 1x1 word has no split at all
    L, U = first_row_zeros(), u_one_row()
    broken = Automaton2D("broken", "2W", "det", AB01, ("q0", "acc"), "q0", "acc",
                         make_delta([("q0", "0", "q0", "U")]))
    hashes = picture_of(["##", "##"], allow_hash=True)
    word, foreign = picture_of(["00", "00"]), picture_of(["00", "0a"])
    unsplit = (picture_of(["11", "11"]), picture_of(["1"]))
    pair = (AlphabetError, "factor machines must share one alphabet")
    unknown = (ValueError, "unknown concat kind 'diag'")
    invalid = (ToolkitError, "invalid automaton 'broken': illegal direction 'U' for variant 2W at (q0,'0')")
    cases = []
    for kind in (*ConcatKind, "diag"):
        late = invalid if isinstance(kind, ConcatKind) else unknown  # b compiles after the kind check
        cases += [(kind, L, U, foreign, pair), (kind, U, L, word, pair)]
        cases += [(kind, L, L, w, (AlphabetError, f"picture uses symbols [{s!r}] unknown to 'first-row-zeros'"))
                  for w, s in ((foreign, "a"), (hashes, "#"))]
        cases += [(kind, broken, L, word, invalid), (kind, L, broken, word, late)]
        cases += [(kind, L, broken, w, late) for w in unsplit]
    cases.append(("diag", L, L, word, unknown))
    for kind, a, b, w, want in cases:
        for _ in range(2):
            with pytest.raises(Exception) as got:
                concat_membership(kind, a, b, w)
            if isinstance(kind, ConcatKind):
                assert isinstance(got.value, ToolkitError), (kind, a.name, b.name, w.rows)
            assert (type(got.value), str(got.value)) == want, (kind, a.name, b.name, w.rows)


def test_unknown_kinds_raise_one_value_error_from_both_oracles():
    # hashable or not, a kind that is no ConcatKind fails the kind check,
    # from concat_membership alone and as refute's target alike
    L, word = first_row_zeros(), picture_of(["00", "00"])
    for kind in ("diag", None, [ConcatKind.DIAG]):
        with pytest.raises(ValueError, match="unknown concat kind") as want:
            concat_membership(kind, L, L, word)
        with pytest.raises(ValueError) as got:
            refute(L, kind, L, L, DimBounds(2, 2))
        assert str(got.value) == str(want.value)


def test_unknown_kinds_raise_before_any_split(monkeypatch):
    # the kind is checked once per call, before b compiles and before any
    # block is searched; an unhashable kind cannot reach the split table
    def no_search(*args):
        raise AssertionError("a block was searched")

    for name in ("_search", "_two_way"):
        monkeypatch.setattr(concat, name, no_search)
    L, word = first_row_zeros(), picture_of(["00", "00", "00"])
    broken = Automaton2D("broken", "2W", "det", AB01, ("q0", "acc"), "q0", "acc",
                         make_delta([("q0", "0", "q0", "U")]))
    for kind in ("diag", None, [ConcatKind.DIAG], {"kind": "diag"}):
        for b in (L, broken):
            with pytest.raises(ValueError, match=rf"^unknown concat kind {re.escape(repr(kind))}$"):
                concat_membership(kind, L, b, word)


def _split_definition(kind, w):
    """The (a-block, b-block) pairs of every split of w, by subpicture."""
    m, n = w.m, w.n
    if kind is ConcatKind.ROW:
        return [(subpicture(w, 1, i, 1, n), subpicture(w, i + 1, m, 1, n)) for i in range(1, m)]
    if kind is ConcatKind.COL:
        return [(subpicture(w, 1, m, 1, j), subpicture(w, 1, m, j + 1, n)) for j in range(1, n)]
    return [
        (subpicture(w, 1, i, 1, j), subpicture(w, i + 1, m, j + 1, n)) for i in range(1, m) for j in range(1, n)
    ]


def test_split_table_is_the_definition():
    # every window of the table, copied out of a word whose cells are all
    # distinct, is the block the definition names, in split order
    def copied(rows, m, n, window):
        r0, c0, nr, nc = window
        assert nr >= 1 and nc >= 1 and r0 + 1 >= 0 and r0 + nr <= m - 1
        assert c0 + 1 >= 0 and c0 + nc <= n - 1
        return tuple(r[c0 + 1 : c0 + 1 + nc] for r in rows[r0 + 1 : r0 + 1 + nr])

    for kind, m, n in product(ConcatKind, range(1, 5), range(1, 5)):
        w = Picture(tuple("".join(chr(ord("a") + i * n + j) for j in range(n)) for i in range(m)))
        table = concat._splits(kind, m, n)
        assert concat._splits(kind, m, n) is table  # built once, then kept
        want = [(x.rows, y.rows) for x, y in _split_definition(kind, w)]
        assert [(copied(w.rows, m, n, wa), copied(w.rows, m, n, wb)) for wa, wb in table] == want, (kind, m, n)
        cuts = [(len(x), len(x[0])) for x, _ in want]
        assert cuts == sorted(cuts)  # row cut outer, column cut inner
        too_small = {ConcatKind.ROW: m == 1, ConcatKind.COL: n == 1, ConcatKind.DIAG: min(m, n) == 1}[kind]
        assert (table == ()) == too_small


def test_concat_membership_equals_the_oracle_and_the_definition():
    # concat_membership picks each factor's kernel once per call: the 2W
    # one for a 2W factor, the generic search otherwise; on every {0,1}
    # picture up to 3x4 it must equal the definition by subpicture, with
    # each block decided by accepts, for every kind and for factors of
    # each variant
    rng = random.Random(1515)
    variants = [("2W", "2W"), ("3W", "3W"), ("4W", "4W"), ("2W", "3W"), ("3W", "4W"), ("4W", "2W")]
    modes = [("det", "nondet"), ("nondet", "det")]
    pairs = [(random_2d(rng, va, ma), random_2d(rng, vb, mb))
             for (va, vb), (ma, mb) in zip(variants, modes * 3)]
    words = list(enumerate_pictures(AB01, DimBounds(3, 4)))
    members = 0
    for a, b in pairs:
        for kind in ConcatKind:
            got = [concat_membership(kind, a, b, w) for w in words]
            want = [
                any(accepts(a, x) and accepts(b, y) for x, y in _split_definition(kind, w)) for w in words
            ]
            assert got == want, (kind, a.name, b.name)
            members += sum(got)
    assert 0 < members < len(pairs) * len(ConcatKind) * len(words)


def _row_groups(max_rows, max_cols):
    """Every prefix group of the {0,1} words up to max_rows x max_cols:
    (m, n, prefix, lasts), one-row sizes (empty prefix) included."""
    for m, n in product(range(1, max_rows + 1), range(1, max_cols + 1)):
        lasts = ["".join(cells) for cells in product("01", repeat=n)]
        for prefix in product(lasts, repeat=m - 1):
            yield m, n, prefix, lasts


def test_grouped_split_verdicts_equal_the_oracle_word_by_word():
    # the split loop decides one row prefix with all its last rows at once,
    # a's block above the last row once for the group; its verdicts must be
    # concat_membership's on each word, for every kind, for b of each
    # variant and mode, on every group up to 3x3 (sizes too small to split
    # included), and the words it leaves keep their order
    rng = random.Random(2207)
    shapes = [("2W", "2W"), ("2W", "3W"), ("3W", "4W"), ("4W", "2W"), ("2W", "4W"), ("3W", "3W")]
    modes = [("det", "nondet"), ("nondet", "det"), ("nondet", "nondet"), ("det", "det")]
    pairs = [(random_2d(rng, va, ma), random_2d(rng, vb, mb)) for (va, vb) in shapes for ma, mb in modes[:2]]
    pairs += [(random_2d(rng, "2W", ma), random_2d(rng, "2W", mb)) for ma, mb in modes[2:]]
    members = words_seen = 0
    for a, b in pairs:
        for kind in ConcatKind:
            for m, n, prefix, lasts in _row_groups(3, 3):
                words = [prefix + (last,) for last in lasts]
                left = concat._split_search(kind, a.compiled, b.compiled, words, m, n)
                want = [concat_membership(kind, a, b, Picture(rows)) for rows in words]
                assert [rows not in left for rows in words] == want, (kind, a.name, b.name, prefix)
                assert list(left) == [rows for rows, member in zip(words, want) if not member]
                members += sum(want)
                words_seen += len(words)
    assert 0 < members < words_seen


def test_refute_searches_each_block_above_the_last_row_once_per_prefix(monkeypatch):
    # a regression guard in counts, not time: over a whole sweep, refute
    # searches a's block of a row or diagonal split once per row prefix, not
    # once per word; both refutes below find nothing, so no counterexample
    # is replayed through the public oracle
    rng = random.Random(2208)
    a, b = random_2d(rng, "2W", "nondet"), random_2d(rng, "2W", "det")
    never = Automaton2D("never", "2W", "det", AB01, ("q0", "acc"), "q0", "acc", {})
    counts = {}

    def counting(kernel):
        def search(comp, rows, r0, c0, m, n, *rest):
            if comp is a.compiled and r0 + m < len(rows) - 1:  # a's block, above the last row
                key = (kind, rows[:-1], (r0, c0, m, n))
                counts[key] = counts.get(key, 0) + 1
            return kernel(comp, rows, r0, c0, m, n, *rest)

        return search

    for name in ("_two_way", "_search"):
        monkeypatch.setattr(concat, name, counting(getattr(concat, name)))
    bounds = DimBounds(3, 3)
    for kind, candidate, target_b in (
        (ConcatKind.DIAG, diag_concat_nondet_2w(a, b), b),
        (ConcatKind.ROW, never, never),  # L(never) is empty, so is the target
    ):
        before = len(counts)
        assert refute(candidate, kind, a, target_b, bounds) is None
        assert len(counts) - before > 50, kind
    assert set(counts.values()) == {1}


def test_refute_equals_the_sweep_against_the_public_oracle_on_many_triples():
    # refute asks the split loop one prefix at a time; on seeded
    # (candidate, a, b) triples of every kind, at 2x3 and 3x3, it must
    # report exactly what equivalent_up_to reports against concat_membership.
    # The candidates are the diagonal product (right for diag, and for row
    # and col up to the first word of two rows and columns it rejects), the
    # product with another b, a machine with an empty language (wrong at
    # the target's first member) and a random machine, so that many sweeps
    # reach the words of two rows and columns
    rng = random.Random(2209)
    never = Automaton2D("never", "2W", "det", AB01, ("q0", "acc"), "q0", "acc", {})
    depth = collections.Counter()
    for i in range(72):
        a = random_2d(rng, ("2W", "3W")[i % 6 == 5], ("det", "nondet")[i % 2])
        b = random_2d(rng, ("2W", "3W", "4W")[i // 2 % 3], ("nondet", "det")[i // 6 % 2])
        other = random_2d(rng, "2W", ("det", "nondet")[i // 3 % 2])
        if a.variant == "2W" and b.variant == "2W" and i % 4 == 0:
            c = diag_concat_nondet_2w(a, b)
        elif a.variant == "2W" and i % 4 == 1:
            c = diag_concat_nondet_2w(a, other)
        elif i % 4 == 2:
            c = never
        else:
            c = random_2d(rng, ("2W", "3W", "4W")[i // 4 % 3], ("det", "nondet")[i // 12 % 2])
        for kind in ConcatKind:
            target = functools.partial(concat_membership, kind, a, b)
            for bounds in (DimBounds(2, 3), DimBounds(3, 3)):
                got = refute(c, kind, a, b, bounds)
                assert got == equivalent_up_to(c, target, bounds), (i, kind, bounds)
                depth["none" if got is None else "deep" if min(got.word.m, got.word.n) > 1 else "shallow"] += 1
    assert sum(depth.values()) >= 400
    assert depth["none"] + depth["deep"] >= 200 and depth["deep"] and depth["shallow"], depth


def test_a_four_way_sweep_checks_no_word_and_calls_no_accepts(monkeypatch):
    # a 4W sweep decides each word by the search of accepts on its rows:
    # the words are joined from the machine's own alphabet, so the symbol
    # check cannot fail on them, and neither it nor accepts runs per word
    from pictomata import simulate

    calls = collections.Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    machines = [wander4w(), random_2d(random.Random(41), "4W", "det"), random_2d(random.Random(42), "4W", "nondet")]
    want = {a.name: _old_language_up_to(a, DimBounds(3, 3)) for a in machines}
    for module, name in ((oracle, "accepts"), (simulate, "accepts"), (simulate, "check_input")):
        counted(module, name)
    for a in machines:
        got = language_up_to(a, DimBounds(3, 3))
        assert equivalent_up_to(a, got.__contains__, DimBounds(3, 3)) is None, a.name
        assert got == want[a.name], a.name
    assert calls == collections.Counter()


def test_refute_asks_the_public_oracle_once_and_the_split_loop_for_every_word(monkeypatch):
    # the first word goes through concat_membership for its checks alone;
    # every word, the first included, is decided by the split loop, so a
    # sweep with no counterexample asks the public oracle exactly once
    rng = random.Random(2610)
    a, b = random_2d(rng, "2W", "nondet"), random_2d(rng, "2W", "det")
    never = Automaton2D("never", "2W", "det", AB01, ("q0", "acc"), "q0", "acc", {})
    asked, split = [], collections.Counter()
    real_oracle, real_split = oracle.concat_membership, oracle._split_search

    def public(*args):
        asked.append(args[3].rows)
        return real_oracle(*args)

    def loop(kind, ca, cb, words, m, n):
        split.update(words)
        return real_split(kind, ca, cb, words, m, n)

    monkeypatch.setattr(oracle, "concat_membership", public)
    monkeypatch.setattr(oracle, "_split_search", loop)
    bounds = DimBounds(3, 3)
    every = [w.rows for w in enumerate_pictures(AB01, bounds)]
    for kind, candidate, target_b in (
        (ConcatKind.DIAG, diag_concat_nondet_2w(a, b), b),
        (ConcatKind.ROW, never, never),  # L(never) is empty, so is the target
    ):
        asked.clear()
        split.clear()
        assert refute(candidate, kind, a, target_b, bounds) is None
        assert asked == [("0",)], kind
        assert split == collections.Counter(every), kind


@pytest.mark.parametrize("rows, cols", [(0, 1), (1, 0), (0, 0), (-1, 3)])
def test_bounds_below_one_by_one_raise(rows, cols):
    with pytest.raises(PreconditionError) as got:
        DimBounds(rows, cols)
    assert type(got.value) is PreconditionError and str(got.value) == "bounds must be at least 1x1"
