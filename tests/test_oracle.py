import pytest

from corpus import (
    AB01,
    first_row_zeros,
    rowzeros_tall01,
    top_left_one,
    universal01,
)
from pictomata import (
    AlphabetError,
    Automaton2D,
    CapacityError,
    ConcatKind,
    DimBounds,
    PreconditionError,
    accepts,
    concat_membership,
    enumerate_pictures,
    equivalent_up_to,
    flip_attack,
    language_up_to,
    make_delta,
    picture_of,
    refute,
    replay_accepts,
    to_ibr,
    verify_counterexample,
)


def test_enumeration_order_is_total_and_deterministic():
    first = [w.rows for w in enumerate_pictures(AB01, DimBounds(2, 2))]
    second = [w.rows for w in enumerate_pictures(AB01, DimBounds(2, 2))]
    assert first == second
    assert first[:6] == [("0",), ("1",), ("00",), ("01",), ("10",), ("11",)]
    dims = [(len(r), len(r[0])) for r in first]
    assert dims == sorted(dims, key=lambda d: (d[0], d[1]))


def test_enumeration_budget():
    with pytest.raises(CapacityError):
        list(enumerate_pictures(AB01, DimBounds(4, 4), budget=100))


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


def test_flip_attack_none_when_all_cells_visited():
    # machine whose accepting run reads every cell of a 1xn word
    sweep = Automaton2D(
        "sweep_all", "2W", "det", AB01, ("q0", "acc"), "q0", "acc",
        make_delta([("q0", "0", "q0", "R"), ("q0", "1", "q0", "R"), ("q0", "#", "acc", "R")]),
    )
    assert flip_attack(sweep, picture_of(["010"]), lambda w: True) is None


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
