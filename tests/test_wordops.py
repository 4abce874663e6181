import random

import pytest

from corpus import (
    AB01,
    corpus_2w,
    corpus_3w_det,
    corpus_edge_walkers,
    first_row_zeros,
    top_left_one,
    u_all_rows,
    u_one_row,
)
from pictomata import (
    Alphabet,
    CapacityError,
    ConcatKind,
    DimBounds,
    DimensionError,
    accepts,
    col_concat,
    concat_membership,
    diag_concat_words,
    enumerate_pictures,
    language_up_to,
    picture_of,
    row_concat,
    subpicture,
    transpose,
    transpose_automaton,
)


def test_row_concat_stacking():
    w = row_concat(picture_of(["00"]), picture_of(["01"]))
    assert w.rows == ("00", "01")
    assert (w.m, w.n) == (2, 2)


def test_row_concat_dimension_arithmetic():
    w = row_concat(picture_of(["01", "10"]), picture_of(["11"]))
    assert (w.m, w.n) == (3, 2)
    with pytest.raises(DimensionError):
        row_concat(picture_of(["00"]), picture_of(["000"]))


def test_col_concat_and_duality():
    w, v = picture_of(["0", "1"]), picture_of(["01", "10"])
    joined = col_concat(w, v)
    assert (joined.m, joined.n) == (2, 3)
    assert joined == transpose(row_concat(transpose(w), transpose(v)))
    with pytest.raises(DimensionError):
        col_concat(picture_of(["0"]), picture_of(["0", "0"]))


def test_diag_concat_unary_singleton():
    u = Alphabet(("a",))
    out = diag_concat_words(picture_of(["a"]), picture_of(["a"]), u)
    assert out == {picture_of(["aa", "aa"])}


def test_diag_concat_binary_filler_count():
    out = diag_concat_words(picture_of(["0"]), picture_of(["0"]), AB01)
    assert len(out) == 4  # one free cell in each filler corner
    for w in out:
        assert w.cell(1, 1) == "0" and w.cell(2, 2) == "0"


def test_diag_concat_block_layout():
    w, v = picture_of(["01"]), picture_of(["1", "1"])
    out = diag_concat_words(w, v, AB01)
    assert len(out) == 2 ** (1 * 1 + 2 * 2)
    for p in out:
        assert (p.m, p.n) == (3, 3)
        assert p.rows[0][:2] == "01"
        assert p.rows[1][2] == "1" and p.rows[2][2] == "1"


def test_diag_concat_words_equals_its_definition():
    # the (m+m') x (n+n') pictures, read off the enumeration, whose top-left
    # m x n block is w and whose bottom-right m' x n' block is v: a seeded
    # sample of factors per shape pair with m+m' <= 3, n+n' <= 4, and a
    # unary case
    rng = random.Random(0)
    shapes = [(m, n, m2, n2) for m in (1, 2) for m2 in range(1, 4 - m) for n in (1, 2, 3) for n2 in range(1, 5 - n)]
    cases = [(AB01, *shape) for shape in shapes for _ in range(3)] + [(Alphabet(("a",)), 1, 2, 2, 1)]
    sized = {}
    for alphabet, m, n, m2, n2 in cases:
        w, v = (
            picture_of(["".join(rng.choice(alphabet.symbols) for _ in range(cols)) for _ in range(rows)])
            for rows, cols in ((m, n), (m2, n2))
        )
        height, width = m + m2, n + n2
        if (alphabet, height, width) not in sized:
            bounded = enumerate_pictures(alphabet, DimBounds(height, width))
            sized[alphabet, height, width] = [p for p in bounded if (p.m, p.n) == (height, width)]
        expected = {
            p
            for p in sized[alphabet, height, width]
            if subpicture(p, 1, m, 1, n) == w and subpicture(p, m + 1, height, n + 1, width) == v
        }
        assert len(expected) == len(alphabet) ** (m * n2 + m2 * n)
        assert diag_concat_words(w, v, alphabet) == expected, (w.rows, v.rows)


def test_diag_concat_cap():
    with pytest.raises(CapacityError):
        diag_concat_words(picture_of(["00"]), picture_of(["00"]), AB01, cap=3)


def test_diag_concat_cap_is_exact_and_never_formats_the_count():
    w, v = picture_of(["00"]), picture_of(["00"])  # 4 free cells: 16 fillers
    assert len(diag_concat_words(w, v, AB01, cap=16)) == 16
    with pytest.raises(CapacityError, match=r"2\*\*4 .* cap of 15"):
        diag_concat_words(w, v, AB01, cap=15)
    assert len(diag_concat_words(w, v, Alphabet(("0",)), cap=1)) == 1
    for cap in (0, -1):
        with pytest.raises(CapacityError):
            diag_concat_words(w, v, Alphabet(("0",)), cap=cap)
    # 2 * 100 * 100 free cells, 2**20000 fillers: the message stays short
    big = picture_of(["0" * 100] * 100)
    with pytest.raises(CapacityError) as info:
        diag_concat_words(big, big, AB01, cap=10**6)
    assert len(str(info.value)) < 100


def test_every_concatenation_keeps_its_factors_hash_permission():
    # a factor built with allow_hash may hold '#' cells; row_concat,
    # col_concat and diag_concat_words all pass the permission on
    w, v = picture_of(["0#"], allow_hash=True), picture_of(["1"])
    assert row_concat(w, picture_of(["11"])).allow_hash
    assert col_concat(w, v).allow_hash
    for first, second in ((w, v), (v, w)):
        out = diag_concat_words(first, second, AB01)
        assert len(out) == 2 ** (first.m * second.n + second.m * first.n)
        assert all(p.allow_hash and "#" in "".join(p.rows) for p in out)
    assert not any(p.allow_hash for p in diag_concat_words(v, v, AB01))


def test_row_membership_witness_words():
    L = first_row_zeros()
    assert concat_membership(ConcatKind.ROW, L, L, picture_of(["00", "00"]))
    assert not concat_membership(ConcatKind.ROW, L, L, picture_of(["00", "01"]))
    # too small to split
    assert not concat_membership(ConcatKind.ROW, L, L, picture_of(["00"]))


def test_diag_membership_gadget_word():
    L = top_left_one()
    gadget = picture_of(["100", "000", "000"])
    assert not concat_membership(ConcatKind.DIAG, L, L, gadget)
    assert concat_membership(ConcatKind.DIAG, L, L, picture_of(["100", "000", "010"]))
    assert not concat_membership(ConcatKind.DIAG, L, L, picture_of(["1"]))


def test_col_membership_degenerate():
    L = first_row_zeros()
    assert not concat_membership(ConcatKind.COL, L, L, picture_of(["0", "0"]))


def test_membership_agrees_with_explicit_concatenation_row():
    # independent route: build the concatenation set from the enumerated
    # factor languages, then compare with the split oracle
    a, b = u_one_row(), u_all_rows()
    bounds = DimBounds(4, 4)
    la = language_up_to(a, bounds)
    lb = language_up_to(b, bounds)
    explicit = set()
    for wa in la:
        for wb in lb:
            if wa.n == wb.n and wa.m + wb.m <= 4:
                explicit.add(row_concat(wa, wb))
    from pictomata import enumerate_pictures

    for w in enumerate_pictures(a.alphabet, bounds):
        assert concat_membership(ConcatKind.ROW, a, b, w) == (w in explicit), w.rows


def test_membership_agrees_with_explicit_concatenation_diag():
    a = b = top_left_one()
    bounds = DimBounds(3, 3)
    la = language_up_to(a, bounds)
    lb = language_up_to(b, bounds)
    explicit = set()
    for wa in la:
        for wb in lb:
            if wa.m + wb.m <= 3 and wa.n + wb.n <= 3:
                explicit |= diag_concat_words(wa, wb, a.alphabet)
    from pictomata import enumerate_pictures

    for w in enumerate_pictures(a.alphabet, bounds):
        assert concat_membership(ConcatKind.DIAG, a, b, w) == (w in explicit), w.rows


def test_membership_transpose_duality():
    a, b = u_one_row(), u_all_rows()
    at, bt = transpose_automaton(a), transpose_automaton(b)
    from pictomata import enumerate_pictures

    for w in enumerate_pictures(a.alphabet, DimBounds(4, 4)):
        assert concat_membership(ConcatKind.COL, a, b, w) == concat_membership(
            ConcatKind.ROW, at, bt, transpose(w)
        )


def _split_member(kind, a, b, w):
    # the split definition, on blocks copied out of w
    m, n = w.m, w.n
    if kind is ConcatKind.ROW:
        splits = [((1, i, 1, n), (i + 1, m, 1, n)) for i in range(1, m)]
    elif kind is ConcatKind.COL:
        splits = [((1, m, 1, j), (1, m, j + 1, n)) for j in range(1, n)]
    else:
        splits = [((1, i, 1, j), (i + 1, m, j + 1, n)) for i in range(1, m) for j in range(1, n)]
    return any(accepts(a, subpicture(w, *ta)) and accepts(b, subpicture(w, *tb)) for ta, tb in splits)


def test_membership_equals_the_split_definition_on_copied_blocks():
    # pins the in-place block arithmetic of every kind, for two-, three-
    # and four-way factors whose heads step off their block on every side
    machines = [a for a in corpus_2w() + corpus_3w_det() + corpus_edge_walkers() if a.alphabet == AB01]
    pairs = list(zip(machines, machines[5:] + machines[:5]))
    words = list(enumerate_pictures(AB01, DimBounds(3, 3)))
    for kind in ConcatKind:
        for a, b in pairs:
            for w in words:
                expected = _split_member(kind, a, b, w)
                assert concat_membership(kind, a, b, w) == expected, (kind, a.name, b.name, w.rows)
