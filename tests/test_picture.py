import dataclasses

import pytest
from hypothesis import given, strategies as st

from corpus import build_separated
from pictomata import (
    Alphabet,
    AlphabetError,
    OutOfBandError,
    Picture,
    WindowError,
    format_picture,
    parse_picture,
    picture_of,
    read_cell,
    split_separated,
    subpicture,
    transpose,
)
from pictomata.picture import _trusted_picture


def pictures(symbols="01", max_dim=4):
    rows = st.integers(1, max_dim)
    cols = st.integers(1, max_dim)
    return st.tuples(rows, cols).flatmap(
        lambda mn: st.lists(
            st.text(alphabet=symbols, min_size=mn[1], max_size=mn[1]),
            min_size=mn[0],
            max_size=mn[0],
        ).map(lambda rs: picture_of(rs))
    )


def test_alphabet_rejects_hash_and_duplicates():
    with pytest.raises(AlphabetError):
        Alphabet(("0", "#"))
    with pytest.raises(AlphabetError):
        Alphabet(("0", "0"))
    with pytest.raises(AlphabetError):
        Alphabet(())
    assert Alphabet(("a",)).unary
    assert not Alphabet(("0", "1")).unary
    # membership is iteration over the symbols: the marker is never one
    assert "0" in Alphabet(("0", "1")) and "#" not in Alphabet(("0", "1"))


def test_picture_shape_checks():
    with pytest.raises(WindowError):
        picture_of(["01", "0"])
    with pytest.raises(AlphabetError, match="'#' cell needs allow_hash"):
        picture_of(["00", "0#"])
    # the first bad cell of a row is the one named
    with pytest.raises(AlphabetError, match="'#' cell needs allow_hash"):
        picture_of(["0#\t"])
    with pytest.raises(AlphabetError, match=r"unprintable cell '\\t'"):
        picture_of(["0\t#"])
    with pytest.raises(AlphabetError, match=r"unprintable cell '\\n'"):
        picture_of(["0\n#"], allow_hash=True)
    p = picture_of(["0#"], allow_hash=True)
    assert p.cell(1, 2) == "#"


def test_read_cell_in_bounds_and_frame():
    w = picture_of(["00", "00"])
    assert read_cell(w, (1, 1)) == "0"
    assert read_cell(w, (0, 1)) == "#"
    assert read_cell(w, (3, 2)) == "#"
    assert read_cell(w, (1, 3)) == "#"
    with pytest.raises(OutOfBandError):
        read_cell(w, (4, 1))
    with pytest.raises(OutOfBandError):
        read_cell(w, (-1, 0))


def test_read_cell_boundary_iff_outside_word():
    w = picture_of(["01", "10", "11"])
    for r in range(0, w.m + 2):
        for c in range(0, w.n + 2):
            inside = 1 <= r <= w.m and 1 <= c <= w.n
            assert (read_cell(w, (r, c)) == "#") == (not inside)


def test_diag_layout_filler_read():
    # 1x1 words diagonally concatenated: position (1, n+1) holds the
    # top-right filler cell, not a boundary marker.
    layout = picture_of(["01", "10"])
    assert read_cell(layout, (1, 2)) == "1"


def test_transpose_examples():
    assert transpose(picture_of(["011"])).rows == ("0", "1", "1")
    w = picture_of(["00", "00"])
    assert transpose(w) == w
    v = picture_of(["010", "001"])
    assert transpose(transpose(v)) == v


@given(pictures())
def test_transpose_involution_and_multiset(w):
    t = transpose(w)
    assert (t.m, t.n) == (w.n, w.m)
    assert transpose(t) == w
    assert sorted("".join(t.rows)) == sorted("".join(w.rows))


def test_subpicture_windows():
    w = picture_of(["012", "345", "678"])
    assert subpicture(w, 1, 3, 1, 3) == w
    assert subpicture(w, 2, 3, 2, 3).rows == ("45", "78")
    assert subpicture(w, 1, 1, 1, 1).rows == ("0",)
    with pytest.raises(WindowError):
        subpicture(w, 2, 1, 1, 3)
    for window in ((1, 4, 1, 3), (0, 1, 1, 1), (1, 1, 3, 4)):
        with pytest.raises(WindowError):
            subpicture(w, *window)


@given(pictures(max_dim=3))
def test_subpicture_full_window_identity(w):
    assert subpicture(w, 1, w.m, 1, w.n) == w


def test_with_cell():
    w = picture_of(["00", "00"])
    v = w.with_cell((2, 1), "1")
    assert v.rows == ("00", "10")
    assert w.rows == ("00", "00")


def test_parse_and_format_round_trip():
    text = "; comment line\n010\n101\n"
    w = parse_picture(text)
    assert w.rows == ("010", "101")
    assert parse_picture(format_picture(w)) == w
    with pytest.raises(AlphabetError):
        parse_picture("0#\n00\n")
    assert parse_picture("0#\n00\n", allow_hash=True).allow_hash


def test_allow_hash_not_part_of_identity():
    assert picture_of(["00"]) == picture_of(["00"], allow_hash=True)
    assert len({picture_of(["00"]), picture_of(["00"], allow_hash=True)}) == 1


@given(pictures())
def test_sizes_are_right_on_every_construction_path(w):
    made = [
        w,
        Picture(w.rows, allow_hash=True),
        _trusted_picture(w.rows),
        _trusted_picture(w.rows, allow_hash=True),
        dataclasses.replace(w, rows=w.rows + w.rows[:1]),
        dataclasses.replace(w, rows=tuple(r + "0" for r in w.rows)),
        w.with_cell((w.m, w.n), "#"),
        subpicture(w, 1, w.m, w.n, w.n),
        subpicture(w, w.m, w.m, 1, w.n),
        transpose(w),
    ]
    layout = build_separated(w, w, w, w)
    made += [layout, *split_separated(layout)[2:]]
    for p in made:
        assert (p.m, p.n) == (len(p.rows), len(p.rows[0])), p.rows


def test_sizes_stay_out_of_identity_and_repr():
    w = picture_of(["010", "101"])
    assert (w.m, w.n) == (2, 3)
    skewed = _trusted_picture(w.rows)
    skewed.__dict__.update(m=7, n=9)
    assert skewed == w and hash(skewed) == hash(w)
    assert repr(skewed) == repr(w) == "Picture(rows=('010', '101'), allow_hash=False)"
    with pytest.raises(TypeError):
        Picture(("0",), m=1)
    with pytest.raises(ValueError):
        dataclasses.replace(w, n=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.m = 3
