"""Concatenation of two-dimensional words and the membership oracle.

Row concatenation stacks two words with equal column counts; column
concatenation adjoins two words with equal row counts.  Diagonal
concatenation has no dimension precondition: the left factor sits in the
top-left corner, the right factor in the bottom-right corner, and the
remaining two corner blocks range over every filler word, so a single
pair of factors yields a whole set of results over a non-unary alphabet.

:func:`concat_membership` decides membership in the concatenation of
two *automaton* languages by enumerating split points and simulating
each factor directly.  It deliberately shares no code with the automaton
constructions elsewhere in this package: it is the ground truth they are
tested against, one word at a time.  It keeps no verdict between calls;
only each size's split table is kept, in ``_TABLES``.
"""

import enum
from itertools import product

from .automaton import Automaton2D, Compiled
from .errors import AlphabetError, CapacityError, DimensionError
from .picture import Alphabet, Picture, _trusted_picture
from .simulate import _search, _two_way


class ConcatKind(enum.Enum):
    ROW = "row"
    COL = "col"
    DIAG = "diag"


def row_concat(w: Picture, v: Picture) -> Picture:
    """Stack w on top of v; both must have the same number of columns."""
    if w.n != v.n:
        raise DimensionError(f"row concat needs equal column counts ({w.n} vs {v.n})")
    return Picture(w.rows + v.rows, allow_hash=w.allow_hash or v.allow_hash)


def col_concat(w: Picture, v: Picture) -> Picture:
    """Adjoin v to the right of w; both must have the same number of rows."""
    if w.m != v.m:
        raise DimensionError(f"col concat needs equal row counts ({w.m} vs {v.m})")
    rows = tuple(a + b for a, b in zip(w.rows, v.rows))
    return Picture(rows, allow_hash=w.allow_hash or v.allow_hash)


def diag_concat_words(
    w: Picture, v: Picture, alphabet: Alphabet, cap: int | None = None
) -> set[Picture]:
    """All (m+m') x (n+n') words with w top-left, v bottom-right.

    The top-right m x n' and bottom-left m' x n blocks range over every
    word on ``alphabet``; over a unary alphabet the result is a singleton.
    Each result is ``row_concat(col_concat(w, x), col_concat(y, v))`` for
    a top-right filler x and a bottom-left filler y, so it carries the
    hash permission those two operations give it.
    ``cap`` guards the |alphabet|**(m*n' + m'*n) blow-up.  The check
    takes the power only up to the cap's bit length, which two or more
    symbols already raise past the cap, so it never builds the count.
    """
    free = w.m * v.n + v.m * w.n
    k = len(alphabet)
    if cap is not None and k ** min(free, cap.bit_length()) > cap:
        raise CapacityError(f"diagonal filler set of {k}**{free} members exceeds the cap of {cap}")

    def fillers(m: int, n: int) -> list[Picture]:
        rows = ["".join(row) for row in product(alphabet.symbols, repeat=n)]
        return [Picture(block) for block in product(rows, repeat=m)]

    tops = [col_concat(w, x) for x in fillers(w.m, v.n)]
    bottoms = [col_concat(y, v) for y in fillers(v.m, w.n)]
    return {row_concat(top, bottom) for top in tops for bottom in bottoms}


# keyed by the kind's value, which hashes in C, unlike the member itself
_TABLES: dict[tuple[str, int, int], tuple] = {}


def _splits(kind: ConcatKind, m: int, n: int) -> tuple:
    """The (a-window, b-window) pair of every split of an m x n word, in
    split order: row cut outer, column cut inner.

    A window is the ``(r0, c0, rows, cols)`` of :func:`_search`.  Row: the
    top i rows go to a and the rest to b.  Col: the left j columns to a
    and the rest to b.  Diag: the top-left i x j block to a and the
    bottom-right (m-i) x (n-j) block to b, the other two corners
    unconstrained.  A word too small to split has no entry.  Each table
    is built on first use and kept in ``_TABLES``, one per kind and size,
    so a sweep builds it once per size; it has fewer entries than the
    word has cells.
    """
    key = (kind._value_, m, n)
    splits = _TABLES.get(key)
    if splits is None:
        # (rows, cols) of a's block, then the rows above and columns left of b's
        if kind is ConcatKind.ROW:
            cuts = [(i, n, i, 0) for i in range(1, m)]
        elif kind is ConcatKind.COL:
            cuts = [(m, j, 0, j) for j in range(1, n)]
        else:
            cuts = [(i, j, i, j) for i in range(1, m) for j in range(1, n)]
        splits = _TABLES[key] = tuple(((-1, -1, i, j), (r - 1, c - 1, m - r, n - c)) for i, j, r, c in cuts)
    return splits


def concat_membership(kind: ConcatKind, a: Automaton2D, b: Automaton2D, w: Picture) -> bool:
    """Split-enumeration membership oracle for L(a) <kind> L(b).

    Row: some horizontal split puts the top rows in L(a) and the rest in
    L(b).  Col: symmetric on columns.  Diag: some interior point splits w
    into a top-left block in L(a) and a bottom-right block in L(b), with
    the other two corners unconstrained.  Words too small to split are
    simply not members.

    The checks come first, in this order: the factors read the same set
    of symbols, a compiles, w's cells lie in that set, and the kind is a
    :class:`ConcatKind`.  A ``#`` cell raises ``AlphabetError`` whatever
    ``w.allow_hash`` says: L(a) and L(b) contain no word with one, so
    neither does their concatenation.  Then b is compiled, so a factor b
    that fails to compile raises before any split is tried, and
    :func:`_split_search` decides w as a group of one, with no check
    repeated: every block lies inside w, and its symbols are among w's.
    """
    sa, sb = a.alphabet.symbols, b.alphabet.symbols
    if sa != sb and set(sa) != set(sb):  # a set costs ~7x a tuple compare
        raise AlphabetError("factor machines must share one alphabet")
    ca, rows = a.compiled, w.rows
    cells = "".join(rows)
    if not ca.symbols.issuperset(cells):
        raise AlphabetError(f"picture uses symbols {sorted(set(cells).difference(sa))} unknown to {a.name!r}")
    if not isinstance(kind, ConcatKind):
        raise ValueError(f"unknown concat kind {kind!r}")
    return not _split_search(kind, ca, b.compiled, (rows,), w.m, w.n)


def _split_search(kind: ConcatKind, ca: Compiled, cb: Compiled, words, m: int, n: int):
    """The words of ``words`` that no split puts in L(a) <kind> L(b), in
    their order: the split loop, on the compiled factors, with none of
    the checks of :func:`concat_membership`.

    ``words`` is a *prefix group*: m x n words, each a tuple of rows, that
    share their first m-1 rows.  Each factor runs on its block in place,
    by the search of :func:`~pictomata.simulate.accepts` on a window from
    :func:`_splits`, as if on the block copied out with
    :func:`~pictomata.picture.subpicture`.  Splits go in split order, and
    each word drops out at its first split that holds.  a's block above
    the last row (row and diagonal splits) reads the same cells in every
    word of the group, so a runs on it once, on the first word; every
    other block is run per word.  While one word is open it is searched
    without a loop over the words, which would cost a group of one a few
    percent.  Words that share the symbols, kind and factors of a word
    that passed those checks cannot fail them."""
    search_a = _two_way if ca.is2w else _search
    search_b = _two_way if cb.is2w else _search
    splits = _TABLES.get((kind._value_, m, n))
    if splits is None:
        splits = _splits(kind, m, n)
    first = words[0]
    left = words
    for (r0, c0, m0, n0), b_window in splits:
        # a's block runs from the top row down, so m0 < m puts it above the last row
        if m0 < m and not search_a(ca, first, r0, c0, m0, n0):
            continue
        r1, c1, m1, n1 = b_window
        if len(left) == 1:
            rows = left[0]
            if (m0 < m or search_a(ca, rows, r0, c0, m0, n0)) and search_b(cb, rows, r1, c1, m1, n1):
                return []
            continue
        for rows in left:
            if (m0 < m or search_a(ca, rows, r0, c0, m0, n0)) and search_b(cb, rows, r1, c1, m1, n1):
                left = [other for other in left if other is not rows]
        if not left:
            return left
    return left


def split_separated(p: Picture) -> tuple[int, int, Picture, Picture] | None:
    """Decompose a boundary-separated diagonal layout.

    Expects exactly one all-``#`` row and one all-``#`` column, no stray
    ``#`` cells, and four nonempty quadrants; returns (sep_row, sep_col,
    top_left, bottom_right) or None if the layout is malformed.

    Only rows are inspected.  Once every row but the separator row holds
    exactly one ``#``, all in column sc, that column is all ``#``, no
    other column can be (it has a non-``#`` cell in the first row), and
    no ``#`` lies off the two separators; so this equals the definition
    that tests every row and every column.
    """
    rows, m, n = p.rows, p.m, p.n
    bar = "#" * n
    if rows.count(bar) != 1:
        return None
    sr = rows.index(bar) + 1
    sc = rows[0].find("#") + 1
    if not (2 <= sr <= m - 1 and 2 <= sc <= n - 1):
        return None
    for i, row in enumerate(rows, 1):
        if i != sr and (row[sc - 1] != "#" or row.count("#") != 1):
            return None
    # #-free, nonempty slices of the rows of a checked picture
    top_left = _trusted_picture(tuple([row[: sc - 1] for row in rows[: sr - 1]]))
    bottom_right = _trusted_picture(tuple([row[sc:] for row in rows[sr:]]))
    return sr, sc, top_left, bottom_right
