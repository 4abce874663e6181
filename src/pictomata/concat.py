"""Concatenation of two-dimensional words and membership oracles.

Row concatenation stacks two words with equal column counts; column
concatenation adjoins two words with equal row counts.  Diagonal
concatenation has no dimension precondition: the left factor sits in the
top-left corner, the right factor in the bottom-right corner, and the
remaining two corner blocks range over every filler word, so a single
pair of factors yields a whole set of results over a non-unary alphabet.

``concat_membership`` decides membership in the concatenation of two
*automaton* languages by enumerating split points and simulating each
factor directly.  It deliberately shares no code with the automaton
constructions elsewhere in this package: it is the ground truth they are
tested against.

The oracle comes in two forms that decide the same predicate.
``concat_membership`` is the one-shot definition: each call simulates
every block it needs afresh and keeps nothing, and the tests compare
against it.  :class:`ConcatOracle` serves a sweep, many words checked
against one (kind, a, b): it remembers each factor's verdict per
distinct block while the object lives, so a block shared by many words
of the sweep is simulated once.  The two loops stay apart because a
one-shot oracle pays for block keys and memo entries it never reads
again: routing ``concat_membership`` through a fresh ``ConcatOracle``
made each call 1.2-1.4x slower (40 random factor pairs on every picture
up to 3x3, Python 3.11).
"""

import enum
from itertools import product

from .automaton import Automaton2D
from .errors import AlphabetError, CapacityError, DimensionError
from .picture import Alphabet, Picture, _trusted_picture
from .simulate import _search, check_input


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
    ``cap`` guards the |alphabet|**(m*n' + m'*n) blow-up.
    """
    free = w.m * v.n + v.m * w.n
    count = len(alphabet) ** free
    if cap is not None and count > cap:
        raise CapacityError(f"diagonal filler set has {count} members, cap is {cap}")
    syms = alphabet.symbols
    out = set()
    for fill in product(syms, repeat=free):
        top = fill[: w.m * v.n]
        bottom = fill[w.m * v.n :]
        rows = []
        for i in range(w.m):
            rows.append(w.rows[i] + "".join(top[i * v.n : (i + 1) * v.n]))
        for i in range(v.m):
            rows.append("".join(bottom[i * w.n : (i + 1) * w.n]) + v.rows[i])
        out.add(Picture(tuple(rows)))
    return out


def _check_pair(a: Automaton2D, b: Automaton2D) -> None:
    if a.alphabet.symbols != b.alphabet.symbols:
        raise AlphabetError("factor machines must share one alphabet")


def concat_membership(kind: ConcatKind, a: Automaton2D, b: Automaton2D, w: Picture) -> bool:
    """Split-enumeration membership oracle for L(a) <kind> L(b).

    Row: some horizontal split puts the top rows in L(a) and the rest in
    L(b).  Col: symmetric on columns.  Diag: some interior point splits w
    into a top-left block in L(a) and a bottom-right block in L(b), with
    the other two corners unconstrained.  Words too small to split are
    simply not members.  w's symbols are checked against the factors'
    alphabet once, before any split is tried.  That alphabet never holds
    ``#``, whatever ``w.allow_hash`` says: L(a) and L(b) contain no word
    with a ``#`` cell, so neither does their concatenation, and such a
    ``w`` raises ``AlphabetError``.

    Each factor then runs on its block of w in place, by the search of
    :func:`~pictomata.simulate.accepts` on a window of w, as if on the
    block copied out with :func:`~pictomata.picture.subpicture`.  No
    check is repeated: every block lies inside w by construction, and
    its symbols are among w's, which have just been checked.  Nothing is
    remembered across calls, so each call simulates every block it needs
    afresh; :class:`ConcatOracle` is the same predicate for a sweep.
    """
    _check_pair(a, b)
    check_input(a, w, allow_hash=False)
    # check_input has built a's tables, so reading them cannot raise; b's
    # are read only once a's block is accepted, so a factor b that fails
    # to compile raises only then, after the kind has been checked.
    ca, rows, m, n = a.compiled, w.rows, w.m, w.n
    # Block rows r1..r2 x columns c1..c2 of w is the window
    # (r1 - 2, c1 - 2, r2 - r1 + 1, c2 - c1 + 1) of _search.
    if kind is ConcatKind.ROW:
        return any(
            _search(ca, rows, -1, -1, i, n) and _search(b.compiled, rows, i - 1, -1, m - i, n) for i in range(1, m)
        )
    if kind is ConcatKind.COL:
        return any(
            _search(ca, rows, -1, -1, m, j) and _search(b.compiled, rows, -1, j - 1, m, n - j) for j in range(1, n)
        )
    if kind is ConcatKind.DIAG:
        for i in range(1, m):
            for j in range(1, n):
                if _search(ca, rows, -1, -1, i, j) and _search(b.compiled, rows, i - 1, j - 1, m - i, n - j):
                    return True
        return False
    raise ValueError(f"unknown concat kind {kind!r}")


class ConcatOracle:
    """Split-enumeration membership oracle for L(a) <kind> L(b), for a sweep.

    Calling it on a word gives :func:`concat_membership`'s verdict, with
    the same checks, raised in the same order from the call: the pair
    check, the ``#``-free alphabet check of the word, then the kind.
    Splits are tried in the same order too, and b's block only once a's
    is accepted.  What differs is that each factor's verdict is
    remembered per block, keyed by the block's own rows, in one memo per
    factor (:attr:`memos`, a's then b's).  That is exact because a factor
    reads only the cells of its block and ``#`` around it, and the block
    is searched as a picture of its own.

    The memos live as long as the oracle object and need no cap.  Every
    block of a word within bounds of M rows and N columns is a picture
    strictly smaller in the split dimension: at most (M-1) x N for ROW,
    M x (N-1) for COL and (M-1) x (N-1) for DIAG.  So each memo holds no
    more blocks than there are such pictures, fewer than the sweep's own
    enumeration, which its budget already bounds.  Build one oracle per
    sweep and let it go with the sweep.
    """

    __slots__ = ("kind", "a", "b", "memos", "_splits")

    def __init__(self, kind: ConcatKind, a: Automaton2D, b: Automaton2D):
        self.kind = kind
        self.a = a
        self.b = b
        self.memos: tuple[dict, dict] = ({}, {})
        # chosen once per sweep; an unknown kind raises from the call
        self._splits = _SPLITS.get(kind)

    def __call__(self, w: Picture) -> bool:
        a, b = self.a, self.b
        _check_pair(a, b)
        check_input(a, w, allow_hash=False)
        if self._splits is None:
            raise ValueError(f"unknown concat kind {self.kind!r}")
        return self._splits(a, b, *self.memos, w.rows)


def _remembered(memo: dict, factor: Automaton2D, block: tuple[str, ...], m: int, n: int) -> bool:
    """The factor's verdict on the m x n ``block``, searched on a miss."""
    verdict = memo.get(block)
    if verdict is None:
        verdict = memo[block] = _search(factor.compiled, block, -1, -1, m, n)
    return verdict


# The split loops of ConcatOracle, one per kind, in concat_membership's
# split order, on blocks copied out of w's rows.


def _row_splits(a, b, memo_a, memo_b, rows) -> bool:
    m, n = len(rows), len(rows[0])
    return any(
        _remembered(memo_a, a, rows[:i], i, n) and _remembered(memo_b, b, rows[i:], m - i, n) for i in range(1, m)
    )


def _col_splits(a, b, memo_a, memo_b, rows) -> bool:
    m, n = len(rows), len(rows[0])
    return any(
        _remembered(memo_a, a, tuple([r[:j] for r in rows]), m, j)
        and _remembered(memo_b, b, tuple([r[j:] for r in rows]), m, n - j)
        for j in range(1, n)
    )


def _diag_splits(a, b, memo_a, memo_b, rows) -> bool:
    m, n = len(rows), len(rows[0])
    for i in range(1, m):
        top, bottom = rows[:i], rows[i:]
        for j in range(1, n):
            if _remembered(memo_a, a, tuple([r[:j] for r in top]), i, j) and _remembered(
                memo_b, b, tuple([r[j:] for r in bottom]), m - i, n - j
            ):
                return True
    return False


_SPLITS = {ConcatKind.ROW: _row_splits, ConcatKind.COL: _col_splits, ConcatKind.DIAG: _diag_splits}


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


def build_separated(w: Picture, v: Picture, fill_tr: Picture, fill_bl: Picture) -> Picture:
    """Assemble the separated diagonal layout with explicit filler blocks."""
    if fill_tr.m != w.m or fill_tr.n != v.n or fill_bl.m != v.m or fill_bl.n != w.n:
        raise DimensionError("filler blocks must match the factor dimensions")
    rows = [w.rows[i] + "#" + fill_tr.rows[i] for i in range(w.m)]
    rows.append("#" * (w.n + 1 + v.n))
    rows += [fill_bl.rows[i] + "#" + v.rows[i] for i in range(v.m)]
    return Picture(tuple(rows), allow_hash=True)
