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
of the sweep is simulated once.  Both read what they share from one
place.  :func:`_prologue` makes their checks, in one order, and
compiles b before any split.  :func:`_splits` is the split geometry of
all three kinds: for each size of word, the pair of blocks of every
split, as windows of the word, in split order.  ``concat_membership``
searches each window in place; ``ConcatOracle`` copies it out as the key
of its memo.
"""

import enum
from itertools import product

from .automaton import Automaton2D, Compiled
from .errors import AlphabetError, CapacityError, DimensionError
from .picture import Alphabet, Picture, _trusted_picture
from .simulate import _search, _two_way, check_input


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
    ``cap`` guards the |alphabet|**(m*n' + m'*n) blow-up.  The check
    takes the power only up to the cap's bit length, which two or more
    symbols already raise past the cap, so it never builds the count.
    """
    free = w.m * v.n + v.m * w.n
    k = len(alphabet)
    if cap is not None and k ** min(free, cap.bit_length()) > cap:
        raise CapacityError(f"diagonal filler set of {k}**{free} members exceeds the cap of {cap}")
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


def _prologue(kind: ConcatKind, a: Automaton2D, b: Automaton2D, w: Picture) -> Compiled:
    """The checks of both oracles, in this order: the factors share one
    alphabet, w's cells lie in it without ``#``, and the kind is a
    :class:`ConcatKind`.  Returns b's compiled tables, so a factor b that
    fails to compile raises here too, before any split is tried.

    The alphabet never holds ``#``, whatever ``w.allow_hash`` says: L(a)
    and L(b) contain no word with a ``#`` cell, so neither does their
    concatenation, and such a ``w`` raises ``AlphabetError``.
    """
    if a.alphabet.symbols != b.alphabet.symbols:
        raise AlphabetError("factor machines must share one alphabet")
    if not a.compiled.legal[False].issuperset("".join(w.rows)):
        check_input(a, w, allow_hash=False)  # raises, naming the symbols
    if not isinstance(kind, ConcatKind):
        raise ValueError(f"unknown concat kind {kind!r}")
    return b.compiled


# keyed by the kind's value, which hashes in C, unlike the member itself
_TABLES: dict[str, dict[tuple[int, int], tuple]] = {kind.value: {} for kind in ConcatKind}


def _splits(kind: ConcatKind, m: int, n: int) -> tuple:
    """The (a-window, b-window) pair of every split of an m x n word, in
    split order: row cut outer, column cut inner.

    A window is the ``(r0, c0, rows, cols)`` of :func:`_search`, whose
    cell (i, j) is ``rows[r0 + i][c0 + j]`` of the word.  Row: the top i
    rows go to a and the rest to b.  Col: the left j columns to a and the
    rest to b.  Diag: the top-left i x j block to a and the bottom-right
    (m-i) x (n-j) block to b, the other two corners unconstrained.  So
    a's block always starts at the word's top-left cell and b's always
    ends at its bottom-right one.  A word too small to split has no
    entry.  Each table is built on first use and kept, one per kind and
    size; it has fewer entries than the word has cells.
    """
    table = _TABLES[kind._value_]
    splits = table.get((m, n))
    if splits is None:
        # (rows, cols) of a's block, then the rows above and columns left of b's
        if kind is ConcatKind.ROW:
            cuts = [(i, n, i, 0) for i in range(1, m)]
        elif kind is ConcatKind.COL:
            cuts = [(m, j, 0, j) for j in range(1, n)]
        else:
            cuts = [(i, j, i, j) for i in range(1, m) for j in range(1, n)]
        splits = table[m, n] = tuple(((-1, -1, i, j), (r - 1, c - 1, m - r, n - c)) for i, j, r, c in cuts)
    return splits


def concat_membership(kind: ConcatKind, a: Automaton2D, b: Automaton2D, w: Picture) -> bool:
    """Split-enumeration membership oracle for L(a) <kind> L(b).

    Row: some horizontal split puts the top rows in L(a) and the rest in
    L(b).  Col: symmetric on columns.  Diag: some interior point splits w
    into a top-left block in L(a) and a bottom-right block in L(b), with
    the other two corners unconstrained.  Words too small to split are
    simply not members.  The checks of :func:`_prologue` come first.

    Each factor then runs on its block of w in place, by the search of
    :func:`~pictomata.simulate.accepts` on a window of w from
    :func:`_splits`, as if on the block copied out with
    :func:`~pictomata.picture.subpicture`: the 2W kernel for a 2W factor,
    the generic search for any other, picked once per call.  No check is
    repeated: every block lies inside w by construction, and its symbols
    are among w's, which have just been checked.  Nothing is remembered across calls, so
    each call simulates every block it needs afresh; :class:`ConcatOracle`
    is the same predicate for a sweep.
    """
    cb = _prologue(kind, a, b, w)
    ca, rows = a.compiled, w.rows
    search_a = _two_way if ca.is2w else _search
    search_b = _two_way if cb.is2w else _search
    for (r0, c0, m0, n0), (r1, c1, m1, n1) in _splits(kind, w.m, w.n):
        if search_a(ca, rows, r0, c0, m0, n0) and search_b(cb, rows, r1, c1, m1, n1):
            return True
    return False


class ConcatOracle:
    """Split-enumeration membership oracle for L(a) <kind> L(b), for a sweep.

    Calling it on a word gives :func:`concat_membership`'s verdict, with
    the same checks of :func:`_prologue`, raised from the call.  It tries
    the same splits of :func:`_splits` in the same order, and b's block
    only once a's is accepted.  What differs is that each block is copied
    out of the word and each factor's verdict is remembered per block,
    keyed by the block's own rows, in one memo per factor (:attr:`memos`,
    a's then b's).  That is exact because a factor reads only the cells
    of its block and ``#`` around it, and the block is searched as a
    picture of its own.

    The memos live as long as the oracle object and need no cap.  Every
    block of a word within bounds of M rows and N columns is a picture
    strictly smaller in the split dimension: at most (M-1) x N for ROW,
    M x (N-1) for COL and (M-1) x (N-1) for DIAG.  So each memo holds no
    more blocks than there are such pictures, fewer than the sweep's own
    enumeration, which its budget already bounds.  Build one oracle per
    sweep and let it go with the sweep.
    """

    __slots__ = ("kind", "a", "b", "memos")

    def __init__(self, kind: ConcatKind, a: Automaton2D, b: Automaton2D):
        self.kind = kind
        self.a = a
        self.b = b
        self.memos: tuple[dict, dict] = ({}, {})

    def __call__(self, w: Picture) -> bool:
        cb = _prologue(self.kind, self.a, self.b, w)
        ca, rows = self.a.compiled, w.rows
        memo_a, memo_b = self.memos
        # a's block starts at w's top-left cell, b's ends at its bottom-right
        for (_, _, m0, n0), (r1, c1, m1, n1) in _splits(self.kind, w.m, w.n):
            if _remembered(memo_a, ca, tuple([r[:n0] for r in rows[:m0]]), m0, n0) and _remembered(
                memo_b, cb, tuple([r[c1 + 1 :] for r in rows[r1 + 1 :]]), m1, n1
            ):
                return True
        return False


def _remembered(memo: dict, comp: Compiled, block: tuple[str, ...], m: int, n: int) -> bool:
    """The factor's verdict on the m x n ``block``, searched on a miss."""
    verdict = memo.get(block)
    if verdict is None:
        search = _two_way if comp.is2w else _search
        verdict = memo[block] = search(comp, block, -1, -1, m, n)
    return verdict


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
