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
"""

import enum
from itertools import product

from .automaton import Automaton2D
from .errors import AlphabetError, CapacityError, DimensionError
from .picture import Alphabet, Picture, subpicture
from .simulate import accepts_window, check_input


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
    simply not members.  Each factor runs on its block of w in place
    (:func:`~pictomata.simulate.accepts_window`); w's symbols are checked
    against the factors' alphabet once, before any split is tried.
    """
    _check_pair(a, b)
    check_input(a, w)
    m, n = w.m, w.n
    if kind is ConcatKind.ROW:
        return any(
            accepts_window(a, w, 1, i, 1, n) and accepts_window(b, w, i + 1, m, 1, n)
            for i in range(1, m)
        )
    if kind is ConcatKind.COL:
        return any(
            accepts_window(a, w, 1, m, 1, j) and accepts_window(b, w, 1, m, j + 1, n)
            for j in range(1, n)
        )
    if kind is ConcatKind.DIAG:
        for i in range(1, m):
            for j in range(1, n):
                if accepts_window(a, w, 1, i, 1, j) and accepts_window(b, w, i + 1, m, j + 1, n):
                    return True
        return False
    raise ValueError(f"unknown concat kind {kind!r}")


def split_separated(p: Picture) -> tuple[int, int, Picture, Picture] | None:
    """Decompose a boundary-separated diagonal layout.

    Expects exactly one all-``#`` row and one all-``#`` column, no stray
    ``#`` cells, and four nonempty quadrants; returns (sep_row, sep_col,
    top_left, bottom_right) or None if the layout is malformed.
    """
    hash_rows = [i for i in range(1, p.m + 1) if all(ch == "#" for ch in p.rows[i - 1])]
    hash_cols = [
        j for j in range(1, p.n + 1) if all(row[j - 1] == "#" for row in p.rows)
    ]
    if len(hash_rows) != 1 or len(hash_cols) != 1:
        return None
    sr, sc = hash_rows[0], hash_cols[0]
    for i, j in p.positions():
        if p.rows[i - 1][j - 1] == "#" and i != sr and j != sc:
            return None
    if not (2 <= sr <= p.m - 1 and 2 <= sc <= p.n - 1):
        return None
    return sr, sc, subpicture(p, 1, sr - 1, 1, sc - 1), subpicture(p, sr + 1, p.m, sc + 1, p.n)


def build_separated(w: Picture, v: Picture, fill_tr: Picture, fill_bl: Picture) -> Picture:
    """Assemble the separated diagonal layout with explicit filler blocks."""
    if fill_tr.m != w.m or fill_tr.n != v.n or fill_bl.m != v.m or fill_bl.n != w.n:
        raise DimensionError("filler blocks must match the factor dimensions")
    rows = [w.rows[i] + "#" + fill_tr.rows[i] for i in range(w.m)]
    rows.append("#" * (w.n + 1 + v.n))
    rows += [fill_bl.rows[i] + "#" + v.rows[i] for i in range(v.m)]
    return Picture(tuple(rows), allow_hash=True)
