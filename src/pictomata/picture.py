"""Two-dimensional words (pictures) over a finite alphabet.

A picture is a rectangular m x n array of single-character symbols,
1-indexed, conceptually surrounded by an unbounded frame of the boundary
marker ``#``.  Reads are total over the extended band
``[0..m+1] x [0..n+1]``: any in-band position outside the word proper
reads ``#``.
"""

from dataclasses import dataclass, field
from itertools import product

from .errors import AlphabetError, OutOfBandError, ToolkitError, WindowError

BOUNDARY = "#"

#: Head positions are 1-based (row, col) pairs; row 0 / m+1 and col 0 / n+1
#: address the boundary frame.
Position = tuple[int, int]


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free set of single printable characters.

    ``#`` is reserved for the boundary marker and is never a member.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.symbols, tuple):
            raise AlphabetError(f"alphabet symbols must be a tuple of strings, not {self.symbols!r}")
        if not self.symbols:
            raise AlphabetError("alphabet must be nonempty")
        seen = set()
        for s in self.symbols:
            if not isinstance(s, str) or len(s) != 1 or not s.isprintable():
                raise AlphabetError(f"bad symbol {s!r}: need one printable character")
            if s == BOUNDARY:
                raise AlphabetError("'#' is reserved for the boundary marker")
            if s in seen:
                raise AlphabetError(f"duplicate symbol {s!r}")
            seen.add(s)

    @property
    def unary(self) -> bool:
        return len(self.symbols) == 1

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class Picture:
    """Immutable rectangular word.

    ``rows`` is a tuple of row strings, all of equal, nonzero length.
    ``allow_hash`` permits ``#`` cells (used only for layouts in which the
    factors of a diagonal concatenation are separated by boundary markers);
    it is a construction-time permission, not part of picture identity, so
    equality and hashing consider cell contents only.  ``m`` (row count)
    and ``n`` (column count) are derived from ``rows`` once, at
    construction, and take no part in equality, hashing or ``repr``.
    """

    rows: tuple[str, ...]
    allow_hash: bool = field(default=False, compare=False)
    m: int = field(init=False, compare=False, repr=False)
    n: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.rows, tuple):
            raise WindowError(f"picture rows must be a tuple of strings, not {self.rows!r}")
        if not self.rows:
            raise WindowError("picture must have at least one row")
        try:  # a row that is no string fails len() or isprintable()
            width = len(self.rows[0])
            if width == 0:
                raise WindowError("picture must have at least one column")
            for r in self.rows:
                if len(r) != width:
                    raise WindowError("picture rows must all have equal length")
                if r.isprintable() and (self.allow_hash or BOUNDARY not in r):
                    continue
                for ch in r:  # only to name the first bad cell
                    if not ch.isprintable():
                        raise AlphabetError(f"unprintable cell {ch!r}")
                    if ch == BOUNDARY and not self.allow_hash:
                        raise AlphabetError("'#' cell needs allow_hash")
        except (TypeError, AttributeError):
            raise WindowError(f"picture rows must be a tuple of strings, not {self.rows!r}") from None
        fields = self.__dict__
        fields["m"] = len(self.rows)
        fields["n"] = width

    def cell(self, row: int, col: int) -> str:
        """1-based access to a cell inside the word proper."""
        if not (1 <= row <= self.m and 1 <= col <= self.n):
            raise OutOfBandError(f"cell ({row},{col}) outside {self.m}x{self.n} word")
        return self.rows[row - 1][col - 1]

    def with_cell(self, pos: Position, sym: str) -> "Picture":
        """Copy of this picture with one cell replaced by ``sym``, which
        must be one character."""
        row, col = pos
        self.cell(row, col)
        if len(sym) != 1:
            raise AlphabetError(f"bad symbol {sym!r}: need one printable character")
        new = list(self.rows)
        new[row - 1] = new[row - 1][: col - 1] + sym + new[row - 1][col:]
        return Picture(tuple(new), allow_hash=self.allow_hash or sym == BOUNDARY)

    def positions(self):
        """All in-word positions in row-major order."""
        return product(range(1, self.m + 1), range(1, self.n + 1))

    def __str__(self) -> str:
        return "\n".join(self.rows)


def _trusted_picture(rows: tuple[str, ...], allow_hash: bool = False) -> Picture:
    """``Picture(rows, allow_hash=allow_hash)`` without the checks, for
    rows already known to be nonempty, of one nonzero length and free of
    unprintable cells, and of ``#`` unless ``allow_hash`` is set (rows
    joined from an :class:`Alphabet`'s symbols are, and so are slices of
    a checked picture's rows)."""
    p = object.__new__(Picture)
    fields = p.__dict__
    fields["rows"] = rows
    fields["allow_hash"] = allow_hash
    fields["m"] = len(rows)
    fields["n"] = len(rows[0])
    return p


def picture_of(rows, allow_hash: bool = False) -> Picture:
    """Build a picture from any iterable of row strings."""
    return Picture(tuple(rows), allow_hash=allow_hash)


def read_cell(w: Picture, pos: Position) -> str:
    """Read a cell of the bordered band.

    Returns the picture cell for in-word positions and the boundary marker
    for frame positions.  Positions outside the band are an error: a head
    out there is modelled by the simulator's escape sink, not by a position.
    """
    row, col = pos
    if not (0 <= row <= w.m + 1 and 0 <= col <= w.n + 1):
        raise OutOfBandError(f"position {pos} outside band of {w.m}x{w.n} word")
    if 1 <= row <= w.m and 1 <= col <= w.n:
        return w.rows[row - 1][col - 1]
    return BOUNDARY


def transpose(w: Picture) -> Picture:
    """Mirror a picture across its main diagonal: cell (i,j) -> (j,i)."""
    return Picture(
        tuple("".join(w.rows[i][j] for i in range(w.m)) for j in range(w.n)),
        allow_hash=w.allow_hash,
    )


def subpicture(w: Picture, r1: int, r2: int, c1: int, c2: int) -> Picture:
    """The (r2-r1+1) x (c2-c1+1) block of w with corners (r1,c1), (r2,c2)."""
    if not (1 <= r1 <= r2 <= w.m and 1 <= c1 <= c2 <= w.n):
        raise WindowError(f"window {r1}..{r2} x {c1}..{c2} invalid for {w.m}x{w.n} word")
    rows = tuple(w.rows[r][c1 - 1 : c2] for r in range(r1 - 1, r2))
    return Picture(rows, allow_hash=any(BOUNDARY in r for r in rows))


def parse_picture(text: str, allow_hash: bool = False) -> Picture:
    """Parse the line-oriented picture format.

    One row per line, one character per cell, no separators.  Lines whose
    first character is ``;`` are comments.  ``#`` cells are rejected unless
    ``allow_hash`` is set.
    """
    rows = []
    for line in text.splitlines():
        if line.startswith(";"):
            continue
        if line == "":
            continue
        rows.append(line)
    if not rows:
        raise WindowError("picture file has no rows")
    return Picture(tuple(rows), allow_hash=allow_hash)


def format_picture(w: Picture) -> str:
    """The picture file format; raises ``ToolkitError`` on a row that
    :func:`parse_picture` would read back as a comment."""
    for r in w.rows:
        if r.startswith(";"):
            raise ToolkitError(f"cannot write row {r!r}: it begins with ';', which opens a comment")
    return "\n".join(w.rows) + "\n"


def read_text(path) -> str:
    """The contents of a UTF-8 text file; the toolkit's file formats are
    read through it, so bytes that are not UTF-8 raise ``ToolkitError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ToolkitError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def write_text(path, text: str) -> None:
    """Write a UTF-8 text file; the twin of :func:`read_text`.  Callers
    format the whole text first, so a writer that refuses leaves no file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_picture(path, allow_hash: bool = False) -> Picture:
    return parse_picture(read_text(path), allow_hash=allow_hash)
