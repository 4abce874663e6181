"""Brute-force ground truth: bounded enumeration, equivalence checking,
and the flip-style counterexample search.

Enumeration order is total and fixed: row counts ascend, then column
counts, then cell assignments lexicographically in alphabet order.  Every
search in this module returns the first hit in that order, so repeated
runs produce identical reports.

A sweep (:func:`language_up_to`, :func:`equivalent_up_to`) still visits
every picture in that order, but decides a 2W or 3W candidate without a
configuration search per picture.  The pictures of one size are every
prefix of m-1 rows followed by every last row, so one
:class:`~pictomata.simulate.RowTransfer` of the candidate folds each
prefix once, through the transfer's own memo of steps, and
:meth:`~pictomata.simulate.RowTransfer.verdicts` steps all last rows
from the state it leaves.  :func:`language_up_to` builds a picture for
the accepted words alone.  A 4W candidate can move up, so rows do not
cut its runs; it is decided by :func:`~pictomata.simulate.accepts` on
each picture of :func:`enumerate_pictures`.  Each sweep checks its
budget when it is called, before it compiles the candidate.
"""

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import product

from .automaton import Automaton2D
from .concat import ConcatKind, ConcatOracle
from .errors import CapacityError, PreconditionError
from .picture import Alphabet, Picture, _trusted_picture
from .simulate import (
    RowTransfer,
    RunTrace,
    _first_trace,
    accepts,
    first_accepting_trace,
    replay_accepts,
)

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class DimBounds:
    max_rows: int
    max_cols: int

    def __post_init__(self):
        if self.max_rows < 1 or self.max_cols < 1:
            raise PreconditionError("bounds must be at least 1x1")


@dataclass(frozen=True)
class Counterexample:
    """A word on which a candidate machine and the target disagree.

    ``expected`` is the target predicate's verdict, ``got`` the
    candidate's; they always differ.  ``evidence`` carries the run that
    makes the disagreement self-checking, when one exists.
    """

    word: Picture
    expected: bool
    got: bool
    evidence: RunTrace | None = None


def count_pictures(alphabet: Alphabet, bounds: DimBounds) -> int:
    k = len(alphabet)
    return sum(
        k ** (m * n)
        for m in range(1, bounds.max_rows + 1)
        for n in range(1, bounds.max_cols + 1)
    )


def _exceeds(alphabet: Alphabet, bounds: DimBounds, budget: int) -> bool:
    """Whether more than ``budget`` pictures lie within bounds.  The sum
    stops as soon as it passes the budget, and each size adds at least two
    pictures (a unary alphabet is counted at once), so the budget, not the
    bounds, limits the work."""
    k = len(alphabet)
    if k == 1:
        return bounds.max_rows * bounds.max_cols > budget
    total = 0
    for m in range(1, bounds.max_rows + 1):
        for n in range(1, bounds.max_cols + 1):
            total += k ** (m * n)
            if total > budget:
                return True
    return False


def _check_budget(alphabet: Alphabet, bounds: DimBounds, budget: int | None) -> None:
    if budget is not None and _exceeds(alphabet, bounds, budget):
        raise CapacityError(
            f"pictures within {bounds.max_rows}x{bounds.max_cols} exceed the budget of {budget}"
        )


def _row_sets(alphabet: Alphabet, bounds: DimBounds) -> Iterator[tuple[int, list[str]]]:
    """Each size's row count m with its |alphabet|**n rows of width n, in
    lexicographic order, sizes in the fixed order.  Row-major cell order
    is row-lexicographic order over these rows, so the pictures of one
    size are ``product(rows, repeat=m)``."""
    syms = alphabet.symbols
    for m in range(1, bounds.max_rows + 1):
        for n in range(1, bounds.max_cols + 1):
            yield m, ["".join(cells) for cells in product(syms, repeat=n)]


def enumerate_pictures(
    alphabet: Alphabet, bounds: DimBounds, budget: int | None = DEFAULT_BUDGET
) -> Iterator[Picture]:
    """Every picture within bounds, in the fixed total order.

    The budget is checked at the call, before any picture is made.  The
    rows are joined from the alphabet's symbols, which are printable and
    never ``#``, so each picture is built without re-checking them.
    """
    _check_budget(alphabet, bounds, budget)
    return (
        _trusted_picture(picture)
        for m, rows in _row_sets(alphabet, bounds)
        for picture in product(rows, repeat=m)
    )


def _swept(
    a: Automaton2D, bounds: DimBounds, budget: int | None
) -> Iterator[tuple[tuple[str, ...], bool]]:
    """The rows of every picture within bounds, in the fixed total order,
    each with the machine's verdict.  The budget is checked at the call,
    then the machine is compiled, so a sweep raises in that order.

    A 2W or 3W machine is decided by one row transfer: the pictures of
    one size share their first m-1 rows with the next |alphabet|**n
    pictures, so :meth:`~pictomata.simulate.RowTransfer.verdicts` folds
    each such prefix once.  A 4W machine is decided by :func:`accepts`
    on each picture of :func:`enumerate_pictures`.
    """
    _check_budget(a.alphabet, bounds, budget)
    if a.variant not in ("2W", "3W"):
        return ((w.rows, accepts(a, w)) for w in enumerate_pictures(a.alphabet, bounds, None))
    verdicts = RowTransfer(a).verdicts
    return (
        (prefix + (last,), got)
        for m, rows in _row_sets(a.alphabet, bounds)
        for prefix in product(rows, repeat=m - 1)
        for last, got in zip(rows, verdicts(prefix, rows))
    )


def language_up_to(
    a: Automaton2D, bounds: DimBounds, budget: int | None = DEFAULT_BUDGET
) -> set[Picture]:
    """Exactly the pictures within bounds that the machine accepts."""
    return {_trusted_picture(rows) for rows, got in _swept(a, bounds, budget) if got}


def equivalent_up_to(
    candidate: Automaton2D,
    target: Callable[[Picture], bool],
    bounds: DimBounds,
    budget: int | None = DEFAULT_BUDGET,
) -> Counterexample | None:
    """First word (in enumeration order) where candidate and target differ.

    Returns None when they agree on every picture within bounds.
    """
    for rows, got in _swept(candidate, bounds, budget):
        w = _trusted_picture(rows)
        expected = bool(target(w))
        if got != expected:
            evidence = first_accepting_trace(candidate, w) if got else None
            return Counterexample(w, expected=expected, got=got, evidence=evidence)
    return None


def flip_attack(
    candidate: Automaton2D, w: Picture, target: Callable[[Picture], bool]
) -> Counterexample | None:
    """Turn an accepted word into a counterexample by editing an unread cell.

    Any accepting run that misses a cell keeps accepting after that cell
    is changed, since every read it makes is unaffected.  So for each cell
    in row-major order that some accepting run avoids, and each
    alternative symbol in alphabet order, the flipped word is still
    accepted; if the target rejects it, that word is a counterexample.
    Whether a run avoids the cell is one polynomial search with the
    cell's configurations blocked, and the first run it finds is the
    evidence.
    """
    if not accepts(candidate, w):
        raise PreconditionError("flip_attack needs a word the candidate accepts")
    comp = candidate.compiled
    for pos in w.positions():
        cell = {(si, *pos) for si in range(len(comp.states))}
        evidence = _first_trace(comp, w.rows, w.m, w.n, cell)
        if evidence is None:
            continue
        for sym in candidate.alphabet:
            if sym != w.cell(*pos):
                flipped = w.with_cell(pos, sym)
                if not target(flipped):
                    return Counterexample(flipped, expected=False, got=True, evidence=evidence)
    return None


def verify_counterexample(
    candidate: Automaton2D, target: Callable[[Picture], bool], ce: Counterexample
) -> bool:
    """Re-derive both verdicts and replay the evidence, if any, as an
    accepting run of the candidate on the word; every reported
    counterexample must pass."""
    return (
        accepts(candidate, ce.word) == ce.got
        and bool(target(ce.word)) == ce.expected
        and (ce.evidence is None or replay_accepts(candidate, ce.word, ce.evidence))
    )


def refute(
    candidate: Automaton2D,
    kind: ConcatKind,
    a: Automaton2D,
    b: Automaton2D,
    bounds: DimBounds,
    budget: int | None = DEFAULT_BUDGET,
) -> Counterexample | None:
    """Search for a witness that candidate does not recognize L(a) kind L(b).

    One deterministic pass: exhaustive comparison against the
    split-enumeration oracle over every picture within bounds.  The first
    counterexample found is verified and returned.  The pass, its
    verification included, asks one :class:`~pictomata.concat.ConcatOracle`,
    so each factor is simulated once per distinct block of the sweep
    rather than once per word containing it; the oracle goes with the
    call.

    Flipping cells off a run finds nothing more within the same bounds.
    A flip of a cell that an accepting run never visits leaves that run
    intact, so the flipped word (same size, same alphabet) is still
    accepted, and this pass has already compared it with the target
    (that is :func:`flip_attack`'s premise).  Likewise the unique run of a
    det machine reads the same cells on any word that agrees with w on
    them, so a rejected word stays rejected under every off-run flip.
    """
    target = ConcatOracle(kind, a, b)
    ce = equivalent_up_to(candidate, target, bounds, budget)
    if ce is not None and not verify_counterexample(candidate, target, ce):
        raise AssertionError("internal error: unverifiable counterexample")
    return ce
