"""Brute-force ground truth: bounded enumeration, equivalence checking,
and the flip-style counterexample search.

Enumeration order is total and fixed: row counts ascend, then column
counts, then cell assignments lexicographically in alphabet order.  Every
search in this module returns the first hit in that order, so repeated
runs produce identical reports.  The sweeps (:func:`language_up_to`,
:func:`equivalent_up_to`, :func:`refute`) walk that order one row
prefix at a time, through :func:`_swept`; the last two compare through
one loop, :func:`_first_difference`.
"""

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import product

from .automaton import Automaton2D, require_valid
from .concat import ConcatKind, _split_search, concat_membership
from .errors import AlphabetError, CapacityError, PreconditionError
from .picture import Alphabet, Picture, _trusted_picture
from .simulate import (
    RowTransfer,
    RunTrace,
    _first_trace,
    _search,
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
) -> Iterator[tuple[tuple[str, ...], list[str], list[bool]]]:
    """Every picture within bounds, in the fixed total order, one row
    prefix at a time: each size's prefixes of m-1 rows, each with the
    |alphabet|**n rows that can end it and the machine's verdicts on the
    words they make.  This sets the sweeps' error order: the budget is
    checked at the call, then the machine is compiled.

    A 2W or 3W machine is decided by one
    :class:`~pictomata.simulate.RowTransfer`, which folds each prefix
    once.  A 4W machine can move up, so rows do not cut its runs: each
    word is decided by the search of :func:`accepts` on its rows, without
    the symbol check, which words joined from the machine's own alphabet
    cannot fail.
    """
    _check_budget(a.alphabet, bounds, budget)
    comp = a.compiled
    if a.variant in ("2W", "3W"):
        decide = RowTransfer(a).verdicts
    else:
        def decide(prefix, lasts):
            m, n = len(prefix) + 1, len(lasts[0])
            return [_search(comp, prefix + (last,), -1, -1, m, n) for last in lasts]

    return (
        (prefix, rows, decide(prefix, rows))
        for m, rows in _row_sets(a.alphabet, bounds)
        for prefix in product(rows, repeat=m - 1)
    )


def language_up_to(
    a: Automaton2D, bounds: DimBounds, budget: int | None = DEFAULT_BUDGET
) -> set[Picture]:
    """Exactly the pictures within bounds that the machine accepts."""
    return {
        _trusted_picture(prefix + (last,))
        for prefix, lasts, gots in _swept(a, bounds, budget)
        for last, got in zip(lasts, gots)
        if got
    }


def equivalent_up_to(
    candidate: Automaton2D,
    target: Callable[[Picture], bool],
    bounds: DimBounds,
    budget: int | None = DEFAULT_BUDGET,
) -> Counterexample | None:
    """First word (in enumeration order) where candidate and target differ;
    None when they agree on every picture within bounds."""

    def expected(prefix, lasts):
        return lambda last: bool(target(_trusted_picture(prefix + (last,))))

    return _first_difference(candidate, expected, bounds, budget)


def _first_difference(
    candidate: Automaton2D,
    expected: Callable[[tuple[str, ...], list[str]], Callable[[str], bool]],
    bounds: DimBounds,
    budget: int | None,
) -> Counterexample | None:
    """The first word of :func:`_swept` on which the target's verdict
    differs from the candidate's.  For each row prefix,
    ``expected(prefix, lasts)`` gives the target's verdict on the words
    it begins as a function of their last row, which the loop asks word
    by word, so no word past the first difference is asked about.  Only
    that word becomes a :class:`Picture`, with an accepting run as
    evidence when the candidate accepts it."""
    for prefix, lasts, gots in _swept(candidate, bounds, budget):
        verdict = expected(prefix, lasts)
        for last, got in zip(lasts, gots):
            if got != verdict(last):
                w = _trusted_picture(prefix + (last,))
                evidence = first_accepting_trace(candidate, w) if got else None
                return Counterexample(w, expected=not got, got=got, evidence=evidence)
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
    Whether a run avoids the cell is one walk, linear in the
    configurations, with the cell's configurations blocked, and the first
    run it finds is the evidence.
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


def check_same_symbols(candidate: Automaton2D, target: Automaton2D) -> None:
    """Raise ``AlphabetError`` unless the two machines read the same set
    of symbols.  A sweep enumerates the candidate's alphabet alone, so a
    candidate over fewer symbols than its target would never meet a word
    holding the others and could pass for equivalent.  A machine whose
    alphabet is not an :class:`Alphabet` raises ``ToolkitError`` first,
    the candidate before the target."""
    try:
        mine, theirs = set(candidate.alphabet.symbols), set(target.alphabet.symbols)
    except AttributeError:  # an alphabet that is not an Alphabet, which validate names
        require_valid(candidate)
        require_valid(target)
        raise
    if mine != theirs:
        raise AlphabetError(
            f"candidate {candidate.name!r} reads symbols {sorted(mine)},"
            f" target {target.name!r} reads {sorted(theirs)}"
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

    One deterministic pass: exhaustive comparison against
    :func:`~pictomata.concat.concat_membership`, the split-enumeration
    oracle, over every picture within bounds.  The checks raise in this
    order: the candidate reads the factors' symbols
    (:func:`check_same_symbols`), the sweep's checks, then the oracle's,
    once, on the first word.  Every later word is over the candidate's
    symbols, which are a's and hence b's, with the same kind and factors,
    so the oracle's checks cannot fail on it, and every word is decided
    by the oracle's split loop, one prefix group at a time.  The first
    counterexample found is verified against the public oracle, its
    evidence replayed, and returned.

    Flipping cells off a run finds nothing more within the same bounds.
    A flip of a cell that an accepting run never visits leaves that run
    intact, so the flipped word (same size, same alphabet) is still
    accepted, and this pass has already compared it with the target
    (that is :func:`flip_attack`'s premise).  Likewise the unique run of a
    det machine reads the same cells on any word that agrees with w on
    them, so a rejected word stays rejected under every off-run flip.
    """
    check_same_symbols(candidate, a)
    ca = cb = None

    def expected(prefix, lasts):
        nonlocal ca, cb
        words = [prefix + (last,) for last in lasts]
        if cb is None:  # the oracle's checks, once
            concat_membership(kind, a, b, _trusted_picture(words[0]))
            ca, cb = a.compiled, b.compiled
        members = set(lasts)
        for rows in _split_search(kind, ca, cb, words, len(prefix) + 1, len(lasts[0])):
            members.discard(rows[-1])
        return members.__contains__

    ce = _first_difference(candidate, expected, bounds, budget)
    target = partial(concat_membership, kind, a, b)
    if ce is not None and not verify_counterexample(candidate, target, ce):
        raise AssertionError("internal error: unverifiable counterexample")
    return ce
