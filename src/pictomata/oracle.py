"""Brute-force ground truth: bounded enumeration, equivalence checking,
and the flip-style counterexample search.

Enumeration order is total and fixed: row counts ascend, then column
counts, then cell assignments lexicographically in alphabet order.  Every
search in this module returns the first hit in that order, so repeated
runs produce identical reports.
"""

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import product

from .automaton import Automaton2D
from .concat import ConcatKind, concat_membership
from .errors import CapacityError, PreconditionError
from .picture import Alphabet, Picture
from .simulate import RunTrace, accepting_runs, accepts, visited_cells

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


def enumerate_pictures(
    alphabet: Alphabet, bounds: DimBounds, budget: int | None = DEFAULT_BUDGET
) -> Iterator[Picture]:
    """Yield every picture within bounds, in the fixed total order."""
    if budget is not None:
        total = count_pictures(alphabet, bounds)
        if total > budget:
            raise CapacityError(f"{total} pictures exceed the budget of {budget}")
    syms = alphabet.symbols
    for m in range(1, bounds.max_rows + 1):
        for n in range(1, bounds.max_cols + 1):
            for cells in product(syms, repeat=m * n):
                yield Picture(tuple("".join(cells[i * n : (i + 1) * n]) for i in range(m)))


def language_up_to(
    a: Automaton2D, bounds: DimBounds, budget: int | None = DEFAULT_BUDGET
) -> set[Picture]:
    """Exactly the pictures within bounds that the machine accepts."""
    return {w for w in enumerate_pictures(a.alphabet, bounds, budget) if accepts(a, w)}


def equivalent_up_to(
    candidate: Automaton2D,
    target: Callable[[Picture], bool],
    bounds: DimBounds,
    budget: int | None = DEFAULT_BUDGET,
) -> Counterexample | None:
    """First word (in enumeration order) where candidate and target differ.

    Returns None when they agree on every picture within bounds.
    """
    for w in enumerate_pictures(candidate.alphabet, bounds, budget):
        got = accepts(candidate, w)
        expected = bool(target(w))
        if got != expected:
            evidence = accepting_runs(candidate, w, limit=1)[0] if got else None
            return Counterexample(w, expected=expected, got=got, evidence=evidence)
    return None


def flip_attack(
    candidate: Automaton2D,
    w: Picture,
    target: Callable[[Picture], bool],
    trace_limit: int | None = None,
) -> Counterexample | None:
    """Turn an accepted word into a counterexample by editing unread cells.

    Any accepting run that misses a cell keeps accepting after that cell
    is changed, since every read it makes is unaffected.  So for each
    accepting trace, each unvisited cell, and each alternative symbol, the
    flipped word is still accepted; if the target rejects it, that word is
    a counterexample and the trace is its evidence.
    """
    if not accepts(candidate, w):
        raise PreconditionError("flip_attack needs a word the candidate accepts")
    for trace in accepting_runs(candidate, w, limit=trace_limit):
        for flipped in _off_trace_flips(w, trace, candidate.alphabet):
            if not target(flipped):
                return Counterexample(flipped, expected=False, got=True, evidence=trace)
    return None


def _off_trace_flips(w: Picture, trace: RunTrace, alphabet: Alphabet) -> Iterator[Picture]:
    """Every word that differs from w in one cell the trace never visits,
    in row-major order, then alphabet order."""
    seen = visited_cells(trace, w)
    for pos in w.positions():
        if pos in seen:
            continue
        for sym in alphabet:
            if sym != w.cell(*pos):
                yield w.with_cell(pos, sym)


def verify_counterexample(
    candidate: Automaton2D, target: Callable[[Picture], bool], ce: Counterexample
) -> bool:
    """Re-derive both verdicts; every reported counterexample must pass."""
    return accepts(candidate, ce.word) == ce.got and bool(target(ce.word)) == ce.expected


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
    counterexample found is verified and returned.

    Flipping cells off a run finds nothing more within the same bounds.
    A flip of a cell that an accepting run never visits leaves that run
    intact, so the flipped word (same size, same alphabet) is still
    accepted, and this pass has already compared it with the target
    (that is :func:`flip_attack`'s premise).  Likewise the unique run of a
    det machine reads the same cells on any word that agrees with w on
    them, so a rejected word stays rejected under every off-run flip.
    """

    def target(w: Picture) -> bool:
        return concat_membership(kind, a, b, w)

    ce = equivalent_up_to(candidate, target, bounds, budget)
    if ce is not None and not verify_counterexample(candidate, target, ce):
        raise AssertionError("internal error: unverifiable counterexample")
    return ce
