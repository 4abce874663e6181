"""Exact run semantics for two-dimensional automata.

The head lives in the bordered band ``[0..m+1] x [0..n+1]``.  For the 2W
and 3W variants a move that leaves the band enters the *escape sink*, the
off-band position (-1, -1), where the head reads ``#`` for good and only
its state evolves: every move from it lands off the band again, so no
step has a branch for it.  The sink is exact for 2W: a head that moves
only down and right never re-enters the band, so the verdicts are those
on the word embedded in a wide enough band of ``#``.  It is not exact
for 3W: on a padded band, a head that left past the right border could
step back left onto the word, as it could march back in after walking
left out of the band, and the sink forgoes both; so a 3W machine can
reject here a picture that it accepts on a padded band
(``tests/test_simulation.py`` pins such a machine).  A 4W move off the
band is undefined, which keeps the configuration space finite.

The step rule reads the word in place, through a window (row and column
offset plus size) into the rows of a picture, and answers ``#`` for
every band position outside the window, so no bordered band or block
picture is built.  It has four encodings, and ``tests/test_simulation.py``
pins the others to the first, :func:`_step`, the one-step definition
behind traces, replay and :func:`run_deterministic`.  :func:`_search`,
the one depth-first loop behind every verdict, its 2W kernel
:func:`_two_way` and :meth:`RowTransfer.step` apply the rule inline:
their searches are mostly a few steps long, and a call per step would
cost more than the step.  The traces step through :func:`_step`:
:func:`accepting_runs` walks every repetition-free run, and
:func:`_first_trace`, behind :func:`first_accepting_trace` and
``oracle.flip_attack``, walks in the same order but enters each
configuration once, adding it to the caller's ``blocked`` set; both
callers pass a fresh one.  One replay of a row's moves lives
elsewhere on purpose: :func:`~pictomata.onedim.row_departure_oracle`
steps them from ``Compiled.image`` on its own framed tape, as the ground
truth for :func:`~pictomata.onedim.row_restriction`, so it shares no
code with this module.

Each entry point that runs a machine on a picture opens with one
prologue, :func:`check_input`, which checks the picture's symbols and
returns the compiled tables that the entry point runs on.

Everything here is a pure function of (automaton, picture), and every run
terminates: the configuration space has at most |Q|*((m+2)(n+2)+1)
elements and deterministic runs stop at the first repeated configuration.
"""

from dataclasses import dataclass

from .automaton import Automaton2D, Compiled
from .errors import AlphabetError, ModeError, VariantError
from .picture import BOUNDARY, Picture, Position, read_cell

#: Trace of one run: consecutive configurations related by single steps.
RunTrace = tuple["Configuration", ...]

ACCEPTED = "accepted"
REJECTED_UNDEFINED = "rejected-undefined"
REJECTED_LOOP = "rejected-loop"

_MEMO_CAP = 4096  # steps a RowTransfer's memo holds before it starts over


@dataclass(frozen=True, order=True)
class Configuration:
    """State plus head location; ``loc`` is None once the head has escaped."""

    state: str
    loc: Position | None


@dataclass(frozen=True)
class RunResult:
    kind: str
    trace: RunTrace

    @property
    def accepted(self) -> bool:
        return self.kind == ACCEPTED


def check_input(a: Automaton2D, w: Picture) -> Compiled:
    """The machine's compiled tables, once ``w`` uses no symbol outside
    its alphabet; ``#`` cells pass, since a picture holds them only when
    built with ``allow_hash``.  A malformed machine raises first."""
    comp = a.compiled
    cells = "".join(w.rows)
    if not comp.legal.issuperset(cells):
        raise AlphabetError(f"picture uses symbols {sorted(set(cells) - comp.legal)} unknown to {a.name!r}")
    return comp


def _step(comp: Compiled, rows, r0: int, c0: int, m: int, n: int, si: int, r: int, c: int):
    """All successor triples of one configuration; r = -1 means escaped.

    (r, c) is a band position of the m x n window whose cell (i, j) is
    ``rows[r0 + i][c0 + j]`` (r0 = c0 = -1 for a whole picture); every
    position off the window reads ``#``, whatever the rows hold there.
    """
    image = comp.image[si]
    if 0 < r <= m and 0 < c <= n:
        moves = image.get(rows[r0 + r][c0 + c], ())
    else:
        moves = image.get(BOUNDARY, ())
    out = []
    for q2, dr, dc in moves:
        r2 = r + dr
        c2 = c + dc
        if 0 <= r2 <= m + 1 and 0 <= c2 <= n + 1:
            out.append((q2, r2, c2))
        elif not comp.is4w:
            # the escape sink: a D move from (-1, 0) would re-enter at (0, 0)
            out.append((q2, -1, -1))
    return out


def _to_config(comp: Compiled, triple) -> Configuration:
    si, r, c = triple
    return Configuration(comp.states[si], None if r < 0 else (r, c))


def _to_triple(comp: Compiled, cfg: Configuration) -> tuple[int, int, int]:
    return (comp.index[cfg.state], *((-1, -1) if cfg.loc is None else cfg.loc))


def accepts(a: Automaton2D, w: Picture) -> bool:
    """True iff some run from (initial, (1,1)) reaches the accepting state."""
    comp = check_input(a, w)
    return (_two_way if comp.is2w else _search)(comp, w.rows, -1, -1, w.m, w.n)


def _search(comp: Compiled, rows, r0: int, c0: int, m: int, n: int) -> bool:
    """Depth-first search for a run of the m x n window (as in :func:`_step`)
    from the initial configuration that reaches the accepting state.  It
    meets the successors of :func:`_step` in their order, so it searches
    as a loop over :func:`_step` would.
    """
    start = (comp.initial, 1, 1)
    accept = comp.accept
    if start[0] == accept:
        return True
    seen = {start}
    image, sink = comp.image, not comp.is4w
    m1, n1 = m + 1, n + 1
    todo = [start]
    while todo:
        si, r, c = todo.pop()
        if 0 < r <= m and 0 < c <= n:
            moves = image[si].get(rows[r0 + r][c0 + c], ())
        else:
            moves = image[si].get(BOUNDARY, ())
        for q2, dr, dc in moves:
            r2 = r + dr
            c2 = c + dc
            if 0 <= r2 <= m1 and 0 <= c2 <= n1:
                t = (q2, r2, c2)
            elif sink:
                t = (q2, -1, -1)
            else:
                continue
            if t not in seen:
                if q2 == accept:
                    return True
                seen.add(t)
                todo.append(t)
    return False


def _two_way(comp: Compiled, rows, r0: int, c0: int, m: int, n: int) -> bool:
    """:func:`_search` for a 2W machine, on the window's cells alone;
    :func:`accepts` and the split loop of ``concat`` pick it once per call
    from ``comp.is2w``.

    A 2W head moves only down and right, so a move past row m or column n
    takes it to the frame or the escape sink, where it reads ``#`` for
    good: that move accepts exactly when its target is in ``comp.reach``.
    A ``#`` cell inside the window is read like any other.  The moves come
    from ``comp.live``.  When ``comp.det`` holds, the search walks the one
    run with no visited set: r + c grows on every move, so the run leaves
    the window within m + n - 1 moves.
    """
    si, accept, reach, image = comp.initial, comp.accept, comp.reach, comp.live
    if si == accept:
        return True
    if comp.det:
        r = c = 1
        while True:
            moves = image[si].get(rows[r0 + r][c0 + c])
            if moves is None:
                return False
            si, dr, dc = moves[0]
            r += dr
            c += dc
            if r > m or c > n:
                return si in reach
            if si == accept:
                return True
    start = (si, 1, 1)
    seen = {start}
    todo = [start]
    while todo:
        si, r, c = todo.pop()
        for q2, dr, dc in image[si].get(rows[r0 + r][c0 + c], ()):
            r2 = r + dr
            c2 = c + dc
            if r2 > m or c2 > n:
                if q2 in reach:
                    return True
            elif q2 == accept:
                return True
            else:
                t = (q2, r2, c2)
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
    return False


def run_deterministic(a: Automaton2D, w: Picture) -> RunResult:
    """Follow the unique run of a deterministic machine to its end.

    Ends by acceptance, by an undefined transition, or at the first
    repeated configuration (a loop, hence rejection).
    """
    if a.mode != "det":
        raise ModeError("run_deterministic requires a det-mode machine")
    comp = check_input(a, w)
    cur = (comp.initial, 1, 1)
    seen = {cur}
    trace = [_to_config(comp, cur)]
    while True:
        si = cur[0]
        if si == comp.accept:
            return RunResult(ACCEPTED, tuple(trace))
        succ = _step(comp, w.rows, -1, -1, w.m, w.n, si, cur[1], cur[2])
        if not succ:
            return RunResult(REJECTED_UNDEFINED, tuple(trace))
        cur = succ[0]
        if cur in seen:
            return RunResult(REJECTED_LOOP, tuple(trace))
        seen.add(cur)
        trace.append(_to_config(comp, cur))


def accepting_runs(a: Automaton2D, w: Picture, limit: int | None = None) -> list[RunTrace]:
    """Enumerate accepting runs that never repeat a configuration.

    Depth-first, in a fixed order, so repeated calls agree; complete for
    repetition-free traces.  ``limit`` caps how many traces are returned.
    The search keeps its own stack of successor iterators, one per
    configuration on the current path, so run length is not bounded by
    the interpreter's recursion limit.
    """
    comp = check_input(a, w)
    rows, m, n = w.rows, w.m, w.n
    found: list[RunTrace] = []
    if limit is not None and limit <= 0:
        return found
    start = (comp.initial, 1, 1)
    if start[0] == comp.accept:
        return [(_to_config(comp, start),)]
    path = [start]
    on_path = {start}
    pending = [iter(_step(comp, rows, -1, -1, m, n, *start))]
    while pending:
        for nxt in pending[-1]:
            if nxt in on_path:
                continue
            if nxt[0] == comp.accept:
                found.append(tuple(_to_config(comp, t) for t in (*path, nxt)))
                if limit is not None and len(found) >= limit:
                    return found
                continue
            path.append(nxt)
            on_path.add(nxt)
            pending.append(iter(_step(comp, rows, -1, -1, m, n, *nxt)))
            break
        else:
            pending.pop()
            on_path.remove(path.pop())
    return found


def replay_accepts(a: Automaton2D, w: Picture, trace: RunTrace) -> bool:
    """Check that the trace is an accepting run on w: it starts at
    (initial, (1,1)), each entry is a single delta step from the one
    before, and the last is in the accepting state.  An entry naming a
    state the machine lacks is no step."""
    if not trace:
        return False
    comp = check_input(a, w)
    first = trace[0]
    if first.state != a.initial or first.loc != (1, 1):
        return False
    for cur, nxt in zip(trace, trace[1:]):
        succ = _step(comp, w.rows, -1, -1, w.m, w.n, *_to_triple(comp, cur))
        if nxt not in [_to_config(comp, t) for t in succ]:
            return False
    return trace[-1].state == a.accept


def format_trace(w: Picture, trace: RunTrace, verdict: str) -> str:
    """Human-readable trace block of a run on ``w``: one line per step,
    then the verdict line; an empty trace gives the verdict line alone."""
    lines = []
    for cfg in trace:
        if cfg.loc is None:
            lines.append(f"{cfg.state} @ ESC reads '{BOUNDARY}'")
        else:
            r, c = cfg.loc
            lines.append(f"{cfg.state} @ ({r},{c}) reads '{read_cell(w, cfg.loc)}'")
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n"


def first_accepting_trace(a: Automaton2D, w: Picture) -> RunTrace | None:
    """The trace ``accepting_runs(a, w, limit=1)`` returns, in time linear
    in the configurations."""
    return _first_trace(check_input(a, w), w.rows, w.m, w.n, set())


def _first_trace(comp: Compiled, rows, m: int, n: int, blocked: set) -> RunTrace | None:
    """The first trace of the depth-first search of :func:`accepting_runs`
    on the m x n picture ``rows``, among the runs that enter no
    configuration of ``blocked``; None if there is no such run.

    It is that search, except that every configuration it enters joins
    ``blocked`` for good, so it enters each one once.  That drops no
    trace it would find first: a configuration the search has left
    without accepting cannot accept under a later path, since the route
    it would need leaves through a configuration that was on the path
    then, and that configuration's own subtree, searched since, would
    have found the route.  ``blocked`` is the caller's and grows
    accordingly.
    """
    path: list = []
    pending = [iter(((comp.initial, 1, 1),))]  # a root whose one successor is the start
    while pending:
        for nxt in pending[-1]:
            if nxt not in blocked:
                path.append(nxt)
                if nxt[0] == comp.accept:
                    return tuple(_to_config(comp, t) for t in path)
                blocked.add(nxt)
                pending.append(iter(_step(comp, rows, -1, -1, m, n, *nxt)))
                break
        else:
            pending.pop()
            del path[-1:]  # the root's pop finds the path empty
    return None


class RowTransfer:
    """A 2W or 3W machine as a deterministic automaton over rows.

    Such a head never moves up, so a run cuts exactly at each row
    boundary: all that rows 1..i pass on to row i+1 is which states step
    down into which band column.  A transfer state is that set of (state
    index, column) pairs, or the sticky ``ACCEPTED`` once some run has
    accepted.  :meth:`step` reads the width off its row, so one transfer
    per machine serves every width.  Folding a picture's rows from
    :attr:`start` and applying :meth:`final` gives :func:`accepts`
    exactly.

    It is an NFA over rows whose states are the pairs, determinized:

    * :attr:`start` is ``{(initial, 1)}``, or ``ACCEPTED`` when the
      initial state accepts;
    * :meth:`step` ``(S, row)`` is ``ACCEPTED`` if some singleton step
      ``step({p}, row)``, p in S, is, and otherwise the union of the
      singleton steps.  It steps on ``Compiled.live``, so it never holds a
      pair in ``Compiled.dead``, and the empty state is sticky, like
      ``ACCEPTED``;
    * :meth:`final` holds iff some pair's state is in ``Compiled.reach``;
    * :meth:`verdicts`, the one fold, behind the sweeps of ``oracle``,
      goes through :attr:`memo`, which maps each (state, row) to its step
      and that step's :meth:`final`.  The memo starts over once it holds
      ``_MEMO_CAP`` entries, which bounds its memory however many distinct
      rows and states it meets.
    """

    __slots__ = ("start", "memo", "_comp")

    def __init__(self, a: Automaton2D):
        comp = a.compiled
        if a.variant not in ("2W", "3W"):
            raise VariantError(f"{a.name!r}: row transfer needs a head that never moves up")
        self._comp = comp
        self.start = ACCEPTED if comp.initial == comp.accept else frozenset({(comp.initial, 1)})
        self.memo: dict = {}

    def step(self, state, row: str):
        """The transfer state below ``row``, at the width ``len(row)``: the
        closure under :func:`_step` on the one-row window holding ``row``.
        A pair (state, column) stands for the configuration in the
        window's row 1, the frame columns 0 and n+1 read ``#``, a down
        move lands in the pairs below, and a move off the band escapes.
        A successor in the accepting state, or an escape into a state of
        ``Compiled.reach``, makes the step ``ACCEPTED``.  The moves come
        from ``comp.live``, so no pair enters a dead state."""
        if state is ACCEPTED:
            return ACCEPTED
        comp = self._comp
        accept, reach, image = comp.accept, comp.reach, comp.live
        cells = BOUNDARY + row + BOUNDARY  # band columns 0..n+1
        n1 = len(row) + 1
        below = set()
        todo = list(state)
        seen = set(todo)
        while todo:
            si, c = todo.pop()
            for q2, dr, dc in image[si].get(cells[c], ()):
                if q2 == accept:
                    return ACCEPTED
                c2 = c + dc
                if c2 < 0 or c2 > n1:  # the escape sink
                    if q2 in reach:
                        return ACCEPTED
                elif dr:
                    below.add((q2, c2))
                else:
                    t = (q2, c2)
                    if t not in seen:
                        seen.add(t)
                        todo.append(t)
        return frozenset(below)

    def final(self, state) -> bool:
        """Whether a picture that left the fold in ``state`` is accepted:
        below the last row a head reads only ``#``, in the frame row or the
        escape sink, so it is iff some pair's state is in ``Compiled.reach``."""
        # runs on every memo miss: a plain loop costs less than any() over
        # a generator on states of a few pairs
        if state is ACCEPTED:
            return True
        reach = self._comp.reach
        for si, _ in state:
            if si in reach:
                return True
        return False

    def verdicts(self, prefix, lasts) -> list[bool]:
        """:func:`accepts` of each picture ``(*prefix, last)``, for each
        ``last`` in ``lasts``, all of one width.  ``prefix`` is folded once
        and each last row is stepped from the state it leaves, every step
        through :attr:`memo`; a state that is ``ACCEPTED`` or empty steps
        no further.  That state stays in hand while the last rows are
        stepped, so the memo may start over among them.  Like
        :meth:`step`, it checks no symbols: a picture from outside goes
        through :func:`accepts`."""
        memo, state = self.memo, self.start
        for row in prefix:
            if state is ACCEPTED or not state:
                break
            state = (memo.get((state, row)) or self._remember(state, row))[0]
        if state is ACCEPTED or not state:
            return [state is ACCEPTED] * len(lasts)
        return [(memo.get((state, row)) or self._remember(state, row))[1] for row in lasts]

    def _remember(self, state, row):
        """A memo miss: the entry :attr:`memo` describes, stored."""
        memo = self.memo
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        nxt = self.step(state, row)
        entry = memo[state, row] = (nxt, self.final(nxt))
        return entry
