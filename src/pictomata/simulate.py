"""Exact run semantics for two-dimensional automata.

The head lives in the bordered band ``[0..m+1] x [0..n+1]``.  For the 2W
and 3W variants a move that leaves the band enters the *escape sink*: the
head has permanently left the bordered array, every further read is the
boundary marker, and only the state keeps evolving.  A 2W head moves only
down and right, so once it leaves past the bottom or right border it can
never re-enter the band, and the collapse is exact for 2W: it gives the
verdicts of a head on the word embedded in a wide enough band of ``#``.
It is not exact for 3W.  A 3W head that leaves past the right border
could step left again, back across the frame and onto the word, which
the sink forgoes, as it forgoes marching back in after walking left out
of the band; so a 3W machine can reject here a picture that it accepts
on a padded band (``tests/test_simulation.py`` pins such a machine).
For 4W machines a band-exiting move is treated as undefined, keeping the
configuration space finite.

Cells are read where they are: one step rule reads the word through a
window (row and column offset plus size) into the rows of a picture, and
answers ``#`` for every band position outside the window.  No bordered
band and no block picture is ever built.  The rule has three encodings
in this module and none elsewhere.  :func:`_step` is its one-step
definition, behind traces, replay, :func:`run_deterministic` and
:class:`RowTransfer`.  :func:`_search`, the one depth-first loop behind
every reachability question, applies it inline, since its searches are
mostly a few steps long and a call per step would cost more than the
step: :func:`accepts` on the whole picture, the split oracles in
``concat`` on each block in place, and the trace walk of
:func:`first_accepting_trace` (also behind
:func:`~pictomata.oracle.flip_attack`) from a configuration on its path
with a set of configurations it must not enter.  A verdict on a 2W
machine, from its initial configuration with no set to avoid, goes to
:func:`_two_way` instead: :func:`accepts` and the split oracles in
``concat`` pick the kernel once per call from ``Compiled.is2w``.  It
visits the window's cells alone.  That is exact: a 2W head that moves
past the last row or column reads ``#`` from then on, in the frame or
the escape sink alike, so the move accepts exactly when its target
state is in ``Compiled.reach``, the ``#``-reachability of
:func:`~pictomata.automaton.boundary_reach`.
The kernel follows a deterministic machine's one run, which leaves the
window within m + n - 1 moves, with no set of visited configurations.

:class:`RowTransfer` folds a picture row by row instead.  A 2W or 3W
head never moves up, so a run cuts exactly at each row boundary: what
rows 1..i hand on to row i+1 is the set of (state, column) pairs
stepping down into it, and the transfer closes such a set under
:func:`_step` on a one-row window.  The cut stays exact below the last
row, because the bottom frame row and the escape sink read only ``#``,
so what is left there is whether a state is in ``Compiled.reach``.  4W
machines have no such cut.  A step reads the width off its row, so one
transfer per machine serves every width.  :meth:`~RowTransfer.verdicts`
is the one fold, behind the sweeps of ``oracle`` and
:meth:`~RowTransfer.decide`.  A sweep meets the pictures of one size in
row-lexicographic order, each prefix of m-1 rows followed by every last
row, so the fold takes a prefix once and steps each last row from the
state it leaves.  Its one memo maps each (state, row) to the state the
row leaves and that state's verdict, so most steps are memo hits and a
last row's verdict is read off its entry.  The memo starts over once it
holds ``_MEMO_CAP`` entries, which bounds its memory however many
distinct rows and states it meets.  A prefix keeps its state in hand
while its last rows are stepped, so the memo may start over among them.

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


def check_input(a: Automaton2D, w: Picture, *, allow_hash: bool | None = None) -> None:
    """Reject pictures that use symbols outside the machine's alphabet.

    ``#`` cells are legal when ``allow_hash`` is true; it defaults to
    ``w.allow_hash``.
    """
    ok = a.compiled.legal[w.allow_hash if allow_hash is None else allow_hash]
    cells = "".join(w.rows)
    if not ok.issuperset(cells):
        raise AlphabetError(f"picture uses symbols {sorted(set(cells) - ok)} unknown to {a.name!r}")


def _step(comp: Compiled, rows, r0: int, c0: int, m: int, n: int, si: int, r: int, c: int):
    """All successor triples of one configuration; r = -1 means escaped.

    (r, c) is a band position of the m x n window whose cell (i, j) is
    ``rows[r0 + i][c0 + j]`` (r0 = c0 = -1 for a whole picture); every
    position off the window reads ``#``, whatever the rows hold there.
    """
    image = comp.image[si]
    if 0 < r <= m and 0 < c <= n:
        moves = image.get(rows[r0 + r][c0 + c], ())
    elif r < 0:
        return [(q2, -1, -1) for q2, _, _ in image.get(BOUNDARY, ())]
    else:
        moves = image.get(BOUNDARY, ())
    out = []
    for q2, dr, dc in moves:
        r2 = r + dr
        c2 = c + dc
        if 0 <= r2 <= m + 1 and 0 <= c2 <= n + 1:
            out.append((q2, r2, c2))
        elif not comp.is4w:
            out.append((q2, -1, -1))
    return out


def _to_config(comp: Compiled, triple) -> Configuration:
    si, r, c = triple
    return Configuration(comp.states[si], None if r < 0 else (r, c))


def _to_triple(comp: Compiled, cfg: Configuration) -> tuple[int, int, int]:
    return (comp.index[cfg.state], *((-1, -1) if cfg.loc is None else cfg.loc))


def accepts(a: Automaton2D, w: Picture) -> bool:
    """True iff some run from (initial, (1,1)) reaches the accepting state."""
    check_input(a, w)
    comp = a.compiled
    return (_two_way if comp.is2w else _search)(comp, w.rows, -1, -1, w.m, w.n)


def _search(comp: Compiled, rows, r0: int, c0: int, m: int, n: int, start=None, seen=None) -> bool:
    """Depth-first search for a run of the m x n window (as in :func:`_step`)
    from ``start`` that reaches the accepting state.

    ``start`` defaults to the initial configuration.  A caller's ``seen``
    set holds configurations the run must not enter (``start`` must not be
    among them), accepting ones included; the search adds every
    configuration it enters.  For a 2W machine from the initial
    configuration with no ``seen`` set, :func:`_two_way` decides the same
    on the window's cells alone, and the verdicts call it instead.

    This is the hot loop of every other verdict, so it applies the rule
    of :func:`_step` inline rather than calling it: the same successors,
    in the same order, hence the same search.  ``tests/test_simulation.py``
    pins the three together.
    """
    if start is None:
        start = (comp.initial, 1, 1)
    accept = comp.accept
    if start[0] == accept:
        return True
    if seen is None:
        seen = {start}
    else:
        seen.add(start)
    image, sink = comp.image, not comp.is4w
    m1, n1 = m + 1, n + 1
    todo = [start]
    while todo:
        si, r, c = todo.pop()
        if r < 0:
            for q2, _, _ in image[si].get(BOUNDARY, ()):
                t = (q2, -1, -1)
                if t not in seen:
                    if q2 == accept:
                        return True
                    seen.add(t)
                    todo.append(t)
            continue
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
    """:func:`_search` from the initial configuration, for a 2W machine,
    on the window's cells alone.

    A 2W head moves only down and right, so a move past row m or column n
    takes it to the frame or the escape sink, where it reads ``#`` for
    good and only its state evolves: that move accepts exactly when its
    target is in ``comp.reach``.  A ``#`` cell inside the window is read
    like any other cell.  When ``comp.det`` holds, the search is a walk
    along the one run, which needs no visited set: r + c grows on every
    move, so the run leaves the window within m + n - 1 moves.
    """
    si, accept, reach, image = comp.initial, comp.accept, comp.reach, comp.image
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
    comp = a.compiled
    check_input(a, w)
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
    comp = a.compiled
    check_input(a, w)
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
    comp = a.compiled
    check_input(a, w)
    first = trace[0]
    if first.state != a.initial or first.loc != (1, 1):
        return False
    for cur, nxt in zip(trace, trace[1:]):
        succ = _step(comp, w.rows, -1, -1, w.m, w.n, *_to_triple(comp, cur))
        if nxt not in [_to_config(comp, t) for t in succ]:
            return False
    return trace[-1].state == a.accept


def format_trace(a: Automaton2D, w: Picture, trace: RunTrace, verdict: str) -> str:
    """Human-readable trace block: one line per step, then the verdict."""
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
    """The trace ``accepting_runs(a, w, limit=1)`` returns, in polynomial time."""
    check_input(a, w)
    return _first_trace(a.compiled, w.rows, w.m, w.n, set())


def _first_trace(comp: Compiled, rows, m: int, n: int, blocked: set) -> RunTrace | None:
    """The first trace of the depth-first search of :func:`accepting_runs`
    on the m x n picture ``rows``, among the runs that enter no
    configuration of ``blocked``; None if there is no such run.

    That search descends into the first successor, in :func:`_step`
    order, that is not on the current path and accepts or can still reach
    acceptance without touching the path; every subtree it tries before
    that one it leaves empty-handed.  So this walk extends the path by
    that successor directly, deciding "can still reach" with one
    :func:`_search` per candidate, or with none when no later successor is
    left to choose instead (the path's end can reach acceptance, so its
    last candidate must).  The path joins ``blocked``, and so does every
    configuration a failed search entered: the path only grows, so such a
    configuration stays unable to reach acceptance.  ``blocked`` is the
    caller's and grows accordingly.
    """
    start = (comp.initial, 1, 1)
    if start in blocked or not _search(comp, rows, -1, -1, m, n, start, set(blocked)):
        return None

    def reaches(s) -> bool:
        seen = set(blocked)
        if _search(comp, rows, -1, -1, m, n, s, seen):
            return True
        blocked.update(seen)
        return False

    path = [start]
    blocked.add(start)
    while path[-1][0] != comp.accept:
        succ = _step(comp, rows, -1, -1, m, n, *path[-1])
        for k, t in enumerate(succ):
            if t in blocked:
                continue
            if t[0] != comp.accept:
                rivals = any(u != t and u not in blocked for u in succ[k + 1 :])
                if rivals and not reaches(t):
                    continue
            path.append(t)
            blocked.add(t)
            break
        else:
            raise AssertionError("internal error: the path lost its way to acceptance")
    return tuple(_to_config(comp, t) for t in path)


class RowTransfer:
    """A 2W or 3W machine as a deterministic automaton over rows.

    Such a head never moves up, so all that rows 1..i pass on to row i+1
    is which states step down into which band column.  A transfer state
    is that set of (state index, column) pairs, or the sticky
    ``ACCEPTED`` once some run has accepted.  :meth:`step` closes the
    pairs entering a row under :func:`_step` on a one-row window holding
    that row, as wide as the row: a successor in row 2 of the window has
    moved down, and an escaped one reads ``#`` forever.  Below the last
    row a head reads only ``#`` too, in the frame row or in the escape
    sink, so :meth:`final` asks whether a surviving state can reach
    acceptance on ``#`` reads alone, that is, lies in ``Compiled.reach``.
    Folding a picture's rows from :attr:`start` and applying
    :meth:`final` therefore gives :func:`accepts` exactly, at every width.
    :meth:`verdicts` does that for many pictures that share all rows but
    the last, through one cache of at most ``_MEMO_CAP`` entries,
    :attr:`memo`: the step of each (state, row) and the verdict of the
    state it leaves.
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
        """The transfer state below ``row``, at the width ``len(row)``."""
        if state is ACCEPTED:
            return ACCEPTED
        comp = self._comp
        accept, reach = comp.accept, comp.reach
        rows, n = (row,), len(row)
        below = set()
        todo = [(si, 1, c) for si, c in state]
        seen = set(todo)
        while todo:
            for t in _step(comp, rows, -1, -1, 1, n, *todo.pop()):
                si, r, c = t
                if si == accept or (r < 0 and si in reach):
                    return ACCEPTED
                if r == 2:
                    below.add((si, c))
                elif r == 1 and t not in seen:
                    seen.add(t)
                    todo.append(t)
        return frozenset(below)

    def final(self, state) -> bool:
        """Whether a picture that left the fold in ``state`` is accepted."""
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
        ``last`` in ``lasts``, all of one width.  ``prefix`` is folded once,
        and every step goes through :attr:`memo`, whose entry for a last
        row holds its verdict.  A prefix already ``ACCEPTED`` steps no
        further.  Like :meth:`step`, it checks no symbols: a picture from
        outside goes through :func:`accepts`."""
        memo, state = self.memo, self.start
        for row in prefix:
            if state is ACCEPTED:
                break
            state = (memo.get((state, row)) or self._remember(state, row))[0]
        if state is ACCEPTED:
            return [True] * len(lasts)
        return [(memo.get((state, row)) or self._remember(state, row))[1] for row in lasts]

    def _remember(self, state, row):
        """A memo miss: the step and the verdict of the state it leaves,
        stored; the memo starts over when full."""
        memo = self.memo
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        nxt = self.step(state, row)
        entry = memo[state, row] = (nxt, self.final(nxt))
        return entry

    def decide(self, w: Picture) -> bool:
        """:func:`accepts` of ``w``: :meth:`verdicts` with ``w``'s last row
        as the one last row."""
        rows = w.rows
        return self.verdicts(rows[:-1], rows[-1:])[0]
