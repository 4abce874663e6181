"""Exact run semantics for two-dimensional automata.

The head lives in the bordered band ``[0..m+1] x [0..n+1]``.  For the 2W
and 3W variants a move that leaves the band enters the *escape sink*: the
head has permanently left the bordered array, every further read is the
boundary marker, and only the state keeps evolving.  A 2W or 3W head that
leaves past the bottom or right border can never re-enter the word, so
the collapse is exact there; a 3W head walking left out of the band is
also sent to the sink, which forgoes only the possibility of marching
back in across the frame.  For 4W machines a band-exiting move is treated
as undefined, keeping the configuration space finite.

Cells are read where they are: one kernel, :func:`_step`, reads the word
through a window (row and column offset plus size) into the rows of a
picture, and answers ``#`` for every band position outside the window.
No bordered band and no block picture is ever built.  Every entry point
goes through that kernel; :func:`accepts_window` runs a machine on one
block of a larger picture exactly as :func:`accepts` would run it on the
block copied out with :func:`~pictomata.picture.subpicture`, which is
what the split-enumeration oracles in ``concat`` do for every split.

Everything here is a pure function of (automaton, picture), and every run
terminates: the configuration space has at most |Q|*((m+2)(n+2)+1)
elements and deterministic runs stop at the first repeated configuration.
"""

from dataclasses import dataclass

from .automaton import Automaton2D, Compiled
from .errors import AlphabetError, ModeError
from .picture import BOUNDARY, Picture, Position, check_window

#: Trace of one run: consecutive configurations related by single steps.
RunTrace = tuple["Configuration", ...]

ACCEPTED = "accepted"
REJECTED_UNDEFINED = "rejected-undefined"
REJECTED_LOOP = "rejected-loop"


@dataclass(frozen=True, order=True)
class Configuration:
    """State plus head location; ``loc`` is None once the head has escaped."""

    state: str
    loc: Position | None

    @property
    def escaped(self) -> bool:
        return self.loc is None


@dataclass(frozen=True)
class RunResult:
    kind: str
    trace: RunTrace

    @property
    def accepted(self) -> bool:
        return self.kind == ACCEPTED


def check_input(a: Automaton2D, w: Picture, window: tuple[int, int, int, int] | None = None) -> None:
    """Reject pictures that use symbols outside the machine's alphabet.

    With ``window`` = (r1, r2, c1, c2) only that block of ``w`` must be
    legal; the block is looked at only when ``w`` as a whole is not.
    """
    ok = a.compiled.legal[w.allow_hash]
    used = set("".join(w.rows))
    if used <= ok:
        return
    if window is not None:
        r1, r2, c1, c2 = window
        used = set("".join([row[c1 - 1 : c2] for row in w.rows[r1 - 1 : r2]]))
        if used <= ok:
            return
    raise AlphabetError(f"picture uses symbols {sorted(used - ok)} unknown to {a.name!r}")


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


def successors(a: Automaton2D, w: Picture, c: Configuration) -> set[Configuration]:
    """One-step successors under the partial transition map.

    The accepting state is terminal, and an undefined entry contributes
    nothing, so the result may be empty.
    """
    comp = a.compiled
    check_input(a, w)
    if c.state == a.accept:
        return set()
    return {_to_config(comp, t) for t in _step(comp, w.rows, -1, -1, w.m, w.n, *_to_triple(comp, c))}


def accepts(a: Automaton2D, w: Picture) -> bool:
    """True iff some run from (initial, (1,1)) reaches the accepting state."""
    return accepts_window(a, w, 1, w.m, 1, w.n)


def accepts_window(a: Automaton2D, w: Picture, r1: int, r2: int, c1: int, c2: int) -> bool:
    """``accepts(a, subpicture(w, r1, r2, c1, c2))``, without the copy.

    The machine runs on the block with corners (r1,c1) and (r2,c2) framed
    by its own ``#`` border: a head that steps off the block reads ``#``,
    never the neighbouring cell of ``w``.  A bad window raises the same
    ``WindowError`` as :func:`~pictomata.picture.subpicture`, and only the
    block's symbols are checked against the alphabet.
    """
    check_window(w, r1, r2, c1, c2)
    comp = a.compiled
    check_input(a, w, (r1, r2, c1, c2))
    if comp.initial == comp.accept:
        return True
    rows, r0, c0, m, n = w.rows, r1 - 2, c1 - 2, r2 - r1 + 1, c2 - c1 + 1
    accept = comp.accept
    start = (comp.initial, 1, 1)
    seen = {start}
    todo = [start]
    while todo:
        for t in _step(comp, rows, r0, c0, m, n, *todo.pop()):
            if t[0] == accept:
                return True
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


def visited_cells(trace: RunTrace, w: Picture) -> set[Position]:
    """In-bounds positions of ``w`` occurring in a trace.

    Frame positions and the escape sink are excluded; a bare position list
    cannot tell a frame cell from a word cell, hence the picture argument.
    """
    return {
        c.loc
        for c in trace
        if c.loc is not None and 1 <= c.loc[0] <= w.m and 1 <= c.loc[1] <= w.n
    }


def replay_is_run(a: Automaton2D, w: Picture, trace: RunTrace) -> bool:
    """Check that consecutive trace entries are single delta steps on w."""
    if not trace:
        return False
    comp = a.compiled
    check_input(a, w)
    first = trace[0]
    if first.state != a.initial or first.loc != (1, 1):
        return False
    for cur, nxt in zip(trace, trace[1:]):
        if _to_triple(comp, nxt) not in _step(comp, w.rows, -1, -1, w.m, w.n, *_to_triple(comp, cur)):
            return False
    return True


def replay_accepts(a: Automaton2D, w: Picture, trace: RunTrace) -> bool:
    return replay_is_run(a, w, trace) and trace[-1].state == a.accept


def format_trace(a: Automaton2D, w: Picture, trace: RunTrace, verdict: str) -> str:
    """Human-readable trace block: one line per step, then the verdict."""
    lines = []
    for cfg in trace:
        if cfg.loc is None:
            lines.append(f"{cfg.state} @ ESC reads '{BOUNDARY}'")
        else:
            r, c = cfg.loc
            sym = BOUNDARY
            if 1 <= r <= w.m and 1 <= c <= w.n:
                sym = w.rows[r - 1][c - 1]
            lines.append(f"{cfg.state} @ ({r},{c}) reads '{sym}'")
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n"


def first_accepting_trace(a: Automaton2D, w: Picture) -> RunTrace | None:
    runs = accepting_runs(a, w, limit=1)
    return runs[0] if runs else None
