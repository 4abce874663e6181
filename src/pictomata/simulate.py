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

Everything here is a pure function of (automaton, picture), and every run
terminates: the configuration space has at most |Q|*((m+2)(n+2)+1)
elements and deterministic runs stop at the first repeated configuration.
"""

from dataclasses import dataclass

from .automaton import Automaton2D, Compiled
from .errors import AlphabetError, ModeError
from .picture import BOUNDARY, Picture, Position

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


def _band(w: Picture) -> list[str]:
    frame = BOUNDARY * (w.n + 2)
    return [frame] + [BOUNDARY + row + BOUNDARY for row in w.rows] + [frame]


def check_input(a: Automaton2D, w: Picture) -> None:
    """Reject pictures that use symbols outside the machine's alphabet."""
    ok = set(a.alphabet.symbols)
    if w.allow_hash:
        ok.add(BOUNDARY)
    used = {ch for row in w.rows for ch in row}
    if not used <= ok:
        raise AlphabetError(f"picture uses symbols {sorted(used - ok)} unknown to {a.name!r}")


def _step(comp: Compiled, band, m: int, n: int, si: int, r: int, c: int):
    """All successor triples of one configuration; r = -1 means escaped."""
    sym = BOUNDARY if r < 0 else band[r][c]
    out = []
    for q2, dr, dc, _ in comp.image.get((si, sym), ()):
        if r < 0:
            out.append((q2, -1, -1))
            continue
        r2, c2 = r + dr, c + dc
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
    return {_to_config(comp, t) for t in _step(comp, _band(w), w.m, w.n, *_to_triple(comp, c))}


def accepts(a: Automaton2D, w: Picture) -> bool:
    """True iff some run from (initial, (1,1)) reaches the accepting state."""
    comp = a.compiled
    check_input(a, w)
    if comp.initial == comp.accept:
        return True
    band = _band(w)
    m, n = w.m, w.n
    start = (comp.initial, 1, 1)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for si, r, c in frontier:
            for t in _step(comp, band, m, n, si, r, c):
                if t[0] == comp.accept:
                    return True
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
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
    band = _band(w)
    cur = (comp.initial, 1, 1)
    seen = {cur}
    trace = [_to_config(comp, cur)]
    while True:
        si = cur[0]
        if si == comp.accept:
            return RunResult(ACCEPTED, tuple(trace))
        succ = _step(comp, band, w.m, w.n, si, cur[1], cur[2])
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
    band = _band(w)
    m, n = w.m, w.n
    found: list[RunTrace] = []
    if limit is not None and limit <= 0:
        return found
    start = (comp.initial, 1, 1)
    if start[0] == comp.accept:
        return [(_to_config(comp, start),)]
    path = [start]
    on_path = {start}
    pending = [iter(_step(comp, band, m, n, *start))]
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
            pending.append(iter(_step(comp, band, m, n, *nxt)))
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
    band = _band(w)
    for cur, nxt in zip(trace, trace[1:]):
        if _to_triple(comp, nxt) not in _step(comp, band, w.m, w.n, *_to_triple(comp, cur)):
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
