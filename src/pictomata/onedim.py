"""One-dimensional automata and the row-restriction machinery.

A two-way string machine runs on ``# s #`` over positions ``0..n+1``,
head starting at position 1.  Reaching the accepting state accepts on the
spot; a non-accepting move off either end of the frame halts and rejects;
so does an undefined transition or a repeated configuration.  A one-way
machine consumes its input left to right, no endmarkers, and accepts iff
it ends in an accepting state.

The row-restriction construction turns one row's worth of a deterministic
three-way picture machine into a two-way string machine: walk the head to
the recorded entry column, then mirror the in-row moves, turning any
downward move into acceptance.  Its ground truth is
:func:`row_departure_oracle`, which replays the same dynamics positionally
with no automaton in between.
"""

from dataclasses import dataclass

from .automaton import Automaton2D, header_lines, read_automaton_text
from .errors import ModeError, PreconditionError, ToolkitError, VariantError
from .picture import BOUNDARY, Alphabet, Picture
from .simulate import run_deterministic

TWO_WAY = "two-way"
ONE_WAY = "one-way"
_VARIANT_TOKEN = {TWO_WAY: "1D-2W", ONE_WAY: "1D-1W"}
_TOKEN_VARIANT = {v: k for k, v in _VARIANT_TOKEN.items()}


@dataclass(frozen=True)
class Automaton1D:
    """Deterministic string machine, two-way or one-way.

    delta maps (state, symbol) to (state, 'L'|'R') in the two-way kind
    and to a bare state in the one-way kind; two-way machines also see
    the frame marker ``#``.  ``accept_states`` holds exactly one state
    for the two-way kind.  The fields cannot be rebound; ``delta`` stays
    a plain dict, read on every simulation step, and must not be mutated.
    """

    name: str
    kind: str
    alphabet: Alphabet
    states: tuple[str, ...]
    initial: str
    accept_states: tuple[str, ...]
    delta: dict

    @property
    def accept(self) -> str:
        if self.kind != TWO_WAY:
            raise ModeError("single accepting state is a two-way notion")
        return self.accept_states[0]


def simulate_1d(a: Automaton1D, s: str) -> bool:
    """Run a string machine; always terminates."""
    bad = set(s) - set(a.alphabet.symbols)
    if bad:
        raise ToolkitError(f"string uses symbols {sorted(bad)} outside the alphabet")
    if a.kind == ONE_WAY:
        q = a.initial
        for ch in s:
            step = a.delta.get((q, ch))
            if step is None:
                return False
            q = step
        return q in a.accept_states
    accept = a.accept
    if a.initial == accept:
        return True
    n = len(s)
    q, pos = a.initial, 1
    seen = {(q, pos)}
    while True:
        sym = s[pos - 1] if 1 <= pos <= n else BOUNDARY
        step = a.delta.get((q, sym))
        if step is None:
            return False
        q2, d = step
        if q2 == accept:
            return True
        pos2 = pos + (1 if d == "R" else -1)
        if pos2 < 0 or pos2 > n + 1:
            return False
        if (q2, pos2) in seen:
            return False
        seen.add((q2, pos2))
        q, pos = q2, pos2


@dataclass(frozen=True)
class Departure:
    """One downward exit from a row, with its sojourn's border contacts."""

    column: int
    visited_first: bool
    visited_last: bool


def downward_departures(m2: Automaton2D, w: Picture, i: int) -> list[Departure]:
    """Replay a deterministic three-way machine and record how it leaves
    row i.

    Requires row i to consist of '0' cells only.  Each departure records
    the column of the move into row i+1 and whether the row-i sojourn
    touched the row's first or last symbol beforehand.
    """
    if m2.mode != "det":
        raise ModeError("departure replay is defined for det machines")
    if m2.variant != "3W":
        raise VariantError("departure replay is defined for three-way machines")
    if not 1 <= i <= w.m:
        raise PreconditionError(f"row {i} outside the {w.m}x{w.n} word")
    if any(ch != "0" for ch in w.rows[i - 1]):
        raise PreconditionError(f"row {i} is not uniformly '0'")
    trace = run_deterministic(m2, w).trace
    out = []
    for idx in range(1, len(trace)):
        prev, cur = trace[idx - 1], trace[idx]
        if prev.loc is None or cur.loc is None:
            continue
        if prev.loc[0] == i and cur.loc[0] == i + 1:
            start = idx - 1
            while start > 0 and trace[start - 1].loc is not None and trace[start - 1].loc[0] == i:
                start -= 1
            cols = {trace[j].loc[1] for j in range(start, idx)}
            out.append(Departure(prev.loc[1], 1 in cols, w.n in cols))
    return out


def _entry_column(side: str, offset: int, width: int) -> int:
    return offset if side == "left" else width + 1 - offset


def row_departure_oracle(
    m2: Automaton2D, entry_state: str, side: str, offset: int, row: str
) -> bool:
    """Ground truth for the row restriction: does the machine, dropped
    into a row with the given contents at the given entry, ever move down?

    Positional replay of the in-row dynamics: left/right moves walk the
    framed row, a downward move is the accepting event, anything else
    (undefined, walking off the frame, looping) is not.
    """
    _check_row_machine(m2, entry_state, side, offset)
    n = len(row)
    pos = _entry_column(side, offset, n)
    if pos < 0 or pos > n + 1:
        return False
    q = entry_state
    seen = {(q, pos)}
    while True:
        if q == m2.accept:
            return False
        sym = row[pos - 1] if 1 <= pos <= n else BOUNDARY
        image = m2.image(q, sym)
        if not image:
            return False
        ((q2, d),) = image
        if d == "D":
            return True
        pos2 = pos + (1 if d == "R" else -1)
        if pos2 < 0 or pos2 > n + 1:
            return False
        if (q2, pos2) in seen:
            return False
        seen.add((q2, pos2))
        q, pos = q2, pos2


def _check_row_machine(m2: Automaton2D, entry_state: str, side: str, offset: int) -> None:
    if m2.mode != "det" or m2.variant != "3W":
        raise PreconditionError("row restriction is defined for det three-way machines")
    if entry_state not in m2.states:
        raise PreconditionError(f"unknown entry state {entry_state!r}")
    if side not in ("left", "right"):
        raise PreconditionError("side must be 'left' or 'right'")
    n = len(m2.states)
    if not 1 <= offset <= n + 1:
        raise PreconditionError(f"offset must lie in 1..{n + 1}")
    # Validates the machine on first use and is cached on it, so the
    # per-row oracle pays for validation once per machine, not per call.
    m2.compiled


def row_restriction(
    m2: Automaton2D, entry_state: str, side: str, offset: int
) -> Automaton1D:
    """Two-way string machine that accepts a row's contents iff the
    picture machine would leave that row downward.

    Structure: at most offset-1 walking states (plus one border-seeking
    state on the right side) position the head at the recorded entry
    column, then one simulation state per picture-machine state mirrors
    the in-row moves, with every downward move redirected to a dedicated
    accepting state.  With n picture states and offset <= n+1 this stays
    within 2n+3 states.
    """
    _check_row_machine(m2, entry_state, side, offset)
    syms = (*m2.alphabet.symbols, BOUNDARY)
    ACC = "down"

    def sim(q: str) -> str:
        return f"m|{q}"

    states: list[str] = []
    delta: dict = {}
    if side == "right":
        # Find the right border first; the walk then steps back from it.
        states.append("seek")
        for s in m2.alphabet:
            delta[("seek", s)] = ("seek", "R")
    prefix, move = ("w", "R") if side == "left" else ("b", "L")
    walk = [f"{prefix}{t}" for t in range(1, offset)] + [sim(entry_state)]
    if side == "right":
        delta[("seek", BOUNDARY)] = (walk[0], "L")
    for src, dst in zip(walk, walk[1:]):
        states.append(src)
        for s in syms:
            delta[(src, s)] = (dst, move)
    initial = (states or walk)[0]
    for q in m2.states:
        states.append(sim(q))
        if q == m2.accept:
            continue
        for s in syms:
            image = m2.image(q, s)
            if not image:
                continue
            ((q2, d),) = image
            if d == "D":
                delta[(sim(q), s)] = (ACC, "R")
            else:
                delta[(sim(q), s)] = (sim(q2), d)
    states.append(ACC)
    return Automaton1D(
        f"{m2.name}_{side}{offset}_{entry_state}",
        TWO_WAY,
        m2.alphabet,
        tuple(states),
        initial,
        (ACC,),
        delta,
    )


_BOT = ("b",)
_ACC = ("a",)


def two_way_to_one_way(a: Automaton1D) -> Automaton1D:
    """Language-equivalent one-way machine via crossing tables.

    A one-way state is the pair (current arrival, table), where the table
    maps each state re-entering the consumed prefix from the right to the
    state in which the head eventually exits right again, with explicit
    markers for diverging inside and for accepting inside.  Equivalence
    is the contract; no attempt is made at a small state count.
    """
    if a.kind != TWO_WAY:
        raise ModeError("conversion starts from a two-way machine")
    accept = a.accept
    state_list = a.states

    def through(table: tuple, start, x: str):
        """Outcome of arriving at a fresh cell x in state start, with the
        consumed prefix's behaviour summarised by table."""
        if start in (_BOT, _ACC):
            return start
        q = start
        seen = set()
        while True:
            if q == accept:
                return _ACC
            if q in seen:
                return _BOT
            seen.add(q)
            step = a.delta.get((q, x))
            if step is None:
                return _BOT
            q2, d = step
            if q2 == accept:
                return _ACC
            if d == "R":
                return q2
            entry = table[state_list.index(q2)]
            if entry in (_BOT, _ACC):
                return entry
            q = entry

    # The left frame marker has nothing behind it: a step left from it dies.
    frame = tuple(through((_BOT,) * len(state_list), q, BOUNDARY) for q in state_list)
    start = (_ACC if a.initial == accept else a.initial, frame)
    names = {start: "t0"}
    order = [start]
    queue = [start]
    delta: dict = {}
    while queue:
        state = queue.pop(0)
        sigma, table = state
        for x in a.alphabet:
            nxt = (through(table, sigma, x), tuple(through(table, q, x) for q in state_list))
            if nxt not in names:
                names[nxt] = f"t{len(names)}"
                order.append(nxt)
                queue.append(nxt)
            delta[(names[state], x)] = names[nxt]
    # A one-way state accepts when its arrival, reading the right marker, accepts.
    accept_states = tuple(names[s] for s in order if through(s[1], s[0], BOUNDARY) == _ACC)
    return Automaton1D(
        f"{a.name}_1w",
        ONE_WAY,
        a.alphabet,
        tuple(names[s] for s in order),
        "t0",
        accept_states,
        delta,
    )


@dataclass(frozen=True)
class BoundValue:
    """Exact two-way-to-one-way state blow-up value for n states."""

    n: int
    h: int


def kapoutsis_bound(n: int) -> BoundValue:
    """h(n) = n * (n**n - (n-1)**n), exactly, at any size."""
    if n < 1:
        raise PreconditionError("bound is defined for n >= 1")
    return BoundValue(n, n * (n**n - (n - 1) ** n))


def gadget_k(n: int) -> int:
    """The gadget width parameter: one more than the blow-up of a 2n+3
    state two-way machine."""
    return kapoutsis_bound(2 * n + 3).h + 1


def serialize_automaton_1d(a: Automaton1D) -> str:
    lines = header_lines(a.name, _VARIANT_TOKEN[a.kind], "det", a.alphabet, a.states, a.initial, a.accept_states)
    order = {q: i for i, q in enumerate(a.states)}
    for (q, sym), step in sorted(a.delta.items(), key=lambda kv: (order[kv[0][0]], kv[0][1])):
        if a.kind == TWO_WAY:
            q2, d = step
            lines.append(f"{q} {sym} -> {q2} {d}")
        else:
            lines.append(f"{q} {sym} -> {step}")
    return "\n".join(lines) + "\n"


def parse_automaton_1d(text: str) -> Automaton1D:
    """Parse the 1D automaton file format; inverse of
    :func:`serialize_automaton_1d`.

    Rejects what no string machine can mean: undeclared states,
    symbols outside the alphabet and the marker, two-way moves other
    than L and R, and a second transition for one (state, symbol) pair.
    """
    header, transitions = read_automaton_text(text, "1D automaton")
    (name,), (token,), (mode,), symbols, states, (initial,), accept_states = header
    kind = _TOKEN_VARIANT.get(token)
    if kind is None:
        raise ToolkitError(f"unknown 1D variant {token!r}")
    if mode != "det":
        raise ToolkitError("1D machines are deterministic")
    if kind == TWO_WAY and len(accept_states) != 1:
        raise ToolkitError("two-way machines have exactly one accepting state")
    known = set(states)
    if initial not in known or not known.issuperset(accept_states):
        raise ToolkitError("initial and accepting states must be declared")
    legal = {*symbols, BOUNDARY}
    delta: dict = {}
    for raw, parts in transitions:
        if len(parts) != (5 if kind == TWO_WAY else 4) or parts[2] != "->":
            raise ToolkitError(f"cannot parse 1D transition line: {raw!r}")
        q, sym, _, q2, *move = parts
        if q not in known or q2 not in known or sym not in legal or move not in ([], ["L"], ["R"]):
            raise ToolkitError(f"undeclared state, unknown symbol or bad move: {raw!r}")
        if (q, sym) in delta:
            raise ToolkitError(f"duplicate transition for {(q, sym)}")
        delta[(q, sym)] = (q2, *move) if move else q2
    return Automaton1D(name, kind, Alphabet(symbols), states, initial, accept_states, delta)


def load_automaton_1d(path) -> Automaton1D:
    with open(path, encoding="utf-8") as fh:
        return parse_automaton_1d(fh.read())


def save_automaton_1d(a: Automaton1D, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_automaton_1d(a))
