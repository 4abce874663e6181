"""One-dimensional automata and the row-restriction machinery.

A two-way string machine runs on ``# s #`` over positions ``0..n+1``,
head starting at position 1.  Reaching the accepting state accepts on the
spot; a non-accepting move off either end of the frame halts and rejects;
so does an undefined transition or a repeated configuration.  A one-way
machine consumes its input left to right, no endmarkers, and accepts iff
it ends in an accepting state.

Every run ends.  A two-way run is deterministic, so it either halts or
repeats a configuration (state, position), and from a repeated
configuration it repeats forever: a loop rejects.  There are only
|Q|·(n+2) configurations, so a run halts or repeats one within that many
steps.  :func:`simulate_1d` finds the repeat in constant memory with
Brent's power-of-two checkpoints, within about twice the loop's length
of entering it.

Both kinds are compiled on first use into integer-indexed tables
(:class:`Compiled1D`), which also check the machine: a malformed machine
built in code raises ``ToolkitError`` there, never a wrong verdict.

The row-restriction construction turns one row's worth of a deterministic
three-way picture machine into a two-way string machine: walk the head to
the recorded entry column, then mirror the in-row moves, turning any
downward move into acceptance.  Its ground truth is
:func:`row_departure_oracle`, which replays the same dynamics positionally
with no automaton in between.
"""

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .automaton import Automaton2D, automaton_text, read_automaton_text
from .errors import AlphabetError, ModeError, PreconditionError, ToolkitError, VariantError
from .picture import BOUNDARY, Alphabet, Picture, read_text, write_text
from .simulate import run_deterministic

TWO_WAY = "1D-2W"
ONE_WAY = "1D-1W"


#: Head step of each two-way move.
_STEP = {"L": -1, "R": 1}
#: Written after the right frame marker of a compiled tape.  It is not
#: printable, so no alphabet has it and no table has a transition for it:
#: a head that leaves the frame reads it, at position n+2 or at position
#: -1 (which indexes the tape from its end), and halts.
_OFF = "\x00"


@dataclass(frozen=True)
class Automaton1D:
    """Deterministic string machine, two-way or one-way.

    ``kind`` is the file's variant token, :data:`TWO_WAY` or :data:`ONE_WAY`.
    delta maps (state, symbol) to (state, 'L'|'R') in the two-way kind
    and to a bare state in the one-way kind; two-way machines also see
    the frame marker ``#``.  ``accept_states`` holds exactly one state
    for the two-way kind.  ``delta`` is stored as a read-only view of a
    private copy, so the tables compiled on first simulation can never
    go stale.  Nothing is checked at construction; :attr:`compiled`
    checks the machine.
    """

    name: str
    kind: str
    alphabet: Alphabet
    states: tuple[str, ...]
    initial: str
    accept_states: tuple[str, ...]
    delta: dict

    def __post_init__(self):
        object.__setattr__(self, "delta", MappingProxyType(dict(self.delta)))

    @property
    def accept(self) -> str:
        if self.kind != TWO_WAY:
            raise ModeError("single accepting state is a two-way notion")
        if len(self.accept_states) != 1:
            raise ToolkitError(f"{self.name!r}: a two-way machine has exactly one accepting state")
        return self.accept_states[0]

    @cached_property
    def compiled(self) -> "Compiled1D":
        """Transition tables for the simulator; raises ``ToolkitError`` on
        a malformed machine."""
        return Compiled1D(self)


class Compiled1D:
    """Integer-indexed transition tables of a string machine; state i is
    ``states[i]`` of the machine.

    ``step[i]`` maps a symbol to the target's index in the one-way kind,
    and to the pair (target index, head step -1 or +1) in the two-way
    kind.  ``final[i]`` tells whether state i accepts; ``accept`` is the
    two-way kind's accepting index and ``None`` in the one-way kind.
    ``legal`` is the set of symbols an input string may use.
    """

    __slots__ = ("initial", "accept", "final", "step", "legal")

    def __init__(self, a: Automaton1D):
        problems = _problems(a)
        if problems:
            raise ToolkitError(f"invalid 1D automaton {a.name!r}: " + "; ".join(problems))
        index = {q: i for i, q in enumerate(a.states)}
        self.initial = index[a.initial]
        self.final = tuple(q in a.accept_states for q in a.states)
        self.accept = index[a.accept] if a.kind == TWO_WAY else None
        self.legal = frozenset(a.alphabet.symbols)
        self.step: list[dict] = [{} for _ in a.states]
        for (q, sym), target in a.delta.items():
            if a.kind == TWO_WAY:
                q2, d = target
                self.step[index[q]][sym] = (index[q2], _STEP[d])
            else:
                self.step[index[q]][sym] = index[target]


def _problems(a: Automaton1D) -> list[str]:
    """Everything that makes a machine meaningless, as messages.  The
    parser reports them for a file, and :class:`Compiled1D` for a machine
    built in code, which can also hold entries of the wrong shape."""
    if a.kind not in (TWO_WAY, ONE_WAY):
        return [f"unknown kind {a.kind!r}"]
    bad = []
    states = tuple(a.states)
    if len(set(states)) != len(states):
        bad.append("duplicate state identifiers")
    if a.initial not in states:
        bad.append(f"initial state {a.initial!r} not declared")
    if not all(q in states for q in a.accept_states):
        bad.append("undeclared accepting state")
    if a.kind == TWO_WAY and len(a.accept_states) != 1:
        bad.append("a two-way machine has exactly one accepting state")
    symbols = (*a.alphabet.symbols, BOUNDARY)
    for key, target in a.delta.items():
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] in states and key[1] in symbols):
            bad.append(f"undeclared state or unknown symbol at {key!r}")
        elif a.kind == ONE_WAY and target not in states:
            bad.append(f"unknown target {target!r} at {key!r}")
        elif a.kind == TWO_WAY and not (
            isinstance(target, tuple) and len(target) == 2 and target[0] in states and target[1] in ("L", "R")
        ):
            bad.append(f"unknown target state or a move other than L and R: {target!r} at {key!r}")
    return bad


def simulate_1d(a: Automaton1D, s: str) -> bool:
    """Run a string machine on s.

    A one-way run ends with the input.  A two-way run ends too: it is
    deterministic, so it either halts or repeats a configuration (state,
    head position), and a repeated configuration means it loops forever,
    which rejects.  With |Q|·(n+2) configurations, one repeats within that
    many steps.  The repeat is found in constant memory by comparing each
    configuration with a checkpoint that moves to the current one after
    1, 2, 4, ... steps (Brent, BIT 1980): once the checkpoint lies on the
    loop and the interval covers the loop's length, the run meets it
    again, within about twice the loop's length of entering it.

    Raises ``ToolkitError`` on a malformed machine or on a symbol outside
    the alphabet.
    """
    c = a.compiled
    if not c.legal.issuperset(s):
        raise ToolkitError(f"string uses symbols {sorted(set(s) - c.legal)} outside the alphabet")
    step = c.step
    q = c.initial
    accept = c.accept
    if accept is None:
        for ch in s:
            q = step[q].get(ch)
            if q is None:
                return False
        return c.final[q]
    if q == accept:
        return True
    tape = BOUNDARY + s + BOUNDARY + _OFF
    pos = 1
    mark_q, mark_pos = q, pos
    interval = left = 1
    while True:
        move = step[q].get(tape[pos])
        if move is None:
            return False
        q, d = move
        if q == accept:
            return True
        pos += d
        if pos == mark_pos and q == mark_q:
            return False
        left -= 1
        if not left:
            interval = left = 2 * interval
            mark_q, mark_pos = q, pos


@dataclass(frozen=True)
class Departure:
    """One downward exit from a row, with its sojourn's border contacts."""

    column: int
    visited_first: bool
    visited_last: bool


def downward_departures(m2: Automaton2D, w: Picture, i: int) -> list[Departure]:
    """Replay a deterministic three-way machine and record how it leaves
    row i.

    Requires row i to be all '0'.  The head never moves up, so row i's
    configurations are one stretch of the run, left downward once or
    never: the list holds one departure or none, with the column of the
    move into row i+1 and whether the stretch touched column 1 or n.
    """
    if m2.mode != "det":
        raise ModeError("departure replay is defined for det machines")
    if m2.variant != "3W":
        raise VariantError("departure replay is defined for three-way machines")
    if not 1 <= i <= w.m:
        raise PreconditionError(f"row {i} outside the {w.m}x{w.n} word")
    if any(ch != "0" for ch in w.rows[i - 1]):
        raise PreconditionError(f"row {i} is not uniformly '0'")
    cols = set()
    for r, c in (cfg.loc for cfg in run_deterministic(m2, w).trace if cfg.loc):
        if r == i + 1:  # a D move keeps the column
            return [Departure(c, 1 in cols, w.n in cols)]
        if r == i:
            cols.add(c)
    return []


def _entry_column(side: str, offset: int, width: int) -> int:
    return offset if side == "left" else width + 1 - offset


def row_departure_oracle(
    m2: Automaton2D, entry_state: str, side: str, offset: int, row: str
) -> bool:
    """Ground truth for the row restriction: does the machine, dropped
    into a row with the given contents at the given entry, ever move down?

    Positional replay of the in-row dynamics: left/right moves walk the
    framed row, a downward move is the accepting event, anything else
    (undefined, walking off the frame, looping) is not.  Raises
    ``AlphabetError`` on a row that holds a symbol outside the machine's
    alphabet, ``#`` included, as :func:`simulate_1d` raises on the
    restriction machine.
    """
    _check_row_machine(m2, entry_state, side, offset)
    c = m2.compiled
    if not c.symbols.issuperset(row):
        raise AlphabetError(f"row uses symbols {sorted(set(row) - c.symbols)} outside the alphabet")
    n = len(row)
    pos = _entry_column(side, offset, n)
    if pos < 0 or pos > n + 1:
        return False
    image, accept = c.image, c.accept
    tape = BOUNDARY + row + BOUNDARY
    q = c.index[entry_state]
    # There are |Q|·(n+2) configurations (state, column); a run that makes
    # that many steps without halting has repeated one, and so loops.
    for _ in range(len(c.states) * (n + 2)):
        if q == accept:
            return False
        moves = image[q].get(tape[pos])
        if moves is None:
            return False
        ((q, down, d),) = moves
        if down:
            return True
        pos += d
        if pos < 0 or pos > n + 1:
            return False
    return False


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
    c = a.compiled
    step, accept = c.step, c.accept
    state_range = range(len(a.states))

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
            move = step[q].get(x)
            if move is None:
                return _BOT
            q2, d = move
            if q2 == accept:
                return _ACC
            if d == 1:
                return q2
            entry = table[q2]
            if entry in (_BOT, _ACC):
                return entry
            q = entry

    # The left frame marker has nothing behind it: a step left from it dies.
    frame = tuple(through((_BOT,) * len(state_range), q, BOUNDARY) for q in state_range)
    start = (_ACC if c.initial == accept else c.initial, frame)
    names = {start: "t0"}
    order = [start]
    delta: dict = {}
    # Breadth first: the loop reaches each state appended to order.
    for state in order:
        sigma, table = state
        for x in a.alphabet:
            nxt = (through(table, sigma, x), tuple(through(table, q, x) for q in state_range))
            if nxt not in names:
                names[nxt] = f"t{len(names)}"
                order.append(nxt)
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


def kapoutsis_bound(n: int) -> int:
    """h(n) = n * (n**n - (n-1)**n), the exact two-way-to-one-way state
    blow-up for n states, at any size."""
    if n < 1:
        raise PreconditionError("bound is defined for n >= 1")
    return n * (n**n - (n - 1) ** n)


def gadget_k(n: int) -> int:
    """The gadget width parameter: one more than the blow-up of a 2n+3
    state two-way machine."""
    return kapoutsis_bound(2 * n + 3) + 1


def serialize_automaton_1d(a: Automaton1D) -> str:
    """Render the 1D automaton file format; refuses what the reader's :func:`_problems` refuses."""
    problems = _problems(a)
    if problems:
        raise ToolkitError(f"cannot write 1D automaton {a.name!r}: " + "; ".join(problems))
    transitions = [(q, sym, *step) if a.kind == TWO_WAY else (q, sym, step) for (q, sym), step in a.delta.items()]
    return automaton_text(a.name, a.kind, "det", a.alphabet, a.states, a.initial, a.accept_states, transitions)


def parse_automaton_1d(text: str) -> Automaton1D:
    """Parse the 1D automaton file format; inverse of
    :func:`serialize_automaton_1d`.

    Checks the file's own syntax here: the variant, the ``det`` mode,
    the target count of each transition line, one line per (state, symbol)
    pair.  Then reports, joined by ``"; "``, every problem of the
    machine that the compiled tables reject too (:func:`_problems`).
    """
    header, transitions = read_automaton_text(text, "1D automaton")
    (name,), (kind,), (mode,), symbols, states, (initial,), accept_states = header
    if kind not in (TWO_WAY, ONE_WAY):
        raise ToolkitError(f"unknown 1D variant {kind!r}")
    if mode != "det":
        raise ToolkitError("1D machines are deterministic")
    delta: dict = {}
    for q, sym, *target in transitions:
        if len(target) != (2 if kind == TWO_WAY else 1):
            raise ToolkitError(f"cannot parse 1D automaton transition {(q, sym, *target)!r} of a {kind} machine")
        if (q, sym) in delta:
            raise ToolkitError(f"duplicate transition for {(q, sym)}")
        delta[(q, sym)] = tuple(target) if kind == TWO_WAY else target[0]
    a = Automaton1D(name, kind, Alphabet(symbols), states, initial, accept_states, delta)
    problems = _problems(a)
    if problems:
        raise ToolkitError("; ".join(problems))
    return a


def load_automaton_1d(path) -> Automaton1D:
    return parse_automaton_1d(read_text(path))


def save_automaton_1d(a: Automaton1D, path) -> None:
    write_text(path, serialize_automaton_1d(a))
