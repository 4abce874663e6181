"""Two-dimensional finite automata with restricted head movement.

A machine reads the cell under its head and moves one step per
transition.  The ``variant`` field restricts the available directions:

* ``4W`` may move up, down, left, right;
* ``3W`` may move down, left, right;
* ``2W`` may move down and right only.

The transition map is partial: a missing entry halts and rejects.  There
is a single accepting state, which has no outgoing transitions; reaching
it accepts immediately, wherever the head is.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType

from .errors import ToolkitError, VariantError
from .picture import BOUNDARY, Alphabet, read_text, write_text

MOVES = {"U": (-1, 0), "D": (1, 0), "L": (0, -1), "R": (0, 1)}
VARIANT_DIRS = {"4W": {"U", "D", "L", "R"}, "3W": {"D", "L", "R"}, "2W": {"D", "R"}}
MODES = ("det", "nondet")

#: delta maps (state, symbol-or-'#') to a frozenset of (state, direction).
Delta = dict[tuple[str, str], frozenset[tuple[str, str]]]


@dataclass(frozen=True)
class Automaton2D:
    """An immutable machine; derive variants with ``dataclasses.replace``.

    ``delta`` is stored as a read-only view of a private copy, so the
    tables compiled on first simulation can never go stale.  Nothing is
    checked at construction: :func:`validate` must be able to report on
    malformed machines.
    """

    name: str
    variant: str
    mode: str
    alphabet: Alphabet
    states: tuple[str, ...]
    initial: str
    accept: str
    delta: Delta

    def __post_init__(self):
        object.__setattr__(self, "delta", MappingProxyType(dict(self.delta)))

    def image(self, state: str, sym: str) -> frozenset[tuple[str, str]]:
        return self.delta.get((state, sym), frozenset())

    @cached_property
    def compiled(self) -> "Compiled":
        """Transition tables for the simulator; raises on invalid machines."""
        return Compiled(self)


class Compiled:
    """Integer-indexed transition tables for the hot simulation loops.

    ``reach`` is :func:`boundary_reach` as state indices: the states from
    which reads of ``#`` alone lead to acceptance.  ``dead`` holds the
    states from which no sequence of moves, on any symbols, ``#``
    included, reaches the accepting state: the complement of the
    predecessor closure of ``accept`` in the symbol-blind transition
    graph.  A run that enters one can only reject, so dropping the moves
    into them changes no verdict.  ``live`` is ``image`` with every such
    move removed, and a symbol left with no move dropped; a state that
    loses no move shares its dict with ``image``, and ``live is image``
    when no state is dead.  ``dead`` is read only here, to build
    ``live``.  Only the verdict paths of ``simulate`` read ``live``: its
    2W kernel, and :meth:`~pictomata.simulate.RowTransfer.step`, whose
    states therefore never hold a dead pair.  Every trace, replay and
    ground-truth path reads the full ``image``.
    ``det`` is true when every (state, symbol) of ``live`` has exactly
    one move, as :func:`validate` ensures of ``image`` in det mode.
    """

    __slots__ = (
        "states", "index", "initial", "accept", "image", "live", "dead", "is2w", "is4w", "det", "reach",
        "symbols", "legal",
    )

    def __init__(self, a: Automaton2D):
        require_valid(a)
        self.states = a.states
        self.index = {q: i for i, q in enumerate(a.states)}
        self.initial = self.index[a.initial]
        self.accept = self.index[a.accept]
        self.is2w = a.variant == "2W"
        self.is4w = a.variant == "4W"
        self.reach = frozenset(self.index[q] for q in boundary_reach(a))
        #: The alphabet's symbols alone: what a concatenation's word or a row machine's row may hold.
        self.symbols = frozenset(a.alphabet.symbols)
        #: Symbols a picture may hold: the alphabet's and ``#``.
        self.legal = self.symbols | {BOUNDARY}
        #: image[state index][symbol] = ((target index, row step, column step), ...)
        self.image: list[dict[str, tuple]] = [{} for _ in a.states]
        for (q, sym), img in a.delta.items():
            # Sorted images keep run enumeration deterministic across
            # processes regardless of set iteration order.
            self.image[self.index[q]][sym] = tuple((self.index[q2], *MOVES[d]) for q2, d in sorted(img))
        alive = _reaching(a)
        self.dead = frozenset(i for i, q in enumerate(a.states) if q not in alive)
        self.live = self.image
        if self.dead:
            self.live = [self._trimmed(moves) for moves in self.image]
        self.det = all(len(img) == 1 for moves in self.live for img in moves.values())

    def _trimmed(self, moves: dict[str, tuple]) -> dict[str, tuple]:
        """``moves`` without its moves into dead states; ``moves`` itself
        when it has none."""
        dead = self.dead
        if not any(mv[0] in dead for img in moves.values() for mv in img):
            return moves
        kept = {sym: tuple(mv for mv in img if mv[0] not in dead) for sym, img in moves.items()}
        return {sym: img for sym, img in kept.items() if img}


def make_delta(entries) -> Delta:
    """Build a transition map from (state, sym, state, dir) tuples.

    Repeated (state, sym) keys accumulate into one image set.
    """
    delta: dict[tuple[str, str], set] = {}
    for q, sym, q2, d in entries:
        delta.setdefault((q, sym), set()).add((q2, d))
    return {k: frozenset(v) for k, v in delta.items()}


def validate(a: Automaton2D) -> list[str]:
    """Check every structural invariant; an empty list means well-formed.

    Violations are returned as data rather than raised, so callers can
    report all of them at once.  A machine built in code may hold
    entries that are not ``(state, symbol) -> {(state, move), ...}`` in
    strings: each is reported by name, after the other entries' problems.
    """
    bad = []
    if a.variant not in VARIANT_DIRS:
        bad.append(f"unknown variant {a.variant!r}")
        return bad
    if a.mode not in MODES:
        bad.append(f"unknown mode {a.mode!r}")
    if len(set(a.states)) != len(a.states):
        bad.append("duplicate state identifiers")
    known = set(a.states)
    if a.initial not in known:
        bad.append(f"initial state {a.initial!r} not declared")
    if a.accept not in known:
        bad.append(f"accepting state {a.accept!r} not declared")
    legal_dirs = VARIANT_DIRS[a.variant]
    legal_syms = set(a.alphabet.symbols) | {BOUNDARY}
    try:
        for (q, sym), image in sorted(a.delta.items()):
            where = f"({q},{sym!r})"
            if q == a.accept:
                bad.append(f"transition from accepting state at {where}")
            if q not in known:
                bad.append(f"unknown source state at {where}")
            if sym not in legal_syms:
                bad.append(f"unknown symbol at {where}")
            if not image:
                bad.append(f"empty image at {where}")
            if a.mode == "det" and len(image) > 1:
                bad.append(f"nondeterministic fan-out in det mode at {where}")
            for q2, d in sorted(image):
                if q2 not in known:
                    bad.append(f"unknown target state {q2!r} at {where}")
                if d not in MOVES:
                    bad.append(f"unknown direction {d!r} at {where}")
                elif d not in legal_dirs:
                    bad.append(f"illegal direction {d!r} for variant {a.variant} at {where}")
    except (TypeError, ValueError):  # the sort or an unpacking met a malformed entry
        faults = {key: _malformed(key, image) for key, image in a.delta.items()}
        shaped = replace(a, delta={key: image for key, image in a.delta.items() if faults[key] is None})
        return validate(shaped) + sorted(fault for fault in faults.values() if fault)
    return bad


def _string_pair(x) -> bool:
    return isinstance(x, tuple) and len(x) == 2 and all(isinstance(s, str) for s in x)


def _malformed(key, image) -> str | None:
    """What is wrong with the shape of a transition entry; None if nothing."""
    if not _string_pair(key):
        return f"malformed transition key {key!r}"
    where = f"({key[0]},{key[1]!r})"
    if not isinstance(image, (frozenset, set, tuple, list)):
        return f"malformed image {image!r} at {where}"
    moves = sorted(repr(mv) for mv in image if not _string_pair(mv))
    return f"malformed move {', '.join(moves)} at {where}" if moves else None


def boundary_reach(a: Automaton2D) -> set[str]:
    """States from which the accepting state is reachable by reading only
    boundary markers: the closure of {accept} backwards over ``#``
    transitions, whatever the variant."""
    return _reaching(a, BOUNDARY)


def _reaching(a: Automaton2D, symbol: str | None = None) -> set[str]:
    """The closure of {accept} backwards over the transitions on
    ``symbol``, or on every symbol when it is None."""
    reach = {a.accept}
    changed = True
    while changed:
        changed = False
        for (q, sym), image in a.delta.items():
            if (symbol is not None and sym != symbol) or q in reach:
                continue
            if any(q2 in reach for q2, _ in image):
                reach.add(q)
                changed = True
    return reach


def require_valid(a: Automaton2D) -> None:
    problems = validate(a)
    if problems:
        raise ToolkitError(f"invalid automaton {a.name!r}: " + "; ".join(problems))


_SWAP = {"D": "R", "R": "D", "U": "L", "L": "U"}


def transpose_automaton(a: Automaton2D) -> Automaton2D:
    """Swap the roles of rows and columns in a machine.

    Every downward move becomes rightward and vice versa (likewise U/L),
    so acceptance commutes with transposing the input picture.  A 3W
    machine has no counterpart with {D, L, R} transposed, hence only the
    2W and 4W variants are supported, and only valid machines.
    """
    require_valid(a)
    if a.variant == "3W":
        raise VariantError("cannot transpose a three-way machine")
    delta = {
        key: frozenset((q2, _SWAP[d]) for q2, d in image)
        for key, image in a.delta.items()
    }
    return replace(a, delta=delta)


#: Header keys of the automaton file format in file order, with how many
#: values each takes: exactly one, at least one, or any number (a one-way
#: string machine may have no accepting state; each format checks its count).
_HEADER = {
    "automaton": "1", "variant": "1", "mode": "1", "alphabet": "+",
    "states": "+", "initial": "1", "accept": "*",
}


def automaton_text(name, variant, mode, alphabet: Alphabet, states, initial, accept_states, transitions) -> str:
    """The automaton file format; shared by the 2D and 1D formats.

    Each transition is a token tuple ``(state, symbol, *target)``, as
    :func:`read_automaton_text` returns it.  Lines go out sorted by
    declared state, then symbol, undeclared sources last; the sort is
    stable.  Raises ``ToolkitError`` on a machine that would not be read
    back as written: a header value or transition token that is empty or
    holds whitespace or ``;``, or a transition from a state named like a
    header key, whose line would be read as that header line.
    """
    order = {q: i for i, q in enumerate(states)}
    transitions = sorted(transitions, key=lambda t: (order.get(t[0], len(order)), t[1]))
    header = dict(zip(_HEADER, ((name,), (variant,), (mode,), alphabet.symbols, states, (initial,), accept_states)))
    tokens = [v for vs in (*header.values(), *transitions) for v in vs]
    joined = "".join(tokens)
    if ";" in joined or joined.split() != [joined] or not all(tokens):
        bad = next(v for v in tokens if ";" in v or v.split() != [v])
        raise ToolkitError(f"cannot write token {bad!r}: empty, or holds whitespace or ';'")
    clash = _HEADER.keys() & {t[0] for t in transitions}
    if clash:
        raise ToolkitError(f"cannot write transitions from state {min(clash)!r}: it is a header key")
    lines = [f"{key} " + " ".join(v) for key, v in header.items()]
    lines += [f"{t[0]} {t[1]} -> {' '.join(t[2:])}" for t in transitions]
    return "\n".join(lines) + "\n"


def read_automaton_text(text: str, what: str) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
    """Split an automaton file into its header and its transitions.

    ``;`` begins a comment.  Every header key must be present with the
    number of values it takes; a repeated key overrides the earlier line.
    The header comes back as one value tuple per key, in file-format
    order.  Every other line must read ``state symbol -> target...`` and
    comes back as the token tuple ``(state, symbol, *target)`` that
    :func:`automaton_text` writes; each format checks the target's length.
    """
    header: dict[str, tuple[str, ...]] = {}
    transitions = []
    for raw in text.splitlines():
        parts = raw.split(";", 1)[0].split()
        if not parts:
            continue
        arity = _HEADER.get(parts[0])
        if arity is not None:
            if (len(parts) == 1 and arity != "*") or (len(parts) > 2 and arity == "1"):
                raise ToolkitError(f"wrong number of values on {what} line: {raw!r}")
            header[parts[0]] = tuple(parts[1:])
        elif len(parts) > 3 and parts[2] == "->":
            transitions.append((parts[0], parts[1], *parts[3:]))
        else:
            raise ToolkitError(f"cannot parse {what} line: {raw!r}")
    missing = [key for key in _HEADER if key not in header]
    if missing:
        raise ToolkitError(f"{what} file incomplete (missing {', '.join(missing)})")
    return [header[key] for key in _HEADER], transitions


def serialize_automaton(a: Automaton2D) -> str:
    """Render the line-oriented automaton file format.

    Each (state, symbol) pair is written as one line per move of its
    image, so an empty image would leave no line and be read back as an
    absent entry: such a machine raises ``ToolkitError``, naming the
    first pair.  Any other machine is written, valid or not.
    """
    empty = [key for key, image in a.delta.items() if not image]
    if empty:
        q, sym = min(empty)
        raise ToolkitError(f"cannot write the empty image at ({q},{sym!r}): the format has no line for it")
    transitions = [(q, sym, q2, d) for (q, sym), image in a.delta.items() for q2, d in sorted(image)]
    return automaton_text(a.name, a.variant, a.mode, a.alphabet, a.states, a.initial, (a.accept,), transitions)


def parse_automaton(text: str) -> Automaton2D:
    """Parse the automaton file format; inverse of :func:`serialize_automaton`.

    Duplicate transition lines for one (state, symbol) pair accumulate
    images; that is only legal in nondet mode, which :func:`validate`
    enforces.
    """
    header, transitions = read_automaton_text(text, "automaton")
    for t in transitions:
        if len(t) != 4:
            raise ToolkitError(f"cannot parse automaton transition {t!r}: it needs a target state and a move")
    (name,), (variant,), (mode,), symbols, states, (initial,), accept = header
    if len(accept) != 1:
        raise ToolkitError("a 2D machine has exactly one accepting state")
    return Automaton2D(name, variant, mode, Alphabet(symbols), states, initial, accept[0], make_delta(transitions))


def load_automaton(path) -> Automaton2D:
    return parse_automaton(read_text(path))


def save_automaton(a: Automaton2D, path) -> None:
    write_text(path, serialize_automaton(a))
