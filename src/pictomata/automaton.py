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
from .picture import BOUNDARY, Alphabet, read_text

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
    which reads of ``#`` alone lead to acceptance.  Once a 2W head moves
    past the word's last row or column it reads ``#`` forever, so that
    move accepts exactly when its target state is in ``reach``; the 2W
    kernel of ``simulate`` and :class:`~pictomata.simulate.RowTransfer`
    answer such exits from it.  ``det`` is true when every (state,
    symbol) has at most one move, as :func:`validate` ensures in det
    mode; the 2W kernel then walks the one run.
    """

    __slots__ = ("states", "index", "initial", "accept", "image", "is2w", "is4w", "det", "reach", "legal")

    def __init__(self, a: Automaton2D):
        require_valid(a)
        self.states = a.states
        self.index = {q: i for i, q in enumerate(a.states)}
        self.initial = self.index[a.initial]
        self.accept = self.index[a.accept]
        self.is2w = a.variant == "2W"
        self.is4w = a.variant == "4W"
        self.reach = frozenset(self.index[q] for q in boundary_reach(a))
        #: Symbols a picture may use, indexed by its ``allow_hash``.
        symbols = frozenset(a.alphabet.symbols)
        self.legal = (symbols, symbols | {BOUNDARY})
        #: image[state index][symbol] = ((target index, row step, column step), ...)
        self.image: list[dict[str, tuple]] = [{} for _ in a.states]
        for (q, sym), img in a.delta.items():
            # Sorted images keep run enumeration deterministic across
            # processes regardless of set iteration order.
            self.image[self.index[q]][sym] = tuple((self.index[q2], *MOVES[d]) for q2, d in sorted(img))
        self.det = all(len(img) == 1 for moves in self.image for img in moves.values())


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
    report all of them at once.
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
    return bad


def boundary_reach(a: Automaton2D) -> set[str]:
    """States from which the accepting state is reachable by reading only
    boundary markers: the closure of {accept} backwards over ``#``
    transitions, whatever the variant."""
    reach = {a.accept}
    changed = True
    while changed:
        changed = False
        for (q, sym), image in a.delta.items():
            if sym != BOUNDARY or q in reach:
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
    2W and 4W variants are supported.
    """
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


def header_lines(name, variant, mode, alphabet: Alphabet, states, initial, accept_states) -> list[str]:
    """The header of the automaton file format; shared by the 2D and 1D formats."""
    values = ((name,), (variant,), (mode,), alphabet.symbols, states, (initial,), accept_states)
    return [f"{key} " + " ".join(v) for key, v in zip(_HEADER, values)]


def read_automaton_text(text: str, what: str) -> tuple[list[tuple[str, ...]], list]:
    """Split an automaton file into its header and its transition lines.

    ``;`` begins a comment.  Every header key must be present with the
    number of values it takes; a repeated key overrides the earlier line.
    The header comes back as one value tuple per key, in file-format
    order.  Every other line must contain ``->`` and is returned as a
    ``(raw line, tokens)`` pair for the format's own transition grammar.
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
        elif "->" in parts:
            transitions.append((raw, parts))
        else:
            raise ToolkitError(f"cannot parse {what} line: {raw!r}")
    missing = [key for key in _HEADER if key not in header]
    if missing:
        raise ToolkitError(f"{what} file incomplete (missing {', '.join(missing)})")
    return [header[key] for key in _HEADER], transitions


def serialize_automaton(a: Automaton2D) -> str:
    """Render the line-oriented automaton file format."""
    lines = header_lines(a.name, a.variant, a.mode, a.alphabet, a.states, a.initial, (a.accept,))
    order = {q: i for i, q in enumerate(a.states)}
    for (q, sym), image in sorted(a.delta.items(), key=lambda kv: (order.get(kv[0][0], 1 << 30), kv[0][1])):
        for q2, d in sorted(image):
            lines.append(f"{q} {sym} -> {q2} {d}")
    return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> Automaton2D:
    """Parse the automaton file format; inverse of :func:`serialize_automaton`.

    Duplicate transition lines for one (state, symbol) pair accumulate
    images; that is only legal in nondet mode, which :func:`validate`
    enforces.
    """
    header, transitions = read_automaton_text(text, "automaton")
    entries = []
    for raw, parts in transitions:
        if len(parts) != 5 or parts[2] != "->":
            raise ToolkitError(f"cannot parse automaton line: {raw!r}")
        entries.append((parts[0], parts[1], parts[3], parts[4]))
    (name,), (variant,), (mode,), symbols, states, (initial,), accept = header
    if len(accept) != 1:
        raise ToolkitError("a 2D machine has exactly one accepting state")
    return Automaton2D(name, variant, mode, Alphabet(symbols), states, initial, accept[0], make_delta(entries))


def load_automaton(path) -> Automaton2D:
    return parse_automaton(read_text(path))


def save_automaton(a: Automaton2D, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_automaton(a))
