"""Known answers that do not come from the code paths a check times.

Each check's verdict is compared with an expected answer.  For the
default seed those answers are committed in ``known_answers.json``; for
any other seed they are recomputed here, outside the timed section, from
per-picture ``accepts`` (the designated cross-check for any faster
enumeration), the benchmark's own block-cached split oracle, and the
small deterministic stepper and formatters below.  None of this goes
through ``enumerate_pictures``, ``equivalent_up_to``, ``language_up_to``,
``concat_membership`` or the CLI, which are what the checks time.

``refresh_known.py`` rewrites ``known_answers.json`` from this module.
"""

import hashlib
import json
from itertools import product
from pathlib import Path

from pictomata.automaton import MOVES
from pictomata.picture import BOUNDARY, Picture
from pictomata.simulate import accepts

KNOWN_ANSWERS = Path(__file__).resolve().parent / "known_answers.json"


def digest(items) -> str:
    """Order-independent fingerprint of a set of words."""
    h = hashlib.sha256()
    for item in sorted(items):
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def pictures(symbols, max_rows: int, max_cols: int):
    """Every picture within bounds in the toolkit's documented total order:
    row count, then column count, then cells lexicographically."""
    for m in range(1, max_rows + 1):
        for n in range(1, max_cols + 1):
            for cells in product(symbols, repeat=m * n):
                yield Picture(tuple("".join(cells[i * n : (i + 1) * n]) for i in range(m)))


def _block(w: Picture, r1: int, r2: int, c1: int, c2: int) -> Picture:
    return Picture(tuple(row[c1 - 1 : c2] for row in w.rows[r1 - 1 : r2]))


def split_member(kind: str, a, b, w: Picture, cache: dict) -> bool:
    """Membership of w in L(a) <kind> L(b) by split enumeration, with each
    factor block simulated once per cache."""

    def acc(machine, tag, block):
        key = (tag, block.rows)
        if key not in cache:
            cache[key] = accepts(machine, block)
        return cache[key]

    m, n = w.m, w.n
    if kind == "row":
        splits = [((1, i, 1, n), (i + 1, m, 1, n)) for i in range(1, m)]
    elif kind == "col":
        splits = [((1, m, 1, j), (1, m, j + 1, n)) for j in range(1, n)]
    else:
        splits = [
            ((1, i, 1, j), (i + 1, m, j + 1, n)) for i in range(1, m) for j in range(1, n)
        ]
    return any(
        acc(a, "A", _block(w, *top)) and acc(b, "B", _block(w, *bottom))
        for top, bottom in splits
    )


def first_difference(candidate, member, symbols, max_rows: int, max_cols: int):
    """First picture in the total order where candidate and member differ,
    as the (rows, expected, got) triple a counterexample reports."""
    for w in pictures(symbols, max_rows, max_cols):
        got = accepts(candidate, w)
        expected = member(w)
        if got != expected:
            return {"word": list(w.rows), "expected": expected, "got": got}
    return None


def language_digest(machine, symbols, max_rows: int, max_cols: int) -> dict:
    words = [w.rows for w in pictures(symbols, max_rows, max_cols) if accepts(machine, w)]
    return {"count": len(words), "digest": digest(words)}


def _band(w: Picture) -> list[str]:
    frame = BOUNDARY * (w.n + 2)
    return [frame, *(BOUNDARY + row + BOUNDARY for row in w.rows), frame]


def _successors(a, w: Picture, band, q: str, loc) -> list:
    """One-step successors of (q, loc) on the bordered band; a loc of None
    is the escape sink, and a 4W move out of the band is undefined."""
    sym = BOUNDARY if loc is None else band[loc[0]][loc[1]]
    out = []
    for q2, d in sorted(a.delta.get((q, sym), ())):
        if loc is None:
            out.append((q2, None))
            continue
        r, c = loc[0] + MOVES[d][0], loc[1] + MOVES[d][1]
        if 0 <= r <= w.m + 1 and 0 <= c <= w.n + 1:
            out.append((q2, (r, c)))
        elif a.variant != "4W":
            out.append((q2, None))
    return out


def det_run(a, w: Picture):
    """Deterministic run to acceptance, an undefined step or the first
    repeated configuration; returns (kind, [(state, loc), ...])."""
    band = _band(w)
    cur = (a.initial, (1, 1))
    seen = {cur}
    trace = [cur]
    while True:
        if cur[0] == a.accept:
            return "accepted", trace
        succ = _successors(a, w, band, *cur)
        if not succ:
            return "rejected-undefined", trace
        cur = succ[0]
        if cur in seen:
            return "rejected-loop", trace
        seen.add(cur)
        trace.append(cur)


def replays(a, w: Picture, trace) -> bool:
    """True iff a trace of Configurations is an accepting run of a on w."""
    band = _band(w)
    steps = [(c.state, c.loc) for c in trace]
    if not steps or steps[0] != (a.initial, (1, 1)) or steps[-1][0] != a.accept:
        return False
    return all(nxt in _successors(a, w, band, *cur) for cur, nxt in zip(steps, steps[1:]))


def run_1d(a, s: str) -> bool:
    """Two-way string machine on # s #: accept on reaching the accepting
    state; reject on an undefined step, leaving the frame or looping."""
    accept = a.accept_states[0]
    q, pos = a.initial, 1
    seen = set()
    while q != accept:
        if (q, pos) in seen:
            return False
        seen.add((q, pos))
        step = a.delta.get((q, s[pos - 1] if 1 <= pos <= len(s) else BOUNDARY))
        if step is None:
            return False
        q, d = step
        if q == accept:
            return True
        pos += 1 if d == "R" else -1
        if not 0 <= pos <= len(s) + 1:
            return False
    return True


def trace_text(w: Picture, trace, verdict: str) -> str:
    """The CLI's trace block for a list of (state, loc) configurations."""
    lines = []
    for q, loc in trace:
        if loc is None:
            lines.append(f"{q} @ ESC reads '{BOUNDARY}'")
            continue
        r, c = loc
        sym = w.rows[r - 1][c - 1] if 1 <= r <= w.m and 1 <= c <= w.n else BOUNDARY
        lines.append(f"{q} @ ({r},{c}) reads '{sym}'")
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n"


def picture_text(rows) -> str:
    return "\n".join(rows) + "\n"


def load_known(workload: str) -> dict:
    with open(KNOWN_ANSWERS, encoding="utf-8") as fh:
        return json.load(fh)[workload]
