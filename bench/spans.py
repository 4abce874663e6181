"""Span tracing around the toolkit's public functions, from outside ``src/``.

``Tracer.install`` replaces each function in ``TRACED`` with a wrapper,
in every ``pictomata`` module that binds it: ``oracle`` and ``concat``
import ``accepts`` by name, and a module's own internal calls go through
its globals, so rebinding every binding catches every call.
``uninstall`` restores the originals.  A generator (``enumerate_pictures``)
gets one span per ``next``, since that is where its work happens.

Each span records name, start, end, parent span and check id in flat
arrays kept in memory until the run ends; the per-layer metrics are
computed from them afterwards.  A layer's self time is its spans'
duration minus the part covered by their child spans; spans nest
properly because everything runs on one thread.
"""

import functools
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

#: Public functions that get a span, by layer (module).  ``Picture.with_cell``
#: is a method, wrapped on the class.
TRACED = {
    "picture": ("subpicture", "parse_picture", "Picture.with_cell"),
    "automaton": ("parse_automaton", "serialize_automaton", "validate"),
    "simulate": ("accepts", "accepting_runs", "run_deterministic", "first_accepting_trace"),
    "concat": ("concat_membership", "split_separated"),
    "oracle": ("enumerate_pictures", "equivalent_up_to", "language_up_to", "flip_attack", "refute"),
    "construct": ("diag_concat_nondet_2w", "diag_concat_separated", "unary_row_concat", "unary_col_concat"),
    "onedim": ("two_way_to_one_way", "row_restriction", "simulate_1d", "row_departure_oracle"),
    "cli": ("dispatch",),
}
_GENERATORS = {"oracle.enumerate_pictures"}
CLI_VERBS = ("validate", "run", "enum", "equiv", "refute", "construct", "to-oneway")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.check = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Check id stamped on new spans; set by the runner.
        self.current_check = -1
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self.counts: Counter = Counter()
        self._verbs: list[tuple[str, int]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._membership = self._id("concat.concat_membership")
        self._builders = [self._id(f"construct.{f}") for f in TRACED["construct"]]

    # -- recording --

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.check.append(self.current_check)
        self.end.append(0.0)
        self._stack.append(i)
        self._open[nid] += 1
        self.start.append(time.perf_counter())
        return i

    def _end(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._open[self.name[i]] -= 1

    def _observe(self, name: str, args, result, span: int) -> None:
        """Counts that need the call's arguments or result."""
        c = self.counts
        if name == "simulate.accepts":
            c["accepted"] += bool(result)
            c["accepts_under_membership"] += self._open[self._membership] > 0
        elif name == "simulate.accepting_runs":
            c["traces"] += len(result)
        elif name == "concat.concat_membership":
            c["members"] += bool(result)
        elif name == "oracle.refute":
            c["witnesses"] += result is not None
        elif name.startswith("construct."):
            if not any(self._open[b] for b in self._builders):
                c["construct_states"] += len(result.states)
                c["construct_transitions"] += sum(len(image) for image in result.delta.values())
        elif name in ("onedim.two_way_to_one_way", "onedim.row_restriction"):
            c[f"{name}.states"] += len(result.states)
        elif name == "cli.dispatch":
            self._verbs.append((args[0][0] if args and args[0] else "", span))

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        tracer = self

        if name in _GENERATORS:

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    i = tracer._begin(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._end(i)
                    tracer.counts["pictures"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(i)
            tracer._observe(name, args, result, i)
            return result

        return wrapper

    # -- installation --

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "pictomata" or n.startswith("pictomata.")]
        for layer, functions in TRACED.items():
            module = sys.modules[f"pictomata.{layer}"]
            for fname in functions:
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    owner = getattr(module, cls_name)
                    original = vars(owner)[meth]
                    self._rebind(owner, meth, self._wrap(f"{layer}.{meth}", original))
                    continue
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, attr, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --

    def layer_metrics(self, walls: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics from the recorded spans; ``walls`` maps each
        check id to its wall time, for the time no span covers."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        covered: defaultdict = defaultdict(float)
        # Children start after their parents, so walking backwards sees
        # every child before its parent.
        for i in range(n - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += dur - child[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
            else:
                covered[self.check[i]] += dur
        by_verb = defaultdict(list)
        for verb, i in self._verbs:
            by_verb[verb].append(self.end[i] - self.start[i])
        c = self.counts

        def ratio(x, y):
            return x / y if y else 0.0

        out = {
            "picture.subpicture.calls": calls["picture.subpicture"],
            "picture.subpicture.self_s": self_s["picture.subpicture"],
            "picture.with_cell.calls": calls["picture.with_cell"],
            "picture.parse_picture.self_s": self_s["picture.parse_picture"],
            "automaton.parse_automaton.self_s": self_s["automaton.parse_automaton"],
            "automaton.serialize_automaton.self_s": self_s["automaton.serialize_automaton"],
            "automaton.validate.calls": calls["automaton.validate"],
            "simulate.accepts.calls": calls["simulate.accepts"],
            "simulate.accepts.self_s": self_s["simulate.accepts"],
            "simulate.accepts.us_per_call": 1e6 * ratio(self_s["simulate.accepts"], calls["simulate.accepts"]),
            "simulate.accepts.accept_ratio": ratio(c["accepted"], calls["simulate.accepts"]),
            "simulate.accepting_runs.calls": calls["simulate.accepting_runs"],
            "simulate.accepting_runs.self_s": self_s["simulate.accepting_runs"],
            "simulate.accepting_runs.traces": c["traces"],
            "simulate.run_deterministic.calls": calls["simulate.run_deterministic"],
            "simulate.run_deterministic.self_s": self_s["simulate.run_deterministic"],
            "simulate.first_accepting_trace.self_s": self_s["simulate.first_accepting_trace"],
            "concat.concat_membership.calls": calls["concat.concat_membership"],
            "concat.concat_membership.self_s": self_s["concat.concat_membership"],
            "concat.accepts_per_membership": ratio(c["accepts_under_membership"], calls["concat.concat_membership"]),
            "concat.member_ratio": ratio(c["members"], calls["concat.concat_membership"]),
            "concat.split_separated.calls": calls["concat.split_separated"],
            "concat.split_separated.self_s": self_s["concat.split_separated"],
            "oracle.enumerate_pictures.pictures": c["pictures"],
            "oracle.enumerate_pictures.self_s": self_s["oracle.enumerate_pictures"],
            "oracle.equivalent_up_to.self_s": self_s["oracle.equivalent_up_to"],
            "oracle.language_up_to.self_s": self_s["oracle.language_up_to"],
            "oracle.flip_attack.calls": calls["oracle.flip_attack"],
            "oracle.flip_attack.self_s": self_s["oracle.flip_attack"],
            "oracle.refute.self_s": self_s["oracle.refute"],
            "oracle.refute.witness_ratio": ratio(c["witnesses"], calls["oracle.refute"]),
            "construct.states_out": c["construct_states"],
            "construct.transitions_out": c["construct_transitions"],
            "onedim.two_way_to_one_way.self_s": self_s["onedim.two_way_to_one_way"],
            "onedim.two_way_to_one_way.states_out": c["onedim.two_way_to_one_way.states"],
            "onedim.row_restriction.self_s": self_s["onedim.row_restriction"],
            "onedim.row_restriction.states_out": c["onedim.row_restriction.states"],
            "onedim.simulate_1d.calls": calls["onedim.simulate_1d"],
            "onedim.simulate_1d.self_s": self_s["onedim.simulate_1d"],
            "onedim.simulate_1d.us_per_call": 1e6 * ratio(self_s["onedim.simulate_1d"], calls["onedim.simulate_1d"]),
            "onedim.row_departure_oracle.calls": calls["onedim.row_departure_oracle"],
            "onedim.row_departure_oracle.self_s": self_s["onedim.row_departure_oracle"],
            "cli.dispatch.calls": calls["cli.dispatch"],
            "cli.dispatch.self_s": self_s["cli.dispatch"],
            "trace.uncovered_s": sum(wall - covered[cid] for cid, wall in walls.items()),
        }
        for builder in TRACED["construct"]:
            out[f"construct.{builder}.self_s"] = self_s[f"construct.{builder}"]
        for verb in CLI_VERBS:
            times = by_verb.get(verb)
            out[f"cli.{verb}.p50_ms"] = 1e3 * statistics.median(times) if times else 0.0
        return out

    def write_spans(self, path, check_names: list[str]) -> None:
        """Tab-separated spans: index, name, check, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tcheck\tparent\tstart_s\tend_s\n")
            for i in range(len(self.name)):
                cid = self.check[i]
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{check_names[cid] if cid >= 0 else ''}\t"
                    f"{self.parent[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
