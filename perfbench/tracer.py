"""Outside-in span tracer for the traced benchmark run.

`Tracer.install` replaces each public layer function listed in LAYER_SPANS
with a wrapper, in every `robosync.*` module namespace that holds it (callers
look functions up there), plus `engine.Simulation.run` on its class.  Each
wrapper records a span: name, start, end, parent span and unit id.  Spans
stay in memory until `write` dumps them.  Self time is a span's duration
minus the time its child spans cover, accumulated as spans close.

Counters come from the wrapped calls' arguments and results, so they are
deterministic for a given set of units.  `uninstall` puts every original
back; `restored` verifies that it did.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

from robosync import checker, synthesis

# span name -> (home module, attribute); "Class.method" patches the class
LAYER_SPANS = {
    "scheduling.sample": ("robosync.scheduling", "sample_async_schedule"),
    "engine.run": ("robosync.engine", "Simulation.run"),
    "algorithms.compute": ("robosync.algorithms", "compute"),
    "algorithms.vicinity": ("robosync.algorithms", "validate_vicinity_scenario"),
    "algorithms.vicinity_run": ("robosync.algorithms", "is_vicinity_preserving_run"),
    "synchronizer.phase_lag": ("robosync.synchronizer", "check_neighbor_phase_lag"),
    "synchronizer.lifecycle": ("robosync.synchronizer", "check_color_lifecycle"),
    "synchronizer.extract_core": ("robosync.synchronizer", "extract_core"),
    "checker.analyze": ("robosync.checker", "analyze"),
    "checker.stationary": ("robosync.checker", "check_stationary"),
    "checker.aligned": ("robosync.checker", "check_pairwise_aligned"),
    "checker.consistent": ("robosync.checker", "check_consistent"),
    "checker.serializable": ("robosync.checker", "check_serializable"),
    "checker.natural": ("robosync.checker", "find_natural_sort"),
    "checker.check_all": ("robosync.checker", "check_all"),
    "synthesis.build_plan": ("robosync.synthesis", "build_plan"),
    "synthesis.replay": ("robosync.synthesis", "replay_plan"),
    "synthesis.similar": ("robosync.synthesis", "similar"),
    "synthesis.candidate_search": ("robosync.synthesis", "candidate_search"),
}

# spans the benchmark opens itself around the JSON steps of the check path
IO_SPANS = ("io.trace_dump", "io.trace_load", "io.report_dump")

# both vicinity validators report as one span
_SPAN_ALIAS = {"algorithms.vicinity_run": "algorithms.vicinity"}

SPAN_NAMES = tuple(dict.fromkeys(
    [_SPAN_ALIAS.get(name, name) for name in LAYER_SPANS] + list(IO_SPANS)))

COUNTERS = (
    "engine.events", "engine.run.failed",
    "synchronizer.luminous_cycles", "synchronizer.accepted_cycles",
    "checker.cycles", "checker.classes", "checker.class_edges.firm",
    "checker.class_edges.horizon", "checker.hb_pairs",
    "synthesis.candidate_replays", "synthesis.found", "synthesis.replay.failed",
    "io.trace_bytes",
)


def _count_engine(count, args, result):
    sim = args[0]
    count("engine.events", 3 * sum(len(row) for row in sim.schedule.robots))
    if result.kind == "luminous":
        count("synchronizer.luminous_cycles", sum(len(row) for row in result.records))
        count("synchronizer.accepted_cycles",
              sum(1 for row in result.records for rec in row if rec.accepted))


def _count_analyze(count, args, result: checker.ConcurrencyAnalysis):
    firm = sum(1 for f in result.class_edges.values() if f)
    count("checker.cycles", len(result.cycles))
    count("checker.classes", result.num_classes)
    count("checker.class_edges.firm", firm)
    count("checker.class_edges.horizon", len(result.class_edges) - firm)
    count("checker.hb_pairs", len(result.hb_pairs))


def _count_search(count, args, result: synthesis.CandidateSearchResult):
    count("synthesis.candidate_replays", result.orders_tried)
    count("synthesis.found", int(result.verdict == synthesis.SIMILAR_FOUND))


_ON_RESULT = {
    "engine.run": _count_engine,
    "checker.analyze": _count_analyze,
    "synthesis.candidate_search": _count_search,
}
_ON_ERROR = {"engine.run": "engine.run.failed", "synthesis.replay": "synthesis.replay.failed"}


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_unit = array("q")
        self._stack: list[list] = []        # [span index, child seconds]
        self.unit = -1
        self.self_s = defaultdict(float)    # (unit, span id) -> self seconds
        self.calls = defaultdict(int)       # (unit, span id) -> calls
        self.counts = defaultdict(int)      # (unit, counter) -> value
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _open(self, sid: int) -> list:
        idx = len(self.span_start)
        self.span_name.append(sid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_unit.append(self.unit)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def _close(self, sid: int, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        idx = frame[0]
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        key = (self.unit, sid)
        self.self_s[key] += duration - frame[1]
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def __call__(self, name: str) -> "_Span":
        """Context manager for a span the benchmark opens itself."""
        return _Span(self, self._ids[name])

    def count(self, name: str, value: int) -> None:
        self.counts[(self.unit, name)] += value

    def _wrap(self, name: str, fn):
        sid = self._ids[_SPAN_ALIAS.get(name, name)]
        on_result = _ON_RESULT.get(name)
        on_error = _ON_ERROR.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error:
                    tracer.count(on_error, 1)
                raise
            finally:
                tracer._close(sid, frame)
            if on_result:
                on_result(tracer.count, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "robosync" or name.startswith("robosync.")]
        for name, (home, attr) in LAYER_SPANS.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[home], cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        return all(owner.__dict__[attr] is original
                   for owner, attr, original in self._patches)

    # -- results ---------------------------------------------------------------

    def unit_profile(self, unit: int) -> dict:
        """Deterministic per-unit counters and call counts."""
        out = {f"{name}.calls": self.calls.get((unit, sid), 0)
               for sid, name in enumerate(self.names)}
        out.update({name: self.counts.get((unit, name), 0) for name in COUNTERS})
        return out

    def unit_self_ms(self, unit: int) -> dict:
        return {name: 1000.0 * self.self_s.get((unit, sid), 0.0)
                for sid, name in enumerate(self.names)}

    def write(self, path, unit_keys: list[str]) -> None:
        """Dump every span as a tab-separated row."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tunit\n")
            for k in range(len(self.span_start)):
                u = self.span_unit[k]
                fh.write(f"{k}\t{self.names[self.span_name[k]]}\t{self.span_start[k]!r}\t"
                         f"{self.span_end[k]!r}\t{self.span_parent[k]}\t"
                         f"{unit_keys[u] if u >= 0 else ''}\n")


class _Span:
    __slots__ = ("tracer", "sid", "frame")

    def __init__(self, tracer: Tracer, sid: int):
        self.tracer = tracer
        self.sid = sid

    def __enter__(self):
        self.frame = self.tracer._open(self.sid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.frame)
        return False
