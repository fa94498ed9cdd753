"""Snapshot-to-route decision rules and the scenario/run validators that
keep the test algorithms inside the regime where they preserve visibility.

A rule is a pure function of the local snapshot: identical snapshots must
yield identical routes (the robots are anonymous and share the rule).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .engine import Scenario, Trace, global_route
from .errors import InputError
from .geometry import (
    ORIGIN,
    Point,
    Route,
    hull_distance,
    is_visible,
    same_points,
)
from .jsonio import json_number, json_point

POINT_MATCH_EPS = 1e-9

HALT = "halt"
HULL_CONTRACTION = "hull_contraction"
SCRIPTED = "scripted"


@dataclass(frozen=True)
class ScriptEntry:
    """Exact-snapshot trigger: when the local snapshot matches `snapshot`
    (unordered, within POINT_MATCH_EPS per point), follow `route`, which
    starts at the local origin.  The `Route` built to check it is kept, not
    a field, and every firing returns that one object."""
    snapshot: tuple[Point, ...]
    route: tuple[Point, ...]

    def __post_init__(self) -> None:
        built = Route(self.route)  # `Route` refuses first
        if built.vertices[0] != ORIGIN:
            raise InputError("a script route must start at the local origin")
        object.__setattr__(self, "built_route", built)  # the dataclass is frozen


@dataclass(frozen=True)
class AlgorithmSpec:
    kind: str
    contraction: float = 0.5
    script: tuple[ScriptEntry, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in (HALT, HULL_CONTRACTION, SCRIPTED):
            raise InputError(f"unknown algorithm kind {self.kind!r}")
        if self.kind == HULL_CONTRACTION and not 0.0 < self.contraction < 1.0:
            raise InputError("contraction factor must lie strictly in (0, 1)")

    def to_json(self) -> dict:
        if self.kind == HULL_CONTRACTION:
            return {"kind": self.kind, "lambda": self.contraction}
        if self.kind == SCRIPTED:
            return {"kind": self.kind, "script": [
                {"snapshot": [[p.x, p.y] for p in e.snapshot],
                 "route": [[p.x, p.y] for p in e.route]}
                for e in self.script]}
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, data: dict) -> "AlgorithmSpec":
        kind = data.get("kind")
        if kind == HULL_CONTRACTION:
            return cls(kind, contraction=json_number(data["lambda"], "lambda"))
        if kind == SCRIPTED:
            entries = tuple(
                ScriptEntry(
                    snapshot=tuple(json_point(p, "script snapshot point") for p in e["snapshot"]),
                    route=tuple(json_point(p, "script route vertex") for p in e["route"]),
                )
                for e in data.get("script", []))
            return cls(kind, script=entries)
        if kind == HALT:
            return cls(kind)
        raise InputError(f"unknown algorithm kind {kind!r}")


def compute(spec: AlgorithmSpec, snapshot: tuple[Point, ...]) -> Route:
    """Route for one Compute, in the local frame, starting at (0, 0)."""
    if ORIGIN not in snapshot:
        raise InputError("snapshot must contain the observer's origin")
    if spec.kind == HALT:
        return Route.stay_put()
    if spec.kind == HULL_CONTRACTION:
        # add left to right: from Python 3.12 on, sum() of floats compensates
        # rounding and would give other bits than earlier versions
        cx = cy = 0.0
        for p in sorted(snapshot, key=attrgetter("x", "y")):
            cx += p.x
            cy += p.y
        cx /= len(snapshot)
        cy /= len(snapshot)
        target = Point(spec.contraction * cx, spec.contraction * cy)
        if target == ORIGIN:
            return Route.stay_put()
        return Route((ORIGIN, target))
    for entry in spec.script:
        if same_points(entry.snapshot, snapshot, POINT_MATCH_EPS):
            return entry.built_route
    return Route.stay_put()


class AlgorithmController:
    """Engine controller of a plain (non-luminous) run: every cycle is
    accepted, no colors, and the route is the spec's rule (`compute`)."""

    def __init__(self, spec: AlgorithmSpec):
        self.spec = spec

    def verdict(self, own_color, seen_colors):
        return None, True

    def route(self, robot, j, here, frame, snapshot):
        return global_route(frame, here, compute(self.spec, snapshot))


def as_controller(spec: AlgorithmSpec) -> AlgorithmController:
    return AlgorithmController(spec)


@dataclass
class Verdict:
    ok: bool
    reasons: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def visibility_components(positions: list[Point]) -> list[list[int]]:
    """Connected components of the visibility graph, by index."""
    n = len(positions)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            a = stack.pop()
            comp.append(a)
            for b in range(n):
                if not seen[b] and is_visible(positions[a], positions[b]):
                    seen[b] = True
                    stack.append(b)
        comps.append(sorted(comp))
    return comps


def validate_vicinity_scenario(scenario: Scenario, spec: AlgorithmSpec | None = None) -> Verdict:
    """A configuration is safe for hull contraction when its visibility graph
    is a disjoint union of cliques of diameter at most 1 whose convex hulls
    are separated by more than the visibility range.

    Under these conditions hulls only shrink, so every robot keeps exactly its
    initial neighbours at all pairs of times.
    """
    if spec is not None and spec.kind not in (HALT, HULL_CONTRACTION):
        raise InputError("vicinity validation applies to halt or hull contraction")
    positions = scenario.initial_positions
    reasons = []
    comps = visibility_components(positions)
    for comp in comps:
        for ai in range(len(comp)):
            for bi in range(ai + 1, len(comp)):
                a, b = comp[ai], comp[bi]
                if not is_visible(positions[a], positions[b]):
                    reasons.append(
                        f"component {comp} is not a clique: robots {a},{b} exceed range")
    for ci in range(len(comps)):
        for cj in range(ci + 1, len(comps)):
            gap = hull_distance([positions[i] for i in comps[ci]],
                                [positions[i] for i in comps[cj]])
            if gap <= 1.0 + POINT_MATCH_EPS:
                reasons.append(
                    f"components {comps[ci]} and {comps[cj]} have hull gap {gap} <= 1")
    return Verdict(not reasons, reasons)


def is_vicinity_preserving_run(trace: Trace) -> Verdict:
    """Stronger cross-time check: every rest position of one robot against
    every rest position of another must match the initial visibility edge."""
    reasons = []
    n = trace.n
    rests = [trace.rest_positions(i) for i in range(n)]
    initial = trace.scenario.initial_positions
    for a in range(n):
        for b in range(a + 1, n):
            expected = is_visible(initial[a], initial[b])
            for pa in rests[a]:
                for pb in rests[b]:
                    if is_visible(pa, pb) != expected:
                        reasons.append(
                            f"pair {a}-{b}: positions {pa} / {pb} break the initial edge")
                        break
                else:
                    continue
                break
    return Verdict(not reasons, reasons)
