"""Constructive semi-synchronous replay: turn a class order into a normal-form
schedule, move every robot straight to its recorded destination, and compare
the result with the source trace.

The candidate search enumerates exactly the schedules induced by topological
orders of the class graph; a verdict of none-among-candidates on a violating
trace is the finite-run reflection of the probabilistic nonexistence claims,
not a proof.
"""
from __future__ import annotations

from dataclasses import dataclass

from .checker import DEFAULT_NODE_BUDGET, CycleId, analyze
from .engine import Adversary, Scenario, Simulation, Trace, RIGID
from .errors import InputError, SimulationError
from .geometry import Point, Route, same_points
from .orders import BudgetExhausted, find_cycle, topological_orders
from .scheduling import Cycle, Schedule, round_cycle

SIMILARITY_EPS = 1e-9


@dataclass
class SsyncPlan:
    """One normal-form round per class; each activated robot moves from its
    recorded Look position to its recorded destination."""
    order: list[list[CycleId]]
    schedule: Schedule
    targets: dict[tuple[int, int], Point]  # (robot, replay cycle index) -> goal

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "order": [[list(c) for c in cls] for cls in self.order],
            "schedule": self.schedule.to_json(),
            "targets": [
                {"robot": i, "j": j, "target": [p.x, p.y]}
                for (i, j), p in sorted(self.targets.items())
            ],
        }


def build_plan(trace: Trace, order: list[list[CycleId]]) -> SsyncPlan:
    """Schedule class k's members in round k (`round_cycle`).  The order must
    list every cycle of the trace, by the positions `trace.record` indexes,
    exactly once; whether the replay is similar is for the caller to check."""
    ids = {(i, j) for i, row in enumerate(trace.records) for j in range(1, len(row) + 1)}
    listed = [c for cls in order for c in cls]
    if set(listed) != ids or len(listed) != len(ids):
        raise InputError("class order does not cover the trace's cycles exactly")
    robots: list[list[Cycle]] = [[] for _ in range(trace.n)]
    targets: dict[tuple[int, int], Point] = {}
    for k, cls in enumerate(order):
        for (i, j) in sorted(cls):
            jnew = len(robots[i]) + 1
            robots[i].append(round_cycle(i, jnew, k))
            targets[(i, jnew)] = trace.record(i, j).pos_after_move
    schedule = Schedule(n=trace.n, horizon=float(len(order)), robots=robots)
    return SsyncPlan(order, schedule, targets)


class _PlanController:
    """Replays recorded destinations exactly, bypassing the local frame: in
    each round (`round_cycle`) a robot goes straight from `here` to its
    target.  A rigid move ends at its target, so `here` is the last one."""

    def __init__(self, plan: SsyncPlan):
        self.targets = plan.targets

    def verdict(self, own_color, seen_colors):
        return None, True

    def route(self, robot, j, here, frame, snapshot):
        target = self.targets[(robot, j)]
        return Route.stay_put(here) if target == here else Route((here, target))


def replay_plan(scenario: Scenario, plan: SsyncPlan) -> Trace:
    """Rigid deterministic replay of the plan's schedule."""
    sim = Simulation(scenario, plan.schedule, _PlanController(plan),
                     Adversary(seed=0, mode=RIGID))
    trace = sim.run()
    trace.kind = "replay"
    return trace


@dataclass
class SimilarityResult:
    ok: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {"similar": self.ok, "witness": self.witness}


def similar(source: Trace, replayed: Trace) -> SimilarityResult:
    """Cycle-for-cycle equality of Look positions and local snapshots.

    This per-index equality implies equality of the footprint and snapshot
    sets and is what the replay construction guarantees.  Equal positions or
    equal snapshot tuples agree within any eps, so an exact replay costs one
    comparison per field and `same_points` runs only where they differ."""
    if source.n != replayed.n:
        raise InputError("traces cover different robot counts")
    for i in range(source.n):
        if len(source.records[i]) != len(replayed.records[i]):
            return SimilarityResult(False, {
                "robot": i, "reason": "cycle count",
                "source": len(source.records[i]), "replay": len(replayed.records[i])})
        for j, (ra, rb) in enumerate(zip(source.records[i], replayed.records[i]), start=1):
            pa, pb = ra.pos_at_look, rb.pos_at_look
            if pa != pb and not same_points((pa,), (pb,), SIMILARITY_EPS):
                return SimilarityResult(False, {
                    "robot": i, "j": j, "reason": "footprint",
                    "source": pa.as_pair(), "replay": pb.as_pair()})
            sa, sb = ra.snapshot_local, rb.snapshot_local
            if sa != sb and not same_points(sa, sb, SIMILARITY_EPS):
                return SimilarityResult(False, {
                    "robot": i, "j": j, "reason": "snapshot",
                    "source": sorted(p.as_pair() for p in sa),
                    "replay": sorted(p.as_pair() for p in sb)})
    return SimilarityResult(True)


SIMILAR_FOUND = "similar-ssync-found"
NONE_AMONG_CANDIDATES = "none-among-candidates"
INCONCLUSIVE = "inconclusive"


@dataclass
class CandidateSearchResult:
    verdict: str
    orders_tried: int

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "orders_tried": self.orders_tried}


DEFAULT_ORDER_BUDGET = 256  # candidate orders replayed before the search is inconclusive


def candidate_search(trace: Trace, order_budget: int = DEFAULT_ORDER_BUDGET,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> CandidateSearchResult:
    """Try every schedule induced by a topological order of the class graph
    (of the trace's one analysis, `analyze`).

    A cyclic class graph admits no candidate at all.  The search replays each
    candidate and keeps the first similar one; running out of budget before
    exhausting the orders is inconclusive, not a negative."""
    analysis = analyze(trace)
    succ = analysis.successors(True)
    if analysis.self_loops or find_cycle(succ) is not None:
        return CandidateSearchResult(NONE_AMONG_CANDIDATES, 0)
    tried = 0
    try:
        for order in topological_orders(succ, node_budget):
            if tried >= order_budget:
                return CandidateSearchResult(INCONCLUSIVE, tried)
            tried += 1
            classes = [analysis.classes[k] for k in order]
            try:
                plan = build_plan(trace, classes)
                replayed = replay_plan(trace.scenario, plan)
            except (InputError, SimulationError):
                continue  # candidate is not realizable; it cannot be similar
            if similar(trace, replayed):
                return CandidateSearchResult(SIMILAR_FOUND, tried)
    except BudgetExhausted:
        return CandidateSearchResult(INCONCLUSIVE, tried)
    return CandidateSearchResult(NONE_AMONG_CANDIDATES, tried)
