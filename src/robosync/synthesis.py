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
from .engine import Adversary, CycleRecord, Scenario, Simulation, Trace, RIGID
from .errors import InputError, SimulationError
from .geometry import Point, Route, same_points
from .orders import BudgetExhausted, topological_orders
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


def _round_schedule(n: int, order: list[list[CycleId]]) -> Schedule:
    """Class k's members Look in round k (`round_cycle`), each as its source
    cycle (i, j), so `Schedule` refuses an order that breaks a robot's cycle
    order."""
    robots: list[list[Cycle]] = [[] for _ in range(n)]
    for k, cls in enumerate(order):
        for i, j in sorted(cls):
            robots[i].append(round_cycle(i, j, k))
    return Schedule(n=n, horizon=float(len(order)), robots=robots)


def build_plan(trace: Trace, order: list[list[CycleId]]) -> SsyncPlan:
    """Schedule class k's members in round k (`_round_schedule`).  The order
    must list every cycle of the trace, by the positions `trace.record`
    indexes, exactly once, each robot's in j order (else `InputError`);
    whether the replay is similar is for the caller to check."""
    ids = {(i, j) for i, row in enumerate(trace.records) for j in range(1, len(row) + 1)}
    listed = [c for cls in order for c in cls]
    if set(listed) != ids or len(listed) != len(ids):
        raise InputError("class order does not cover the trace's cycles exactly")
    schedule = _round_schedule(trace.n, order)
    targets = {(i, j): trace.record(i, j).pos_after_move for i, j in listed}
    return SsyncPlan(order, schedule, targets)


class _PlanController:
    """Replays recorded destinations exactly, bypassing the local frame: in
    each round (`round_cycle`) a robot goes straight from `here` to its
    target.  A rigid move ends at its target, so `here` is the last one."""

    def __init__(self, plan: SsyncPlan):
        self.targets = plan.targets

    def verdict(self, own_color, seen_colors):
        return None, True

    def target(self, robot: int, j: int, here: Point, snapshot: tuple[Point, ...]) -> Point:
        return self.targets[(robot, j)]

    def route(self, robot, j, here, frame, snapshot):
        target = self.target(robot, j, here, snapshot)
        return Route.stay_put(here) if target == here else Route((here, target))


def replay_plan(scenario: Scenario, plan: SsyncPlan) -> Trace:
    """Rigid deterministic replay of the plan's schedule."""
    sim = Simulation(scenario, plan.schedule, _PlanController(plan),
                     Adversary(seed=0, mode=RIGID))
    trace = sim.run()
    trace.kind = "replay"
    return trace


def _look_differs(source: CycleRecord, here: Point, snapshot: tuple[Point, ...]) -> str | None:
    """Which of a Look's footprint and local snapshot differ from the source
    record's, footprint first, or None when both agree within
    SIMILARITY_EPS.  Equal positions or equal snapshot tuples agree within
    any eps, so an exact replay costs one comparison per field and
    `same_points` runs only where they differ."""
    pa = source.pos_at_look
    if pa != here and not same_points((pa,), (here,), SIMILARITY_EPS):
        return "footprint"
    sa = source.snapshot_local
    if sa != snapshot and not same_points(sa, snapshot, SIMILARITY_EPS):
        return "snapshot"
    return None


@dataclass
class SimilarityResult:
    ok: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {"similar": self.ok, "witness": self.witness}


def similar(source: Trace, replayed: Trace) -> SimilarityResult:
    """Cycle-for-cycle equality of Look positions and local snapshots
    (`_look_differs`), robot-major; the witness names the first difference.

    This per-index equality implies equality of the footprint and snapshot
    sets and is what the replay construction guarantees."""
    if source.n != replayed.n:
        raise InputError("traces cover different robot counts")
    for i in range(source.n):
        if len(source.records[i]) != len(replayed.records[i]):
            return SimilarityResult(False, {
                "robot": i, "reason": "cycle count",
                "source": len(source.records[i]), "replay": len(replayed.records[i])})
        for j, (ra, rb) in enumerate(zip(source.records[i], replayed.records[i]), start=1):
            pb, sb = rb.pos_at_look, rb.snapshot_local
            reason = _look_differs(ra, pb, sb)
            if reason == "footprint":
                return SimilarityResult(False, {
                    "robot": i, "j": j, "reason": reason,
                    "source": ra.pos_at_look.as_pair(), "replay": pb.as_pair()})
            if reason == "snapshot":
                return SimilarityResult(False, {
                    "robot": i, "j": j, "reason": reason,
                    "source": sorted(p.as_pair() for p in ra.snapshot_local),
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


class _LookDiffers(SimulationError):
    """A candidate's replayed Look differs from the source's: the candidate
    cannot be similar."""


class _JudgingController(_PlanController):
    """The candidate search's replay controller: it judges each Look as the
    engine hands it over (`here` and `snapshot` are what the replay's record
    stores as `pos_at_look` and `snapshot_local`) and raises `_LookDiffers`
    at the first one that differs from the source's.  Replay cycle (i, j) is
    source cycle (i, j) (`_round_schedule`), so it heads for its recorded
    destination."""

    def __init__(self, source: Trace):
        self.records = source.records

    def target(self, robot: int, j: int, here: Point, snapshot: tuple[Point, ...]) -> Point:
        record = self.records[robot][j - 1]
        if _look_differs(record, here, snapshot):
            raise _LookDiffers
        return record.pos_after_move


def candidate_search(trace: Trace, order_budget: int = DEFAULT_ORDER_BUDGET,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> CandidateSearchResult:
    """Try every schedule induced by a topological order of the class graph
    (of the trace's one analysis, `analyze`).

    A cyclic class graph admits no candidate at all.  The search replays each
    candidate's round schedule, judging each Look as it comes
    (`_JudgingController`), and keeps the first whose replay completes; a
    candidate stops at its first differing Look or engine error, and either
    way it cannot be similar.  The verdicts are those of `replay_plan`
    followed by `similar`, with no replay trace kept.  Running out of budget
    before exhausting the orders is inconclusive, not a negative."""
    analysis = analyze(trace)
    if analysis.self_loops:
        return CandidateSearchResult(NONE_AMONG_CANDIDATES, 0)
    succ, cycle, _ = analysis.class_graph()
    if cycle is not None:
        return CandidateSearchResult(NONE_AMONG_CANDIDATES, 0)
    controller = _JudgingController(trace)
    adversary = Adversary(seed=0, mode=RIGID)
    tried = 0
    try:
        for order in topological_orders(succ, node_budget):
            if tried >= order_budget:
                return CandidateSearchResult(INCONCLUSIVE, tried)
            tried += 1
            try:
                schedule = _round_schedule(trace.n, [analysis.classes[k] for k in order])
                Simulation(trace.scenario, schedule, controller, adversary).run()
            except (InputError, SimulationError):
                continue  # a differing Look, or the candidate is not realizable
            return CandidateSearchResult(SIMILAR_FOUND, tried)
    except BudgetExhausted:
        return CandidateSearchResult(INCONCLUSIVE, tried)
    return CandidateSearchResult(NONE_AMONG_CANDIDATES, tried)
