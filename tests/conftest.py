"""Shared helpers: a direct trace builder for checker-level tests and a
sampler of small random inputs."""
from __future__ import annotations

import random

from robosync.algorithms import HALT, HULL_CONTRACTION, AlgorithmSpec
from robosync.engine import CycleRecord, FrameSpec, Scenario, Trace
from robosync.geometry import Point, Route
from robosync.scheduling import Cycle


def build_trace(positions: list[tuple[float, float]],
                rows: list[list[dict]], delta: float = 0.25,
                horizon: float | None = None) -> Trace:
    """Construct a trace from explicit per-cycle records.

    Each entry: {"t": (o, s, f), "sees": {...robot ids...}, "pos": (x, y),
    "after": (x, y)}; "pos" defaults to the robot's previous resting point and
    "after" defaults to "pos" (a stay-put cycle).  Snapshots are synthesized
    from the stated positions so checker-level relations see exactly the
    given visibility data.
    """
    pts = [Point(x, y) for x, y in positions]
    scenario = Scenario(pts, [FrameSpec()] * len(pts), delta)
    records: list[list[CycleRecord]] = []
    top = 0.0
    for i, row in enumerate(rows):
        out = []
        current = pts[i]
        for j, entry in enumerate(row, start=1):
            o, s, f = entry["t"]
            top = max(top, f)
            pos = Point(*entry["pos"]) if "pos" in entry else current
            after = Point(*entry["after"]) if "after" in entry else pos
            sees = frozenset(entry.get("sees", set())) | {i}
            snapshot = tuple(sorted(
                (Point(0.0, 0.0),) + tuple(Point(k * 1.0, 0.0) for k in sees if k != i),
                key=lambda p: (p.x, p.y)))
            route = Route.stay_put(pos) if after == pos else Route((pos, after))
            out.append(CycleRecord(
                cycle=Cycle(i, j, o, s, f),
                pos_at_look=pos,
                visible_set=sees,
                snapshot_local=snapshot,
                route_global=route,
                z=1.0,
                pos_after_move=after,
            ))
            current = after
        records.append(out)
    return Trace(scenario, horizon if horizon is not None else top, records, kind="core")


def random_small_inputs(seed: int, max_robots: int = 6
                        ) -> tuple[Scenario, AlgorithmSpec]:
    """Unconstrained small scenario for the relation property suite; positions
    are kept off the visibility threshold so the run cannot degenerate."""
    rng = random.Random(f"small:{seed}")
    n = rng.randint(2, max_robots)
    positions: list[Point] = []
    while len(positions) < n:
        p = Point(rng.uniform(0, 2.5), rng.uniform(0, 2.5))
        sqs = [(p.x - q.x) ** 2 + (p.y - q.y) ** 2 for q in positions]
        if all(sq > 0.0025 and abs(sq - 1.0) > 1e-6 for sq in sqs):
            positions.append(p)
    frames = [FrameSpec(rng.uniform(0, 6.28), rng.uniform(0.5, 2.0)) for _ in range(n)]
    scenario = Scenario(positions, frames, delta=0.1)
    spec = (AlgorithmSpec(HALT) if rng.random() < 0.5
            else AlgorithmSpec(HULL_CONTRACTION, contraction=0.5))
    return scenario, spec
