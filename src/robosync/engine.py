"""Deterministic replay engine: runs a decision rule under a schedule and a
seeded adversary, producing a ground-truth trace of every cycle.

Events are Looks and move ends, processed strictly in time order (ties
broken Look < MoveEnd, then robot index).  A cycle's whole record is built at
its Look: the snapshot, the Compute, the non-rigid truncation and the points
at which Looks inside its move see it, drawn uniformly over the realized
prefix and sorted by observation time so progress is monotone.  All draws
are keyed by (seed, robot, cycle, slot), never by call order, so a run is a
pure function of its inputs.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Protocol

from .errors import CollisionError, DegenerateScenarioError, InputError, SimulationError
from .geometry import (
    ORIGIN,
    FrameSpec,
    Point,
    Route,
    is_threshold_degenerate,
    is_visible,
    point_along,
    route_to_global,
    to_local,
    truncated_length,
)
from .scheduling import Cycle, Schedule

RIGID = "rigid"
NONRIGID = "nonrigid"

LOOK, MOVE_END = 0, 1


@dataclass
class Scenario:
    """Initial configuration: positions, fixed frame parameters, minimum
    movement distance.  The visibility range is the global unit distance."""
    initial_positions: list[Point]
    frames: list[FrameSpec]
    delta: float

    def __post_init__(self) -> None:
        if not self.initial_positions:
            raise InputError("a scenario needs at least one robot")
        if len(self.frames) != len(self.initial_positions):
            raise InputError("one frame spec per robot required")
        if not 0 <= self.delta < math.inf:
            raise InputError(f"delta must be finite and non-negative, got {self.delta}")
        pts = self.initial_positions
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if pts[a] == pts[b]:
                    raise InputError(f"robots {a} and {b} share a position")
                if is_threshold_degenerate(pts[a], pts[b]):
                    raise InputError(
                        f"robots {a} and {b} sit at the degenerate visibility threshold")

    @property
    def n(self) -> int:
        return len(self.initial_positions)

    def to_json(self) -> dict:
        return {
            "positions": [[p.x, p.y] for p in self.initial_positions],
            "frames": [{"rotation": f.rotation, "unit": f.unit} for f in self.frames],
            "delta": self.delta,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Scenario":
        positions = [Point(float(x), float(y)) for x, y in data["positions"]]
        frames = [FrameSpec(float(f["rotation"]), float(f["unit"]))
                  for f in data["frames"]]
        delta = float(data["delta"])
        return cls(positions, frames, delta)


class Adversary:
    """Seeded source of truncation draws and mid-move observation points."""

    def __init__(self, seed: int, mode: str = NONRIGID):
        if mode not in (RIGID, NONRIGID):
            raise InputError(f"unknown adversary mode {mode!r}")
        self.seed = seed
        self.mode = mode

    def draw_truncation(self, robot: int, j: int) -> float:
        """Uniform z in [0, 1]; rigid mode always returns 1."""
        if self.mode == RIGID:
            return 1.0
        return random.Random(f"{self.seed}:trunc:{robot}:{j}").random()

    def draw_observation_fractions(self, robot: int, j: int, count: int) -> list[float]:
        """Unit uniforms for the mid-move observation points of one move."""
        return [random.Random(f"{self.seed}:obs:{robot}:{j}:{k}").random()
                for k in range(count)]


@dataclass
class Decision:
    """Outcome of one Compute: the route to trace and, for luminous runs, the
    accept/reject verdict and the color shown from the move start onward."""
    route_local: Route
    accepted: bool = True
    color_after: str | None = None
    route_global: Route | None = None  # exact-target replays bypass the frame


class Controller(Protocol):
    def decide(self, robot: int, j: int, snapshot: tuple[Point, ...],
               snapshot_colors: tuple[str, ...] | None, own_color: str | None) -> Decision:
        ...


class AlgorithmController:
    """Plain (non-luminous) run: every cycle is accepted, no colors."""

    def __init__(self, compute: Callable[[tuple[Point, ...]], Route]):
        self._compute = compute

    def decide(self, robot, j, snapshot, snapshot_colors, own_color) -> Decision:
        return Decision(route_local=self._compute(snapshot))


@dataclass
class CycleRecord:
    """Ground truth for one executed cycle."""
    cycle: Cycle
    pos_at_look: Point
    visible_set: frozenset[int]
    snapshot_local: tuple[Point, ...]
    route_global: Route
    z: float
    pos_after_move: Point
    mid_move_samples: tuple[tuple[float, float], ...] = ()
    snapshot_colors: tuple[str, ...] | None = None
    color_before: str | None = None
    color_after: str | None = None
    accepted: bool | None = None

    def to_json(self) -> dict:
        out = {
            "cycle": {"robot": self.cycle.robot, "j": self.cycle.j,
                      "o": self.cycle.o, "s": self.cycle.s, "f": self.cycle.f},
            "pos_at_look": [self.pos_at_look.x, self.pos_at_look.y],
            "visible_set": sorted(self.visible_set),
            "snapshot_local": [[p.x, p.y] for p in self.snapshot_local],
            "route_global": [[p.x, p.y] for p in self.route_global.vertices],
            "z": self.z,
            "pos_after_move": [self.pos_after_move.x, self.pos_after_move.y],
            "mid_move_samples": [[t, u] for t, u in self.mid_move_samples],
        }
        if self.color_before is not None:
            out["snapshot_colors"] = list(self.snapshot_colors or ())
            out["color_before"] = self.color_before
            out["color_after"] = self.color_after
            out["accepted"] = self.accepted
        return out

    @classmethod
    def from_json(cls, data: dict) -> "CycleRecord":
        c = data["cycle"]
        return cls(
            cycle=Cycle(int(c["robot"]), int(c["j"]), float(c["o"]), float(c["s"]), float(c["f"])),
            pos_at_look=Point(*map(float, data["pos_at_look"])),
            visible_set=frozenset(int(i) for i in data["visible_set"]),
            snapshot_local=tuple(Point(float(x), float(y)) for x, y in data["snapshot_local"]),
            route_global=Route(tuple(Point(float(x), float(y)) for x, y in data["route_global"])),
            z=float(data["z"]),
            pos_after_move=Point(*map(float, data["pos_after_move"])),
            mid_move_samples=tuple((float(t), float(u)) for t, u in data.get("mid_move_samples", [])),
            snapshot_colors=tuple(data["snapshot_colors"]) if "snapshot_colors" in data else None,
            color_before=data.get("color_before"),
            color_after=data.get("color_after"),
            accepted=data.get("accepted"),
        )


@dataclass
class Trace:
    """Complete run: the scenario, the horizon, and one record per cycle."""
    scenario: Scenario
    horizon: float
    records: list[list[CycleRecord]]
    kind: str = "plain"  # plain | luminous | core
    machine: str | None = None

    @property
    def n(self) -> int:
        return self.scenario.n

    def record(self, robot: int, j: int) -> CycleRecord:
        return self.records[robot][j - 1]

    def all_records(self) -> list[CycleRecord]:
        return [r for row in self.records for r in row]

    def cycle_ids(self) -> list[tuple[int, int]]:
        return [r.cycle.ident for r in self.all_records()]

    def rest_positions(self, robot: int) -> list[Point]:
        """Every position the robot occupies at rest during the prefix."""
        out = [self.scenario.initial_positions[robot]]
        for r in self.records[robot]:
            if r.pos_after_move != out[-1]:
                out.append(r.pos_after_move)
        return out

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "kind": self.kind,
            "machine": self.machine,
            "horizon": self.horizon,
            "scenario": self.scenario.to_json(),
            "records": [[r.to_json() for r in row] for row in self.records],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Trace":
        scenario = Scenario.from_json(data["scenario"])
        records = [[CycleRecord.from_json(r) for r in row] for row in data["records"]]
        horizon = float(data["horizon"])
        # the cycle rows must form a valid schedule for the scenario's robots
        Schedule(scenario.n, horizon, [[r.cycle for r in row] for row in records])
        for row in records:
            for r in row:
                if not all(0 <= k < scenario.n for k in r.visible_set):
                    raise InputError(f"cycle {r.cycle.ident} sees a robot outside "
                                     f"0..{scenario.n - 1}: {sorted(r.visible_set)}")
        return cls(scenario, horizon, records,
                   kind=data.get("kind", "plain"), machine=data.get("machine"))


class Simulation:
    """Single sequential run; build one per (scenario, schedule, controller,
    adversary) and call run().

    The records are the only per-robot state: a robot's position and color
    at an event are read from its last record, or from the scenario and
    `initial_color` before its first Look.  Events run in time order, so
    every query about a robot comes at or after that robot's last Look.
    """

    def __init__(self, scenario: Scenario, schedule: Schedule,
                 controller: Controller, adversary: Adversary,
                 initial_color: str | None = None):
        if schedule.n != scenario.n:
            raise InputError("schedule robot count does not match scenario")
        self.scenario = scenario
        self.schedule = schedule
        self.controller = controller
        self.adversary = adversary
        self.initial_color = initial_color
        self.records: list[list[CycleRecord]] = [[] for _ in range(scenario.n)]
        self._look_times = schedule.look_times()

    def run(self) -> Trace:
        events = sorted(event for cycles in self.schedule.robots for c in cycles
                        for event in ((c.o, LOOK, c.robot, c), (c.f, MOVE_END, c.robot, c)))
        now = None
        for t, kind, robot, cycle in events:
            if t != now:
                # every event at one instant sees the same positions: a Look
                # appends a record that reads as its robot's position and color
                # before it, and a move's end point is set at its Look.  Looks
                # sort first, so the first event's check is the strongest one
                now = t
                positions = self._positions_at(t)
                self._check_pairs(t, positions, looking=kind == LOOK)
            if kind == LOOK:
                self._look(robot, cycle, positions)
        kind = "luminous" if self.initial_color else "plain"
        return Trace(self.scenario, self.schedule.horizon, self.records, kind=kind)

    # -- state at an instant ------------------------------------------------

    def _position_at(self, robot: int, t: float) -> Point | None:
        """None when strictly mid-move and no sample exists for t."""
        row = self.records[robot]
        if not row:
            return self.scenario.initial_positions[robot]
        record = row[-1]
        if t <= record.cycle.s:
            return record.pos_at_look
        if t >= record.cycle.f:
            return record.pos_after_move
        samples = record.mid_move_samples
        k = bisect_left(samples, (t,))
        if k == len(samples) or samples[k][0] != t:
            return None
        return point_along(record.route_global, samples[k][1])

    def _color_at(self, robot: int, t: float) -> str | None:
        """A new color shows from the move start on."""
        row = self.records[robot]
        if not row:
            return self.initial_color
        record = row[-1]
        if t >= record.cycle.s and record.color_after:
            return record.color_after
        return record.color_before

    def _positions_at(self, t: float) -> list[Point | None]:
        return [self._position_at(i, t) for i in range(len(self.records))]

    def _check_pairs(self, t: float, positions: list[Point | None], looking: bool) -> None:
        n = len(positions)
        for a in range(n):
            pa = positions[a]
            if pa is None:
                continue
            for b in range(a + 1, n):
                pb = positions[b]
                if pb is None:
                    continue
                if pa == pb:
                    raise CollisionError(f"robots {a} and {b} collide at t={t}")
                if looking and is_threshold_degenerate(pa, pb):
                    raise DegenerateScenarioError(
                        f"robots {a} and {b} at the visibility threshold at t={t}")

    def _look(self, robot: int, cycle: Cycle, positions: list[Point | None]) -> None:
        """Snapshot, Compute and the adversary's draws for one cycle.

        The observer is at rest at its Look; other robots are seen at their
        rest position, or at the sampled point of their in-progress move.
        """
        t = cycle.o
        here = positions[robot]
        frame = self.scenario.frames[robot]
        seen: list[tuple[Point, int]] = []
        for i, pos in enumerate(positions):
            if i == robot:
                continue
            if pos is None:
                raise SimulationError(
                    f"no observation sample for robot {i} at t={t}")
            if is_visible(here, pos):
                seen.append((to_local(frame, here, pos), i))
        entries = sorted(((p.x, p.y, i) for p, i in seen))
        visible = frozenset(i for _, _, i in entries) | {robot}
        points = (ORIGIN,) + tuple(Point(x, y) for x, y, _ in entries)
        own_color = self._color_at(robot, t)
        colors = tuple([own_color or ""] + [self._color_at(i, t) or "" for _, _, i in entries])
        luminous = own_color is not None
        decision = self.controller.decide(
            robot, cycle.j, points, colors if luminous else None, own_color)
        if decision.route_global is not None:
            route = decision.route_global
        else:
            local = decision.route_local
            if local.start != ORIGIN:
                raise SimulationError("computed route must start at the local origin")
            if local.length == 0.0:
                route = Route.stay_put(here)
            else:
                route = route_to_global(frame, here, local)
        if route.start != here:
            raise SimulationError("computed route must start at the robot")
        z = self.adversary.draw_truncation(robot, cycle.j)
        realized = truncated_length(route.length, self.scenario.delta, z)
        looks = self._look_times  # sorted, so the Looks inside (s, f) are one slice
        obs_times = looks[bisect_right(looks, cycle.s):bisect_left(looks, cycle.f)]
        fractions = self.adversary.draw_observation_fractions(robot, cycle.j, len(obs_times))
        self.records[robot].append(CycleRecord(
            cycle=cycle,
            pos_at_look=here,
            visible_set=visible,
            snapshot_local=points,
            route_global=route,
            z=z,
            pos_after_move=point_along(route, realized),
            mid_move_samples=tuple(zip(obs_times, sorted(f * realized for f in fractions))),
            snapshot_colors=colors if luminous else None,
            color_before=own_color,
            color_after=decision.color_after if luminous else None,
            accepted=decision.accepted if luminous else None,
        ))


def simulate(scenario: Scenario, schedule: Schedule, controller: Controller,
             adversary: Adversary) -> Trace:
    """Run one deterministic simulation and return its trace."""
    return Simulation(scenario, schedule, controller, adversary).run()
