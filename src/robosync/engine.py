"""Deterministic replay engine: runs a decision rule under a schedule and a
seeded adversary, producing a ground-truth trace of every cycle.

The run buckets its schedule by instant: the cycles that Look then and the
robots whose move ends then.  It walks the instants in time order, checks
the pairs once at each, then runs its Looks in robot order.  A Look asks
the controller for a verdict on the colors in sight and, on accept only,
for a route from the snapshot (`Controller`).  It draws the non-rigid
truncation and the points at which Looks inside its move see it, drawn
uniformly over the realized prefix and sorted by observation time so
progress is monotone.  All draws are keyed by (seed, robot, cycle, slot),
never by call order, so a run is a pure function of its inputs.  Each robot
has one light, set at its Look: a new color shows from its move start on.

A cycle that stays put costs only its verdict and its record.  No stage of
a synchronizer run reads a rejected cycle's visible set, snapshot, route or
mid-move samples (each at its start).  A route no longer than delta is
traversed whole whatever the truncation draw z is, so such a cycle (every
stay-put cycle) need not draw z at the Look.  So a record holds only what
its Look fixed, and `_BuiltAtFirstRead` builds the rest at its first read,
z with the key of the cycle's own (robot, j): same key, same value.
A copy made by `dataclasses.replace` reads every field, so it holds the
values; `extract_core` copies records shallowly, so a core record carries
the pending draw, still bound to the luminous cycle's (robot, j) although
the core re-indexes j.  A synchronizer run rejects most cycles, so its
engine skips most keyed draws (each seeds a `random.Random`) and frame
rotations; `to_json` reads every field, and so makes them all.  A run's
records hold each repeated value once: its one frozenset of each visible
set, and its one `(t, 0.0)` of each Look time, which every stay-put sample
at t is.  A loaded record keeps its snapshot and samples as two arrays of
floats until their first read.

Robots must never collide, and at a Look no pair may sit in the ambiguity
band around the visibility threshold.  The check is incremental: at each
distinct instant only the robots whose point changed (arrivals that moved,
and at a Look the movers' fresh samples) are tested, against the robots in
their 3x3 block of a uniform cell grid (fixed-radius near-neighbour
search), whose side `geometry.CELL_SIDE` exceeds sqrt(1 + VISIBILITY_EPS),
so a flagged pair always lies in neighbouring cells.  The scenario builds
that index once, to validate its positions, and each run forks it: the
fork shares the block lists, which a move replaces and never edits.  The
error names the lowest bad pair found, which is the pair a scan of every
pair at every instant would name.  A robot whose bad pair does not count
between Looks (a threshold pair, or a shared point with a robot inside its
move window) is tested again at the next Look.  An arrival that stays put
keeps its Look point, so it is tested only while such a robot waits: its
pair may count from its move end on.  A cycle has one mid-move sample per
Look time inside its move (zipped strictly), so at a Look every mover's
point is known; only a cycle that moves is sampled there.
"""
from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from typing import Protocol

from .errors import CollisionError, DegenerateScenarioError, InputError, SimulationError
from .geometry import (
    ORIGIN,
    FrameSpec,
    Point,
    Route,
    cell,
    cell_block,
    is_threshold_degenerate,
    point_along,
    route_to_global,
    truncated_length,
    truncation_draw,
)
from .jsonio import json_choice, json_index, json_number, json_point, json_point_rows
from .scheduling import Cycle, Schedule

RIGID = "rigid"
NONRIGID = "nonrigid"

# the five light colors a luminous trace stores (see synchronizer.py)
BK, R, B, G, W = "Bk", "R", "B", "G", "W"
COLORS = (BK, R, B, G, W)
_NO_COLORS = frozenset()  # the colors a plain run's Look sees
# the light machines a luminous trace names, and the kinds of trace
SVP, GREEDY = "svp", "greedy"
MACHINES = (SVP, GREEDY)
KINDS = ("plain", "luminous", "core", "replay")


class _CellIndex:
    """Every robot's latest point on a uniform grid of side `CELL_SIDE`
    (fixed-radius near-neighbour search): a pair that shares a point or sits
    at the threshold always lies in neighbouring cells.

    A block list is never edited once built: `move` replaces each one it
    changes, in the same robot order, so a `fork` may share them all."""

    def __init__(self, points: Iterable[Point]):
        self.points = list(points)
        self._cell = [cell(p) for p in self.points]
        self._near: dict[tuple[int, int], list[int]] = {}  # cell -> robots in its 3x3 block
        for i, key in enumerate(self._cell):
            for k in cell_block(key):
                self._near.setdefault(k, []).append(i)

    def fork(self) -> _CellIndex:
        """An index of the same points whose moves leave this one as it is."""
        twin = object.__new__(_CellIndex)
        twin.points = self.points.copy()
        twin._cell = self._cell.copy()
        twin._near = self._near.copy()  # the block lists are shared
        return twin

    def move(self, i: int, p: Point) -> None:
        self.points[i] = p
        key = cell(p)
        old = self._cell[i]
        if key == old:
            return
        near = self._near
        for k in cell_block(old):
            kept = near[k].copy()
            kept.remove(i)
            near[k] = kept
        for k in cell_block(key):
            near[k] = [*near.get(k, ()), i]
        self._cell[i] = key

    def near(self, i: int) -> list[int]:
        """The robots in point i's 3x3 block, i among them."""
        return self._near[self._cell[i]]

    def bad_pairs(self, i: int) -> tuple[tuple[int, int, bool], ...]:
        """Every pair (a, b, same) with a < b, one of them i, whose points
        coincide (same) or sit at the threshold."""
        pts = self.points
        p = pts[i]
        found = ()  # no allocation when nothing is found
        for j in self._near[self._cell[i]]:
            if j != i:
                q = pts[j]
                same = p.x == q.x and p.y == q.y
                if same or is_threshold_degenerate(p, q):
                    found += ((i, j, same) if i < j else (j, i, same),)
        return found


@dataclass
class Scenario:
    """Initial configuration: positions, fixed frame parameters, minimum
    movement distance.  The visibility range is the global unit distance.

    The cell index that validates the positions is kept, and every run over
    the scenario forks it, so the positions must not change after."""
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
        index = self._index = _CellIndex(self.initial_positions)
        for i in range(self.n):
            bad = index.bad_pairs(i)
            if bad:  # no robot below i has a bad pair, so min(bad) is the lowest of all
                a, b, same = min(bad)
                raise InputError(f"robots {a} and {b} share a position" if same else
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
        positions = [json_point(p, "position") for p in data["positions"]]
        frames = [FrameSpec(json_number(f["rotation"], "frame rotation"),
                            json_number(f["unit"], "frame unit"))
                  for f in data["frames"]]
        delta = json_number(data["delta"], "delta")
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


class Controller(Protocol):
    """One Compute in two steps.  `verdict` rules on the robot's own color
    and the set of colors it sees (both None-free on a luminous run; a plain
    run passes None and the empty set) and returns `(color shown from the
    move start on, accepted)`.  `route` runs on accept only: it gets the
    local snapshot, sorted as `CycleRecord.snapshot_local` holds it, and
    returns the global route, which must start at `here`.  A rejected cycle
    stays put."""

    def verdict(self, own_color: str | None,
                seen_colors: frozenset[str]) -> tuple[str | None, bool]:
        ...

    def route(self, robot: int, j: int, here: Point, frame: FrameSpec,
              snapshot: tuple[Point, ...]) -> Route:
        ...


def global_route(frame: FrameSpec, here: Point, local: Route) -> Route:
    """A route computed in the robot's frame, from its local origin, as the
    global route from `here`; a route of length zero stays put."""
    start = local.vertices[0]
    if start.x != 0.0 or start.y != 0.0:  # `!= ORIGIN` field by field: no tuples built
        raise SimulationError("computed route must start at the local origin")
    if local.length == 0.0:
        return Route.stay_put(here)
    return route_to_global(frame, here, local)


def _local_snapshot(frame: FrameSpec, seen: list[tuple[int, float, float]],
                    own_color: str | None, colors: list[str] | None
                    ) -> tuple[tuple[Point, ...], tuple[str, ...] | None]:
    """The snapshot in the observer's frame, the observer first at its
    origin and the robots in sight, given by their global offsets, sorted by
    (local x, local y, robot); and, on a luminous run, the colors in the same
    order."""
    in_frame = frame.local
    rows = []
    for k, (i, dx, dy) in enumerate(seen):
        p = in_frame(dx, dy)
        rows.append((p.x, p.y, i, p, k))
    rows.sort()
    points = (ORIGIN, *[row[3] for row in rows])
    if colors is None:
        return points, None
    return points, (own_color, *[colors[row[4]] for row in rows])


def _visible(robot: int, seen: list[tuple[int, float, float]]) -> frozenset[int]:
    """The observer and the robots in sight."""
    return frozenset([robot, *[i for i, _, _ in seen]])


def _inside(looks: list[float], cycle: Cycle) -> list[float]:
    """The sorted Look times strictly inside the cycle's move."""
    return looks[bisect_right(looks, cycle.s):bisect_left(looks, cycle.f)]


def _rest_samples(rests: dict[float, tuple[float, float]],
                  times: list[float]) -> tuple[tuple[float, float], ...]:
    """The samples of a cycle that stays put, one `(t, 0.0)` per Look time
    inside its move: the run's one object of each, made at its first use."""
    return tuple([rests.get(t) or rests.setdefault(t, (t, 0.0)) for t in times])


class _BuiltAtFirstRead:
    """`CycleRecord.visible_set`, `snapshot_local`, `snapshot_colors`,
    `route_global`, `mid_move_samples` and `z`.

    A record holds these fields in its `__dict__`, which shadows this
    non-data descriptor, so reading them costs no call.  The first read of
    a field the record lacks builds it from one of three sources and stores
    it on the record:
    - a pending draw, `_draw = (adversary, robot, j)`, of a record whose
      Look drew no z: the read makes the draw and refuses it outside [0, 1];
    - what a rejected cycle's Look saw, `_seen`: the run's shared visible
      sets, Look times and rest samples (the tables, never the `Simulation`,
      which the record must not keep alive), and the arguments of
      `_local_snapshot`, with the colors read at the Look, since they change
      later.  The visible set is built from the robots seen and stored as
      the run's one object of it (`Simulation._visible_sets`), either
      snapshot field builds both, the route is the stay-put route at
      `pos_at_look`, and the samples are the run's one `(t, 0.0)` of each
      Look time inside the move (`_rest_samples`); a field already set on
      the record (as `_core_record` sets the colors) is kept;
    - a loaded record's checked coordinates, `_rows = (snapshot, samples)`,
      each an `array("d")` of its rows flattened: the points and the
      `(t, u)` pairs are built from them.  Building a field drops its half
      of `_rows` (None), and building both drops `_rows`."""

    def __init__(self, *default):
        self.default = default  # () or (the dataclass default,)

    def __set_name__(self, owner, name) -> None:
        self.name = name

    def __get__(self, rec, owner=None):
        if rec is None:  # class access: the field's default
            if self.default:
                return self.default[0]
            raise AttributeError(self.name)
        name = self.name
        if name == "z":
            adversary, robot, j = rec._draw
            value = truncation_draw(adversary.draw_truncation(robot, j))
        elif rec._rows is not None:  # a loaded record: the snapshot or the samples
            points, samples = rec._rows
            if name == "snapshot_local":
                coords = iter(points)
                value = tuple([Point(x, y) for x, y in zip(coords, coords)])
                points = None
            else:
                coords = iter(samples)
                value = tuple(zip(coords, coords))
                samples = None
            rec._rows = None if points is None and samples is None else (points, samples)
        else:
            shared, looks, rests, frame, seen, *colors = rec._seen
            if name == "visible_set":
                value = _visible(rec.cycle.robot, seen)
                value = shared.setdefault(value, value)
            elif name == "route_global":
                value = Route.stay_put(rec.pos_at_look)
            elif name == "mid_move_samples":
                value = _rest_samples(rests, _inside(looks, rec.cycle))
            else:
                points, snapshot_colors = _local_snapshot(frame, seen, *colors)
                fields = rec.__dict__
                fields.setdefault("snapshot_local", points)
                fields.setdefault("snapshot_colors", snapshot_colors)
                return fields[name]
        setattr(rec, name, value)  # `rec.__dict__` would make a dict object for it
        return value


@dataclass
class CycleRecord:
    """Ground truth for one executed cycle."""
    cycle: Cycle
    pos_at_look: Point
    visible_set: frozenset[int] = _BuiltAtFirstRead()
    snapshot_local: tuple[Point, ...] = _BuiltAtFirstRead()
    route_global: Route = _BuiltAtFirstRead()
    z: float = _BuiltAtFirstRead()
    pos_after_move: Point
    mid_move_samples: tuple[tuple[float, float], ...] = _BuiltAtFirstRead(())
    snapshot_colors: tuple[str, ...] | None = _BuiltAtFirstRead(None)
    color_before: str | None = None
    color_after: str | None = None
    accepted: bool | None = None
    _rows = None  # a loaded record's checked coordinates (`from_json`); not a field

    def to_json(self) -> dict:
        robot, j, o, s, f = self.cycle
        out = {
            "cycle": {"robot": robot, "j": j, "o": o, "s": s, "f": f},
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
        """A color field, when present, holds one of COLORS, `accepted` a
        boolean, and `snapshot_colors` one color per snapshot point.  The
        visible set holds the record's own robot, and the snapshot one point
        per visible robot.

        Every field is checked here, in one order, so malformed input is
        refused at load.  The snapshot and the mid-move samples, which no
        check reads, are kept as two `array("d")` of their checked
        coordinates, the values `float` gives (8 bytes a number, every bit
        kept), and built at their first read (`_BuiltAtFirstRead`): the
        record holds no row list of `data`."""
        c = data["cycle"]
        points = json_point_rows(data["snapshot_local"], "snapshot point")
        colors = None
        if "snapshot_colors" in data:
            colors = tuple(json_choice(k, "snapshot color", COLORS)
                           for k in data["snapshot_colors"])
            if len(colors) != len(points):
                raise InputError(f"{len(colors)} snapshot colors for {len(points)} "
                                 "snapshot points")
        if "accepted" in data and type(data["accepted"]) is not bool:
            raise InputError(f"accepted must be true or false, got {data['accepted']!r}")
        record = object.__new__(cls)  # fields in the one order (see `_every_key`)
        record.cycle = cycle = Cycle.from_json(c, json_index(c["robot"], "robot index"))
        record.pos_at_look = json_point(data["pos_at_look"], "pos_at_look")
        record.visible_set = visible = frozenset(
            json_index(i, "visible robot") for i in data["visible_set"])
        record.route_global = Route(tuple(json_point(p, "route vertex")
                                          for p in data["route_global"]))
        record.z = truncation_draw(json_number(data["z"], "z"))
        record.pos_after_move = json_point(data["pos_after_move"], "pos_after_move")
        samples = data.get("mid_move_samples", [])
        for t, u in samples:
            json_number(t, "sample time")
            json_number(u, "sample arc")
        record.snapshot_colors = colors
        record.color_before = (json_choice(data["color_before"], "color_before", COLORS)
                               if "color_before" in data else None)
        record.color_after = (json_choice(data["color_after"], "color_after", COLORS)
                              if "color_after" in data else None)
        record.accepted = data.get("accepted")
        record._rows = (array("d", chain.from_iterable(points)),
                        array("d", chain.from_iterable(samples)))
        if cycle.robot not in visible:
            raise InputError(f"cycle {cycle.ident} does not see its own robot: "
                             f"visible_set {sorted(visible)}")
        if len(points) != len(visible):
            raise InputError(f"cycle {cycle.ident}: {len(points)} snapshot points for "
                             f"{len(visible)} visible robots")
        return record


# CPython's instance dicts of one class share a key table that only the
# class's first few instances may extend, and a record holding a key outside
# it gets a dict of its own, which costs more memory.  The first record is
# this one, which puts in the table every key a record may hold, in the one
# order every record sets its fields: the dataclass fields, then `_draw`,
# `_seen` and `_rows`.
_every_key = object.__new__(CycleRecord)
for _key in (*CycleRecord.__dataclass_fields__, "_draw", "_seen", "_rows"):
    setattr(_every_key, _key, None)
del _every_key, _key


@dataclass
class Trace:
    """Complete run: the scenario, the horizon, and one record per cycle.

    `checker.analyze` builds a trace's cycle relations once and keeps them on
    the trace, so its records, their cycles and visible sets must not change
    once it has been analyzed.  `dataclasses.replace` makes a new trace, which
    is analyzed afresh."""
    scenario: Scenario
    horizon: float
    records: list[list[CycleRecord]]
    kind: str = "plain"  # one of KINDS
    machine: str | None = None
    _analysis = None  # the relations `checker.analyze` built; not a field

    @property
    def n(self) -> int:
        return self.scenario.n

    def record(self, robot: int, j: int) -> CycleRecord:
        return self.records[robot][j - 1]

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
        """The trace `to_json` wrote, every field checked.  Records with equal
        visible sets share one frozenset, and each distinct set is checked
        against the robot count once: the first record holding a bad one is
        named."""
        scenario = Scenario.from_json(data["scenario"])
        records = [[CycleRecord.from_json(r) for r in row] for row in data["records"]]
        horizon = json_number(data["horizon"], "horizon")
        # the cycle rows must form a valid schedule for the scenario's robots
        Schedule(scenario.n, horizon, [[r.cycle for r in row] for row in records])
        n = scenario.n
        checked: dict[frozenset[int], frozenset[int]] = {}  # each distinct set, once
        for row in records:
            for r in row:
                visible = checked.get(r.visible_set)
                if visible is None:
                    visible = r.visible_set
                    if not all(0 <= k < n for k in visible):
                        raise InputError(f"cycle {r.cycle.ident} sees a robot outside "
                                         f"0..{n - 1}: {sorted(visible)}")
                    checked[visible] = visible
                r.visible_set = visible
        return cls(scenario, horizon, records,
                   kind=json_choice(data.get("kind", "plain"), "trace kind", KINDS),
                   machine=json_choice(data.get("machine"), "trace machine", (None, *MACHINES)))


class Simulation:
    """Single sequential run; build one per (scenario, schedule, controller,
    adversary) and call run().

    The records are the ground truth.  Each robot's light `(s, color before,
    color after)` is set with its record (`initial_color` before its first
    Look).  Instants run in time order, and at each the pair check comes
    before the Looks, which all see the positions and colors of before it;
    so every query about a robot comes at or after its last Look.  Its
    point, for the pair check and the snapshots, is read from the cell
    index, which the run moves at the end of a move and at the Looks that
    sample it mid-move (one `bisect` into the samples): only a cycle that
    moves is open between its Look and its move end, and a stay-put cycle's
    move end changes no point.  So an instant with no Look, no robot
    awaiting its recheck and no moving cycle ending changes no point and
    tests no robot, and the run skips its pair check.

    A run holds few distinct visible sets (a halt run on a lattice, one per
    robot), so its records share the run's one frozenset of each: an
    accepted Look stores it, and a rejected record at its first read.  Its
    stay-put samples share the run's one `(t, 0.0)` of each Look time t in
    the same way.
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
        self._lights = [(-math.inf, initial_color, initial_color)] * scenario.n
        self._look_times = schedule.look_times()
        self._index = scenario._index.fork()
        self._open: dict[int, CycleRecord] = {}  # movers between their Look and move end
        self._recheck: list[int] = []  # robots to test again at the next Look
        # set -> the one object of it that the run's records share
        self._visible_sets: dict[frozenset[int], frozenset[int]] = {}
        # Look time t -> the one `(t, 0.0)` that the run's stay-put samples share
        self._rests: dict[float, tuple[float, float]] = {}

    def run(self) -> Trace:
        # instant -> (the cycles that Look then, the robots whose move ends
        # then), each in robot order
        instants: dict[float, tuple[list[Cycle], list[int]]] = {}
        for cycles in self.schedule.robots:
            for c in cycles:
                instants.setdefault(c.o, ([], []))[0].append(c)
                instants.setdefault(c.f, ([], []))[1].append(c.robot)
        index = self._index
        moving = self._open.keys()
        for t in sorted(instants):
            # every Look at one instant sees the same positions: a Look's
            # record reads as its robot's position and color before it, and
            # a move's end point is set at its Look
            looks, arrivals = instants[t]
            # with no Look, no robot awaiting its recheck and no mover
            # arriving, no point changed and no robot is tested
            if looks or self._recheck or not moving.isdisjoint(arrivals):
                self._check_instant(t, looks, arrivals)
            for cycle in looks:
                robot = cycle.robot
                if self._look(robot, cycle, index.points, index.near(robot)):  # it moves
                    self._open[robot] = self.records[robot][-1]
        kind = "luminous" if self.initial_color else "plain"
        return Trace(self.scenario, self.schedule.horizon, self.records, kind=kind)

    # -- the incremental pair check -------------------------------------------

    def _check_instant(self, t: float, looks: list[Cycle], arrivals: list[int]) -> None:
        """Test the robots whose point changed (arrivals that moved and, at a
        Look, the movers sampled past their start) and at a Look the robots
        kept since the last Look, and raise for the lowest bad pair found
        that counts.

        At a Look every index point is its robot's position, so every bad
        pair counts.  Between Looks only a collision of two robots not
        strictly mid-move counts: a mover's index point is stale.  A robot
        with a bad pair that does not count stays at rest until its own Look
        and is tested again at the next Look, where its partner has either
        been tested or held still.  An arrival that stayed put holds its
        Look point, so a bad pair of its was found when the partner's point
        last changed: it raised then, or the partner waits in `_recheck`.
        Only then is the arrival tested, since its pair counts from its move
        end on.  Every bad pair at t involves a robot tested at t, so the
        lowest one found is the lowest of all.
        """
        index = self._index
        changed = []
        for robot in arrivals:
            record = self._open.pop(robot, None)
            if record is not None:
                index.move(robot, record.pos_after_move)
                changed.append(robot)
            elif self._recheck:  # a pair it holds may count from now on
                changed.append(robot)
        if looks:
            for robot, record in self._open.items():
                if record.cycle.s < t:
                    # `_look` drew a sample for each Look time inside (s, f)
                    samples = record.mid_move_samples
                    u = samples[bisect_left(samples, (t,))][1]
                    if u > 0.0:
                        index.move(robot, point_along(record.route_global, u))
                        changed.append(robot)
            changed += self._recheck
            self._recheck.clear()
        lowest = None
        for robot in changed:  # a plain loop: a comprehension costs more per instant
            for pair in index.bad_pairs(robot):
                a, b, same = pair
                if looks or same and not (self._moving(a, t) or self._moving(b, t)):
                    if lowest is None or pair < lowest:
                        lowest = pair
                elif robot not in self._recheck:
                    self._recheck.append(robot)
        if lowest:
            a, b, same = lowest
            if same:
                raise CollisionError(f"robots {a} and {b} collide at t={t}")
            raise DegenerateScenarioError(
                f"robots {a} and {b} at the visibility threshold at t={t}")

    # -- state at an instant ------------------------------------------------

    def _moving(self, robot: int, t: float) -> bool:
        """True when the robot is strictly mid-move at t."""
        row = self.records[robot]
        return bool(row) and row[-1].cycle.s < t < row[-1].cycle.f

    def _look(self, robot: int, cycle: Cycle, positions: list[Point],
              candidates: Iterable[int]) -> bool:
        """Snapshot, Compute, draws and light for one cycle; True if it moves.

        The observer is at rest at its Look; the others are seen at their
        rest position, or at the sampled point of their in-progress move.
        `positions` holds every robot's point at t, and `candidates` every
        robot that may be in range (the observer may be among them).  The
        controller rules on the colors first; a rejected cycle stays put,
        and its record builds the other fields at their first read.
        """
        _, j, t, move_start, _ = cycle
        here = positions[robot]
        hx, hy = here.x, here.y
        seen: list[tuple[int, float, float]] = []  # (robot, global offset)
        for i in candidates:
            q = positions[i]
            dx = q.x - hx
            dy = q.y - hy
            if dx * dx + dy * dy <= 1.0 and i != robot:  # `is_visible`, inlined
                seen.append((i, dx, dy))
        lights = self._lights  # a new color shows from the move start on
        s, before, after = lights[robot]
        own_color = after if t >= s else before
        luminous = own_color is not None
        colors = None
        if luminous:
            colors = []
            for i, _, _ in seen:
                s, before, after = lights[i]
                colors.append(after if t >= s else before)
        color_after, accepted = self.controller.verdict(
            own_color, frozenset(colors) if luminous else _NO_COLORS)
        color_after = color_after if luminous else None
        lights[robot] = (move_start, own_color, color_after or own_color)
        frame = self.scenario.frames[robot]
        # fields in the one order every record sets them (see `_every_key`)
        record = object.__new__(CycleRecord)
        record.cycle = cycle
        record.pos_at_look = here
        if not accepted:  # only what the Look fixed; `_BuiltAtFirstRead` has the rest
            record.pos_after_move = here
            realized = 0.0
        else:
            points, snapshot_colors = _local_snapshot(frame, seen, own_color, colors)
            route = self.controller.route(robot, j, here, frame, points)
            start = route.vertices[0]
            if start.x != hx or start.y != hy:  # `!= here` field by field
                raise SimulationError("computed route must start at the robot")
            realized = route.length
            visible = _visible(robot, seen)
            record.visible_set = self._visible_sets.setdefault(visible, visible)
            record.snapshot_local = points
            record.route_global = route
            if realized > self.scenario.delta:
                z = record.z = self.adversary.draw_truncation(robot, j)
                realized = truncated_length(route.length, self.scenario.delta, z)
                record.pos_after_move = point_along(route, realized)
            else:  # traversed whole for every z: draw it at the first read
                record.pos_after_move = route.end if realized > 0.0 else route.start
            obs_times = _inside(self._look_times, cycle)
            if obs_times and realized > 0.0:
                arcs = sorted(f * realized for f in self.adversary.draw_observation_fractions(
                    robot, j, len(obs_times)))
                record.mid_move_samples = tuple(zip(obs_times, arcs, strict=True))
            else:  # no Look inside, or every fraction of nothing is 0: nothing to draw
                record.mid_move_samples = _rest_samples(self._rests, obs_times)
            record.snapshot_colors = snapshot_colors
        record.color_before = own_color
        record.color_after = color_after
        record.accepted = accepted if luminous else None
        record._draw = (self.adversary, robot, j)  # z, at its first read
        if not accepted:
            record._seen = (self._visible_sets, self._look_times, self._rests, frame,
                            seen, own_color, colors)
        self.records[robot].append(record)
        return realized > 0.0


def simulate(scenario: Scenario, schedule: Schedule, controller: Controller,
             adversary: Adversary) -> Trace:
    """Run one deterministic simulation and return its trace."""
    return Simulation(scenario, schedule, controller, adversary).run()
