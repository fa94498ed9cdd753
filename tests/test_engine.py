import hashlib
import json
import random
import sys
from bisect import bisect_left
from copy import copy
from dataclasses import replace

import pytest

from conftest import random_small_inputs
from oracles import all_records
from robosync import engine
from robosync.algorithms import (
    HALT,
    HULL_CONTRACTION,
    SCRIPTED,
    AlgorithmSpec,
    ScriptEntry,
    as_controller,
)
from robosync.checker import check_all
from robosync.engine import (
    Adversary,
    FrameSpec,
    NONRIGID,
    RIGID,
    Scenario,
    Simulation,
    Trace,
    global_route,
    simulate,
)
from robosync.errors import CollisionError, DegenerateScenarioError, InputError, SimulationError
from robosync.geometry import Point, Route, is_threshold_degenerate, point_along, squared_distance
from robosync.scenarios import necessity_template, random_vicinity_scenario
from robosync.scheduling import Cycle, Schedule, make_fsync_schedule, sample_async_schedule
from robosync.synchronizer import (
    BK,
    GREEDY,
    SVP,
    SynchronizerController,
    extract_core,
    run_synchronized,
)
from robosync.synthesis import build_plan, candidate_search, replay_plan

IDENT = FrameSpec()


def scen(*positions, delta=0.25, frames=None):
    pts = [Point(x, y) for x, y in positions]
    return Scenario(pts, frames or [IDENT] * len(pts), delta)


def sched(n, horizon, table):
    robots = [[Cycle(i, j + 1, *t) for j, t in enumerate(table.get(i, []))]
              for i in range(n)]
    return Schedule(n=n, horizon=horizon, robots=robots)


def test_halt_run_keeps_footprints_constant():
    scenario = scen((0, 0), (0.5, 0))
    trace = simulate(scenario, make_fsync_schedule(4, 2),
                     as_controller(AlgorithmSpec(HALT)), Adversary(3, NONRIGID))
    for i in range(2):
        assert all(r.pos_at_look == scenario.initial_positions[i]
                   for r in trace.records[i])
        assert all(r.route_global.length == 0.0 for r in trace.records[i])


def test_rigid_move_reaches_route_end():
    spec = AlgorithmSpec(SCRIPTED, script=(
        ScriptEntry(snapshot=(Point(0, 0),), route=(Point(0, 0), Point(0.5, 0))),
    ))
    scenario = scen((0, 0), delta=0.25)
    trace = simulate(scenario, sched(1, 2, {0: [(0.0, 0.5, 1.0)]}),
                     as_controller(spec), Adversary(11, RIGID))
    rec = trace.record(0, 1)
    assert rec.z == 1.0
    assert rec.pos_after_move == Point(0.5, 0)


def test_truncation_draws():
    rigid = Adversary(5, RIGID)
    assert rigid.draw_truncation(0, 1) == 1.0
    adv = Adversary(5, NONRIGID)
    assert adv.draw_truncation(2, 7) == adv.draw_truncation(2, 7)
    draws = [adv.draw_truncation(0, j) for j in range(10000)]
    assert all(0.0 <= z <= 1.0 for z in draws)
    assert abs(sum(draws) / len(draws) - 0.5) < 0.02


def test_observer_alone_sees_only_origin():
    trace = simulate(scen((3, 4)), make_fsync_schedule(2, 1),
                     as_controller(AlgorithmSpec(HALT)), Adversary(1, NONRIGID))
    for rec in trace.records[0]:
        assert rec.snapshot_local == (Point(0, 0),)
        assert rec.visible_set == {0}


def test_out_of_range_robots_are_invisible():
    trace = simulate(scen((0, 0), (2, 0)), make_fsync_schedule(1, 2),
                     as_controller(AlgorithmSpec(HALT)), Adversary(1, NONRIGID))
    assert trace.record(0, 1).visible_set == {0}
    assert trace.record(1, 1).visible_set == {1}


def test_sampled_observation_point_arithmetic():
    # a sampled arclength of 1.8 on this route sits at (0.5, 1.8), out of range
    route = Route((Point(0.5, 0), Point(0.5, 2)))
    y = point_along(route, 1.8)
    assert y == Point(0.5, 1.8)
    assert squared_distance(Point(0, 0), y) == pytest.approx(0.25 + 3.24)
    assert squared_distance(Point(0, 0), y) > 1.0


def _mid_move_setup(seed):
    # robot 1 climbs for a long window; robot 0 looks inside it three times
    spec = AlgorithmSpec(SCRIPTED, script=(
        ScriptEntry(snapshot=(Point(-0.5, 0), Point(0, 0)),
                    route=(Point(0, 0), Point(0, 1.5))),
    ))
    scenario = scen((0, 0), (0.5, 0), delta=0.25)
    schedule = sched(2, 10, {
        0: [(1.0, 1.25, 1.5), (3.0, 3.25, 3.5), (5.0, 5.25, 5.5)],
        1: [(0.0, 0.25, 6.0)],
    })
    return simulate(scenario, schedule, as_controller(spec), Adversary(seed, NONRIGID))


def test_mid_move_observations_are_monotone_and_within_prefix():
    for seed in range(20):
        trace = _mid_move_setup(seed)
        rec = trace.record(1, 1)
        samples = rec.mid_move_samples
        assert [t for t, _ in samples] == [1.0, 3.0, 5.0]
        arcs = [u for _, u in samples]
        assert arcs == sorted(arcs)
        limit = 0.25 + (rec.route_global.length - 0.25) * rec.z
        assert all(0.0 <= u <= limit + 1e-12 for u in arcs)
        # the recorded snapshot of each observer look matches the sample
        for k, obs in enumerate(trace.records[0], start=1):
            u = dict(samples)[obs.cycle.o]
            seen_pos = point_along(rec.route_global, u)
            visible = squared_distance(Point(0, 0), seen_pos) <= 1.0
            assert (1 in obs.visible_set) == visible


def test_same_instant_observers_share_the_sample():
    spec = AlgorithmSpec(SCRIPTED, script=(
        ScriptEntry(snapshot=(Point(-0.5, 0), Point(0.5, 0), Point(0, 0)),
                    route=(Point(0, 0), Point(0, 0.5))),
    ))
    scenario = scen((-0.5, 0), (0, 0), (0.5, 0), delta=0.1)
    schedule = sched(3, 4, {
        0: [(1.0, 1.25, 1.5)],
        1: [(0.0, 0.25, 2.0)],
        2: [(1.0, 1.25, 1.5)],
    })
    trace = simulate(scenario, schedule, as_controller(spec), Adversary(9, NONRIGID))
    left = trace.record(0, 1)
    right = trace.record(2, 1)
    # both looked at t=1; the mover's sampled point is shared, so the local
    # snapshots mirror each other
    assert 1 in left.visible_set and 1 in right.visible_set
    lx = [p for p in left.snapshot_local if p != Point(0, 0)]
    rx = [p for p in right.snapshot_local if p != Point(0, 0)]
    # left observer is 0.5 left of right observer; same global point seen
    pair_l = [p for p in lx if p.y > 0]
    pair_r = [p for p in rx if p.y > 0]
    assert len(pair_l) == len(pair_r) == 1
    # observers sit 1.0 apart on the x-axis, so the shared global point
    # appears shifted by exactly that much between the two local frames
    assert pair_l[0].x - pair_r[0].x == pytest.approx(1.0)
    assert pair_l[0].y == pytest.approx(pair_r[0].y)
    assert pair_l[0].y > 0.0


def test_simulation_is_deterministic():
    scenario = scen((0, 0), (0.4, 0.3), (3, 3))
    schedule = sample_async_schedule(21, 3, 40.0)
    a = simulate(scenario, schedule, as_controller(AlgorithmSpec(HALT)),
                 Adversary(21, NONRIGID))
    b = simulate(scenario, schedule, as_controller(AlgorithmSpec(HALT)),
                 Adversary(21, NONRIGID))
    assert a.to_json() == b.to_json()


def test_footprint_continuity():
    trace = _mid_move_setup(3)
    for row in trace.records:
        for prev, cur in zip(row, row[1:]):
            assert cur.pos_at_look == prev.pos_after_move


def _rest_position_at(trace, robot, t):
    """Position at time t, or None when the robot is strictly mid-move."""
    pos = trace.scenario.initial_positions[robot]
    for r in trace.records[robot]:
        if t < r.cycle.f:
            if r.cycle.s < t:
                return None
            return pos
        pos = r.pos_after_move
    return pos


def test_snapshot_self_consistency():
    """Recomputing each snapshot from the recorded global state reproduces
    the records exactly."""
    for seed in (2, 5):
        trace = _mid_move_setup(seed)
        for row in trace.records:
            for rec in row:
                i = rec.cycle.robot
                t = rec.cycle.o
                seen = []
                for k in range(trace.n):
                    if k == i:
                        continue
                    pos = _rest_position_at(trace, k, t)
                    if pos is None:
                        move = next(r for r in trace.records[k]
                                    if r.cycle.s < t < r.cycle.f)
                        pos = point_along(move.route_global,
                                          dict(move.mid_move_samples)[t])
                    if squared_distance(rec.pos_at_look, pos) <= 1.0:
                        seen.append((k, pos))
                assert frozenset(k for k, _ in seen) | {i} == rec.visible_set
                frame = trace.scenario.frames[i]
                o = rec.pos_at_look
                local = sorted([Point(0.0, 0.0)] + [frame.local(p.x - o.x, p.y - o.y)
                                                    for _, p in seen],
                               key=lambda p: (p.x, p.y))
                assert tuple(local) == tuple(sorted(rec.snapshot_local,
                                                    key=lambda p: (p.x, p.y)))


def _collision_setup():
    spec = AlgorithmSpec(SCRIPTED, script=(
        ScriptEntry(snapshot=(Point(0, 0), Point(1, 0)),
                    route=(Point(0, 0), Point(1, 0))),
    ))
    scenario = scen((0, 0), (1, 0), delta=0.25)
    schedule = sched(2, 3, {0: [(0.0, 0.25, 1.0)], 1: [(2.0, 2.25, 2.5)]})
    return simulate(scenario, schedule, as_controller(spec), Adversary(1, RIGID))


def test_collision_aborts():
    with pytest.raises(CollisionError):
        _collision_setup()


def test_degenerate_threshold_rejected_at_construction():
    with pytest.raises(InputError):
        scen((0, 0), (1.0 + 2e-10, 0))


def test_construction_names_the_lowest_bad_pair_across_cells():
    # squared distance 1.0000000005, one grid cell apart
    with pytest.raises(InputError, match="^robots 0 and 1 sit at the degenerate "
                                         "visibility threshold$"):
        scen((0.99999999995, 0), (2.0000000002, 0))
    # the lattice's first and last robots share a point
    points = [(0.6 * (k % 5), 0.6 * (k // 5)) for k in range(25)] + [(0, 0)]
    with pytest.raises(InputError, match="^robots 0 and 25 share a position$"):
        scen(*points)


def test_construction_names_the_lowest_of_one_robots_bad_pairs():
    # robot 0 sits at the threshold from robot 1, in the next cell, and
    # shares its point with robot 2
    with pytest.raises(InputError, match="^robots 0 and 1 sit at the degenerate "
                                         "visibility threshold$"):
        scen((0, 0), (-1.0000000002, 0), (0, 0))


def test_construction_threshold_tests_grow_linearly(monkeypatch):
    # a scan of every pair made 8128 threshold tests for 128 robots
    calls = 0

    def counted(p, q):
        nonlocal calls
        calls += 1
        return is_threshold_degenerate(p, q)

    monkeypatch.setattr(engine, "is_threshold_degenerate", counted)
    per_robot = []
    for cols, rows in ((8, 4), (16, 8)):
        calls = 0
        _lattice(cols, 0.6, rows=rows)
        per_robot.append(calls / (cols * rows))
    assert 0 < per_robot[1] < 2 * per_robot[0]


def _degenerate_setup():
    spec = AlgorithmSpec(SCRIPTED, script=(
        ScriptEntry(snapshot=(Point(0, 0),),
                    route=(Point(0, 0), Point(0.9999999996, 0))),
    ))
    # the isolated mover ends 1.0000000004 from the observer; the observer's
    # later look lands in the ambiguity band around the threshold
    scenario = scen((2, 0), (0, 0), delta=0.25)
    schedule = sched(2, 4, {1: [(0.0, 0.25, 1.0)], 0: [(2.0, 2.25, 2.5)]})
    return simulate(scenario, schedule, as_controller(spec), Adversary(1, RIGID))


def test_degenerate_threshold_during_run_aborts():
    with pytest.raises(DegenerateScenarioError):
        _degenerate_setup()


def test_trace_json_round_trip():
    # the luminous runs hold rejected records and pending draws, so comparing
    # a fresh run's records with loaded ones builds and draws them at the read
    scenario, spec = random_vicinity_scenario(0)
    schedule = sample_async_schedule(0, scenario.n, 60.0)
    runs = [lambda: _mid_move_setup(4)]
    runs += [lambda m=machine: run_synchronized(scenario, spec, schedule,
                                                Adversary(0, NONRIGID), m)
             for machine in (SVP, GREEDY)]
    pending = sampled = 0
    for run in runs:
        trace = run()
        pending += sum("z" not in vars(rec) for rec in all_records(trace))
        source = run().to_json()
        again = Trace.from_json(source)
        # a loaded record builds its snapshot and samples at their first
        # read, in either order, and so does a copy of it
        for k, (rec, want) in enumerate(zip(all_records(again), all_records(trace))):
            assert not {"snapshot_local", "mid_move_samples"} & vars(rec).keys()
            sampled += bool(want.mid_move_samples)
            if k % 4 == 0:
                got = rec.snapshot_local, rec.mid_move_samples
            elif k % 4 == 1:
                samples = rec.mid_move_samples
                got = rec.snapshot_local, samples
            elif k % 4 == 2:  # a shallow copy builds its own
                copied = copy(rec)
                got = copied.snapshot_local, copied.mid_move_samples
                assert not {"snapshot_local", "mid_move_samples"} & vars(rec).keys()
            else:  # `replace` reads every field of the record
                copied = replace(rec)
                got = copied.snapshot_local, copied.mid_move_samples
            assert got == (want.snapshot_local, want.mid_move_samples)
        assert again.records == trace.records
        assert again.to_json() == source
    assert pending and sampled
    # JSON integers read back as floats, as `json_point` and `float` give them
    data = dict(source["records"][0][0], mid_move_samples=[[1, 0]])
    points = range(len(data["snapshot_local"]))
    rec = engine.CycleRecord.from_json(dict(data, snapshot_local=[[k, 1] for k in points]))
    assert rec.snapshot_local == tuple(Point(float(k), 1.0) for k in points)
    assert rec.mid_move_samples == ((1.0, 0.0),)
    assert {type(v) for p in rec.snapshot_local for v in (p.x, p.y)} == {float}
    assert {type(v) for sample in rec.mid_move_samples for v in sample} == {float}


def test_a_loaded_record_lets_go_of_each_row_list_once_built():
    # a loaded record holds no JSON row list of `data`, only two arrays of
    # its checked coordinates, and drops each once the field built from it
    # is read, so a loaded trace's `to_json` holds no row twice
    scenario, spec = random_vicinity_scenario(0)
    trace = run_synchronized(scenario, spec, sample_async_schedule(0, scenario.n, 60.0),
                             Adversary(0, NONRIGID))
    data = json.loads(json.dumps(trace.to_json()))
    again = Trace.from_json(data)

    def holds_a_row_list(rec, row_lists):
        return any(v is rows or (type(v) is tuple and any(x is rows for x in v))
                   for v in vars(rec).values() for rows in row_lists)

    sampled = 0
    for k, (rec, row) in enumerate(zip(all_records(again),
                                       [r for rows in data["records"] for r in rows])):
        points, samples = row["snapshot_local"], row.get("mid_move_samples", [])
        row_lists = [points, samples, *points, *samples]
        sampled += bool(samples)
        assert not holds_a_row_list(rec, row_lists)
        assert [a.itemsize for a in rec._rows] == [8, 8]
        assert [list(a) for a in rec._rows] == \
            [[v for p in points for v in p], [v for s in samples for v in s]]
        half = k % 2  # which field is read first
        getattr(rec, ("snapshot_local", "mid_move_samples")[half])
        assert rec._rows[half] is None and rec._rows[1 - half] is not None
        assert not holds_a_row_list(rec, row_lists)
        getattr(rec, ("snapshot_local", "mid_move_samples")[1 - half])
        assert rec._rows is None
        assert not holds_a_row_list(rec, row_lists)
    assert sampled
    assert again.to_json() == data


def test_a_loaded_record_builds_every_coordinate_bit_for_bit():
    # the arrays keep the bits `float` gives: the sign of -0.0, JSON integers,
    # and an integer that rounds (2**53 + 1 reads as 2**53)
    pairs = [[-0.0, 0], [3, 2**53 + 1], [0, -0.0], [2**53 + 1, 3]]
    data = json.loads(json.dumps(_mid_move_setup(4).to_json()))
    rows = [r for row in data["records"] for r in row]
    for r in rows:
        r["snapshot_local"] = [pairs[k % 4] for k in range(len(r["snapshot_local"]))]
        r["mid_move_samples"] = pairs
    loaded = Trace.from_json(data)
    for rec, r in zip(all_records(loaded), rows):
        built = [(p.x, p.y) for p in rec.snapshot_local] + list(rec.mid_move_samples)
        assert [v.hex() for pair in built for v in pair] == \
            [float(v).hex() for pair in r["snapshot_local"] + pairs for v in pair]


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info < (3, 11),
                    reason="CPython 3.11 on lets an instance dict set the keys of its "
                           "class's shared key table in any order")
def test_every_record_dict_shares_its_keys():
    # a record built with a key outside its class's shared key table gets a
    # dict of its own, which costs more than the same items in a fresh dict
    scenario, spec = random_vicinity_scenario(0)
    runs = [simulate(_lattice(4, 0.6), make_fsync_schedule(10, 16),
                     as_controller(AlgorithmSpec(HALT)), Adversary(0, NONRIGID)),
            run_synchronized(scenario, spec, sample_async_schedule(0, scenario.n, 60.0),
                             Adversary(0, NONRIGID))]
    for trace in runs:
        data = json.loads(json.dumps(trace.to_json()))  # reads every pending field
        loaded = Trace.from_json(data)
        loaded.to_json()  # builds the loaded snapshots and samples
        for rec in all_records(trace) + all_records(loaded):
            fields = vars(rec)
            assert sys.getsizeof(fields) < sys.getsizeof(dict(fields))


def test_records_share_one_object_per_distinct_visible_set():
    # a halt run on a lattice sees one set per robot, whatever its cycle
    # count: the run and its JSON round trip each hold one frozenset per set
    run = simulate(_lattice(4, 0.6), sample_async_schedule(0, 16, 50.0),
                   as_controller(AlgorithmSpec(HALT)), Adversary(0, NONRIGID))
    loaded = Trace.from_json(json.loads(json.dumps(run.to_json())))
    for trace in (run, loaded):
        sets = [rec.visible_set for rec in all_records(trace)]
        assert len(sets) > 16 * 10
        assert len({id(v) for v in sets}) == len(set(sets)) == 16
    assert [r.visible_set for r in all_records(loaded)] == \
        [r.visible_set for r in all_records(run)]
    # the stay-put samples hold one `(t, 0.0)` per Look time, also on a
    # luminous run whose rejected records build theirs after the run
    scenario, spec = random_vicinity_scenario(0)
    luminous = run_synchronized(scenario, spec, sample_async_schedule(0, scenario.n, 60.0),
                                Adversary(0, NONRIGID))
    luminous.to_json()
    for trace in (run, luminous):
        rests = [sample for rec in all_records(trace) for sample in rec.mid_move_samples
                 if sample[1] == 0.0]
        assert len({id(sample) for sample in rests}) == len({t for t, _ in rests}) > 0


def test_rejected_records_share_the_run_visible_sets():
    # a rejected record builds its set at its first read, as the run's one
    # object of it: svp rejects most of this run's cycles
    scenario, spec = random_vicinity_scenario(0)
    trace = run_synchronized(scenario, spec, sample_async_schedule(0, scenario.n, 200.0),
                             Adversary(0, NONRIGID))
    trace.to_json()  # reads every rejected record's set
    records = all_records(trace)
    assert sum(1 for rec in records if not rec.accepted) > 200
    sets = [rec.visible_set for rec in records]
    assert len({id(v) for v in sets}) == len(set(sets))


def test_a_load_names_the_first_record_that_sees_an_outside_robot():
    # each distinct set is range-checked once, at the first record holding it
    run = simulate(_lattice(2, 0.6), sample_async_schedule(0, 4, 20.0),
                   as_controller(AlgorithmSpec(HALT)), Adversary(0, NONRIGID))
    data = run.to_json()
    for robot, k in ((2, 3), (1, 2), (3, 0)):
        data["records"][robot][k].update(visible_set=[robot, 7],
                                         snapshot_local=[[0.0, 0.0], [0.5, 0.5]])
    with pytest.raises(InputError, match=r"^cycle \(1, 3\) sees a robot outside 0\.\.3: "):
        Trace.from_json(data)


class _EveryEventChecking(Simulation):
    """The engine with three event kinds, fresh positions and a full pair
    check at every Look, move start and move end."""

    def run(self):
        events = sorted(event for cycles in self.schedule.robots for c in cycles
                        for event in ((c.o, 0, c.robot, c), (c.s, 1, c.robot, c),
                                      (c.f, 2, c.robot, c)))
        for t, kind, robot, cycle in events:
            positions = self._positions_at(t)
            self._check_pairs(t, positions, looking=kind == 0)
            if kind == 0:
                assert None not in positions  # every Look instant samples every mover
                self._look(robot, cycle, positions, range(len(positions)))
        return Trace(self.scenario, self.schedule.horizon, self.records,
                     kind="luminous" if self.initial_color else "plain")

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


class _Steps:
    """Controller that moves robot i by `steps[(i, j)]` (local coordinates)
    in its cycle j and stays put otherwise."""

    def __init__(self, steps):
        self.steps = steps

    def verdict(self, own_color, seen_colors):
        return None, True

    def route(self, robot, j, here, frame, snapshot):
        step = self.steps.get((robot, j))
        return global_route(frame, here,
                            Route((Point(0, 0), Point(*step))) if step else Route.stay_put())


def _both_raise(scenario, schedule, controller, error, message, adversary=Adversary):
    for sim in (Simulation, _EveryEventChecking):
        with pytest.raises(error, match=f"^{message}$"):
            sim(scenario, schedule, controller, adversary(1, RIGID)).run()


def _fixed_fraction(fraction):
    """An adversary that draws every mid-move sample at `fraction` of the
    realized prefix."""
    class Fixed(Adversary):
        def draw_observation_fractions(self, robot, j, count):
            return [fraction] * count
    return Fixed


def test_collision_at_a_move_start_is_reported_by_the_move_end():
    # robot 0 lands on robot 1 at t=1, the instant robot 2 starts moving
    spec = AlgorithmSpec(SCRIPTED, script=(
        ScriptEntry(snapshot=(Point(0, 0), Point(1, 0)),
                    route=(Point(0, 0), Point(1, 0))),
    ))
    scenario = scen((0, 0), (1, 0), (3, 3), delta=0.25)
    schedule = sched(3, 3, {0: [(0.0, 0.25, 1.0)], 2: [(0.125, 1.0, 1.5)]})
    _both_raise(scenario, schedule, as_controller(spec), CollisionError,
                r"robots 0 and 1 collide at t=1\.0")


def test_collision_at_a_move_end_tied_with_a_look():
    # robot 0 lands on robot 1 at t=1, the instant far-away robot 2 looks
    scenario = scen((0, 0), (1, 0), (3, 3))
    schedule = sched(3, 3, {0: [(0.0, 0.25, 1.0)], 2: [(1.0, 1.25, 1.5)]})
    _both_raise(scenario, schedule, _Steps({(0, 1): (1, 0)}), CollisionError,
                r"robots 0 and 1 collide at t=1\.0")


def test_two_arrivals_at_one_instant_collide():
    # robots 0 and 2 both land on (0.5, 0) at t=1; robot 1 is elsewhere
    scenario = scen((0, 0), (3, 3), (1, 0))
    schedule = sched(3, 3, {0: [(0.0, 0.25, 1.0)], 2: [(0.0, 0.5, 1.0)]})
    _both_raise(scenario, schedule, _Steps({(0, 1): (0.5, 0), (2, 1): (-0.5, 0)}),
                CollisionError, r"robots 0 and 2 collide at t=1\.0")


def test_threshold_pair_at_a_look_tied_with_a_move_end():
    # robot 1 ends 1.0000000004 from robot 0 at t=1, the instant robot 2
    # looks; the move end alone would not check the threshold
    scenario = scen((0, 0), (2, 0), (5, 5))
    schedule = sched(3, 3, {1: [(0.0, 0.25, 1.0)], 2: [(1.0, 1.25, 1.5)]})
    _both_raise(scenario, schedule, _Steps({(1, 1): (-0.9999999996, 0)}),
                DegenerateScenarioError,
                r"robots 0 and 1 at the visibility threshold at t=1\.0")


def test_threshold_pair_across_two_unit_cells_met_between_looks():
    # robot 0 steps from x=1 to 0.9999999998 at t=1, when nobody looks: one
    # unit and a hair from robot 1 at x=2, and in cells 0 and 2 of a grid of
    # side 1.  The pair is reported at the next Look, robot 2's at t=2
    scenario = scen((1, 0), (2, 0), (5, 5))
    schedule = sched(3, 3, {0: [(0.0, 0.25, 1.0)], 2: [(2.0, 2.25, 2.5)]})
    _both_raise(scenario, schedule, _Steps({(0, 1): (-2e-10, 0)}),
                DegenerateScenarioError,
                r"robots 0 and 1 at the visibility threshold at t=2\.0")
    # robot 1 steps away at t=1.5, before that Look, so the run completes
    schedule = sched(3, 3, {0: [(0.0, 0.25, 1.0)], 1: [(0.125, 1.25, 1.5)],
                            2: [(2.0, 2.25, 2.5)]})
    controller = _Steps({(0, 1): (-2e-10, 0), (1, 1): (0.5, 0)})
    trace = _outcome(Simulation, scenario, schedule, controller, 1, mode=RIGID)
    assert trace == _outcome(_EveryEventChecking, scenario, schedule, controller, 1, mode=RIGID)
    assert trace["records"][1][0]["pos_after_move"] == [2.5, 0.0]


def test_arrival_on_a_movers_start_is_retested_at_the_next_look():
    # robot 0 lands at t=1, when nobody looks, on the start point of robot 1,
    # which is mid-move and so has no position the scan can test.  Robot 2's
    # Look at t=1.5 sees robot 1 at the fraction the adversary draws
    scenario = scen((0, 0), (0.8, 0), (5, 5))
    schedule = sched(3, 3, {0: [(0.0, 0.25, 1.0)], 1: [(0.0, 0.25, 2.0)],
                            2: [(1.5, 1.75, 2.5)]})
    controller = _Steps({(0, 1): (0.8, 0), (1, 1): (0.5, 0)})
    # halfway, clear of robot 0: the run completes
    run = (scenario, schedule, controller, 1)
    trace = _outcome(Simulation, *run, mode=RIGID, adversary=_fixed_fraction(0.5))
    assert trace == _outcome(_EveryEventChecking, *run, mode=RIGID,
                             adversary=_fixed_fraction(0.5))
    assert trace["records"][1][0]["mid_move_samples"] == [[1.5, 0.25]]
    # still at its start, on robot 0: the Look reports the collision
    _both_raise(scenario, schedule, controller, CollisionError,
                r"robots 0 and 1 collide at t=1\.5", adversary=_fixed_fraction(0.0))


def test_an_adversary_draws_one_fraction_per_look_inside_the_move():
    # robot 1's Look at t=0.5 falls inside robot 0's move, which needs one sample
    class Short(Adversary):
        def draw_observation_fractions(self, robot, j, count):
            return super().draw_observation_fractions(robot, j, count)[1:]

    scenario = scen((0, 0), (5, 5))
    schedule = sched(2, 3, {0: [(0.0, 0.25, 1.0)], 1: [(0.5, 0.75, 1.5)]})
    with pytest.raises(ValueError, match="shorter"):
        simulate(scenario, schedule, _Steps({(0, 1): (0.5, 0)}), Short(1, RIGID))


def test_movers_collide_halfway_across_a_cell_boundary():
    # robots 0 and 1 swap places across the cell boundary at x=1.01 and
    # robot 2's Look at t=1 catches both halfway, at x=1.25
    scenario = scen((1, 0), (1.5, 0), (5, 5))
    schedule = sched(3, 3, {0: [(0.0, 0.25, 1.5)], 1: [(0.0, 0.25, 1.5)],
                            2: [(1.0, 1.25, 1.5)]})
    controller = _Steps({(0, 1): (0.5, 0), (1, 1): (-0.5, 0)})
    _both_raise(scenario, schedule, controller, CollisionError,
                r"robots 0 and 1 collide at t=1\.0", adversary=_fixed_fraction(0.5))


def test_tested_robots_bad_pairs_name_the_lowest_pair():
    # robots 3 and 1 arrive at t=1 in that order, on robots 2 and 0: robot
    # 3's pair is found first, robot 1's is the lower
    scenario = scen((0, 0), (0.5, 0), (3, 0), (3.5, 0))
    schedule = sched(4, 3, {3: [(0.0, 0.25, 1.0)], 1: [(0.125, 0.25, 1.0)]})
    _both_raise(scenario, schedule, _Steps({(1, 1): (-0.5, 0), (3, 1): (-0.5, 0)}),
                CollisionError, r"robots 0 and 1 collide at t=1\.0")


def test_an_arrival_on_a_stay_put_robot_collides_at_its_move_end():
    # robot 0 lands at t=1, when nobody looks, on robot 1, which stays put
    # but is mid-move until t=2, so the pair counts from robot 1's move end
    scenario = scen((0, 0), (0.5, 0), (5, 5))
    schedule = sched(3, 4, {0: [(0.0, 0.25, 1.0)], 1: [(0.125, 0.5, 2.0)],
                            2: [(3.0, 3.25, 3.5)]})
    _both_raise(scenario, schedule, _Steps({(0, 1): (0.5, 0)}), CollisionError,
                r"robots 0 and 1 collide at t=2\.0")


def test_a_stay_put_arrival_is_tested_only_while_a_robot_awaits_its_recheck(monkeypatch):
    # its point is its Look point, so it holds a bad pair only if the
    # partner's last change found one that did not count yet
    calls = 0
    bad_pairs = engine._CellIndex.bad_pairs

    def counted(index, i):
        nonlocal calls
        calls += 1
        return bad_pairs(index, i)

    monkeypatch.setattr(engine._CellIndex, "bad_pairs", counted)
    scenario, spec = random_vicinity_scenario(0)  # one seed of the synchronizer sweep
    run_synchronized(scenario, spec, sample_async_schedule(0, scenario.n, 200.0),
                     Adversary(0, NONRIGID))
    assert 0 < calls <= 50  # 285 when every arrival was tested


def test_an_idle_instant_makes_no_pair_check_call(monkeypatch):
    # an instant with no Look, no robot awaiting its recheck and no mover
    # arriving changes no point and tests no robot
    calls = 0
    check_instant = Simulation._check_instant

    def counted(sim, *args):
        nonlocal calls
        calls += 1
        return check_instant(sim, *args)

    monkeypatch.setattr(Simulation, "_check_instant", counted)
    scenario, spec = random_vicinity_scenario(0)  # one seed of the synchronizer sweep
    run_synchronized(scenario, spec, sample_async_schedule(0, scenario.n, 200.0),
                     Adversary(0, NONRIGID))
    assert calls == 294  # of 527 instants


def _blocks(index) -> dict:
    """The index's robots per occupied block, as sets."""
    return {k: set(robots) for k, robots in index._near.items() if robots}


def test_every_run_forks_the_scenarios_index_and_leaves_it_as_built(monkeypatch):
    # the stationarity mover crosses a cell boundary on seed 0 and in its
    # candidate replays; every run forks the index its scenario built, and
    # shares its block lists, so a move that edited one would move a robot
    # in the scenario's index and in every later run's
    forks = []
    fork = engine._CellIndex.fork

    def kept(index):
        forks.append(fork(index))
        return forks[-1]

    monkeypatch.setattr(engine._CellIndex, "fork", kept)
    run = necessity_template("stationarity", 0)
    scenario = run.scenario

    def trace_of(seed):
        return simulate(scenario, run.schedule, as_controller(run.algorithm),
                        Adversary(seed, run.adversary_mode))

    first = trace_of(0)
    for seed in range(1, 6):
        trace_of(seed)
    before_search = len(forks)
    candidate_search(first)
    assert len(forks) > before_search  # the search replayed candidates over the scenario
    assert any(index._cell != scenario._index._cell for index in forks)  # a robot moved cells
    # a step toward a distant robot enters blocks that the scenario's index
    # already lists, which a move that appended in place would extend
    walk = scen((0, 0), (2.5, 0))
    simulate(walk, sched(2, 2, {0: [(0.0, 0.25, 1.0)]}), _Steps({(0, 1): (1.5, 0)}),
             Adversary(0, RIGID))
    assert forks[-1]._cell != walk._index._cell
    for owner in (scenario, walk):
        built = engine._CellIndex(owner.initial_positions)
        assert owner._index.points == built.points
        assert owner._index._cell == built._cell
        assert list(owner._index._near.items()) == list(built._near.items())
    for index in forks:
        again = engine._CellIndex(index.points)
        assert index._cell == again._cell
        assert _blocks(index) == _blocks(again)
    assert trace_of(0).to_json() == first.to_json()


def _outcome(sim, scenario, schedule, controller, seed, color=None, mode=NONRIGID,
             adversary=Adversary):
    try:
        return sim(scenario, schedule, controller, adversary(seed, mode),
                   initial_color=color).run().to_json()
    except SimulationError as exc:
        return type(exc).__name__, str(exc)


def test_a_new_color_shows_from_the_move_start_in_both_engines():
    # robot 0 accepts at t=0 and shows red from its move start at t=1; robot
    # 1 looks one grid step before it and sees black, robot 2 looks at it
    scenario = scen((0, 0), (0.5, 0), (0, 0.5))
    step = 1 / 64
    schedule = sched(3, 3, {0: [(0.0, 1.0, 2.0)], 1: [(1.0 - step, 1.5, 2.0)],
                            2: [(1.0, 1.5, 2.0)]})
    controller = SynchronizerController(SVP, AlgorithmSpec(HALT))
    trace = _outcome(Simulation, scenario, schedule, controller, 0, BK)
    assert trace == _outcome(_EveryEventChecking, scenario, schedule, controller, 0, BK)
    # in snapshot order (local x, then local y): the observer's own color,
    # then robot 0's, then the third robot's
    assert trace["records"][1][0]["snapshot_colors"] == [BK, BK, BK]
    assert trace["records"][2][0]["snapshot_colors"] == [BK, "R", BK]


def _compared_runs():
    """(scenario, schedule, controller, seed, initial color) of the runs the
    one-check-per-instant engine is compared on."""
    for seed in range(100):
        scenario, spec = random_small_inputs(seed)
        for schedule in (sample_async_schedule(seed, scenario.n, 8.0),
                         make_fsync_schedule(4, scenario.n)):
            yield scenario, schedule, as_controller(spec), seed, None
            yield scenario, schedule, SynchronizerController(SVP, spec), seed, BK
    for seed in range(3):
        scenario, spec = random_vicinity_scenario(seed)
        yield scenario, make_fsync_schedule(10, scenario.n), as_controller(spec), seed, None
    halt = as_controller(AlgorithmSpec(HALT))
    yield _lattice(3, 0.6), sample_async_schedule(0, 9, 60.0), halt, 0, None
    yield _lattice(4, 0.6), make_fsync_schedule(10, 16), halt, 0, None


def test_move_start_check_never_changes_a_run():
    moves = 0
    for scenario, schedule, controller, seed, color in _compared_runs():
        now = _outcome(Simulation, scenario, schedule, controller, seed, color)
        assert now == _outcome(_EveryEventChecking, scenario, schedule,
                               controller, seed, color)
        if isinstance(now, dict):
            moves += sum(rec["pos_after_move"] != rec["pos_at_look"]
                         for row in now["records"] for rec in row)
    assert moves  # the runs move robots, so the move starts are not all no-ops


def _tie_fuzz_run(seed):
    """Robots on a half-step grid taking half-steps (some a hair short, so
    pairs can land in the threshold band) with all times on a 1/4 grid, so
    Looks, move starts and move ends often share an instant.  With delta 0.5
    every step is traversed whole; the adversary only places mid-move
    samples."""
    rng = random.Random(f"ties:{seed}")
    n = rng.randint(2, 5)
    cells = rng.sample([(0.5 * x, 0.5 * y) for x in range(4) for y in range(4)], n)
    schedule = []
    for i in range(n):
        t, row = 0.25 * rng.randint(0, 4), []
        while True:
            o = t
            s = o + 0.25 * rng.randint(1, 2)
            f = s + 0.25 * rng.randint(1, 3)
            if f > 6.0:
                break
            row.append((o, s, f))
            t = f + 0.25 * rng.randint(1, 3)
        schedule.append(row)
    moves = [None, (0.5, 0), (-0.5, 0), (0, 0.5), (0, -0.5), (0.5 - 4e-10, 0)]
    steps = {(i, j): rng.choice(moves) for i in range(n) for j in range(1, len(schedule[i]) + 1)}
    return (scen(*cells, delta=0.5), sched(n, 6.0, dict(enumerate(schedule))),
            _Steps(steps), rng.choice((RIGID, NONRIGID)))


def test_tied_instants_match_the_every_event_engine():
    errors = set()
    for seed in range(1000):
        scenario, schedule, controller, mode = _tie_fuzz_run(seed)
        now = _outcome(Simulation, scenario, schedule, controller, seed, mode=mode)
        assert now == _outcome(_EveryEventChecking, scenario, schedule,
                               controller, seed, mode=mode)
        if isinstance(now, tuple):
            errors.add(now[0])
    assert errors == {"CollisionError", "DegenerateScenarioError"}


class _QuarterSamples(Adversary):
    """Mid-move samples at quarter fractions of the realized prefix, drawn
    alike for every robot, so two movers that share a cycle window take the
    same fractions and meet halfway whenever they draw one half."""

    def draw_observation_fractions(self, robot, j, count):
        rng = random.Random(f"{self.seed}:quarters:{j}")
        return [rng.randrange(4) / 4 for _ in range(count)]


def _cell_fuzz_run(seed):
    """Robots on a half-step grid reaching x=2, taking half-steps, unit steps
    and hair steps of 2e-10 (so a robot at x=1 can step to 0.9999999998, one
    unit and a hair from a robot at x=2: with cells of side 1 that pair is
    two cells apart), with times on a 1/4 grid so many move ends fall
    between Looks.  Robots 0 and 1 start half a unit or a unit apart, share
    their cycle windows and step toward each other in their first cycle."""
    rng = random.Random(f"cells:{seed}")
    n = rng.randint(2, 6)
    spots = [(0.5 * x, 0.5 * y) for x in range(5) for y in range(3)]
    d = rng.choice((0.5, 1.0))
    x, y = rng.choice([(x, y) for x, y in spots if x + d <= 2.0])
    pair = [(x, y), (x + d, y)]
    cells = pair + rng.sample([p for p in spots if p not in pair], n - 2)

    def row():
        t, out = 0.25 * rng.randint(0, 8), []
        while True:
            o = t
            s = o + 0.25 * rng.randint(1, 2)
            f = s + 0.25 * rng.randint(1, 4)
            if f > 8.0:
                return out
            out.append((o, s, f))
            t = f + 0.25 * rng.randint(1, 4)

    shared = row()
    schedule = [shared if i < 2 or rng.random() < 0.5 else row() for i in range(n)]
    moves = [None, (0.5, 0), (-0.5, 0), (1.0, 0), (-1.0, 0), (0, 0.5), (0, -0.5),
             (-2e-10, 0), (2e-10, 0), (0, 2e-10), (0.5 - 4e-10, 0)]
    steps = {(i, j): rng.choice(moves) for i in range(n) for j in range(1, len(schedule[i]) + 1)}
    steps[0, 1], steps[1, 1] = (d, 0), (-d, 0)
    return scen(*cells, delta=0.5), sched(n, 8.0, dict(enumerate(schedule))), _Steps(steps)


def test_cell_index_matches_the_every_event_engine():
    kinds = set()
    for seed in range(600):
        run = (*_cell_fuzz_run(seed), seed)
        now = _outcome(Simulation, *run, mode=RIGID, adversary=_QuarterSamples)
        assert now == _outcome(_EveryEventChecking, *run, mode=RIGID, adversary=_QuarterSamples)
        kinds.add(now[0] if isinstance(now, tuple) else "trace")
    assert kinds == {"trace", "CollisionError", "DegenerateScenarioError"}


def _lattice(cols, spacing, rows=None):
    return scen(*[(spacing * (k % cols), spacing * (k // cols))
                  for k in range(cols * (rows or cols))])


def test_pair_tests_per_cycle_do_not_grow_with_n(monkeypatch):
    # async lattices of 32 and 128 robots with about 500 cycles each.  Under
    # halt no point changes, so no robot is tested (the full scan at every
    # Look made 459 threshold tests per cycle at n=32 and 5894 at n=128).
    # Under hull contraction each Look inside a move samples the mover, so
    # tests per cycle grow with n (112 and 314), while tests per tested
    # robot (17.5 and 20.9) stay flat where a scan of every robot reads n
    runs = [(_lattice(8, 0.6, rows=4), sample_async_schedule(0, 32, 50.0)),
            (_lattice(16, 0.6, rows=8), sample_async_schedule(0, 128, 12.5))]
    tests = calls = 0
    bad_pairs = engine._CellIndex.bad_pairs

    def counted(p, q):
        nonlocal tests
        tests += 1
        return is_threshold_degenerate(p, q)

    def counted_calls(index, i):
        nonlocal calls
        calls += 1
        return bad_pairs(index, i)

    monkeypatch.setattr(engine, "is_threshold_degenerate", counted)
    monkeypatch.setattr(engine._CellIndex, "bad_pairs", counted_calls)
    per_call = []
    for scenario, schedule in runs:
        tests = calls = 0
        simulate(scenario, schedule, as_controller(AlgorithmSpec(HALT)), Adversary(0, NONRIGID))
        assert tests == calls == 0
        hull = as_controller(AlgorithmSpec(HULL_CONTRACTION, contraction=0.5))
        simulate(scenario, schedule, hull, Adversary(0, NONRIGID))
        per_call.append(tests / calls)
    assert 0 < per_call[1] < 2 * per_call[0]


def test_looks_sample_only_the_cycles_that_move(monkeypatch):
    # a Look reads the sample of every open cycle past its move start, one
    # `bisect` for the key (t,) each; a stay-put cycle's samples all sit at
    # its start, so it is not open (157 lookups here when every cycle was)
    lookups = 0

    def counted(a, x, *args):
        nonlocal lookups
        lookups += type(x) is tuple
        return bisect_left(a, x, *args)

    monkeypatch.setattr(engine, "bisect_left", counted)
    scenario, spec = random_vicinity_scenario(0)  # one seed of the synchronizer sweep
    trace = run_synchronized(scenario, spec, sample_async_schedule(0, scenario.n, 200.0),
                             Adversary(0, NONRIGID))
    moving = [rec for rec in all_records(trace) if rec.route_global.length > 0.0]
    assert 0 < lookups == sum(len(rec.mid_move_samples) for rec in moving) == 14


def _svp_core_replay(seed):
    scenario, spec = random_vicinity_scenario(seed)
    schedule = sample_async_schedule(seed, scenario.n, 60.0)
    core = extract_core(run_synchronized(scenario, spec, schedule, Adversary(seed, NONRIGID)))
    return replay_plan(scenario, build_plan(core, check_all(core).natural_order))


def _plain(scenario, schedule, spec, seed, mode=NONRIGID):
    return lambda: simulate(scenario, schedule, as_controller(spec), Adversary(seed, mode))


def _svp(scenario, schedule, spec, seed):
    return lambda: run_synchronized(scenario, spec, schedule, Adversary(seed, NONRIGID))


def _keyed_runs():
    """Digest groups whose runs draw from `Adversary(seed, mode)`: name ->
    [(seed, mode, thunk returning the trace)]."""
    vicinity = [random_vicinity_scenario(seed) for seed in range(3)]
    small = [(seed, *random_small_inputs(seed)) for seed in range(40)]
    return {
        "vicinity-async-svp": [
            (seed, NONRIGID, _svp(s, sample_async_schedule(seed, s.n, 60.0), spec, seed))
            for seed, (s, spec) in enumerate(vicinity)],
        "templates": [
            (seed, run.adversary_mode,
             _plain(run.scenario, run.schedule, run.algorithm, seed, run.adversary_mode))
            for name in ("stationarity", "pairwise-alignment", "consistency", "serializability")
            for seed in range(5) for run in [necessity_template(name, seed)]],
        "small-svp": [(seed, NONRIGID, _svp(s, sample_async_schedule(seed, s.n, 8.0), spec, seed))
                      for seed, s, spec in small],
    }


def _digest_runs():
    """Named groups of engine runs; each run is a thunk returning a trace."""
    groups = {name: [run for _, _, run in runs] for name, runs in _keyed_runs().items()}
    groups["lattice"] = [_plain(_lattice(3, 0.6), sample_async_schedule(0, 9, 60.0),
                                AlgorithmSpec(HALT), 0)]
    vicinity = [random_vicinity_scenario(seed) for seed in range(3)]
    groups["vicinity-fsync-hull"] = [_plain(s, make_fsync_schedule(10, s.n), spec, seed)
                                     for seed, (s, spec) in enumerate(vicinity)]
    small = [(seed, *random_small_inputs(seed)) for seed in range(40)]
    groups["small-plain"] = [_plain(s, sample_async_schedule(seed, s.n, 8.0), spec, seed)
                             for seed, s, spec in small]
    groups["svp-core-replay"] = [lambda: _svp_core_replay(0)]
    groups["svp-core"] = [
        lambda run=_svp(s, sample_async_schedule(seed, s.n, 60.0), spec, seed): extract_core(run())
        for seed, (s, spec) in enumerate(map(random_vicinity_scenario, range(10)))]
    groups["collision"] = [_collision_setup]
    groups["degenerate"] = [_degenerate_setup]
    return groups


# sha256 of json.dumps([outcome, ...], sort_keys=True) per group, where an
# outcome is the trace's JSON or [error type, message]; recorded from the
# engine that kept a second copy of each robot's state, so a change to the
# bytes of any of these runs must be made on purpose and re-recorded
RECORDED_DIGESTS = {
    "collision": "9b9b519c2da175e3b6317dafdba58361bd1b08d43f17e03a3d358c1e4dce1b4c",
    "degenerate": "872ae14d1e1b27849e57fab81f92178b49bfd8daea8b845ec6e2084caf16d485",
    "lattice": "560a1a7d9ca831476524e8d0a00b47fc8489d1a79088b732eec5329a4439b7f1",
    "small-plain": "2bdbdfb6104a8d570e358cf57bcf73559fa4b1d04b391d21d8b8bdb170bb644d",
    "small-svp": "b146e390bc66ac38b0be820c0ce0a27333bdbc738ab024abcbe802938abb123b",
    "svp-core": "f3ef63046d3670fb27fc50e390646ea962f549a85997c507265b4e9acbcee1b4",
    "svp-core-replay": "b065a085981cffbaecd91d5abdc0afc17322cf11cb2b588d8bb93fbfa76a70fb",
    "templates": "0f464b267be25f80379eb7d867f04c8990ba0f2ddbdf8d34d7708d1051bf1baa",
    "vicinity-async-svp": "d7b0ba57514e2beda370b54118affcf9cce9df6ca06b882fcd65789bcf78f963",
    "vicinity-fsync-hull": "b7302e8b0dabbc24584ea2e480a3c926065d716b193af2dbc7a0a8b001a80415",
}


def test_runs_match_the_recorded_digests():
    digests = {}
    for name, runs in _digest_runs().items():
        outcomes = []
        for run in runs:
            try:
                outcomes.append(run().to_json())
            except SimulationError as exc:
                outcomes.append([type(exc).__name__, str(exc)])
        digests[name] = hashlib.sha256(
            json.dumps(outcomes, sort_keys=True).encode()).hexdigest()
    assert digests == RECORDED_DIGESTS


def test_every_z_is_the_keyed_draw_of_the_records_own_cycle():
    # a core re-indexes j, so each of its records must hold the draw of the
    # luminous cycle it came from
    checked = 0
    for runs in _keyed_runs().values():
        for seed, mode, run in runs:
            fresh = Adversary(seed, mode)
            trace = run()
            if trace.kind == "luminous":
                core = extract_core(trace)
                for robot, row in enumerate(core.records):
                    origin = [rec for rec in trace.records[robot] if rec.accepted]
                    for rec, source in zip(row, origin, strict=True):
                        assert rec.z == fresh.draw_truncation(robot, source.cycle.j)
                        checked += 1
            for rec in all_records(trace):
                assert rec.z == fresh.draw_truncation(rec.cycle.robot, rec.cycle.j)
                checked += 1
    assert checked > 500


def test_a_record_refuses_a_z_outside_the_unit_interval():
    # a halt run never draws at the Look, so the range is checked at the read
    class Wild(Adversary):
        def draw_truncation(self, robot, j):
            return 1.5

    trace = simulate(scen((0, 0)), make_fsync_schedule(1, 1),
                     as_controller(AlgorithmSpec(HALT)), Wild(0, NONRIGID))
    with pytest.raises(InputError, match=r"^truncation draw z=1\.5 outside \[0, 1\]$"):
        trace.to_json()


def test_a_run_draws_z_only_for_routes_longer_than_delta(monkeypatch):
    draws = 0
    keyed = Adversary.draw_truncation

    def counted(self, robot, j):
        nonlocal draws
        draws += 1
        return keyed(self, robot, j)

    monkeypatch.setattr(Adversary, "draw_truncation", counted)
    scenario, spec = random_vicinity_scenario(0)  # one seed of the synchronizer sweep
    trace = run_synchronized(scenario, spec, sample_async_schedule(0, scenario.n, 200.0),
                             Adversary(0, NONRIGID))
    records = all_records(trace)
    longer = sum(rec.route_global.length > scenario.delta for rec in records)
    assert 0 < longer < len(records) and draws == longer
    extract_core(trace)
    assert draws == longer  # a core carries its pending draws unmade
    assert [rec.z for rec in records] == [rec.z for rec in records]
    assert draws == len(records)  # a read draws once, and only the first time
