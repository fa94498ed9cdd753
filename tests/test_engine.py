import hashlib
import json
import random

import pytest

from conftest import random_small_inputs
from robosync.algorithms import HALT, SCRIPTED, AlgorithmSpec, ScriptEntry, as_controller
from robosync.checker import check_all
from robosync.engine import (
    Adversary,
    Decision,
    FrameSpec,
    NONRIGID,
    RIGID,
    Scenario,
    Simulation,
    Trace,
    simulate,
)
from robosync.errors import CollisionError, DegenerateScenarioError, InputError, SimulationError
from robosync.geometry import Point, Route, point_along, squared_distance
from robosync.scenarios import necessity_template, random_vicinity_scenario
from robosync.scheduling import Cycle, Schedule, make_fsync_schedule, sample_async_schedule
from robosync.synchronizer import (
    SVP,
    SyncColor,
    SynchronizerController,
    extract_core,
    run_synchronized,
)
from robosync.synthesis import build_plan, replay_plan

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
    from robosync.geometry import to_local

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
                local = sorted([Point(0.0, 0.0)] + [to_local(frame, rec.pos_at_look, p)
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
    trace = _mid_move_setup(4)
    again = Trace.from_json(trace.to_json())
    assert again.to_json() == trace.to_json()


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
                self._look(robot, cycle, positions)
        return Trace(self.scenario, self.schedule.horizon, self.records,
                     kind="luminous" if self.initial_color else "plain")


class _Steps:
    """Controller that moves robot i by `steps[(i, j)]` (local coordinates)
    in its cycle j and stays put otherwise."""

    def __init__(self, steps):
        self.steps = steps

    def decide(self, robot, j, snapshot, snapshot_colors, own_color):
        step = self.steps.get((robot, j))
        return Decision(Route((Point(0, 0), Point(*step))) if step else Route.stay_put())


def _both_raise(scenario, schedule, controller, error, message):
    for sim in (Simulation, _EveryEventChecking):
        with pytest.raises(error, match=f"^{message}$"):
            sim(scenario, schedule, controller, Adversary(1, RIGID)).run()


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


def _outcome(sim, scenario, schedule, controller, seed, color=None, mode=NONRIGID):
    try:
        return sim(scenario, schedule, controller, Adversary(seed, mode),
                   initial_color=color).run().to_json()
    except SimulationError as exc:
        return type(exc).__name__, str(exc)


def _compared_runs():
    """(scenario, schedule, controller, seed, initial color) of the runs the
    one-check-per-instant engine is compared on."""
    for seed in range(100):
        scenario, spec = random_small_inputs(seed)
        for schedule in (sample_async_schedule(seed, scenario.n, 8.0),
                         make_fsync_schedule(4, scenario.n)):
            yield scenario, schedule, as_controller(spec), seed, None
            yield (scenario, schedule, SynchronizerController(SVP, spec), seed,
                   SyncColor.BK.value)
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


def _lattice(cols, spacing):
    return scen(*[(spacing * (k % cols), spacing * (k // cols)) for k in range(cols * cols)])


def _svp_core_replay(seed):
    scenario, spec = random_vicinity_scenario(seed)
    schedule = sample_async_schedule(seed, scenario.n, 60.0)
    core = extract_core(run_synchronized(scenario, spec, schedule, Adversary(seed, NONRIGID)))
    return replay_plan(scenario, build_plan(core, check_all(core).natural_order))


def _digest_runs():
    """Named groups of engine runs; each run is a thunk returning a trace."""
    def plain(scenario, schedule, spec, seed, mode=NONRIGID):
        return lambda: simulate(scenario, schedule, as_controller(spec), Adversary(seed, mode))

    def svp(scenario, schedule, spec, seed):
        return lambda: run_synchronized(scenario, spec, schedule, Adversary(seed, NONRIGID))

    groups = {"lattice": [plain(_lattice(3, 0.6), sample_async_schedule(0, 9, 60.0),
                                AlgorithmSpec(HALT), 0)]}
    vicinity = [random_vicinity_scenario(seed) for seed in range(3)]
    groups["vicinity-async-svp"] = [svp(s, sample_async_schedule(seed, s.n, 60.0), spec, seed)
                                    for seed, (s, spec) in enumerate(vicinity)]
    groups["vicinity-fsync-hull"] = [plain(s, make_fsync_schedule(10, s.n), spec, seed)
                                     for seed, (s, spec) in enumerate(vicinity)]
    groups["templates"] = [
        plain(run.scenario, run.schedule, run.algorithm, seed, run.adversary_mode)
        for name in ("stationarity", "pairwise-alignment", "consistency", "serializability")
        for seed in range(5) for run in [necessity_template(name, seed)]]
    small = [(seed, *random_small_inputs(seed)) for seed in range(40)]
    groups["small-plain"] = [plain(s, sample_async_schedule(seed, s.n, 8.0), spec, seed)
                             for seed, s, spec in small]
    groups["small-svp"] = [svp(s, sample_async_schedule(seed, s.n, 8.0), spec, seed)
                           for seed, s, spec in small]
    groups["svp-core-replay"] = [lambda: _svp_core_replay(0)]
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
