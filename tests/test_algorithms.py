import pytest

from robosync.algorithms import (
    HALT,
    HULL_CONTRACTION,
    SCRIPTED,
    AlgorithmSpec,
    ScriptEntry,
    as_controller,
    compute,
    is_vicinity_preserving_run,
    validate_vicinity_scenario,
)
from robosync.engine import Adversary, FrameSpec, NONRIGID, RIGID, Scenario, simulate
from robosync.errors import InputError
from robosync.geometry import Point, Route
from robosync.scenarios import greedy_trap_scenario, random_vicinity_scenario
from robosync.scheduling import sample_async_schedule
from robosync.synchronizer import extract_core, run_synchronized


def test_halt_stays_put():
    route = compute(AlgorithmSpec(HALT), (Point(0, 0), Point(0.3, 0.3)))
    assert route.length == 0.0


def test_hull_contraction_example():
    spec = AlgorithmSpec(HULL_CONTRACTION, contraction=0.5)
    route = compute(spec, (Point(0, 0), Point(1, 0)))
    assert route == Route((Point(0, 0), Point(0.25, 0)))


def test_hull_contraction_is_order_insensitive():
    spec = AlgorithmSpec(HULL_CONTRACTION, contraction=0.4)
    pts = (Point(0, 0), Point(0.8, 0.1), Point(-0.3, 0.5), Point(0.2, -0.6))
    a = compute(spec, pts)
    b = compute(spec, tuple(reversed(pts)))
    assert a == b


def test_hull_contraction_rejects_bad_factor():
    with pytest.raises(InputError):
        AlgorithmSpec(HULL_CONTRACTION, contraction=1.0)


def test_scripted_match_and_fallback():
    corner = (Point(0, 0), Point(0, 1), Point(1, 0))
    spec = AlgorithmSpec(SCRIPTED, script=(
        ScriptEntry(snapshot=corner, route=(Point(0, 0), Point(0, 0.75))),
    ))
    assert compute(spec, corner) == Route((Point(0, 0), Point(0, 0.75)))
    shuffled = (Point(1, 0), Point(0, 0), Point(0, 1))
    assert compute(spec, shuffled) == Route((Point(0, 0), Point(0, 0.75)))
    assert compute(spec, (Point(0, 0), Point(0, -1))).length == 0.0


def test_a_scripted_firing_returns_the_entry_route(monkeypatch):
    # the entry builds its route once, to check it; a firing builds none
    corner = (Point(0, 0), Point(0, 1), Point(1, 0))
    entry = ScriptEntry(snapshot=corner, route=(Point(0, 0), Point(0, 0.75)))
    spec = AlgorithmSpec(SCRIPTED, script=(entry,))
    built = []
    init = Route.__init__

    def counted(self, vertices):
        built.append(vertices)
        init(self, vertices)

    monkeypatch.setattr(Route, "__init__", counted)
    for _ in range(3):
        assert compute(spec, corner) is entry.built_route
    assert built == []
    assert entry == ScriptEntry(snapshot=corner, route=entry.route)


def test_compute_requires_origin():
    with pytest.raises(InputError):
        compute(AlgorithmSpec(HALT), (Point(1, 1),))


def test_algorithm_spec_json_round_trip():
    for spec in (AlgorithmSpec(HALT),
                 AlgorithmSpec(HULL_CONTRACTION, contraction=0.7),
                 greedy_trap_scenario()[2]):
        assert AlgorithmSpec.from_json(spec.to_json()) == spec


def test_vicinity_validation_examples():
    single = Scenario([Point(0, 0)], [FrameSpec()], 0.1)
    assert validate_vicinity_scenario(single)
    pair = Scenario([Point(0, 0), Point(0.8, 0)], [FrameSpec()] * 2, 0.1)
    assert validate_vicinity_scenario(pair)
    path = Scenario([Point(0, 0), Point(1, 0), Point(2, 0)], [FrameSpec()] * 3, 0.1)
    verdict = validate_vicinity_scenario(path)
    assert not verdict and "not a clique" in verdict.reasons[0]


def test_vicinity_validation_rejects_close_hulls():
    # every cross-cluster pair is out of range, but the pair cluster's hull
    # passes within 0.9 of the singleton: contraction could create an edge
    close_hulls = Scenario([Point(0, -0.5), Point(0, 0.5), Point(0.9, 0)],
                           [FrameSpec()] * 3, 0.1)
    verdict = validate_vicinity_scenario(close_hulls)
    assert not verdict and "hull gap" in verdict.reasons[0]
    far = Scenario([Point(0, 0), Point(2.5, 0)], [FrameSpec()] * 2, 0.1)
    assert validate_vicinity_scenario(far)


def test_halt_run_preserves_visibility():
    scenario = Scenario([Point(0, 0), Point(0.5, 0)], [FrameSpec()] * 2, 0.1)
    trace = simulate(scenario, sample_async_schedule(3, 2, 20.0),
                     as_controller(AlgorithmSpec(HALT)), Adversary(3, NONRIGID))
    assert is_vicinity_preserving_run(trace)


def test_greedy_trap_breaks_visibility():
    scenario, schedule, spec = greedy_trap_scenario()
    trace = run_synchronized(scenario, spec, schedule, Adversary(0, RIGID), "greedy")
    core = extract_core(trace)
    assert not is_vicinity_preserving_run(core)


def test_hull_run_on_clique_clusters_preserves_vicinity():
    for seed in (0, 4):
        scenario, spec = random_vicinity_scenario(seed)
        assert validate_vicinity_scenario(scenario, spec)
        schedule = sample_async_schedule(seed, scenario.n, 60.0)
        trace = simulate(scenario, schedule, as_controller(spec),
                         Adversary(seed, NONRIGID))
        assert is_vicinity_preserving_run(trace)


def test_hull_contraction_shrinks_diameter_per_round():
    from robosync.geometry import squared_distance
    from robosync.scheduling import make_fsync_schedule

    scenario, spec = random_vicinity_scenario(8)
    trace = simulate(scenario, make_fsync_schedule(10, scenario.n),
                     as_controller(spec), Adversary(8, RIGID))
    def diameter(points):
        return max((squared_distance(a, b) for a in points for b in points),
                   default=0.0)
    rounds = [[trace.record(i, j).pos_at_look for i in range(trace.n)]
              for j in range(1, 11)]
    diams = [diameter(pts) for pts in rounds]
    assert all(b <= a + 1e-12 for a, b in zip(diams, diams[1:]))
