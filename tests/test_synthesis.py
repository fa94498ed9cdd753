from dataclasses import replace

import pytest

from conftest import build_trace
from oracles import similar_oracle
from test_checker import oracle_traces
from robosync.algorithms import HALT, AlgorithmSpec, as_controller
from robosync.checker import analyze, check_all
from robosync.engine import Adversary, FrameSpec, Scenario, simulate
from robosync.errors import InputError, SimulationError
from robosync.geometry import Point
from robosync.scheduling import make_fsync_schedule
from robosync.scenarios import greedy_trap_scenario, necessity_template
from robosync.synchronizer import extract_core, run_synchronized
from robosync.synthesis import (
    NONE_AMONG_CANDIDATES,
    INCONCLUSIVE,
    SIMILAR_FOUND,
    SIMILARITY_EPS,
    SsyncPlan,
    build_plan,
    candidate_search,
    replay_plan,
    similar,
)


def svp_core(seed=0, horizon=60.0):
    from robosync.scenarios import random_vicinity_scenario
    from robosync.scheduling import sample_async_schedule

    scenario, spec = random_vicinity_scenario(seed)
    schedule = sample_async_schedule(seed, scenario.n, horizon)
    trace = run_synchronized(scenario, spec, schedule,
                             Adversary(seed, "nonrigid"), "svp")
    core = extract_core(trace)
    return scenario, core


def test_build_plan_single_robot():
    trace = build_trace([(0, 0)], [[
        {"t": (0.5, 0.75, 1.0), "after": (0.25, 0)},
        {"t": (2.0, 2.25, 2.5), "pos": (0.25, 0), "after": (0.5, 0)},
    ]])
    plan = build_plan(trace, [[(0, 1)], [(0, 2)]])
    assert [(c.o, c.s, c.f) for c in plan.schedule.robots[0]] == \
           [(0.0, 0.25, 0.75), (1.0, 1.25, 1.75)]
    assert plan.targets == {(0, 1): Point(0.25, 0), (0, 2): Point(0.5, 0)}


def test_build_plan_requires_full_coverage():
    trace = build_trace([(0, 0)], [[{"t": (0.0, 0.25, 0.5)}]])
    with pytest.raises(InputError):
        build_plan(trace, [])


def test_replay_of_halt_plan_is_constant():
    scenario = Scenario([Point(0, 0), Point(0.5, 0)], [FrameSpec()] * 2, 0.1)
    trace = simulate(scenario, make_fsync_schedule(3, 2),
                     as_controller(AlgorithmSpec(HALT)), Adversary(0, "nonrigid"))
    report = check_all(trace)
    assert report.all_pass
    plan = build_plan(trace, report.natural_order)
    replayed = replay_plan(scenario, plan)
    for i in range(2):
        assert all(r.pos_at_look == scenario.initial_positions[i]
                   for r in replayed.records[i])
    assert similar(trace, replayed)


def test_similar_trivial_and_divergent():
    _, core = svp_core(2)
    assert similar(core, core)
    # replaying stay-put targets instead of the recorded ones diverges at the
    # first cycle that actually moved
    orders = check_all(core).natural_order
    plan = build_plan(core, orders)
    frozen = SsyncPlan(plan.order, plan.schedule,
                       {k: core.scenario.initial_positions[k[0]]
                        for k in plan.targets})
    replayed = replay_plan(core.scenario, frozen)
    verdict = similar(core, replayed)
    assert not verdict.ok
    assert verdict.witness["reason"] in ("footprint", "snapshot")


def test_full_pipeline_on_svp_cores():
    for seed in (0, 3, 5):
        scenario, core = svp_core(seed)
        report = check_all(core)
        assert report.all_pass, (seed, report.to_json()["verdicts"])
        plan = build_plan(core, report.natural_order)
        replayed = replay_plan(scenario, plan)
        assert similar(core, replayed)
        # normal-form replays are stationary by construction
        from robosync.checker import check_stationary
        assert check_stationary(analyze(replayed)).verdict == "pass"
        again = replay_plan(scenario, plan)
        assert again.to_json() == replayed.to_json()


def test_forced_replay_of_inconsistent_core_diverges():
    scenario, schedule, spec = greedy_trap_scenario()
    trace = run_synchronized(scenario, spec, schedule, Adversary(0, "rigid"), "greedy")
    core = extract_core(trace)
    analysis = analyze(core)
    plan = build_plan(core, analysis.classes)
    replayed = replay_plan(scenario, plan)
    verdict = similar(core, replayed)
    assert not verdict.ok
    # the divergence is the fourth robot seeing the unmoved climber
    assert verdict.witness["robot"] == 3 and verdict.witness["reason"] == "snapshot"


def _with_record(trace, i, k, **fields):
    """A copy of the trace with robot i's k-th record's fields replaced."""
    rows = [list(row) for row in trace.records]
    rows[i][k] = replace(rows[i][k], **fields)
    return replace(trace, records=rows)


def _shifted(p, d):
    return Point(p.x + d, p.y)


def _assert_similar_as_oracle(source, replayed):
    got = similar(source, replayed)
    want = similar_oracle(source, replayed)
    assert (got.ok, got.witness) == (want.ok, want.witness)
    return got


def test_similar_matches_the_same_points_oracle():
    replays = 0
    for trace in oracle_traces():
        assert _assert_similar_as_oracle(trace, trace)
        try:  # the replay of the class order, exact or not
            replayed = replay_plan(trace.scenario, build_plan(trace, analyze(trace).classes))
        except (InputError, SimulationError):
            continue
        _assert_similar_as_oracle(trace, replayed)
        replays += 1
    assert replays > 100
    exact = []
    for seed in range(8):  # the sweep's cores, replayed in their natural order
        scenario, core = svp_core(seed)
        report = check_all(core)
        if report.all_pass:
            replayed = replay_plan(scenario, build_plan(core, report.natural_order))
            assert _assert_similar_as_oracle(core, replayed)
            exact.append((core, replayed))
    assert len(exact) >= 4
    core, replayed = exact[0]
    i, k = next((i, k) for i, row in enumerate(replayed.records)
                for k, rec in enumerate(row) if len(rec.snapshot_local) > 1)
    rec = replayed.records[i][k]
    first, *rest = rec.snapshot_local
    cases = {  # (perturbed replay, similar?, witness reason)
        "reordered snapshot": (_with_record(replayed, i, k, snapshot_local=(*rest, first)),
                               True, None),
        "snapshot within eps": (_with_record(replayed, i, k, snapshot_local=(
            _shifted(first, SIMILARITY_EPS / 2), *rest)), True, None),
        "snapshot beyond eps": (_with_record(replayed, i, k, snapshot_local=(
            _shifted(first, 10 * SIMILARITY_EPS), *rest)), False, "snapshot"),
        "footprint within eps": (_with_record(replayed, i, k, pos_at_look=_shifted(
            rec.pos_at_look, SIMILARITY_EPS / 2)), True, None),
        "footprint beyond eps": (_with_record(replayed, i, k, pos_at_look=_shifted(
            rec.pos_at_look, 10 * SIMILARITY_EPS)), False, "footprint"),
        "cycle count": (replace(replayed, records=[
            row[:-1] if r == i else row for r, row in enumerate(replayed.records)]),
                        False, "cycle count"),
    }
    for name, (perturbed, ok, reason) in cases.items():
        got = _assert_similar_as_oracle(core, perturbed)
        assert got.ok is ok, name
        assert (got.witness or {}).get("reason") == reason, name
        if reason in ("snapshot", "footprint"):
            assert (got.witness["robot"], got.witness["j"]) == (i, k + 1), name


def test_candidate_search_outcomes():
    _, core = svp_core(4)
    assert candidate_search(core).verdict == SIMILAR_FOUND

    scenario, schedule, spec = greedy_trap_scenario()
    trap = run_synchronized(scenario, spec, schedule, Adversary(0, "rigid"), "greedy")
    trap_core = extract_core(trap)
    assert candidate_search(trap_core).verdict == NONE_AMONG_CANDIDATES

    run = necessity_template("serializability", 0)
    trace = simulate(run.scenario, run.schedule, as_controller(run.algorithm),
                     Adversary(0, run.adversary_mode))
    assert candidate_search(trace).verdict == NONE_AMONG_CANDIDATES

    assert candidate_search(core, order_budget=0).verdict == INCONCLUSIVE


def test_candidate_search_empty_trace():
    empty = build_trace([(0, 0)], [[]])
    assert candidate_search(empty).verdict == SIMILAR_FOUND


def test_necessity_experiment_analyzes_each_trace_once(monkeypatch):
    import robosync.checker
    import robosync.synthesis
    from robosync.experiments import necessity_experiment

    calls = []

    def counted(trace):
        calls.append(trace)
        return analyze(trace)

    monkeypatch.setattr(robosync.checker, "analyze", counted)
    monkeypatch.setattr(robosync.synthesis, "analyze", counted)
    result = necessity_experiment("serializability", 4)
    assert result["seeds"] - result["errors"] > 0
    assert len(calls) == result["seeds"] - result["errors"]
