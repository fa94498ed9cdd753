import itertools
from dataclasses import replace

import pytest

from conftest import random_small_inputs
from oracles import all_records, color_at, snapshot_oracle, stay_put_samples
from robosync import experiments
from robosync.algorithms import HALT, AlgorithmSpec, as_controller
from robosync.checker import check_all
from robosync.engine import Adversary, FrameSpec, NONRIGID, RIGID, Scenario, simulate
from robosync.errors import InputError, SimulationError
from robosync.geometry import Point, Route
from robosync.scheduling import Cycle, Schedule, make_fsync_schedule, sample_async_schedule
from robosync.scenarios import greedy_trap_scenario, random_vicinity_scenario
from robosync.synchronizer import (
    MACHINES,
    B,
    BK,
    COLORS,
    G,
    R,
    W,
    _core_record,
    check_color_lifecycle,
    check_neighbor_phase_lag,
    extract_core,
    greedy_step,
    run_synchronized,
    svp_step,
)


def test_svp_rows():
    assert svp_step(BK, {BK, B}) == (R, True)
    assert svp_step(BK, {R, W}) == (W, False)
    assert svp_step(BK, set()) == (R, True)
    assert svp_step(R, {BK, B}) == (R, False)  # no row matches: hold state
    assert svp_step(R, {R, B, W}) == (B, False)
    assert svp_step(B, {B, G}) == (G, False)
    assert svp_step(G, {BK, G}) == (BK, False)
    assert svp_step(W, {B, W}) == (BK, False)
    assert svp_step(W, set()) == (BK, False)


def test_svp_accept_only_from_black():
    for state in COLORS:
        for size in range(6):
            for combo in itertools.combinations(COLORS, size):
                color, accepted = svp_step(state, frozenset(combo))
                if accepted:
                    assert state == BK and color == R


def test_greedy_rule():
    assert greedy_step(BK, {BK}) == (R, True)
    assert greedy_step(BK, {R})[1] is False
    assert greedy_step(BK, set()) == (R, True)
    assert greedy_step(R, {BK})[1] is False
    assert greedy_step(R, set()) == (BK, False)  # revert after the move


def test_single_robot_color_wheel():
    scenario = Scenario([Point(0, 0)], [FrameSpec()], 0.1)
    trace = run_synchronized(scenario, AlgorithmSpec(HALT),
                             make_fsync_schedule(9, 1), Adversary(0, RIGID), "svp")
    colors = [r.color_after for r in trace.records[0]]
    assert colors == ["R", "B", "G", "Bk", "R", "B", "G", "Bk", "R"]
    accepted = [r.cycle.j for r in trace.records[0] if r.accepted]
    assert accepted == [1, 5, 9]
    core = extract_core(trace)
    assert [r.cycle.j for r in core.records[0]] == [1, 2, 3]
    assert [r.cycle.o for r in core.records[0]] == [0.0, 4.0, 8.0]
    assert not check_color_lifecycle(trace)


def test_blocked_robot_accepts_nothing():
    # robot 0 turns red and never recomputes; robot 1 keeps seeing red
    scenario = Scenario([Point(0, 0), Point(0.5, 0)], [FrameSpec()] * 2, 0.1)
    schedule = Schedule(n=2, horizon=20.0, robots=[
        [Cycle(0, 1, 0.0, 10.0, 10.5)],
        [Cycle(1, 1, 11.0, 11.25, 11.5), Cycle(1, 2, 13.0, 13.25, 13.5)],
    ])
    trace = run_synchronized(scenario, AlgorithmSpec(HALT), schedule,
                             Adversary(0, RIGID), "svp")
    assert trace.record(0, 1).accepted is True
    assert [r.accepted for r in trace.records[1]] == [False, False]
    core = extract_core(trace)
    assert core.records[1] == []
    assert core.rest_positions(1) == [Point(0.5, 0)]


def test_new_color_visible_from_move_start():
    scenario = Scenario([Point(0, 0), Point(0.5, 0)], [FrameSpec()] * 2, 0.1)
    schedule = Schedule(n=2, horizon=10.0, robots=[
        [Cycle(0, 1, 0.0, 2.0, 2.5)],
        [Cycle(1, 1, 1.0, 1.25, 1.5), Cycle(1, 2, 2.0, 6.0, 6.5)],
    ])
    trace = run_synchronized(scenario, AlgorithmSpec(HALT), schedule,
                             Adversary(0, RIGID), "svp")
    # at t=1 robot 0 is still black (its move starts at 2); robot 1 accepts
    first = trace.record(1, 1)
    assert first.snapshot_colors == ("Bk", "Bk")
    assert first.accepted is True
    # at t=2 robot 0's red becomes visible exactly at its move start
    second = trace.record(1, 2)
    assert second.snapshot_colors == ("R", "R")
    assert second.accepted is False


def test_greedy_trap_acceptances():
    scenario, schedule, spec = greedy_trap_scenario()
    trace = run_synchronized(scenario, spec, schedule, Adversary(0, RIGID), "greedy")
    assert [trace.record(i, 1).accepted for i in range(4)] == [True] * 4
    # the climber leaves the last robot's range before t=3, so that robot
    # sees an all-black neighbourhood too
    assert trace.record(4, 1).visible_set == {4}


def test_movement_happens_only_in_accepted_cycles():
    from robosync.scenarios import random_vicinity_scenario
    from robosync.scheduling import sample_async_schedule

    scenario, spec = random_vicinity_scenario(6)
    schedule = sample_async_schedule(6, scenario.n, 60.0)
    trace = run_synchronized(scenario, spec, schedule, Adversary(6, "nonrigid"), "svp")
    moved = [rec for row in trace.records for rec in row
             if rec.pos_after_move != rec.pos_at_look]
    assert moved
    assert all(rec.accepted for rec in moved)


def test_extract_core_requires_luminous_trace():
    scenario = Scenario([Point(0, 0)], [FrameSpec()], 0.1)
    plain = simulate(scenario, make_fsync_schedule(1, 1),
                     as_controller(AlgorithmSpec(HALT)), Adversary(0, NONRIGID))
    with pytest.raises(InputError):
        extract_core(plain)


def test_the_pipeline_checks_the_color_invariants_under_svp_only():
    from robosync.experiments import synchronizer_end_to_end
    from robosync.scenarios import random_vicinity_scenario
    from robosync.scheduling import sample_async_schedule

    # greedy reverts R->Bk after every accepted move, which svp's lifecycle forbids
    greedy = synchronizer_end_to_end(0, horizon=30.0, machine="greedy")
    assert greedy["color_lifecycle_problems"] == greedy["phase_lag_problems"] == []
    svp = synchronizer_end_to_end(0, horizon=30.0, machine="svp")
    scenario, spec = random_vicinity_scenario(0)
    trace = run_synchronized(scenario, spec, sample_async_schedule(0, scenario.n, 30.0),
                             Adversary(0, NONRIGID), "svp")
    assert svp["color_lifecycle_problems"] == check_color_lifecycle(trace)
    assert svp["phase_lag_problems"] == check_neighbor_phase_lag(trace)


def test_the_pipeline_reports_the_verdicts_of_its_core():
    result = experiments.synchronizer_end_to_end(0, horizon=60.0)
    scenario, spec = random_vicinity_scenario(0)
    trace = run_synchronized(scenario, spec, sample_async_schedule(0, scenario.n, 60.0),
                             Adversary(0, NONRIGID))
    report = check_all(extract_core(trace))
    assert result["verdicts"] == {name: r.verdict for name, r in report.results.items()}
    assert list(result["verdicts"]) == ["stationary", "pairwise_aligned", "consistent",
                                        "serializable", "natural"]


def test_phase_lag_holds_on_clustered_run():
    from robosync.scenarios import random_vicinity_scenario
    from robosync.scheduling import sample_async_schedule

    scenario, spec = random_vicinity_scenario(3)
    schedule = sample_async_schedule(3, scenario.n, 80.0)
    trace = run_synchronized(scenario, spec, schedule, Adversary(3, NONRIGID), "svp")
    assert not check_neighbor_phase_lag(trace)
    assert not check_color_lifecycle(trace)


# -- the color invariants against their per-Look rebuild ----------------------

def _oracle_color_changes(trace, robot):
    out = []
    current = BK
    for rec in trace.records[robot]:
        after = rec.color_after
        if after != current:
            out.append((rec.cycle.s, after))
            current = after
    return out


def _oracle_phase_at(trace, robot, t):
    virtual = {BK: "Y", R: "Y", W: "Y", B: "B", G: "G"}
    phase = 0
    virt = "Y"
    for eff, color in _oracle_color_changes(trace, robot):
        if eff > t:
            break
        if virtual[color] != virt:
            phase += 1
            virt = virtual[color]
    return phase


def _oracle_phase_lag(trace):
    from robosync.geometry import is_visible

    problems = []
    initial = trace.scenario.initial_positions
    for i in range(trace.n):
        neighbors = [k for k in range(trace.n)
                     if k != i and is_visible(initial[i], initial[k])]
        for rec in trace.records[i]:
            mine = _oracle_phase_at(trace, i, rec.cycle.o)
            for k in neighbors:
                theirs = _oracle_phase_at(trace, k, rec.cycle.o)
                if abs(mine - theirs) > 1:
                    problems.append(
                        f"robot {i} at t={rec.cycle.o}: phase {mine} vs neighbour {k} phase {theirs}")
    return problems


def _oracle_lifecycle(trace):
    allowed = {BK: {R, W}, W: {BK}, R: {B}, B: {G}, G: {BK}}
    problems = []
    for i in range(trace.n):
        current = BK
        for rec in trace.records[i]:
            after = rec.color_after
            if after != current and after not in allowed[current]:
                problems.append(f"robot {i} cycle {rec.cycle.j}: {current}->{after}")
            went_red = current == BK and after == R
            if bool(rec.accepted) != went_red:
                problems.append(
                    f"robot {i} cycle {rec.cycle.j}: accepted={rec.accepted} "
                    f"but transition {current}->{after}")
            current = after
    return problems


def test_color_invariants_match_the_per_look_rebuild_on_mutated_traces():
    import random

    from robosync.scenarios import random_vicinity_scenario
    from robosync.scheduling import sample_async_schedule

    lagging = broken = 0
    for seed in range(40):
        scenario, spec = random_vicinity_scenario(seed)
        schedule = sample_async_schedule(seed, scenario.n, 40.0)
        trace = run_synchronized(scenario, spec, schedule, Adversary(seed, NONRIGID), "svp")
        assert check_neighbor_phase_lag(trace) == _oracle_phase_lag(trace) == []
        assert check_color_lifecycle(trace) == _oracle_lifecycle(trace) == []
        rng = random.Random(f"mutate:{seed}")
        records = all_records(trace)
        for _ in range(6):
            rec = rng.choice(records)
            if rng.random() < 0.75:
                rec.color_after = rng.choice(COLORS)
            else:
                rec.accepted = not rec.accepted
            phase_lag = check_neighbor_phase_lag(trace)
            lifecycle = check_color_lifecycle(trace)
            assert phase_lag == _oracle_phase_lag(trace)
            assert lifecycle == _oracle_lifecycle(trace)
            lagging += bool(phase_lag)
            broken += bool(lifecycle)
    # the comparisons cover non-empty problem lists of both checks
    assert lagging >= 20 and broken >= 20


def _luminous_runs():
    """svp and greedy runs over small random inputs and a few sweep seeds."""
    inputs = [(seed, *random_small_inputs(seed), 8.0) for seed in range(20)]
    inputs += [(seed, *random_vicinity_scenario(seed), 60.0) for seed in range(3)]
    for seed, scenario, spec, horizon in inputs:
        schedule = sample_async_schedule(seed, scenario.n, horizon)
        for machine in MACHINES:
            try:
                yield run_synchronized(scenario, spec, schedule, Adversary(seed, NONRIGID),
                                       machine)
            except SimulationError:
                continue


def test_a_rejected_record_builds_the_eager_snapshot_at_first_read():
    rejected = stale = sampled = 0
    for trace in _luminous_runs():
        records = all_records(trace)
        # first, since the snapshot oracle reads the samples of every move
        # in progress at a Look
        for rec in records:
            if not rec.accepted:
                # no stage of the run read them
                assert not {"visible_set", "snapshot_local", "mid_move_samples"} & vars(rec).keys()
                samples = stay_put_samples(trace, *rec.cycle.ident)
                sampled += bool(samples)
                # a shallow copy, as the core takes one, builds its own samples
                assert _core_record(rec, 1).mid_move_samples == samples
                assert "mid_move_samples" not in vars(rec)
                assert rec.mid_move_samples == samples  # its first read
        for rec in records:
            visible, points, colors = snapshot_oracle(trace, *rec.cycle.ident)
            if rec.accepted:
                assert (rec.visible_set, rec.snapshot_local, rec.snapshot_colors) == (
                    visible, points, colors)
                continue
            rejected += 1
            # the colors shown now, long after the Look, are not the ones it saw
            o = rec.cycle.o
            stale += any(color_at(trace, k, o) != color_at(trace, k, float("inf"))
                         for k in visible)
            stay = Route.stay_put(rec.pos_at_look)
            samples = stay_put_samples(trace, *rec.cycle.ident)
            # a shallow copy builds its own fields and keeps the colors it cleared
            core = _core_record(rec, 1)
            assert (core.visible_set, core.snapshot_local, core.snapshot_colors,
                    core.route_global) == (visible, points, None, stay)
            assert "visible_set" not in vars(rec) and "snapshot_local" not in vars(rec)
            assert rec.visible_set == visible  # its first read
            copied = replace(rec)
            assert (copied.visible_set, copied.snapshot_local, copied.snapshot_colors,
                    copied.route_global, copied.mid_move_samples) == (
                visible, points, colors, stay, samples)
            eager = replace(rec, visible_set=visible, snapshot_local=points,
                            snapshot_colors=colors, route_global=stay, mid_move_samples=samples)
            assert rec == eager and rec.to_json() == eager.to_json()
    assert rejected > 500 and stale > 400 and sampled > 300


def test_a_sweep_pass_rotates_no_rejected_snapshot_until_it_is_written(monkeypatch):
    calls = 0
    local = FrameSpec.local

    def counted(frame, dx, dy):
        nonlocal calls
        calls += 1
        return local(frame, dx, dy)

    runs = {}
    luminous, replay = experiments.run_synchronized, experiments.replay_plan
    monkeypatch.setattr(FrameSpec, "local", counted)
    monkeypatch.setattr(experiments, "run_synchronized",
                        lambda *args, **kwargs: runs.setdefault("luminous",
                                                                luminous(*args, **kwargs)))
    monkeypatch.setattr(experiments, "replay_plan",
                        lambda *args: runs.setdefault("replay", replay(*args)))
    assert experiments.synchronizer_end_to_end(0, horizon=200)["similar"]
    during = calls
    trace = runs["luminous"]
    # an accepted record's snapshot is built at its Look, so reading it rotates nothing
    accepted = sum(len(rec.snapshot_local) - 1 for rec in all_records(trace) if rec.accepted)
    rejected = sum(len(rec.visible_set) - 1 for rec in all_records(trace) if not rec.accepted)
    replayed = sum(len(rec.visible_set) - 1 for rec in all_records(runs["replay"]))
    assert during <= accepted + replayed
    trace.to_json()
    assert calls - during == rejected > 500
