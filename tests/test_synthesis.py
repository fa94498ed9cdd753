from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_trace, random_small_inputs
from oracles import analyze_oracle, candidate_search_oracle, similar_oracle
from test_checker import oracle_traces, random_trace, run_template
from test_engine import _QuarterSamples, _cell_fuzz_run, _tie_fuzz_run
from robosync import checker, synthesis
from robosync.algorithms import HALT, AlgorithmSpec, as_controller
from robosync.checker import ConcurrencyAnalysis, analyze, check_all
from robosync.engine import RIGID, Adversary, FrameSpec, Scenario, Simulation, simulate
from robosync.errors import InputError, SimulationError
from robosync.geometry import Point, same_points
from robosync.orders import topological_orders
from robosync.scheduling import make_fsync_schedule, sample_async_schedule
from robosync.scenarios import NECESSITY_TEMPLATES, greedy_trap_scenario, necessity_template
from robosync.synchronizer import extract_core, run_synchronized
from robosync.synthesis import (
    DEFAULT_ORDER_BUDGET,
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
    with pytest.raises(InputError, match="not consecutive"):  # out of cycle order
        build_plan(trace, [[(0, 2)], [(0, 1)]])


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


def _search_corpus():
    """The necessity templates at seeds 0..199 and the checker's oracle
    traces (flipped copies included)."""
    traces = []
    for name in sorted(NECESSITY_TEMPLATES):
        for seed in range(200):
            try:
                traces.append(run_template(name, seed))
            except SimulationError:
                pass
    return traces + oracle_traces()


def test_candidate_search_matches_the_whole_replay_oracle():
    # each budget meets every verdict; order budgets 1 and 2 reach the
    # inconclusive branch
    verdicts = set()
    for trace in _search_corpus():
        for order_budget in (DEFAULT_ORDER_BUDGET, 1, 2):
            got = candidate_search(trace, order_budget)
            assert got == candidate_search_oracle(trace, order_budget)
            verdicts.add((order_budget, got.verdict))
    assert len(verdicts) == 9


def _looks_until_the_first_difference(trace) -> tuple[int, int]:
    """The Looks the replay of the first class order runs up to and
    including its first one that differs from the source's, in the engine's
    order (by round, then robot), and the number of Looks in all."""
    analysis = analyze(trace)
    first = next(topological_orders(analysis.class_graph().succ, 100))
    classes = [analysis.classes[k] for k in first]
    replayed = replay_plan(trace.scenario, build_plan(trace, classes))
    looks = sorted((rec.cycle.o, rec.cycle.robot, rec.cycle.j)
                   for row in replayed.records for rec in row)
    for count, (_, i, j) in enumerate(looks, start=1):
        source, replay = trace.record(i, j), replayed.record(i, j)
        if not (same_points((source.pos_at_look,), (replay.pos_at_look,), SIMILARITY_EPS)
                and same_points(source.snapshot_local, replay.snapshot_local, SIMILARITY_EPS)):
            return count, len(looks)
    raise AssertionError("the first order replays similar")


@pytest.mark.parametrize("trace, first_look, looks", [
    (lambda: run_template("stationarity", 0), 2, 2),  # differs in round 1, the last
    (lambda: random_trace(5), 2, 6),                  # differs in round 1 of 6 Looks
], ids=["stationarity-0", "small-random-5"])
def test_the_search_stops_a_candidate_at_its_first_differing_look(monkeypatch, trace,
                                                                  first_look, looks):
    trace = trace()
    assert _looks_until_the_first_difference(trace) == (first_look, looks)
    routed = []
    route = synthesis._JudgingController.route

    def counted(self, robot, j, *args):
        routed.append((robot, j))
        return route(self, robot, j, *args)

    monkeypatch.setattr(synthesis._JudgingController, "route", counted)
    result = candidate_search(trace, order_budget=1)
    assert (result.verdict, result.orders_tried) == (INCONCLUSIVE, 1)
    assert len(routed) == first_look


def test_candidate_search_writes_no_replay_and_no_witness(monkeypatch):
    traces = _search_corpus()[::10]
    want = [candidate_search_oracle(trace) for trace in traces]
    assert {w.verdict for w in want} == {SIMILAR_FOUND, NONE_AMONG_CANDIDATES, INCONCLUSIVE}

    def refuse(*args):
        raise AssertionError("the candidate search called a whole-replay step")

    for name in ("build_plan", "replay_plan", "similar"):
        monkeypatch.setattr(synthesis, name, refuse)
    assert [candidate_search(trace) for trace in traces] == want


@pytest.mark.parametrize("template, built_for, verdict", [
    ("control", [True], SIMILAR_FOUND),                             # acyclic
    ("serializability", [True, False], NONE_AMONG_CANDIDATES),      # a firm cycle
])
def test_check_then_search_builds_the_class_graph_once(monkeypatch, template, built_for,
                                                       verdict):
    # successor tuples over all edges, and over firm edges only when there
    # is a cycle, each built and searched for a cycle once
    built, walked = [], []
    successors, find_cycle = checker._successors, checker.find_cycle

    def counted_successors(analysis, include_horizon):
        built.append(include_horizon)
        return successors(analysis, include_horizon)

    def counted_find_cycle(succ):
        walked.append(succ)
        return find_cycle(succ)

    monkeypatch.setattr(checker, "_successors", counted_successors)
    monkeypatch.setattr(checker, "find_cycle", counted_find_cycle)
    trace = run_template(template, 0)
    report = check_all(trace)
    assert candidate_search(trace).verdict == verdict
    assert built == built_for and len(walked) == len(built_for)
    succ = report.analysis.class_graph().succ
    assert walked[0] is succ and all(isinstance(row, tuple) for row in succ)


def _counted_builds(monkeypatch) -> list:
    """The analyses built from here on, one per relation pass."""
    built = []
    post_init = ConcurrencyAnalysis.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ConcurrencyAnalysis, "__post_init__", counted)
    return built


def test_necessity_experiment_analyzes_each_trace_once(monkeypatch):
    from robosync.experiments import necessity_experiment

    built = _counted_builds(monkeypatch)
    result = necessity_experiment("serializability", 4)
    assert result["seeds"] - result["errors"] > 0
    assert len(built) == result["seeds"] - result["errors"]


def test_check_then_search_builds_one_analysis_per_trace(monkeypatch):
    # the benchmark's order: the search reads the analysis `check_all` built
    built = _counted_builds(monkeypatch)
    run = necessity_template("serializability", 0)
    trace = simulate(run.scenario, run.schedule, as_controller(run.algorithm),
                     Adversary(0, run.adversary_mode))
    report = check_all(trace)
    candidate_search(trace)
    assert built == [report.analysis] and analyze(trace) is report.analysis
    # a replaced trace is a new trace: its relations are built afresh
    fresh = analyze(replace(trace))
    assert len(built) == 2 and fresh is built[1] and fresh is not report.analysis
    want = analyze_oracle(trace)
    for f in fields(ConcurrencyAnalysis):
        mine, theirs = getattr(fresh, f.name), getattr(want, f.name)
        if isinstance(theirs, dict):
            mine, theirs = list(mine.items()), list(theirs.items())
        assert mine == theirs, f.name


def _checked_and_searched(run):
    """The trace `run()` gives and its `check_all` report, after a candidate
    search of it, or None if the run raises SimulationError.  The budgets are
    small: these properties concern raising and replay, not search depth.
    The search gives what the whole-replay oracle gives: at these runs some
    candidates' replays raise, before or after their first differing Look."""
    try:
        trace = run()
    except SimulationError:
        return None
    report = check_all(trace, 2000)
    assert candidate_search(trace, order_budget=8, node_budget=2000) == \
        candidate_search_oracle(trace, order_budget=8, node_budget=2000)
    return trace, report


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 599), horizon=st.sampled_from([8.0, 20.0]))
def test_a_random_async_run_is_checked_searched_and_replayed(seed, horizon):
    # a run gives a trace or a SimulationError; checking and searching its
    # trace raise nothing; and a trace that passes all five checks replays
    # similar from its natural order (the sufficiency direction)
    scenario, spec = random_small_inputs(seed, max_robots=8)
    schedule = sample_async_schedule(seed, scenario.n, horizon)
    checked = _checked_and_searched(lambda: simulate(
        scenario, schedule, as_controller(spec), Adversary(seed, "nonrigid")))
    if checked is None:
        return
    trace, report = checked
    if report.all_pass:
        assert similar(trace, replay_plan(scenario, build_plan(trace, report.natural_order)))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 999), ties=st.booleans())
def test_a_tied_or_cell_boundary_run_is_checked_and_searched(seed, ties):
    # the engine tests' tie and cell fuzz runs: a trace or a SimulationError,
    # and no raise from the checks or the search.  A tie run that passes all
    # five checks replays similar from its natural order; a cell run may not,
    # as a natural-order replay can bring a pair into the visibility
    # threshold band at an instant the async run never had
    if ties:
        scenario, schedule, controller, mode = _tie_fuzz_run(seed)
        adversary = Adversary(seed, mode)
    else:
        scenario, schedule, controller = _cell_fuzz_run(seed)
        adversary = _QuarterSamples(seed, RIGID)
    checked = _checked_and_searched(
        lambda: Simulation(scenario, schedule, controller, adversary).run())
    if ties and checked is not None and checked[1].all_pass:
        trace, report = checked
        assert similar(trace, replay_plan(scenario, build_plan(trace, report.natural_order)))


def test_tie_fuzz_seed_111_refuses_an_order_that_leaves_a_robot_in_range():
    # robot 1's last cycle (1, 3) placed before robot 2's third cycle leaves
    # robot 1 resting 0.71 from robot 2's Look, which did not see it: the
    # first order fails clause 2 against robot 1's next, unrecorded cycle.
    # The fifth order passes both clauses and replays similar, as the
    # candidate search finds
    scenario, schedule, controller, mode = _tie_fuzz_run(111)
    trace = Simulation(scenario, schedule, controller, Adversary(111, mode)).run()
    analysis = analyze(trace)
    first = next(topological_orders(analysis.class_graph().succ, 2000))
    assert checker._natural_violations(trace, analysis.classes, first) == [
        {"cycle": [2, 3], "other": [1, 4], "clause": 2}]
    report = check_all(trace, 2000)
    assert report.all_pass
    assert similar(trace, replay_plan(scenario, build_plan(trace, report.natural_order)))
    assert candidate_search(trace, order_budget=8, node_budget=2000).to_json() == {
        "verdict": SIMILAR_FOUND, "orders_tried": 5}


def test_tie_fuzz_seed_128_fails_naturality():
    # no order passes both clauses once clause 2 tests where the replay
    # leaves a robot with no later cycle; skipping that robot passed this
    # trace, whose natural-order replay is not similar
    scenario, schedule, controller, mode = _tie_fuzz_run(128)
    trace = Simulation(scenario, schedule, controller, Adversary(128, mode)).run()
    report = check_all(trace, 2000)
    assert report.natural.to_json() == {"verdict": "fail", "witnesses": [
        {"cycle": [0, 3], "other": [1, 4], "clause": 2}]}
