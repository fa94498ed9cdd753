import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_trace, random_small_inputs
from oracles import (
    all_records,
    analyze_oracle,
    closure_partition,
    consistency_oracle,
    cycles_concurrent,
    cycles_overlap,
    happened_before,
    natural_violations,
    stationary_oracle,
)
from robosync import checker
from robosync.algorithms import HALT, AlgorithmSpec, as_controller
from robosync.checker import (
    FAIL,
    OPEN,
    PASS,
    ConcurrencyAnalysis,
    _natural_violations,
    analyze,
    check_all,
    check_consistent,
    check_pairwise_aligned,
    check_serializable,
    check_stationary,
    find_natural_sort,
)
from robosync.engine import Adversary, FrameSpec, Scenario, Trace, simulate
from robosync.errors import InputError, SimulationError
from robosync.geometry import Point
from robosync.orders import BudgetExhausted, topological_orders
from robosync.scenarios import (
    NECESSITY_TEMPLATES,
    greedy_trap_scenario,
    necessity_template,
    random_vicinity_scenario,
)
from robosync.scheduling import make_fsync_schedule, sample_async_schedule
from robosync.synchronizer import extract_core, run_synchronized


def trap_core():
    scenario, schedule, spec = greedy_trap_scenario()
    trace = run_synchronized(scenario, spec, schedule, Adversary(0, "rigid"), "greedy")
    core = extract_core(trace)
    return core


def run_template(name, seed):
    tpl = necessity_template(name, seed)
    return simulate(tpl.scenario, tpl.schedule, as_controller(tpl.algorithm),
                    Adversary(seed, tpl.adversary_mode))


# -- pairwise relations on the trap timeline ----------------------------------

def test_overlap_on_trap_timeline():
    core = trap_core()
    assert not cycles_overlap(core, (0, 1), (3, 1))   # disjoint intervals
    assert cycles_overlap(core, (0, 1), (1, 1))       # [0,1] meets [0.5,1.5]
    with pytest.raises(InputError):
        cycles_overlap(core, (0, 1), (0, 1))


def test_concurrency_on_trap_timeline():
    core = trap_core()
    assert cycles_concurrent(core, (0, 1), (0, 1))    # same cycle
    assert cycles_concurrent(core, (0, 1), (1, 1))
    assert cycles_concurrent(core, (1, 1), (2, 1))
    assert cycles_concurrent(core, (2, 1), (3, 1))
    assert not cycles_concurrent(core, (0, 1), (3, 1))
    assert not cycles_concurrent(core, (3, 1), (4, 1))


def test_happened_before_cases():
    core = trap_core()
    # case 3 on the trap: the climber's cycle precedes the fourth robot's
    held, horizon_only = happened_before(core, (0, 1), (3, 1))
    assert held and not horizon_only
    # a concurrent pair is never ordered
    for a, b in [((0, 1), (1, 1)), ((1, 1), (2, 1))]:
        assert not happened_before(core, a, b)[0]
        assert not happened_before(core, b, a)[0]
    two = build_trace([(0, 0)], [[
        {"t": (0.0, 0.25, 0.5)}, {"t": (1.0, 1.25, 1.5)}]])
    assert happened_before(two, (0, 1), (0, 2)) == (True, False)
    assert not happened_before(two, (0, 2), (0, 1))[0]


def test_hb_case2_flags_missing_next_cycle():
    # the second robot approaches after the first one's only look, so the
    # observation is one-sided and the edge hinges on an unseen next cycle
    trace = build_trace([(0, 0), (2, 0)], [
        [{"t": (0.0, 0.25, 0.5)}],
        [{"t": (1.0, 1.25, 1.5), "pos": (2, 0), "after": (0.5, 0)},
         {"t": (6.0, 7.0, 8.0), "pos": (0.5, 0), "sees": {0}}],
    ])
    held, horizon_only = happened_before(trace, (0, 1), (1, 2))
    assert held and horizon_only
    # with a later cycle of robot 0 bounding the window, the edge is firm
    bounded = build_trace([(0, 0), (2, 0)], [
        [{"t": (0.0, 0.25, 0.5)}, {"t": (10.0, 10.25, 10.5), "sees": {1}}],
        [{"t": (1.0, 1.25, 1.5), "pos": (2, 0), "after": (0.5, 0)},
         {"t": (6.0, 7.0, 8.0), "pos": (0.5, 0), "sees": {0}}],
    ])
    assert happened_before(bounded, (0, 1), (1, 2)) == (True, False)


def test_classes_on_trap_and_singletons():
    core = trap_core()
    classes = analyze(core).classes
    assert classes == [[(0, 1), (1, 1), (2, 1), (3, 1)], [(4, 1)]]
    lonely = build_trace([(0, 0), (5, 0), (10, 0)], [
        [{"t": (0.0, 0.25, 0.75)}],
        [{"t": (0.0, 0.25, 0.75)}],
        [{"t": (0.0, 0.25, 0.75)}],
    ])
    assert analyze(lonely).classes == [[(0, 1)], [(1, 1)], [(2, 1)]]


def test_stationary_check():
    assert check_stationary(analyze(trap_core())).verdict == PASS
    for seed in range(10):
        trace = run_template("stationarity", seed)
        result = check_stationary(analyze(trace))
        saw_mover = 1 in trace.record(0, 1).visible_set
        assert (result.verdict == FAIL) == saw_mover
        if saw_mover:
            assert result.witnesses[0] == {"observer": [0, 1], "mover": [1, 1]}


def test_stationary_passes_when_mover_is_out_of_reach():
    # same timing shape as the violation template, but the pair starts three
    # units apart and the short climb never enters the observer's range
    from robosync.algorithms import SCRIPTED, AlgorithmSpec, ScriptEntry
    from robosync.engine import FrameSpec, Scenario
    from robosync.geometry import Point
    from robosync.scheduling import Cycle, Schedule

    scenario = Scenario([Point(0, 0), Point(3, 0)], [FrameSpec()] * 2, 0.25)
    spec = AlgorithmSpec(SCRIPTED, script=(
        ScriptEntry(snapshot=(Point(0, 0),), route=(Point(0, 0), Point(0, 1.5))),
    ))
    schedule = Schedule(n=2, horizon=3.0, robots=[
        [Cycle(0, 1, 1.0, 2.0, 2.25)],
        [Cycle(1, 1, 0.0, 0.25, 1.75)],
    ])
    for seed in range(10):
        trace = simulate(scenario, schedule, as_controller(spec),
                         Adversary(seed, "nonrigid"))
        assert check_stationary(analyze(trace)).verdict == PASS


def test_classes_of_synchronous_round_follow_visibility_components():
    from robosync.algorithms import HALT, AlgorithmSpec
    from robosync.engine import FrameSpec, Scenario
    from robosync.geometry import Point
    from robosync.scheduling import make_fsync_schedule

    # two visibility components: a pair in range and a distant singleton
    scenario = Scenario([Point(0, 0), Point(0.5, 0), Point(5, 0)],
                        [FrameSpec()] * 3, 0.1)
    schedule = make_fsync_schedule(2, 3)
    trace = simulate(scenario, schedule, as_controller(AlgorithmSpec(HALT)),
                     Adversary(0, "rigid"))
    classes = analyze(trace).classes
    assert classes == [
        [(0, 1), (1, 1)], [(2, 1)],
        [(0, 2), (1, 2)], [(2, 2)],
    ]


def test_pairwise_alignment_check():
    for seed in range(12):
        trace = run_template("pairwise-alignment", seed)
        result = check_pairwise_aligned(analyze(trace))
        # violation appears exactly when the retreating robot still saw the
        # long-pending one at its second look
        saw = 0 in trace.record(1, 2).visible_set
        assert (result.verdict == FAIL) == saw
        assert check_stationary(analyze(trace)).verdict == PASS
        assert check_consistent(trace, analyze(trace)).verdict == PASS


def test_consistency_check_on_trap():
    core = trap_core()
    result = check_consistent(core, analyze(core))
    assert result.verdict == FAIL
    assert {"pair": [[0, 1], [3, 1]], "clause": 1} in result.witnesses
    solo = build_trace([(0, 0)], [[{"t": (0.0, 0.25, 0.5)}]])
    assert check_consistent(solo, analyze(solo)).verdict == PASS


def test_serializability_two_cycle():
    trace = run_template("serializability", 0)
    assert check_stationary(analyze(trace)).verdict == PASS
    assert check_pairwise_aligned(analyze(trace)).verdict == PASS
    assert check_consistent(trace, analyze(trace)).verdict == PASS
    result = check_serializable(analyze(trace))
    assert result.verdict == FAIL
    cycle = result.witnesses[0]["class_cycle"]
    assert len(cycle) >= 3 and cycle[0] == cycle[-1]
    report = check_all(trace)
    assert report.natural.verdict == FAIL


def test_serializability_chain_passes():
    chain = build_trace([(0, 0)], [[
        {"t": (0.0, 0.25, 0.5)}, {"t": (1.0, 1.25, 1.5)}, {"t": (2.0, 2.25, 2.5)}]])
    assert check_serializable(analyze(chain)).verdict == PASS


def test_open_at_horizon_two_cycle():
    # directly constructed records: one concurrency class spans the other's
    # look via pending windows, and both precedence edges between the classes
    # are one-sided observations whose bounding move starts lie beyond the
    # prefix.  The loop is reported open, not a firm failure.
    trace = build_trace(
        [(0, 0), (0.9, 1.1), (0, 1), (1.7, 0.5), (1, 0)], [
            [{"t": (0.0, 20.0, 20.5), "sees": {2, 4}}],
            [{"t": (21.0, 22.0, 22.5), "sees": {2}}],
            [{"t": (19.0, 19.25, 19.5), "sees": {0}}],
            [{"t": (23.0, 24.0, 24.5), "sees": {4, 1}}],
            [{"t": (19.75, 40.0, 40.5), "sees": {0, 3}}],
        ])
    classes = analyze(trace).classes
    assert classes == [[(0, 1), (2, 1), (3, 1), (4, 1)], [(1, 1)]]
    assert happened_before(trace, (2, 1), (1, 1)) == (True, True)
    assert happened_before(trace, (1, 1), (3, 1)) == (True, True)
    result = check_serializable(analyze(trace))
    assert result.verdict == OPEN
    report = check_all(trace)
    assert report.consistent.verdict == PASS
    assert report.natural.verdict == OPEN
    assert find_natural_sort(trace, analyze(trace)) == (report.natural, None)


def _horizon_self_loop_trace():
    """Seed 191 of the small random inputs at async horizon 20: class 8's only
    within-class precedence pair rests on robot 1's next move start, which
    lies past the prefix, and no longer class cycle is firm."""
    scenario, spec = random_small_inputs(191)
    return simulate(scenario, sample_async_schedule(191, scenario.n, 20.0),
                    as_controller(spec), Adversary(191, "nonrigid"))


def test_a_self_loop_on_horizon_only_pairs_is_open_at_horizon():
    trace = _horizon_self_loop_trace()
    analysis = analyze(trace)
    assert [p for p in analysis.hb_pairs
            if analysis.class_of[p[0]] == analysis.class_of[p[1]]] == [((0, 6), (1, 6), True)]
    assert analysis.self_loops == {8: False}
    result = check_serializable(analysis)
    assert (result.verdict, result.witnesses) == (OPEN, [{"class_cycle": [8, 8]}])
    report = check_all(trace)
    assert report.natural.to_json() == {
        "verdict": OPEN, "witnesses": [{"reason": "precedence loop open at horizon"}]}


@pytest.mark.parametrize("self_loops, class_edges, verdict, class_cycle", [
    ({0: False, 2: True}, {}, FAIL, [2, 2]),
    ({0: False}, {(1, 2): True, (2, 1): True}, FAIL, [1, 2, 1]),
    ({0: False}, {(1, 2): True, (2, 1): False}, OPEN, [0, 0]),
    ({}, {(1, 2): True, (2, 1): False}, OPEN, [1, 2, 1]),
    ({}, {(1, 2): True}, PASS, None),
])
def test_a_self_loop_fails_only_on_a_firm_within_class_pair(self_loops, class_edges,
                                                             verdict, class_cycle):
    # three classes and only their graph: a firm self-loop fails first, then
    # a firm longer cycle; a horizon-only self-loop is open, named ahead of a
    # longer cycle
    analysis = ConcurrencyAnalysis([], [[], [], []], {}, set(), [], [], class_edges,
                                   self_loops, [])
    result = check_serializable(analysis)
    assert result.verdict == verdict
    assert result.witnesses == ([{"class_cycle": class_cycle}] if class_cycle else [])


@pytest.mark.parametrize("trace, verdict, reason", [
    (_horizon_self_loop_trace, OPEN, "precedence loop open at horizon"),
    (lambda: run_template("serializability", 0), FAIL, "class graph is cyclic"),  # [0, 1, 0]
    (lambda: run_template("consistency", 0), FAIL, "class graph is cyclic"),      # [0, 0]
], ids=["horizon-self-loop", "firm-cycle", "firm-self-loop"])
def test_natural_sort_of_a_class_graph_with_a_loop(trace, verdict, reason):
    # called on its own, the search reports a loop as `check_all` does: a
    # loop resting on beyond-prefix bounds alone stays open
    trace = trace()
    natural, order = find_natural_sort(trace, analyze(trace))
    assert natural.to_json() == {"verdict": verdict, "witnesses": [{"reason": reason}]}
    assert order is None
    assert check_all(trace).natural == natural


def lattice16_halt_trace():
    """Sixteen halt robots on a 4x4 lattice of spacing 0.6, about 500 cycles."""
    scenario = Scenario([Point(0.6 * (k % 4), 0.6 * (k // 4)) for k in range(16)],
                        [FrameSpec()] * 16, 0.25)
    return simulate(scenario, sample_async_schedule(0, 16, 100.0),
                    as_controller(AlgorithmSpec(HALT)), Adversary(0, "nonrigid"))


def test_a_firm_self_loop_builds_no_class_graph(monkeypatch):
    # serializability fails on a firm self-loop before any walk of the class
    # graph, and the naturality search does not start
    def refuse(*args):
        raise AssertionError("the class graph was walked")

    monkeypatch.setattr(checker, "find_cycle", refuse)
    monkeypatch.setattr(checker, "topological_orders", refuse)
    trace = lattice16_halt_trace()
    report = check_all(trace)
    analysis = report.analysis
    assert len(analysis.cycles) > 400 and True in analysis.self_loops.values()
    assert report.serializable.verdict == FAIL and report.natural.verdict == FAIL
    assert getattr(analysis, "_class_graph", None) is None


def test_natural_sort_single_class_is_trivial():
    solo = build_trace([(0, 0)], [[{"t": (0.0, 0.25, 0.5)}]])
    natural, order = find_natural_sort(solo, analyze(solo))
    assert natural.verdict == PASS
    assert order == [[(0, 1)]]


def test_natural_sort_none_when_reentry_unseen():
    # records constructed directly: robot 1 approaches to within range of a
    # robot whose only look never saw it, in both feasible orders
    trace = build_trace([(0, 0), (5, 0)], [
        [{"t": (3.0, 4.0, 5.0), "pos": (0, 0)}],
        [{"t": (0.0, 1.0, 2.0), "pos": (0.5, 0), "after": (0.5, 0)},
         {"t": (6.0, 7.0, 8.0), "pos": (0.5, 0), "sees": {0}}],
    ])
    natural, order = find_natural_sort(trace, analyze(trace))
    assert natural.verdict == FAIL and order is None
    assert natural.witnesses[0]["clause"] == 2


def _seen_look_placed_later(moves):
    """Robot 3 (Look at 1.9) joins robot 0's class through robot 1; robot 0
    saw robot 2 and ended before robot 2's Look at 1.5, so the only order
    places robot 2's cycle after the class, though robot 3 saw robot 2 and
    Looked later (clause 1).  `moves` gives robots their destinations."""
    rows = [
        [{"t": (0.0, 1.0, 1.1), "sees": {1, 2}}],
        [{"t": (0.9, 2.0, 2.1), "sees": {3}}],
        [{"t": (1.5, 1.95, 2.5)}],
        [{"t": (1.9, 2.2, 2.3), "sees": {2}}],
    ]
    for i, after in moves.items():
        rows[i][0]["after"] = after
    trace = build_trace([(0, 0), (-0.9, 0), (0.9, 0), (0, 0.3)], rows)
    analysis = analyze(trace)
    assert analysis.classes == [[(0, 1), (1, 1), (3, 1)], [(2, 1)]]
    assert analysis.class_edges == {(0, 1): True}
    natural, order = find_natural_sort(trace, analysis)
    assert natural.verdict == FAIL and order is None
    return natural.witnesses


def test_natural_sort_fails_when_a_seen_look_is_placed_later():
    # records constructed directly; robot 3 rests 0.3 from robot 0's Look
    # unseen, so clause 2 against its next, unrecorded cycle comes first
    assert _seen_look_placed_later({}) == [{"cycle": [0, 1], "other": [3, 2], "clause": 2}]


def test_natural_sort_meets_clause_1_once_the_class_ends_out_of_range():
    # the same Looks, but robots 0, 1 and 3 end out of each other's range
    witnesses = _seen_look_placed_later({0: (0, -2), 1: (-2, 0), 3: (0, 1.5)})
    assert witnesses == [{"cycle": [3, 1], "other": [2, 1], "clause": 1}]


def test_natural_sort_budget_inconclusive():
    lonely = build_trace([(0, 0), (5, 0), (10, 0)], [
        [{"t": (0.0, 0.25, 0.75)}],
        [{"t": (0.0, 0.25, 0.75)}],
        [{"t": (0.0, 0.25, 0.75)}],
    ])
    analysis = analyze(lonely)
    assert find_natural_sort(lonely, analysis, node_budget=1)[0].verdict == OPEN
    assert find_natural_sort(lonely, analysis)[0].verdict == PASS


def test_check_all_on_trap_core():
    report = check_all(trap_core())
    assert report.stationary.verdict == PASS
    assert report.aligned.verdict == PASS
    assert report.consistent.verdict == FAIL
    assert not report.all_pass


def test_check_all_empty_trace():
    empty = build_trace([(0, 0)], [[]])
    report = check_all(empty)
    assert report.all_pass
    assert report.natural_order == [] and report.to_json()["natural_order"] == []


# -- randomized structural properties ------------------------------------------

def random_trace(seed):
    scenario, spec = random_small_inputs(seed)
    schedule = sample_async_schedule(seed, scenario.n, 8.0)
    return simulate(scenario, schedule, as_controller(spec),
                    Adversary(seed, "nonrigid"))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_union_find_matches_closure_oracle(seed):
    try:
        trace = random_trace(seed)
    except SimulationError:
        return  # collisions/degeneracies are resampled in the acceptance suite
    assert analyze(trace).classes == closure_partition(trace)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_hb_implies_not_concurrent(seed):
    try:
        trace = random_trace(seed)
    except SimulationError:
        return
    analysis = analyze(trace)
    for a, b, _ in analysis.hb_pairs:
        assert (min(a, b), max(a, b)) not in analysis.concurrent


def fsync_trace(seed):
    """Every robot Looks at the same instants, so Look times tie exactly."""
    scenario, spec = random_small_inputs(seed)
    return simulate(scenario, make_fsync_schedule(4, scenario.n), as_controller(spec),
                    Adversary(seed, "nonrigid"))


def lattice_halt_trace():
    """Nine robots on a 3x3 lattice of spacing 0.6, about 300 cycles."""
    scenario = Scenario([Point(0.6 * (k % 3), 0.6 * (k // 3)) for k in range(9)],
                        [FrameSpec()] * 9, 0.25)
    return simulate(scenario, sample_async_schedule(0, 9, 100.0),
                    as_controller(AlgorithmSpec(HALT)), Adversary(0, "nonrigid"))


def loaded_lattice_halt_trace():
    """The lattice halt trace through its JSON text, as `robosync check`
    reads it: its snapshots and samples are built only if read."""
    return Trace.from_json(json.loads(json.dumps(lattice_halt_trace().to_json())))


CONDITIONS = ["stationary", "pairwise_aligned", "consistent", "serializable", "natural"]


@pytest.mark.parametrize("trace", [trap_core, lattice_halt_trace])
def test_the_report_names_its_five_conditions_once(trace):
    report = check_all(trace())
    assert list(report.results) == CONDITIONS
    assert report.to_json()["verdicts"] == \
        {name: r.to_json() for name, r in report.results.items()}
    assert report.all_pass == all(r.ok for r in report.results.values())


def tied_trace(seed):
    """Hand-built records on whole-number times with random visible sets, so
    Looks, move starts and move ends of distinct robots often coincide."""
    rng = random.Random(f"tied:{seed}")
    n = rng.randint(2, 5)
    rows = []
    for i in range(n):
        row, t = [], rng.randint(0, 2)
        for _ in range(rng.randint(1, 5)):
            o = t
            s = o + rng.randint(1, 2)
            f = s + rng.randint(1, 2)
            row.append({"t": (float(o), float(s), float(f)),
                        "sees": {k for k in range(n) if rng.random() < 0.6}})
            t = f + rng.randint(1, 4)
        rows.append(row)
    return build_trace([(3.0 * i, 0.0) for i in range(n)], rows)


def svp_core_trace(seed):
    scenario, spec = random_small_inputs(seed)
    schedule = sample_async_schedule(seed, scenario.n, 8.0)
    return extract_core(run_synchronized(scenario, spec, schedule,
                                         Adversary(seed, "nonrigid"), "svp"))


def flipped_visibility(trace, seed):
    """A copy of the trace with one other robot added to or removed from the
    visible set of about a third of its records."""
    rng = random.Random(f"flip:{seed}")
    rows = []
    for row in trace.records:
        out = []
        for rec in row:
            others = [k for k in range(trace.n) if k != rec.cycle.robot]
            if others and rng.random() < 0.35:
                rec = dataclasses.replace(
                    rec, visible_set=rec.visible_set ^ {rng.choice(others)})
            out.append(rec)
        rows.append(out)
    return dataclasses.replace(trace, records=rows)


def oracle_traces():
    """Small random plain runs and svp cores, FSYNC and tied-time traces,
    every necessity template at a few seeds and one lattice halt trace, and
    a copy of each with flipped visible-set entries."""
    traces = []
    for seed in range(40):
        for run in (random_trace, svp_core_trace):
            try:
                traces.append(run(seed))
            except SimulationError:
                pass
    for seed in range(10):
        traces.append(fsync_trace(seed))
    for seed in range(100):
        traces.append(tied_trace(seed))
    for name in sorted(NECESSITY_TEMPLATES):
        for seed in range(4):
            try:
                traces.append(run_template(name, seed))
            except SimulationError:
                pass
    traces.append(lattice_halt_trace())
    traces.append(loaded_lattice_halt_trace())
    return traces + [flipped_visibility(t, seed) for seed, t in enumerate(traces)]


def test_relation_pass_matches_pairwise_oracles():
    for trace in oracle_traces():
        analysis = analyze(trace)
        ids = [r.cycle.ident for r in all_records(trace)]
        pairs = [(a, b) for x, a in enumerate(ids) for b in ids[x + 1:]]
        assert analysis.concurrent == {
            (a, b) for a, b in pairs if cycles_concurrent(trace, a, b)}
        assert analysis.misaligned == [
            (a, b) for a, b in pairs
            if a[0] != b[0] and cycles_overlap(trace, a, b)
            and not cycles_concurrent(trace, a, b)]
        expected = []
        for a in ids:
            for b in ids:
                if a != b:
                    holds, horizon_only = happened_before(trace, a, b)
                    if holds:
                        expected.append((a, b, horizon_only))
        assert analysis.hb_pairs == expected
        assert check_stationary(analyze(trace)).witnesses == stationary_oracle(trace)


def test_a_loaded_trace_gives_the_relations_of_its_run():
    # `check` analyzes a loaded trace, whose snapshots and samples are unread
    loaded = loaded_lattice_halt_trace()
    analysis = analyze(loaded)
    assert analysis == analyze(lattice_halt_trace())
    assert analysis.classes == closure_partition(loaded)
    assert max(map(len, analysis.classes)) > 2


def analyze_oracle_traces():
    """`oracle_traces()`, with its flipped-visibility copies; every necessity
    template at adversary seeds 0..199; plain runs of `random_small_inputs`
    at async horizons 8 and 20; the svp cores of the synchronizer sweep's
    seeds 0..19; and a halt run on each of the three lattice sizes of the
    grid benchmark (spacing 0.6; n=16 at horizons 100 and 200, n=32 at 100)."""
    yield from oracle_traces()
    for name in sorted(NECESSITY_TEMPLATES):
        for seed in range(200):
            try:
                yield run_template(name, seed)
            except SimulationError:
                pass
    for horizon in (8.0, 20.0):
        for seed in range(60):
            scenario, spec = random_small_inputs(seed)
            try:
                yield simulate(scenario, sample_async_schedule(seed, scenario.n, horizon),
                               as_controller(spec), Adversary(seed, "nonrigid"))
            except SimulationError:
                pass
    for seed in range(20):
        scenario, spec = random_vicinity_scenario(seed)
        yield extract_core(run_synchronized(
            scenario, spec, sample_async_schedule(seed, scenario.n, 200.0),
            Adversary(seed, "nonrigid"), "svp"))
    for n, cols, horizon in ((16, 4, 100.0), (16, 4, 200.0), (32, 8, 100.0)):
        scenario = Scenario([Point(0.6 * (k % cols), 0.6 * (k // cols)) for k in range(n)],
                            [FrameSpec()] * n, 0.25)
        yield simulate(scenario, sample_async_schedule(0, n, horizon),
                       as_controller(AlgorithmSpec(HALT)), Adversary(0, "nonrigid"))


def test_relation_pass_matches_the_bisect_per_relation_oracle():
    # every field equal, in the same order: lists as lists, dicts item by item
    traces = 0
    for trace in analyze_oracle_traces():
        got, want = analyze(trace), analyze_oracle(trace)
        for f in dataclasses.fields(ConcurrencyAnalysis):
            mine, theirs = getattr(got, f.name), getattr(want, f.name)
            if isinstance(theirs, dict):
                mine, theirs = list(mine.items()), list(theirs.items())
            assert mine == theirs, (f.name, [r.cycle.ident for r in all_records(trace)[:4]])
        traces += 1
    assert traces > 1500


def test_consistency_check_matches_the_pair_oracle():
    clauses = set()
    for trace in oracle_traces():
        analysis = analyze(trace)
        result = check_consistent(trace, analysis)
        assert result == consistency_oracle(trace, analysis)
        clauses.update(w["clause"] for w in result.witnesses)
    assert clauses == {1, 2, 3}


def test_consistency_check_reads_each_record_once(monkeypatch):
    # 296 cycles in classes of up to 10 members, 622 pairs inside classes; a
    # record lookup per pair makes 1,706
    trace = lattice_halt_trace()
    analysis = analyze(trace)
    assert max(len(cls) for cls in analysis.classes) > 2
    calls = []
    record = Trace.record

    def counted(self, robot, j):
        calls.append((robot, j))
        return record(self, robot, j)

    monkeypatch.setattr(Trace, "record", counted)
    check_consistent(trace, analysis)
    assert len(calls) <= len(analysis.cycles)


def test_witnesses_and_classes_share_the_analysis_cycle_id_lists():
    # one JSON list per cycle id: every witness and report naming a cycle
    # holds that list, not a copy, and the analysis's fields and `==` ignore it:
    # a replaced trace's analysis is a separate build, with lists of its own
    trace = loaded_lattice_halt_trace()
    report = check_all(trace)
    analysis = report.analysis
    named = {"stationary": [], "aligned": [], "consistent": [], "classes": []}
    for w in report.stationary.witnesses:
        named["stationary"] += [w["observer"], w["mover"]]
    for w in report.aligned.witnesses:
        named["aligned"] += w["pair"]
    for w in report.consistent.witnesses:
        named["consistent"] += w["pair"]
    for cls in report.to_json()["classes"]:
        named["classes"] += cls
    assert all(named.values())
    for lists in named.values():
        assert all(analysis.id_lists.get(tuple(c)) is c for c in lists)
    assert len({id(c) for lists in named.values() for c in lists}) == len(analysis.cycles)
    assert "id_lists" not in {f.name for f in dataclasses.fields(ConcurrencyAnalysis)}
    again = analyze(dataclasses.replace(trace))
    assert again is not analysis and again.id_lists is not analysis.id_lists
    assert analysis == again


def test_natural_violations_match_the_scan_oracle():
    clauses = set()
    orders = 0
    for trace in oracle_traces():
        analysis = analyze(trace)
        if analysis.self_loops:
            continue  # find_natural_sort never searches these
        try:
            for order in topological_orders(analysis.class_graph().succ, 2000):
                found = _natural_violations(trace, analysis.classes, order)
                assert found == natural_violations(trace, analysis.classes, order)
                clauses.update(v["clause"] for v in found)
                orders += 1
        except BudgetExhausted:
            pass
    assert clauses == {1, 2} and orders > 1000
