"""Experiment drivers: counterexample reproductions, the randomized necessity
sweeps, and the end-to-end synchronizer pipeline on random clique scenarios.

These are the work functions behind the `repro` and `necessity` subcommands
and the acceptance suite; each returns a plain dict so callers can serialize
or assert on it directly.
"""
from __future__ import annotations

from .algorithms import (
    as_controller,
    is_vicinity_preserving_run,
    validate_vicinity_scenario,
)
from .checker import FAIL, check_all
from .engine import Adversary, NONRIGID, RIGID, simulate
from .errors import InputError, SimulationError
from .geometry import squared_distance
from .scheduling import (
    ASYNC_FAIRNESS_WINDOW,
    check_fairness_prefix,
    make_fsync_schedule,
    sample_async_schedule,
)
from .scenarios import (
    TEMPLATE_TARGET_FIELD,
    greedy_trap_scenario,
    necessity_template,
    random_vicinity_scenario,
    staggered_round_schedule,
)
from .synchronizer import (
    SVP,
    check_color_lifecycle,
    check_neighbor_phase_lag,
    extract_core,
    run_synchronized,
)
from .synthesis import (
    NONE_AMONG_CANDIDATES,
    SIMILAR_FOUND,
    build_plan,
    candidate_search,
    replay_plan,
    similar,
)

DIST_EPS = 1e-9
COLORBASED_WARMUP_ROUNDS = 12  # fully synchronous rounds tried before the splice


def _check(checks: list, name: str, ok: bool, detail=None) -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _repro_result(name: str, trace, checks: list, pair_check: str, **extra) -> dict:
    """The end both reproductions share: the accepted core must fail
    consistency with (robot 0 cycle 1, robot 3 cycle 1) among its witnesses."""
    report = check_all(extract_core(trace))
    _check(checks, "core consistency fails", report.consistent.verdict == FAIL)
    witness_pairs = [w["pair"] for w in report.consistent.witnesses]
    _check(checks, pair_check, [[0, 1], [3, 1]] in witness_pairs, witness_pairs)
    return {"schema": 1, "name": name, **extra, "ok": all(c["ok"] for c in checks),
            "checks": checks, "report": report.to_json()}


def repro_greedy_trap() -> dict:
    """Re-run the five-robot trap under the greedy machine and verify the
    narrative: four acceptances, the broken edge at t=3/2, and the core
    consistency failure with the expected witness pair."""
    scenario, schedule, spec = greedy_trap_scenario()
    trace = run_synchronized(scenario, spec, schedule, Adversary(0, RIGID),
                             machine="greedy")
    checks: list = []
    for robot in range(4):
        _check(checks, f"cycle 1 of robot {robot} accepted",
               trace.record(robot, 1).accepted is True)

    p0 = trace.record(0, 1).pos_after_move  # robot 0 has arrived by t=3/2
    p3 = trace.record(3, 1).pos_at_look  # robot 3 has not yet left
    sq = squared_distance(p0, p3)
    _check(checks, "squared distance robot0-robot3 at t=3/2 is 25/16",
           abs(sq - 25.0 / 16.0) <= DIST_EPS, sq)
    _check(checks, "robot 0 out of robot 3's range at t=3/2", sq > 1.0, sq)

    return _repro_result("greedy-lemma", trace, checks,
                         "witness pair is (robot0 cycle1, robot3 cycle1)")


def repro_colorbased(machine: str = SVP) -> dict:
    """Warm any color-based machine up under full synchrony until its first
    all-accept round, splice the staggered trap timing into that round, and
    verify the same core inconsistency appears."""
    scenario, _, spec = greedy_trap_scenario()
    warm = run_synchronized(scenario, spec, make_fsync_schedule(COLORBASED_WARMUP_ROUNDS, 5),
                            Adversary(0, RIGID), machine=machine)
    j0 = None
    for j in range(1, COLORBASED_WARMUP_ROUNDS + 1):
        if all(warm.record(i, j).accepted for i in range(5)):
            j0 = j
            break
    checks: list = []
    _check(checks, "a fully synchronous all-accept round exists", j0 is not None, j0)
    if j0 is None:
        return {"schema": 1, "name": "colorbased-theorem", "machine": machine,
                "ok": False, "checks": checks}
    _check(checks, "no robot accepts before the all-accept round",
           all(not warm.record(i, j).accepted
               for i in range(5) for j in range(1, j0)))

    spliced = staggered_round_schedule(5, prefix_rounds=j0 - 1)
    trace = run_synchronized(scenario, spec, spliced, Adversary(0, RIGID),
                             machine=machine)
    for robot in range(4):
        _check(checks, f"staggered cycle of robot {robot} accepted",
               trace.record(robot, j0).accepted is True)
    return _repro_result("colorbased-theorem", trace, checks,
                         "witness pair is (robot0, robot3)", machine=machine, j0=j0)


# defaults of `necessity_experiment` and the CLI
NECESSITY_ORDER_BUDGET = 256
NECESSITY_NODE_BUDGET = 200_000


def necessity_experiment(template: str, num_seeds: int,
                         order_budget: int = NECESSITY_ORDER_BUDGET,
                         node_budget: int = NECESSITY_NODE_BUDGET) -> dict:
    """Monte Carlo sweep: simulate the template under fresh adversary seeds,
    record whether its target condition actually failed, and search for a
    similar normal-form replay either way.

    The tabulated rate of found-replays among violating runs is the
    finite-sample reflection of the almost-sure impossibility; it is not a
    proof of nonexistence."""
    counts = {
        "seeds": num_seeds, "errors": 0, "materialized": 0,
        "found_given_violation": 0, "none_given_violation": 0,
        "inconclusive_given_violation": 0,
        "clean": 0, "clean_check_pass": 0, "clean_found": 0,
    }
    for seed in range(num_seeds):
        run = necessity_template(template, seed)
        adversary = Adversary(seed, run.adversary_mode)
        try:
            trace = simulate(run.scenario, run.schedule,
                             as_controller(run.algorithm), adversary)
        except SimulationError:
            counts["errors"] += 1
            continue
        report = check_all(trace, node_budget)
        if run.target is None:
            violated = not report.all_pass
        else:
            field = TEMPLATE_TARGET_FIELD[run.target]
            result = {"stationary": report.stationary, "aligned": report.aligned,
                      "consistent": report.consistent,
                      "serializable": report.serializable}[field]
            violated = result.verdict == FAIL
        search = candidate_search(trace, report.analysis, order_budget=order_budget,
                                  node_budget=node_budget)
        if violated:
            counts["materialized"] += 1
            if search.verdict == SIMILAR_FOUND:
                counts["found_given_violation"] += 1
            elif search.verdict == NONE_AMONG_CANDIDATES:
                counts["none_given_violation"] += 1
            else:
                counts["inconclusive_given_violation"] += 1
        else:
            counts["clean"] += 1
            counts["clean_check_pass"] += int(report.all_pass)
            counts["clean_found"] += int(search.verdict == SIMILAR_FOUND)
    materialized = counts["materialized"]
    return {
        "schema": 1,
        "template": template,
        **counts,
        "found_rate_given_violation": (
            counts["found_given_violation"] / materialized if materialized else None),
        "inconclusive_rate": (
            counts["inconclusive_given_violation"] / materialized if materialized else None),
    }


def synchronizer_end_to_end(seed: int, horizon: float = 200.0, machine: str = SVP,
                            synthesize: bool = True) -> dict:
    """Full pipeline on one random clique-cluster scenario: luminous run,
    color invariants, core extraction, the five checks, plan construction,
    rigid replay, and the similarity comparison."""
    scenario, spec = random_vicinity_scenario(seed)
    vicinity = validate_vicinity_scenario(scenario, spec)
    if not vicinity:
        raise InputError(f"sampled scenario is not clique-clustered: {vicinity.reasons}")
    schedule = sample_async_schedule(seed, scenario.n, horizon)
    trace = run_synchronized(scenario, spec, schedule, Adversary(seed, NONRIGID),
                             machine=machine)
    acceptance = [sum(1 for rec in row if rec.accepted) for row in trace.records]
    out = {
        "seed": seed,
        "n": scenario.n,
        "horizon": horizon,
        "cycles": sum(len(row) for row in trace.records),
        "schedule_fair": all(check_fairness_prefix(schedule, ASYNC_FAIRNESS_WINDOW)),
        "acceptance_counts": acceptance,
        "color_lifecycle_problems": check_color_lifecycle(trace),
        "phase_lag_problems": check_neighbor_phase_lag(trace) if machine == SVP else [],
    }
    if not synthesize:
        return out
    core = extract_core(trace)
    out["core_cycles"] = sum(len(row) for row in core.records)
    out["vicinity_preserved"] = bool(is_vicinity_preserving_run(core))
    report = check_all(core)
    out["all_checks_pass"] = report.all_pass
    out["verdicts"] = {k: v["verdict"] for k, v in report.to_json()["verdicts"].items()}
    if report.all_pass:
        plan = build_plan(core, report.natural_order)
        replayed = replay_plan(scenario, plan)
        out["similar"] = bool(similar(core, replayed))
    else:
        out["similar"] = False
    return out
