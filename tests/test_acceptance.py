"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated elsewhere.
"""
import itertools
import json
import math
import time

import pytest

from conftest import random_small_inputs
from oracles import all_records, closure_partition, cycles_concurrent, happened_before
from robosync.algorithms import as_controller
from robosync.checker import (
    analyze,
    check_consistent,
    check_pairwise_aligned,
    check_serializable,
    check_stationary,
    proposition_no_hb_within_class,
    proposition_one_cycle_per_robot,
)
from robosync.cli import main as cli_main
from robosync.engine import NONRIGID, Adversary, simulate
from robosync.errors import SimulationError
from robosync.experiments import (
    necessity_experiment,
    repro_greedy_trap,
    synchronizer_end_to_end,
)
from robosync.scheduling import sample_async_schedule
from robosync.scenarios import bundle_to_json, random_vicinity_scenario
from robosync.synchronizer import BK, COLORS, R, SVP, run_synchronized, svp_step

NUM_E2E_SEEDS = 100
NUM_NECESSITY_SEEDS = 1000
NUM_PROPERTY_TRACES = 500


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- criterion 1: the greedy counterexample -----------------------------------

def test_criterion_1_greedy_trap_reproduction():
    t0 = time.perf_counter()
    result = repro_greedy_trap()
    elapsed = time.perf_counter() - t0
    ok = result["ok"] and elapsed < 1.0
    _verdict(1, ok,
             f"greedy-lemma repro: {sum(c['ok'] for c in result['checks'])}/"
             f"{len(result['checks'])} assertions in {elapsed:.3f}s")


# -- criteria 2 and 3: end-to-end synchronizer sweep ---------------------------

def _acceptance_counts(seed: int, horizon: float) -> list[int]:
    """Per-robot accepted cycles of the luminous run `synchronizer_end_to_end`
    makes for this seed and horizon, without the rest of its pipeline."""
    scenario, spec = random_vicinity_scenario(seed)
    schedule = sample_async_schedule(seed, scenario.n, horizon)
    trace = run_synchronized(scenario, spec, schedule, Adversary(seed, NONRIGID), SVP)
    return [sum(1 for rec in row if rec.accepted) for row in trace.records]


@pytest.fixture(scope="module")
def e2e_sweep():
    t0 = time.perf_counter()
    runs = [synchronizer_end_to_end(seed, horizon=200.0) for seed in range(NUM_E2E_SEEDS)]
    elapsed = time.perf_counter() - t0
    doubled = [_acceptance_counts(seed, 400.0) for seed in range(NUM_E2E_SEEDS)]
    return {"runs": runs, "doubled": doubled, "elapsed": elapsed}


def test_criterion_2_synchronizer_end_to_end(e2e_sweep):
    runs = e2e_sweep["runs"]
    elapsed = e2e_sweep["elapsed"]
    checks_ok = sum(r["all_checks_pass"] for r in runs)
    similar_ok = sum(r["similar"] for r in runs)
    vicinity_ok = sum(r["vicinity_preserved"] for r in runs)
    fair = sum(r["schedule_fair"] for r in runs)
    ok = (checks_ok == similar_ok == vicinity_ok == fair == NUM_E2E_SEEDS
          and elapsed < 60.0)
    _verdict(2, ok,
             f"{checks_ok}/{NUM_E2E_SEEDS} cores pass all five checks, "
             f"{similar_ok}/{NUM_E2E_SEEDS} replays similar at 1e-9, "
             f"in {elapsed:.1f}s")


def test_criterion_3_fairness_proxy(e2e_sweep):
    runs, doubled = e2e_sweep["runs"], e2e_sweep["doubled"]
    everyone_accepts = all(min(r["acceptance_counts"]) >= 1 for r in runs)
    monotone = all(
        all(b >= a for a, b in zip(r["acceptance_counts"], d))
        for r, d in zip(runs, doubled))
    color_ok = all(not r["color_lifecycle_problems"] and not r["phase_lag_problems"]
                   for r in runs)
    ok = everyone_accepts and monotone and color_ok
    _verdict(3, ok,
             f"every robot accepted >=1 cycle in all {len(runs)} runs; "
             f"doubling the horizon never decreased a count")


# -- criterion 4: necessity Monte Carlo ----------------------------------------

def test_criterion_4_necessity_monte_carlo():
    details = []
    ok = True
    for template in ("stationarity", "pairwise-alignment"):
        agg = necessity_experiment(template, NUM_NECESSITY_SEEDS)
        inconclusive_rate = agg["inconclusive_rate"] or 0.0
        ok = ok and agg["materialized"] > 0 \
            and agg["found_given_violation"] == 0 \
            and inconclusive_rate < 0.05
        details.append(f"{template}: {agg['materialized']}/{NUM_NECESSITY_SEEDS} "
                       f"violations, {agg['found_given_violation']} found, "
                       f"{agg['inconclusive_given_violation']} inconclusive")
    _verdict(4, ok, "; ".join(details))


# -- criterion 5: relation propositions on random traces ------------------------

def test_criterion_5_proposition_suite():
    produced = 0
    attempts = 0
    violations = []
    max_cycles = 0
    while produced < NUM_PROPERTY_TRACES:
        seed = attempts
        attempts += 1
        scenario, spec = random_small_inputs(seed)
        schedule = sample_async_schedule(seed, scenario.n, 8.0)
        try:
            trace = simulate(scenario, schedule, as_controller(spec),
                             Adversary(seed, "nonrigid"))
        except SimulationError:
            continue
        produced += 1
        total_cycles = len(all_records(trace))
        max_cycles = max(max_cycles, total_cycles)
        assert scenario.n <= 6 and total_cycles <= 30

        analysis = analyze(trace)
        if analysis.classes != closure_partition(trace):
            violations.append((seed, "union-find vs closure"))

        ids = [r.cycle.ident for r in all_records(trace)]
        for a in ids:
            for b in ids:
                if a != b and happened_before(trace, a, b)[0] \
                        and cycles_concurrent(trace, a, b):
                    violations.append((seed, "ordered pair is concurrent"))

        first_three = (check_stationary(analyze(trace)).ok
                       and check_pairwise_aligned(analysis).ok
                       and check_consistent(trace, analysis).ok)
        if first_three:
            if proposition_no_hb_within_class(analysis):
                violations.append((seed, "precedence inside a class"))
            if check_serializable(analysis).ok \
                    and proposition_one_cycle_per_robot(analysis):
                violations.append((seed, "robot twice in one class"))
    resample_rate = (attempts - produced) / attempts
    ok = not violations and resample_rate < 0.05
    _verdict(5, ok,
             f"{produced} traces (max {max_cycles} cycles), "
             f"{len(violations)} violations, "
             f"{attempts - produced} resampled aborts")


# -- criterion 6: machine table conformance -------------------------------------

def _table_oracle(state: str, x: frozenset[str]) -> tuple[str, str]:
    """Independent row-by-row encoding of the five-color transition table."""
    rows = [
        ("Bk", None, {"Bk", "B", "W"}, "R", "accept"),
        ("Bk", "R", {"Bk", "R", "B", "W"}, "W", "reject"),
        ("R", None, {"R", "B", "W"}, "B", "reject"),
        ("B", None, {"B", "G"}, "G", "reject"),
        ("G", None, {"Bk", "G"}, "Bk", "reject"),
        ("W", None, {"B", "W"}, "Bk", "reject"),
    ]
    for row_state, needs, allowed, nxt, out in rows:
        if row_state != state:
            continue
        if needs is not None and needs not in x:
            continue
        if not x <= allowed:
            continue
        return nxt, out
    return state, "reject"


def test_criterion_6_fsm_table_conformance():
    mismatches = 0
    accepts = 0
    cases = 0
    for state in COLORS:
        for size in range(len(COLORS) + 1):
            for combo in itertools.combinations(COLORS, size):
                cases += 1
                x = frozenset(combo)
                color, accepted = svp_step(state, x)
                if (color, "accept" if accepted else "reject") != _table_oracle(state, x):
                    mismatches += 1
                if accepted:
                    accepts += 1
                    if not (state == BK and color == R):
                        mismatches += 1
    ok = mismatches == 0 and cases == 5 * 32 and accepts > 0
    _verdict(6, ok, f"{cases} (state, input) cases, {mismatches} mismatches, "
                    f"accepts only on Bk->R")


# -- criterion 7: command determinism --------------------------------------------

def test_criterion_7_cli_determinism(tmp_path):
    scenario, spec = random_vicinity_scenario(11)
    bundle = tmp_path / "scn.json"
    bundle.write_text(json.dumps(bundle_to_json(
        scenario, algorithm=spec, machine="svp", adversary_mode="nonrigid")))
    trap_trace = tmp_path / "trap.json"
    cli_main(["simulate", "--scenario", "builtin:greedy-trap",
              "--out", str(trap_trace)])
    clean_trace = tmp_path / "clean.json"
    cli_main(["simulate", "--scenario", str(bundle), "--schedule", "async:30",
              "--machine", "none", "--algo", "halt", "--seed", "3",
              "--out", str(clean_trace)])

    commands = [
        ["simulate", "--scenario", "builtin:greedy-trap"],
        ["simulate", "--scenario", str(bundle), "--schedule", "async:40", "--seed", "1"],
        ["simulate", "--scenario", str(bundle), "--schedule", "async:40", "--seed", "2"],
        ["simulate", "--scenario", str(bundle), "--schedule", "fsync:12",
         "--machine", "greedy", "--seed", "7"],
        ["check", str(trap_trace)],
        ["check", str(clean_trace)],
        ["synthesize", str(clean_trace)],
        ["repro", "greedy-lemma"],
        ["repro", "colorbased-theorem", "--machine", "svp"],
        ["necessity", "--template", "pairwise-alignment", "--seeds", "40"],
    ]
    unequal = []
    for k, command in enumerate(commands):
        a = tmp_path / f"a{k}.json"
        b = tmp_path / f"b{k}.json"
        cli_main(command + ["--out", str(a)])
        cli_main(command + ["--out", str(b)])
        if a.read_bytes() != b.read_bytes():
            unequal.append(command[0])
    _verdict(7, not unequal,
             f"{len(commands)} commands rerun byte-identically"
             + (f"; diverged: {unequal}" if unequal else ""))
