"""The three benchmark workloads.

Each workload turns the benchmark seed into an endless, deterministic
sequence of unit keys drawn from a fixed universe, runs one unit through
robosync's public API, and says what a unit's output must satisfy.  The
per-unit digests of the whole universe are recorded in `reference.json`
(see `record_reference.py`), so a run can check every unit it executes.

A unit returns the raw library result; digests and checks run outside the
timed region.
"""
from __future__ import annotations

import hashlib
import json

from robosync import algorithms, checker, engine, experiments, scenarios, scheduling, synthesis
from robosync.errors import SimulationError
from robosync.geometry import Point

SEED_STRIDE = 7919  # prime, so every seed starts its window at another offset


def digest(obj) -> str:
    """Digest of the sorted-key JSON text of a unit's result."""
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _start(seed: int, universe: int) -> int:
    return (seed * SEED_STRIDE) % universe


class Sweep:
    """Acceptance criterion 2: the luminous svp pipeline on one random
    clique-cluster scenario per seed.  Stresses the phase-lag invariant and
    the luminous engine; the checker and synthesis see only small cores."""

    name = "sweep"
    universe = 100          # the acceptance fixture: seeds 0..99, each run covers them all
    horizon = 200.0
    trace_units = 100       # a traced run covers the fixture once
    median_per_stratum = True   # latency quantiles over the 100 seeds' medians

    def __init__(self, seed: int):
        self.start = _start(seed, self.universe)

    def keys(self):
        k = 0
        while True:
            yield (self.start + k) % self.universe
            k += 1

    warmup_key = 0

    def all_keys(self):
        return range(self.universe)

    def ref_key(self, key) -> str:
        return str(key)

    def run(self, key, span):
        return experiments.synchronizer_end_to_end(key, horizon=self.horizon,
                                                   machine="svp")

    def stratum(self, key) -> str:
        # a run covers the whole fixture more than once: each seed weighs the same
        return f"seed={key}"

    def cycles(self, result) -> int:
        return result["cycles"]

    def result_json(self, result):
        return result

    def problems(self, key, result) -> list[str]:
        out = []
        if not result["all_checks_pass"]:
            out.append("core fails the five checks")
        if not result["similar"]:
            out.append("replay is not similar")
        if result["color_lifecycle_problems"]:
            out.append("color lifecycle problems")
        if result["phase_lag_problems"]:
            out.append("phase-lag problems")
        return out

    def finish(self) -> list[str]:
        return []


GRID_SPACING = 0.6  # lattice pairs sit at 0.6, 0.85, 1.2, ...: never at range 1


def lattice_scenario(n: int, cols: int) -> engine.Scenario:
    points = [Point(GRID_SPACING * (k % cols), GRID_SPACING * (k // cols))
              for k in range(n)]
    return engine.Scenario(points, [engine.FrameSpec() for _ in points], delta=0.25)


class Grid:
    """The CLI check path on plain halt runs on a square lattice.  Every
    condition fails, so relation building, the pairwise checks and witness
    output dominate; natural search and synthesis are skipped.  The two n=16
    sizes give growth in C at fixed n, the two sizes near 1050 cycles give
    growth in n at fixed C."""

    name = "grid"
    sizes = ((16, 4, 100.0), (16, 4, 200.0), (32, 8, 100.0))  # (n, columns, horizon)
    universe = 24           # schedule seeds 0..23 per size have reference digests
    trace_units = 3         # one pass: one trace of each size
    median_per_stratum = True   # 11-20 units a run: quantiles over the sizes' medians

    def __init__(self, seed: int):
        self.start = _start(seed, self.universe)
        self.scenarios = [lattice_scenario(n, cols) for n, cols, _ in self.sizes]
        self.algorithm = algorithms.AlgorithmSpec(algorithms.HALT)

    def keys(self):
        p = 0
        while True:
            q = (self.start + p) % self.universe
            for z in range(len(self.sizes)):
                yield (z, q)
            p += 1

    warmup_key = (0, 0)

    def all_keys(self):
        return [(z, q) for z in range(len(self.sizes)) for q in range(self.universe)]

    def ref_key(self, key) -> str:
        z, q = key
        n, _, h = self.sizes[z]
        return f"n{n}h{int(h)}:{q}"

    def run(self, key, span):
        z, q = key
        n, _, horizon = self.sizes[z]
        schedule = scheduling.sample_async_schedule(q, n, horizon)
        trace = engine.simulate(self.scenarios[z], schedule,
                                algorithms.as_controller(self.algorithm),
                                engine.Adversary(q, engine.NONRIGID))
        with span("io.trace_dump"):
            text = json.dumps(trace.to_json(), sort_keys=True, indent=1) + "\n"
        span.count("io.trace_bytes", len(text))
        with span("io.trace_load"):
            loaded = engine.Trace.from_json(json.loads(text))
        report = checker.check_all(loaded)
        with span("io.report_dump"):
            report_text = json.dumps(report.to_json(), sort_keys=True, indent=1) + "\n"
        return {"cycles": sum(len(row) for row in loaded.records),
                "report": report, "report_text": report_text}

    def stratum(self, key) -> str:
        return self.ref_key(key).split(":")[0]

    def cycles(self, result) -> int:
        return result["cycles"]

    def result_json(self, result):
        return result["report_text"]

    def problems(self, key, result) -> list[str]:
        report = result["report"]
        verdicts = (report.stationary, report.aligned, report.consistent,
                    report.serializable, report.natural)
        if any(v.verdict != checker.FAIL for v in verdicts):
            return ["a condition did not fail on a lattice halt trace"]
        return []

    def finish(self) -> list[str]:
        return []


NODE_BUDGET = 200_000  # the budgets necessity_experiment uses
ORDER_BUDGET = 256
AGGREGATE_SEEDS = 40    # seeds 0..39 are re-run through necessity_experiment


class Necessity:
    """All five necessity templates, one unit per (template, adversary seed),
    composed as necessity_experiment composes them.  Thousands of 2-6 robot
    traces with at most 8 cycles: per-call fixed costs dominate, and only
    this workload runs scripted non-rigid moves and the candidate search."""

    name = "necessity"
    templates = tuple(sorted(scenarios.NECESSITY_TEMPLATES))
    universe = 1000         # adversary seeds 0..999 per template
    trace_units = 5 * 1000  # a traced run covers the universe once
    median_per_stratum = False  # thousands of units per template

    def __init__(self, seed: int):
        self.start = _start(seed, self.universe)

    def keys(self):
        k = 0
        while True:
            s = (self.start + k) % self.universe
            for t in self.templates:
                yield (t, s)
            k += 1

    warmup_key = ("control", 0)

    def all_keys(self):
        return [(t, s) for t in self.templates for s in range(self.universe)]

    def ref_key(self, key) -> str:
        return f"{key[0]}:{key[1]}"

    def run(self, key, span):
        template, seed = key
        run = scenarios.necessity_template(template, seed)
        try:
            trace = engine.simulate(run.scenario, run.schedule,
                                    algorithms.as_controller(run.algorithm),
                                    engine.Adversary(seed, run.adversary_mode))
        except SimulationError:
            return {"template": template, "seed": seed, "error": True, "cycles": 0}
        report = checker.check_all(trace, NODE_BUDGET)
        results = {"stationary": report.stationary, "aligned": report.aligned,
                   "consistent": report.consistent, "serializable": report.serializable}
        if run.target is None:
            violated = not report.all_pass
        else:
            field = scenarios.TEMPLATE_TARGET_FIELD[run.target]
            violated = results[field].verdict == checker.FAIL
        search = synthesis.candidate_search(trace, order_budget=ORDER_BUDGET,
                                            node_budget=NODE_BUDGET)
        return {"template": template, "seed": seed, "error": False,
                "cycles": sum(len(row) for row in trace.records),
                "violated": violated, "all_pass": report.all_pass,
                "verdicts": {k: v.verdict for k, v in results.items()},
                "search": search.to_json()}

    def stratum(self, key) -> str:
        return key[0]

    def cycles(self, result) -> int:
        return result["cycles"]

    def result_json(self, result):
        return result

    def problems(self, key, result) -> list[str]:
        if result.get("violated") and result["search"]["verdict"] == synthesis.SIMILAR_FOUND:
            return ["similar replay found for a violating run"]
        return []

    def finish(self) -> list[str]:
        """Units for seeds 0..AGGREGATE_SEEDS-1 must fold into exactly the
        aggregates necessity_experiment reports for those seeds."""
        out = []
        for template in self.templates:
            units = [self.run((template, s), NO_SPAN) for s in range(AGGREGATE_SEEDS)]
            folded = fold_necessity(template, units)
            expected = experiments.necessity_experiment(
                template, AGGREGATE_SEEDS, order_budget=ORDER_BUDGET, node_budget=NODE_BUDGET)
            if folded != expected:
                out.append(f"{template}: units do not reproduce necessity_experiment")
            if expected["found_given_violation"]:
                out.append(f"{template}: found_given_violation != 0")
        return out


def fold_necessity(template: str, units: list[dict]) -> dict:
    """necessity_experiment's aggregate, folded from per-unit results."""
    counts = {
        "seeds": len(units), "errors": 0, "materialized": 0,
        "found_given_violation": 0, "none_given_violation": 0,
        "inconclusive_given_violation": 0,
        "clean": 0, "clean_check_pass": 0, "clean_found": 0,
    }
    for u in units:
        if u["error"]:
            counts["errors"] += 1
            continue
        verdict = u["search"]["verdict"]
        if u["violated"]:
            counts["materialized"] += 1
            if verdict == synthesis.SIMILAR_FOUND:
                counts["found_given_violation"] += 1
            elif verdict == synthesis.NONE_AMONG_CANDIDATES:
                counts["none_given_violation"] += 1
            else:
                counts["inconclusive_given_violation"] += 1
        else:
            counts["clean"] += 1
            counts["clean_check_pass"] += int(u["all_pass"])
            counts["clean_found"] += int(verdict == synthesis.SIMILAR_FOUND)
    m = counts["materialized"]
    return {
        "schema": 1, "template": template, **counts,
        "found_rate_given_violation": counts["found_given_violation"] / m if m else None,
        "inconclusive_rate": counts["inconclusive_given_violation"] / m if m else None,
    }


class _NoSpan:
    """Stand-in for the tracer when tracing is off."""

    def __call__(self, name):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, name, value):
        pass


NO_SPAN = _NoSpan()

WORKLOADS = {w.name: w for w in (Sweep, Grid, Necessity)}
