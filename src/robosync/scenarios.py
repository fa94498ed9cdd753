"""Built-in configurations: the five-robot greedy trap, hand-built condition
violation templates for the necessity experiments, and samplers for random
clique-cluster scenarios.

Every builder is deterministic; randomized ones take an explicit seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .algorithms import HALT, HULL_CONTRACTION, SCRIPTED, AlgorithmSpec, ScriptEntry
from .engine import GREEDY, MACHINES, NONRIGID, RIGID, FrameSpec, Scenario
from .errors import InputError
from .geometry import Point
from .jsonio import json_choice
from .scheduling import Cycle, Schedule, make_fsync_schedule

_IDENTITY = FrameSpec(0.0, 1.0)


def _schedule(n: int, horizon: float, cycles: dict[int, list[tuple[float, float, float]]]) -> Schedule:
    robots = [
        [Cycle(i, j + 1, o, s, f) for j, (o, s, f) in enumerate(cycles.get(i, []))]
        for i in range(n)
    ]
    return Schedule(n=n, horizon=horizon, robots=robots)


# -- five-robot greedy trap ---------------------------------------------------

def greedy_trap_scenario() -> tuple[Scenario, Schedule, AlgorithmSpec]:
    """Five robots on a unit L-shape with staggered activations.

    The shared rule moves a robot one three-quarter step up exactly when its
    view is the corner view {origin, up, right}; the first robot matches it,
    leaves the range of the fourth before that robot ever looks, and the
    accepted cycles end up mutually concurrent but observationally asymmetric.
    """
    positions = [Point(0, 0), Point(0, 1), Point(1, 1), Point(1, 0), Point(2, 0)]
    scenario = Scenario(positions, [_IDENTITY] * 5, delta=0.25)
    corner_view = (Point(0, 0), Point(0, 1), Point(1, 0))
    spec = AlgorithmSpec(SCRIPTED, script=(
        ScriptEntry(snapshot=corner_view, route=(Point(0, 0), Point(0, 0.75))),
    ))
    return scenario, staggered_round_schedule(prefix_rounds=0), spec


def staggered_round_schedule(prefix_rounds: int) -> Schedule:
    """Five robots: `prefix_rounds` fully synchronous rounds (`round_cycle`),
    then one staggered round, the greedy trap's timing shifted to start at
    the prefix end (with no prefix, the trap's own schedule)."""
    base = float(prefix_rounds)
    robots = make_fsync_schedule(prefix_rounds, 5).robots
    stagger = [(0.0, 0.75, 1.0), (0.5, 1.25, 1.5), (1.0, 1.75, 2.0),
               (1.5, 2.25, 2.5), (3.0, 3.75, 4.0)]
    for i, (o, s, f) in enumerate(stagger):
        robots[i].append(Cycle(i, prefix_rounds + 1, base + o, base + s, base + f))
    return Schedule(n=5, horizon=base + 4.0, robots=robots)


# -- necessity templates -------------------------------------------------------

@dataclass(frozen=True)
class TemplateRun:
    """One necessity template: what to simulate and which condition the
    construction is aimed at (None for the clean control arm).  It depends
    only on the template's name; every caller shares one run and must not
    mutate it, its scenario, its schedule or its algorithm."""
    scenario: Scenario
    schedule: Schedule
    algorithm: AlgorithmSpec
    adversary_mode: str
    target: str | None


def _template_control() -> TemplateRun:
    # Two distant robots with disjoint cycles; nothing can go wrong.
    scenario = Scenario([Point(0, 0), Point(3, 0)], [_IDENTITY] * 2, delta=0.25)
    schedule = _schedule(2, 6.0, {
        0: [(0.0, 0.5, 1.0), (2.0, 2.5, 3.0)],
        1: [(1.25, 1.5, 1.75), (4.0, 4.5, 5.0)],
    })
    return TemplateRun(scenario, schedule, AlgorithmSpec(HALT), RIGID, None)


def _template_stationarity() -> TemplateRun:
    # The mover climbs past the observer's range; the observer looks strictly
    # inside the move, so the violation appears whenever the sampled point is
    # still within range.
    scenario = Scenario([Point(0, 0), Point(0.5, 0)], [_IDENTITY] * 2, delta=0.25)
    spec = AlgorithmSpec(SCRIPTED, script=(
        ScriptEntry(snapshot=(Point(-0.5, 0), Point(0, 0)),
                    route=(Point(0, 0), Point(0, 1.5))),
    ))
    schedule = _schedule(2, 3.0, {
        0: [(1.0, 2.0, 2.25)],
        1: [(0.0, 0.25, 1.75)],
    })
    return TemplateRun(scenario, schedule, spec, NONRIGID, "stationary")


def _template_pairwise() -> TemplateRun:
    # A long pending cycle of robot 0 overlaps both cycles of robot 1; the
    # second overlap is not concurrent whenever robot 1's truncated retreat
    # leaves it still within range.
    scenario = Scenario([Point(0, 0), Point(0.6, 0)], [_IDENTITY] * 2, delta=0.25)
    spec = AlgorithmSpec(SCRIPTED, script=(
        # robot 0's initial view: partner 0.6 to the right -> step up
        ScriptEntry(snapshot=(Point(0, 0), Point(0.6, 0)),
                    route=(Point(0, 0), Point(0, 0.75))),
        # robot 1's initial view: partner 0.6 to the left -> retreat right
        ScriptEntry(snapshot=(Point(-0.6, 0), Point(0, 0)),
                    route=(Point(0, 0), Point(0.5, 0))),
    ))
    schedule = _schedule(2, 3.0, {
        0: [(0.0, 2.5, 2.75)],
        1: [(0.125, 0.5, 0.875), (1.125, 2.0, 2.25)],
    })
    return TemplateRun(scenario, schedule, spec, NONRIGID, "pairwise_aligned")


def _template_consistency() -> TemplateRun:
    # Non-rigid version of the greedy trap without lights: the first robot's
    # climb always leaves the fourth robot's range, so the concurrency chain
    # carries an asymmetric observation.
    scenario, schedule, spec = greedy_trap_scenario()
    return TemplateRun(scenario, schedule, spec, NONRIGID, "consistent")


def _template_serializability() -> TemplateRun:
    # All robots halt; the timing alone yields two concurrency classes that
    # precede each other, so the class graph has a two-cycle.
    positions = [Point(0, 0), Point(0, 1), Point(0.8, 1.4), Point(1.6, 0.85),
                 Point(2, 0), Point(1, 0)]
    scenario = Scenario(positions, [_IDENTITY] * 6, delta=0.25)
    schedule = _schedule(6, 43.0, {
        0: [(0.0, 5.0, 5.5), (40.0, 42.0, 42.5)],
        1: [(4.0, 30.0, 30.5)],
        2: [(28.0, 33.0, 33.5)],
        3: [(29.0, 35.0, 35.5)],
        4: [(29.5, 36.0, 36.5)],
        5: [(6.0, 28.0, 28.5), (40.5, 41.0, 41.5)],
    })
    return TemplateRun(scenario, schedule, AlgorithmSpec(HALT), NONRIGID, "serializable")


NECESSITY_TEMPLATES = {
    "control": _template_control,
    "stationarity": _template_stationarity,
    "pairwise-alignment": _template_pairwise,
    "consistency": _template_consistency,
    "serializability": _template_serializability,
}
_TEMPLATE_RUNS: dict[str, TemplateRun] = {}  # name -> its run, built at its first request

# maps a template's target to the report field it must fail
TEMPLATE_TARGET_FIELD = {
    "stationary": "stationary",
    "pairwise_aligned": "aligned",
    "consistent": "consistent",
    "serializable": "serializable",
}


def necessity_template(name: str, seed: int) -> TemplateRun:
    """The named template's one run, built at its first request and shared by
    every caller, who must not mutate it; the seed picks only the adversary."""
    if name not in _TEMPLATE_RUNS:
        if name not in NECESSITY_TEMPLATES:
            raise InputError(
                f"unknown template {name!r}; choose from {sorted(NECESSITY_TEMPLATES)}")
        _TEMPLATE_RUNS[name] = NECESSITY_TEMPLATES[name]()
    return _TEMPLATE_RUNS[name]


# -- random clique-cluster scenarios ------------------------------------------

def random_vicinity_scenario(seed: int) -> tuple[Scenario, AlgorithmSpec]:
    """Random clusters whose visibility graphs are cliques of diameter < 1,
    separated well beyond the range.  Hull contraction on such a scenario
    keeps every robot inside its cluster's initial hull, so all pairwise
    distances stay far from the visibility threshold."""
    rng = random.Random(f"scn:{seed}")
    n = rng.randint(3, 8)
    clusters = 1 if n < 4 or rng.random() < 0.6 else 2
    counts = [n] if clusters == 1 else [n // 2, n - n // 2]
    positions: list[Point] = []
    for m, count in enumerate(counts):
        cx = 4.0 * m + rng.uniform(0, 0.5)
        cy = rng.uniform(0, 0.5)
        placed: list[Point] = []
        while len(placed) < count:
            r = rng.uniform(0, 0.45)
            theta = rng.uniform(0, 2 * math.pi)
            p = Point(cx + r * math.cos(theta), cy + r * math.sin(theta))
            if all((p.x - q.x) ** 2 + (p.y - q.y) ** 2 > 1e-4 for q in placed):
                placed.append(p)
        positions.extend(placed)
    frames = [FrameSpec(rng.uniform(0, 6.28), rng.uniform(0.5, 2.0)) for _ in range(n)]
    scenario = Scenario(positions, frames, delta=0.05)
    spec = AlgorithmSpec(HULL_CONTRACTION, contraction=rng.uniform(0.3, 0.7))
    return scenario, spec


# -- scenario files -------------------------------------------------------------

def bundle_to_json(scenario: Scenario, schedule: Schedule | None = None,
                   algorithm: AlgorithmSpec | None = None,
                   machine: str | None = None,
                   adversary_mode: str | None = None,
                   provenance: str | None = None) -> dict:
    out = {"schema": 1, **scenario.to_json()}
    if schedule is not None:
        out["schedule"] = schedule.to_json()
    if algorithm is not None:
        out["algorithm"] = algorithm.to_json()
    if machine is not None:
        out["machine"] = machine
    if adversary_mode is not None:
        out["adversary_mode"] = adversary_mode
    if provenance is not None:
        out["_provenance"] = provenance
    return out


def bundle_from_json(data: dict) -> dict:
    return {
        "scenario": Scenario.from_json(data),
        "schedule": Schedule.from_json(data["schedule"]) if "schedule" in data else None,
        "algorithm": (AlgorithmSpec.from_json(data["algorithm"])
                      if "algorithm" in data else None),
        "machine": json_choice(data.get("machine"), "scenario machine", (None, *MACHINES)),
        "adversary_mode": json_choice(data.get("adversary_mode"), "scenario adversary_mode",
                                      (None, RIGID, NONRIGID)),
    }


def _greedy_trap_bundle() -> dict:
    scenario, schedule, spec = greedy_trap_scenario()
    return bundle_to_json(
        scenario, schedule=schedule, algorithm=spec, machine=GREEDY,
        adversary_mode=RIGID,
        provenance="five robots on a unit L-shape; staggered first cycles; "
                   "the shared rule climbs 3/4 on the corner view")


def _template_bundle(name: str) -> dict:
    run = necessity_template(name, seed=0)
    return bundle_to_json(
        run.scenario, schedule=run.schedule, algorithm=run.algorithm,
        adversary_mode=run.adversary_mode,
        provenance=f"necessity template targeting {run.target or 'nothing (control)'}")


BUILTIN_BUNDLES = {
    "greedy-trap": _greedy_trap_bundle,
    **{f"necessity-{name}": (lambda n=name: _template_bundle(n))
       for name in NECESSITY_TEMPLATES},
}


def builtin_bundle(name: str) -> dict:
    try:
        return BUILTIN_BUNDLES[name]()
    except KeyError:
        raise InputError(f"unknown built-in scenario {name!r}")
