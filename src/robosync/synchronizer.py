"""The luminous layer: the five-color cycle filter for vicinity-preserving
rules, its greedy cousin, the wrapper that runs either one inside the engine,
and extraction of the accepted-cycle core from a luminous trace.

A machine step consumes the robot's own color plus the set of colors it sees
and returns the next color and an accept/reject verdict.  A rejected cycle
stays put; an accepted cycle runs the wrapped rule on the positions-only
snapshot.  The new color becomes visible at the move start.
"""
from __future__ import annotations

from bisect import bisect_right
from copy import copy
from dataclasses import dataclass, replace
from enum import Enum

from .algorithms import AlgorithmSpec, compute
from .engine import Adversary, CycleRecord, Decision, Scenario, Simulation, Trace
from .errors import InputError
from .geometry import Point, Route, is_visible
from .scheduling import Schedule


class SyncColor(str, Enum):
    BK = "Bk"
    R = "R"
    B = "B"
    G = "G"
    W = "W"


ACCEPT = "accept"
REJECT = "reject"

SVP = "svp"
GREEDY = "greedy"
MACHINES = (SVP, GREEDY)


@dataclass(frozen=True)
class FsmVerdict:
    next: SyncColor
    output: str


# value -> color, read as a dict: `SyncColor(v)` is a much slower Enum call
_BY_VALUE = {color.value: color for color in SyncColor}


def _colors(values) -> frozenset[SyncColor]:
    return frozenset([_BY_VALUE[v] for v in values])


_BK, _R, _B, _G, _W = SyncColor.BK, SyncColor.R, SyncColor.B, SyncColor.G, SyncColor.W
_BK_B_W = frozenset((_BK, _B, _W))
_BK_R_B_W = frozenset((_BK, _R, _B, _W))
_R_B_W = frozenset((_R, _B, _W))
_B_G = frozenset((_B, _G))
_BK_G = frozenset((_BK, _G))
_B_W = frozenset((_B, _W))
_ONLY_BK = frozenset((_BK,))


def svp_step(state: SyncColor, visible: frozenset[SyncColor] | set[SyncColor]) -> FsmVerdict:
    """One transition of the five-color machine.

    Rows, in guard order (an input matching no row holds the state and
    rejects):
      Bk + all-of(Bk,B,W)            -> R  accept
      Bk + some R, all-of(Bk,R,B,W)  -> W  reject
      R  + all-of(R,B,W)             -> B  reject
      B  + all-of(B,G)               -> G  reject
      G  + all-of(Bk,G)              -> Bk reject
      W  + all-of(B,W)               -> Bk reject
    """
    x = frozenset(visible)
    if state is _BK:
        if x <= _BK_B_W:
            return FsmVerdict(_R, ACCEPT)
        if _R in x and x <= _BK_R_B_W:
            return FsmVerdict(_W, REJECT)
    elif state is _R and x <= _R_B_W:
        return FsmVerdict(_B, REJECT)
    elif state is _B and x <= _B_G:
        return FsmVerdict(_G, REJECT)
    elif state is _G and x <= _BK_G:
        return FsmVerdict(_BK, REJECT)
    elif state is _W and x <= _B_W:
        return FsmVerdict(_BK, REJECT)
    return FsmVerdict(state, REJECT)


def greedy_step(state: SyncColor, visible: frozenset[SyncColor] | set[SyncColor]) -> FsmVerdict:
    """Accept exactly when everything in sight (self included) is black.

    On acceptance the light turns red for the move; any other Compute turns
    it back to black, the minimal lifecycle that makes the mover's red flag
    visible to anyone who still sees it.
    """
    if state is _BK and frozenset(visible) <= _ONLY_BK:
        return FsmVerdict(_R, ACCEPT)
    return FsmVerdict(_BK, REJECT)


_STEPS = {SVP: svp_step, GREEDY: greedy_step}

_STAY_PUT = Route.stay_put()  # routes are immutable, so every rejection shares one


class SynchronizerController:
    """Engine controller: machine verdict first, wrapped rule only on accept."""

    def __init__(self, machine: str, spec: AlgorithmSpec):
        if machine not in _STEPS:
            raise InputError(f"unknown machine {machine!r}")
        self.step = _STEPS[machine]
        self.spec = spec

    def decide(self, robot: int, j: int, snapshot: tuple[Point, ...],
               snapshot_colors: tuple[str, ...] | None, own_color: str | None) -> Decision:
        others = _colors(snapshot_colors[1:]) if snapshot_colors else frozenset()
        verdict = self.step(_BY_VALUE[own_color], others)
        if verdict.output == ACCEPT:
            route = compute(self.spec, snapshot)
        else:
            route = _STAY_PUT
        return Decision(route_local=route,
                        accepted=verdict.output == ACCEPT,
                        color_after=verdict.next.value)


def run_synchronized(scenario: Scenario, spec: AlgorithmSpec, schedule: Schedule,
                     adversary: Adversary, machine: str = SVP) -> Trace:
    """Luminous run: all lights start black, colors recorded per cycle."""
    controller = SynchronizerController(machine, spec)
    sim = Simulation(scenario, schedule, controller, adversary,
                     initial_color=SyncColor.BK.value)
    trace = sim.run()
    trace.machine = machine
    return trace


def extract_core(trace: Trace) -> Trace:
    """Keep only accepted cycles, re-indexed per robot, and drop the colors.

    Rejected cycles leave no record; their stay-put routes are asserted so the
    footprints of the core agree with the luminous run.
    """
    if trace.kind != "luminous":
        raise InputError("core extraction needs a luminous trace")
    core_records = []
    for row in trace.records:
        for rec in row:
            if not rec.accepted and rec.pos_after_move != rec.pos_at_look:
                raise InputError(
                    f"rejected cycle {rec.cycle.ident} moved; trace is not a "
                    "synchronizer run")
        accepted = [rec for rec in row if rec.accepted]
        core_records.append([_core_record(rec, k) for k, rec in enumerate(accepted, start=1)])
    return Trace(trace.scenario, trace.horizon, core_records, kind="core")


def _core_record(rec: CycleRecord, j: int) -> CycleRecord:
    """The accepted record as core cycle j, without colors.  A shallow copy
    keeps a pending truncation draw unmade and bound to the luminous cycle's
    own (robot, j); `dataclasses.replace` would read z and so make it."""
    core = copy(rec)
    core.cycle = replace(rec.cycle, j=j)
    core.snapshot_colors = core.color_before = core.color_after = core.accepted = None
    return core


# -- trace-level color invariants -------------------------------------------

_ALLOWED_NEXT = {
    SyncColor.BK: {SyncColor.R, SyncColor.W},
    SyncColor.W: {SyncColor.BK},
    SyncColor.R: {SyncColor.B},
    SyncColor.B: {SyncColor.G},
    SyncColor.G: {SyncColor.BK},
}

_VIRTUAL = {SyncColor.BK: "Y", SyncColor.R: "Y", SyncColor.W: "Y",
            SyncColor.B: "B", SyncColor.G: "G"}


def _color_changes(trace: Trace, robot: int):
    """(record, color before, color after) for each of the robot's cycles,
    in order; every light starts black."""
    current = SyncColor.BK
    for rec in trace.records[robot]:
        after = _BY_VALUE[rec.color_after]
        yield rec, current, after
        current = after


def check_color_lifecycle(trace: Trace) -> list[str]:
    """Every color change must follow Bk->{R,W}, W->Bk, R->B, B->G, G->Bk,
    and a change to R must coincide with acceptance."""
    problems = []
    for i in range(trace.n):
        for rec, current, after in _color_changes(trace, i):
            if after is not current and after not in _ALLOWED_NEXT[current]:
                problems.append(f"robot {i} cycle {rec.cycle.j}: {current.value}->{after.value}")
            went_red = current is SyncColor.BK and after is SyncColor.R
            if bool(rec.accepted) != went_red:
                problems.append(
                    f"robot {i} cycle {rec.cycle.j}: accepted={rec.accepted} "
                    f"but transition {current.value}->{after.value}")
    return problems


def check_neighbor_phase_lag(trace: Trace) -> list[str]:
    """At each Look, every initial-visibility neighbour's virtual phase must
    be within one of the observer's.  A robot's virtual phase at time t is
    the number of its virtual-state changes (Y->B->G->Y...) effective by t;
    a new color shows from the move start, and move starts strictly increase."""
    changes = [[rec.cycle.s for rec, before, after in _color_changes(trace, i)
                if _VIRTUAL[after] != _VIRTUAL[before]]
               for i in range(trace.n)]
    problems = []
    initial = trace.scenario.initial_positions
    for i in range(trace.n):
        neighbors = [k for k in range(trace.n)
                     if k != i and is_visible(initial[i], initial[k])]
        for rec in trace.records[i]:
            o = rec.cycle.o
            mine = bisect_right(changes[i], o)
            for k in neighbors:
                theirs = bisect_right(changes[k], o)
                if abs(mine - theirs) > 1:
                    problems.append(
                        f"robot {i} at t={o}: phase {mine} vs neighbour {k} phase {theirs}")
    return problems
