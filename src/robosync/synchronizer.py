"""The luminous layer: the five-color cycle filter for vicinity-preserving
rules, its greedy cousin, the wrapper that runs either one inside the engine,
and extraction of the accepted-cycle core from a luminous trace.

A machine step consumes the robot's own color plus the set of colors it sees
and returns `(next color, accepted)`.  Colors are the strings a trace stores,
`engine.COLORS`: "Bk", "R", "B", "G" and "W".  A rejected cycle stays put;
an accepted cycle runs the wrapped rule on the positions-only snapshot.  The
new color becomes visible at the move start.
"""
from __future__ import annotations

from bisect import bisect_right
from copy import copy

from .algorithms import AlgorithmController, AlgorithmSpec
from .engine import (
    BK,
    COLORS,
    GREEDY,
    MACHINES,
    SVP,
    B,
    G,
    R,
    W,
    Adversary,
    CycleRecord,
    Scenario,
    Simulation,
    Trace,
)
from .errors import InputError
from .geometry import is_visible
from .scheduling import Cycle, Schedule

_BK_B_W = frozenset((BK, B, W))
_BK_R_B_W = frozenset((BK, R, B, W))
_R_B_W = frozenset((R, B, W))
_B_G = frozenset((B, G))
_BK_G = frozenset((BK, G))
_B_W = frozenset((B, W))
_ONLY_BK = frozenset((BK,))


def svp_step(state: str, visible: frozenset[str] | set[str]) -> tuple[str, bool]:
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
    if state == BK:
        if visible <= _BK_B_W:
            return R, True
        if R in visible and visible <= _BK_R_B_W:
            return W, False
    elif state == R and visible <= _R_B_W:
        return B, False
    elif state == B and visible <= _B_G:
        return G, False
    elif state == G and visible <= _BK_G:
        return BK, False
    elif state == W and visible <= _B_W:
        return BK, False
    return state, False


def greedy_step(state: str, visible: frozenset[str] | set[str]) -> tuple[str, bool]:
    """Accept exactly when everything in sight (self included) is black.

    On acceptance the light turns red for the move; any other Compute turns
    it back to black, the minimal lifecycle that makes the mover's red flag
    visible to anyone who still sees it.
    """
    if state == BK and visible <= _ONLY_BK:
        return R, True
    return BK, False


_STEPS = {SVP: svp_step, GREEDY: greedy_step}


class SynchronizerController(AlgorithmController):
    """Engine controller: the machine's verdict, and the wrapped rule's
    route on accept only."""

    def __init__(self, machine: str, spec: AlgorithmSpec):
        if machine not in _STEPS:
            raise InputError(f"unknown machine {machine!r}")
        super().__init__(spec)
        self.verdict = _STEPS[machine]  # the machine step is the verdict


def run_synchronized(scenario: Scenario, spec: AlgorithmSpec, schedule: Schedule,
                     adversary: Adversary, machine: str = SVP) -> Trace:
    """Luminous run: all lights start black, colors recorded per cycle."""
    controller = SynchronizerController(machine, spec)
    trace = Simulation(scenario, schedule, controller, adversary, initial_color=BK).run()
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
            after = rec.pos_after_move
            # the engine's rejected record holds its Look point as both
            if not rec.accepted and after is not rec.pos_at_look and after != rec.pos_at_look:
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
    robot, _, o, s, f = rec.cycle
    core = copy(rec)
    core.cycle = Cycle(robot, j, o, s, f)
    core.snapshot_colors = core.color_before = core.color_after = core.accepted = None
    return core


# -- trace-level color invariants -------------------------------------------

_ALLOWED_NEXT = {BK: {R, W}, W: {BK}, R: {B}, B: {G}, G: {BK}}

_VIRTUAL = {BK: "Y", R: "Y", W: "Y", B: "B", G: "G"}


def _color_changes(trace: Trace, robot: int):
    """(record, color before, color after) for each of the robot's cycles,
    in order; every light starts black."""
    current = BK
    for rec in trace.records[robot]:
        after = rec.color_after
        yield rec, current, after
        current = after


def check_color_lifecycle(trace: Trace) -> list[str]:
    """Every color change must follow Bk->{R,W}, W->Bk, R->B, B->G, G->Bk,
    and a change to R must coincide with acceptance."""
    problems = []
    for i in range(trace.n):
        for rec, current, after in _color_changes(trace, i):
            if after != current and after not in _ALLOWED_NEXT[current]:
                problems.append(f"robot {i} cycle {rec.cycle.j}: {current}->{after}")
            went_red = current == BK and after == R
            if bool(rec.accepted) != went_red:
                problems.append(
                    f"robot {i} cycle {rec.cycle.j}: accepted={rec.accepted} "
                    f"but transition {current}->{after}")
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
