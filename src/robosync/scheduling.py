"""Cycles and activation schedules: a fully synchronous generator, a random
asynchronous sampler, and a finite-horizon fairness proxy.

Times are reals snapped to multiples of 1/64 so interval-endpoint comparisons
on hand-built scenarios stay exact.
"""
from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import dataclass

from .errors import InputError
from .jsonio import json_index, json_number

TIME_GRID = 64  # generated times are multiples of 1/64


def on_grid(t: float) -> bool:
    return t * TIME_GRID == round(t * TIME_GRID)


class Cycle(namedtuple("Cycle", "robot j o s f")):
    """One Look-Compute-Move activation: snapshot at o, movement over (s, f).

    An immutable tuple of its fields, so it hashes and compares as that
    tuple does (and equals it); building one costs a tuple and three checks.
    `_make`, and `_replace` through it, run the same checks."""
    __slots__ = ()

    def __new__(cls, robot: int, j: int, o: float, s: float, f: float) -> "Cycle":
        cycle = tuple.__new__(cls, (robot, j, o, s, f))
        if j < 1:
            raise InputError("cycle indices start at 1")
        if not o < s < f:
            raise InputError(f"cycle times must satisfy o < s < f, got {cycle}")
        if not (math.isfinite(o) and math.isfinite(f)):
            raise InputError(f"cycle times must be finite, got {cycle}")
        return cycle

    @classmethod
    def _make(cls, iterable) -> "Cycle":
        return cls(*iterable)

    @property
    def ident(self) -> tuple[int, int]:
        return (self.robot, self.j)

    @classmethod
    def from_json(cls, entry: dict, robot: int) -> "Cycle":
        """A cycle of a schedule or trace row read from JSON: its times are
        finite numbers on the 1/64 grid and its index j is an integer."""
        o, s, f = (json_number(entry["o"], "cycle time o"),
                   json_number(entry["s"], "cycle time s"),
                   json_number(entry["f"], "cycle time f"))
        for t in (o, s, f):
            if not on_grid(t):
                raise InputError(f"time {t} is not a multiple of 1/{TIME_GRID}; "
                                 "align hand-entered times to the grid")
        return cls(robot, json_index(entry["j"], "cycle index j"), o, s, f)


@dataclass
class Schedule:
    """A finite prefix of per-robot cycle sequences; only cycles ending by the
    horizon are materialized."""
    n: int
    horizon: float
    robots: list[list[Cycle]]

    def __post_init__(self) -> None:
        if not 0 <= self.horizon < math.inf:
            raise InputError(f"horizon must be finite and non-negative, got {self.horizon}")
        if len(self.robots) != self.n:
            raise InputError("per-robot cycle lists do not match robot count")
        for i, cycles in enumerate(self.robots):
            end = -math.inf  # the previous cycle's f
            for k, (robot, j, o, _, f) in enumerate(cycles, start=1):
                if robot != i:
                    raise InputError(f"cycle {cycles[k - 1]} filed under robot {i}")
                if j != k:
                    raise InputError(f"robot {i} cycle indices not consecutive")
                if not end < o:
                    raise InputError(f"robot {i} cycles overlap in time")
                if f > self.horizon:
                    raise InputError(f"cycle {cycles[k - 1]} ends after the horizon "
                                     f"{self.horizon}")
                end = f

    def look_times(self) -> list[float]:
        return sorted({c.o for cycles in self.robots for c in cycles})

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "robots": [
                [{"j": j, "o": o, "s": s, "f": f} for _, j, o, s, f in cycles]
                for cycles in self.robots
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Schedule":
        horizon = json_number(data["horizon"], "horizon")
        robots = [[Cycle.from_json(entry, i) for entry in cycles]
                  for i, cycles in enumerate(data["robots"])]
        return cls(n=len(robots), horizon=horizon, robots=robots)


# uniform (min, max) ranges of the async sampler's three gaps
LOOK_TO_MOVE = (0.25, 1.0)
MOVE = (0.25, 1.0)
BETWEEN_CYCLES = (0.5, 3.0)
# every sampled gap between consecutive Looks of a robot, and the first Look,
# fits in the longest pause plus two longest cycle spans, with grid slack
ASYNC_FAIRNESS_WINDOW = BETWEEN_CYCLES[1] + 2 * (LOOK_TO_MOVE[1] + MOVE[1]) + 0.125
MAX_CYCLES = 10**6  # generated schedules larger than this are refused


def round_cycle(robot: int, j: int, r: int) -> Cycle:
    """Cycle j of a robot in synchronous round r: Look at r, move over (r + 1/4, r + 3/4)."""
    return Cycle(robot, j, float(r), r + 0.25, r + 0.75)


def make_fsync_schedule(num_rounds: int, n: int) -> Schedule:
    """Every robot runs cycle j in round j-1 (`round_cycle`), j = 1..num_rounds."""
    if num_rounds < 0:
        raise InputError("round count must be non-negative")
    if num_rounds * n > MAX_CYCLES:
        raise InputError(f"{num_rounds} rounds of {n} robots exceed {MAX_CYCLES} cycles")
    robots = [[round_cycle(i, j, j - 1) for j in range(1, num_rounds + 1)] for i in range(n)]
    return Schedule(n=n, horizon=float(num_rounds), robots=robots)


def sample_async_schedule(seed: int, n: int, horizon: float) -> Schedule:
    """Random asynchronous schedule, deterministic per seed.

    Each robot draws from its own stream, so extending the horizon at a fixed
    seed extends every robot's cycle list without disturbing the prefix.
    """
    if not 0 <= horizon < math.inf:
        raise InputError(f"horizon must be finite and non-negative, got {horizon}")
    shortest_period = LOOK_TO_MOVE[0] + MOVE[0] + BETWEEN_CYCLES[0]
    if n * horizon / shortest_period > MAX_CYCLES:
        raise InputError(f"an async schedule of {n} robots up to {horizon} may exceed "
                         f"{MAX_CYCLES} cycles")
    (a0, a1), (m0, m1), (b0, b1) = LOOK_TO_MOVE, MOVE, BETWEEN_CYCLES
    robots: list[list[Cycle]] = []
    for i in range(n):
        # each gap is `random.uniform` (lo + (hi - lo) * unit()) snapped to the
        # grid, inlined; every range starts at least one grid step above 0,
        # so no snapped gap falls below one step
        unit = random.Random(f"sched:{seed}:{i}").random
        cycles: list[Cycle] = []
        t = round((b0 + (b1 - b0) * unit()) * TIME_GRID) / TIME_GRID
        while True:
            o = t
            s = o + round((a0 + (a1 - a0) * unit()) * TIME_GRID) / TIME_GRID
            f = s + round((m0 + (m1 - m0) * unit()) * TIME_GRID) / TIME_GRID
            if f > horizon:
                break
            cycles.append(Cycle(i, len(cycles) + 1, o, s, f))
            t = f + round((b0 + (b1 - b0) * unit()) * TIME_GRID) / TIME_GRID
        robots.append(cycles)
    return Schedule(n=n, horizon=horizon, robots=robots)


def check_fairness_prefix(schedule: Schedule, window: float) -> list[bool]:
    """Finite fairness proxy: a robot passes when every length-`window`
    interval starting in [0, horizon - window] contains one of its Looks:
    it has a Look and no gap between 0, its Looks and the horizon is longer
    than the window, or no full window fits inside the prefix."""
    if not window > 0:  # NaN fails this too
        raise InputError("fairness window must be positive")
    verdicts = []
    for cycles in schedule.robots:
        times = [0.0, *[c.o for c in cycles], schedule.horizon]
        verdicts.append(schedule.horizon < window or len(times) > 2 and all(
            b - a <= window for a, b in zip(times, times[1:])))
    return verdicts
