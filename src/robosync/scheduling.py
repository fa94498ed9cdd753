"""Cycles and activation schedules: a fully synchronous generator, a random
asynchronous sampler, and a finite-horizon fairness proxy.

Times are reals snapped to multiples of 1/64 so interval-endpoint comparisons
on hand-built scenarios stay exact.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import InputError

TIME_GRID = 64  # generated times are multiples of 1/64
_STEP = 1.0 / TIME_GRID


def snap_to_grid(t: float) -> float:
    return round(t * TIME_GRID) / TIME_GRID


def on_grid(t: float) -> bool:
    return t * TIME_GRID == round(t * TIME_GRID)


@dataclass(frozen=True)
class Cycle:
    """One Look-Compute-Move activation: snapshot at o, movement over (s, f)."""
    robot: int
    j: int
    o: float
    s: float
    f: float

    def __post_init__(self) -> None:
        if self.j < 1:
            raise InputError("cycle indices start at 1")
        if not self.o < self.s < self.f:
            raise InputError(f"cycle times must satisfy o < s < f, got {self}")
        if not (math.isfinite(self.o) and math.isfinite(self.f)):
            raise InputError(f"cycle times must be finite, got {self}")

    @property
    def ident(self) -> tuple[int, int]:
        return (self.robot, self.j)


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
            for k, c in enumerate(cycles):
                if c.robot != i:
                    raise InputError(f"cycle {c} filed under robot {i}")
                if c.j != k + 1:
                    raise InputError(f"robot {i} cycle indices not consecutive")
                if k > 0 and not cycles[k - 1].f < c.o:
                    raise InputError(f"robot {i} cycles overlap in time")

    def all_cycles(self) -> list[Cycle]:
        return [c for cycles in self.robots for c in cycles]

    def look_times(self) -> list[float]:
        return sorted({c.o for c in self.all_cycles()})

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "robots": [
                [{"j": c.j, "o": c.o, "s": c.s, "f": c.f} for c in cycles]
                for cycles in self.robots
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Schedule":
        horizon = float(data["horizon"])
        robots = []
        for i, cycles in enumerate(data["robots"]):
            row = []
            for entry in cycles:
                o, s, f = float(entry["o"]), float(entry["s"]), float(entry["f"])
                for t in (o, s, f):
                    if not on_grid(t):
                        raise InputError(
                            f"time {t} is not a multiple of 1/{TIME_GRID}; "
                            "align hand-entered times to the grid")
                row.append(Cycle(i, int(entry["j"]), o, s, f))
            robots.append(row)
        return cls(n=len(robots), horizon=horizon, robots=robots)


# uniform (min, max) ranges of the async sampler's three gaps
LOOK_TO_MOVE = (0.25, 1.0)
MOVE = (0.25, 1.0)
BETWEEN_CYCLES = (0.5, 3.0)
# every sampled gap between consecutive Looks of a robot, and the first Look,
# fits in the longest pause plus two longest cycle spans, with grid slack
ASYNC_FAIRNESS_WINDOW = BETWEEN_CYCLES[1] + 2 * (LOOK_TO_MOVE[1] + MOVE[1]) + 0.125
MAX_CYCLES = 10**6  # generated schedules larger than this are refused


def make_fsync_schedule(num_rounds: int, n: int) -> Schedule:
    """Every robot runs cycle (j-1, j-3/4, j-1/4) for j = 1..num_rounds."""
    if num_rounds < 0:
        raise InputError("round count must be non-negative")
    if num_rounds * n > MAX_CYCLES:
        raise InputError(f"{num_rounds} rounds of {n} robots exceed {MAX_CYCLES} cycles")
    robots = [
        [Cycle(i, j, float(j - 1), j - 0.75, j - 0.25) for j in range(1, num_rounds + 1)]
        for i in range(n)
    ]
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
    robots: list[list[Cycle]] = []
    for i in range(n):
        rng = random.Random(f"sched:{seed}:{i}")

        def draw(rg: tuple[float, float]) -> float:
            return max(_STEP, snap_to_grid(rng.uniform(*rg)))

        cycles: list[Cycle] = []
        t = draw(BETWEEN_CYCLES)
        while True:
            o = t
            s = o + draw(LOOK_TO_MOVE)
            f = s + draw(MOVE)
            if f > horizon:
                break
            cycles.append(Cycle(i, len(cycles) + 1, o, s, f))
            t = f + draw(BETWEEN_CYCLES)
        robots.append(cycles)
    return Schedule(n=n, horizon=horizon, robots=robots)


def check_fairness_prefix(schedule: Schedule, window: float) -> list[bool]:
    """Finite fairness proxy: a robot passes when every length-`window`
    interval starting in [0, horizon - window] contains one of its Looks."""
    if not window > 0:  # NaN fails this too
        raise InputError("fairness window must be positive")
    verdicts = []
    for cycles in schedule.robots:
        if schedule.horizon < window:
            verdicts.append(True)  # no full window fits inside the prefix
            continue
        looks = [c.o for c in cycles]
        if not looks:
            verdicts.append(False)
            continue
        ok = looks[0] <= window and schedule.horizon - looks[-1] <= window
        for a, b in zip(looks, looks[1:]):
            if b - a > window:
                ok = False
                break
        verdicts.append(ok)
    return verdicts
