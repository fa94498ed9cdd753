"""robosync: deterministic Look-Compute-Move robot simulation, asynchronous
trace analysis, semi-synchronous replay synthesis, and luminous cycle
synchronizers for limited-visibility robot systems."""

from .algorithms import AlgorithmSpec, compute, validate_vicinity_scenario
from .checker import check_all, find_natural_sort
from .engine import Adversary, Scenario, Trace, simulate
from .geometry import FrameSpec, Point, Route
from .scheduling import Cycle, Schedule, make_fsync_schedule
from .synchronizer import extract_core, greedy_step, run_synchronized, svp_step
from .synthesis import build_plan, candidate_search, replay_plan, similar

__all__ = [
    "AlgorithmSpec", "Adversary", "Cycle", "FrameSpec", "Point", "Route",
    "Scenario", "Schedule", "Trace",
    "build_plan", "candidate_search", "check_all", "compute", "extract_core",
    "find_natural_sort", "greedy_step", "make_fsync_schedule",
    "replay_plan", "run_synchronized", "similar",
    "simulate", "svp_step", "validate_vicinity_scenario",
]
