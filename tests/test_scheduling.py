import math

import pytest
from hypothesis import given, settings, strategies as st

from robosync.errors import InputError
from robosync.scheduling import (
    ASYNC_FAIRNESS_WINDOW,
    Cycle,
    Schedule,
    check_fairness_prefix,
    make_fsync_schedule,
    on_grid,
    sample_async_schedule,
)


def test_cycle_ordering_enforced():
    with pytest.raises(InputError):
        Cycle(0, 1, 1.0, 1.0, 2.0)
    with pytest.raises(InputError):
        Cycle(0, 0, 0.0, 1.0, 2.0)
    with pytest.raises(InputError):
        Cycle(0, 1, 0.0, 1.0, math.inf)


def test_fsync_generator_examples():
    sched = make_fsync_schedule(1, 2)
    assert all((c.o, c.s, c.f) == (0.0, 0.25, 0.75) for c in sched.all_cycles())
    assert make_fsync_schedule(0, 3).all_cycles() == []
    one = make_fsync_schedule(2, 1)
    assert [(c.o, c.s, c.f) for c in one.robots[0]] == [(0.0, 0.25, 0.75), (1.0, 1.25, 1.75)]


def test_async_sampler_deterministic():
    a = sample_async_schedule(42, 3, 30.0)
    b = sample_async_schedule(42, 3, 30.0)
    assert a.to_json() == b.to_json()
    assert sample_async_schedule(7, 2, 0.0).all_cycles() == []


def test_async_sampler_rejects_degenerate_ranges():
    for horizon in (-5.0, float("inf"), float("nan")):
        with pytest.raises(InputError):
            sample_async_schedule(1, 1, horizon)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_async_sampler_invariants(seed):
    sched = sample_async_schedule(seed, 3, 100.0)
    for cycles in sched.robots:
        for k, c in enumerate(cycles):
            assert c.o < c.s < c.f <= 100.0
            assert on_grid(c.o) and on_grid(c.s) and on_grid(c.f)
            if k:
                assert cycles[k - 1].f < c.o


def test_async_sampler_prefix_extension():
    short = sample_async_schedule(9, 4, 50.0)
    long = sample_async_schedule(9, 4, 100.0)
    for i in range(4):
        head = long.robots[i][:len(short.robots[i])]
        assert [(c.o, c.s, c.f) for c in head] == \
               [(c.o, c.s, c.f) for c in short.robots[i]]
        assert len(long.robots[i]) >= len(short.robots[i])


def test_fairness_examples():
    fsync = make_fsync_schedule(10, 2)
    assert check_fairness_prefix(fsync, 2.0) == [True, True]
    lazy = Schedule(n=2, horizon=5.0,
                    robots=[[Cycle(0, 1, 0.0, 0.25, 0.5)], []])
    assert check_fairness_prefix(lazy, 1.0) == [False, False]
    for window in (0.0, -1.0, float("nan")):
        with pytest.raises(InputError):
            check_fairness_prefix(fsync, window)


def test_fairness_window_from_generator_bounds():
    assert ASYNC_FAIRNESS_WINDOW == 7.125
    for seed in range(25):
        sched = sample_async_schedule(seed, 3, 120.0)
        assert all(check_fairness_prefix(sched, ASYNC_FAIRNESS_WINDOW))


def test_schedule_json_round_trip_and_grid_rejection():
    sched = make_fsync_schedule(3, 2)
    again = Schedule.from_json(sched.to_json())
    assert again.to_json() == sched.to_json()
    bad = sched.to_json()
    bad["robots"][0][0]["o"] = 0.1  # not a multiple of 1/64
    with pytest.raises(InputError):
        Schedule.from_json(bad)


def test_schedule_validation():
    with pytest.raises(InputError):  # overlapping cycles of one robot
        Schedule(n=1, horizon=2.0, robots=[[
            Cycle(0, 1, 0.0, 0.5, 1.0), Cycle(0, 2, 1.0, 1.25, 1.5)]])
    with pytest.raises(InputError):  # non-consecutive indices
        Schedule(n=1, horizon=2.0, robots=[[Cycle(0, 2, 0.0, 0.5, 1.0)]])
