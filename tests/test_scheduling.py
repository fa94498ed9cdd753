import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles import async_schedule_oracle
from robosync.errors import InputError
from robosync.scheduling import (
    ASYNC_FAIRNESS_WINDOW,
    BETWEEN_CYCLES,
    LOOK_TO_MOVE,
    MOVE,
    TIME_GRID,
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
    assert all((c.o, c.s, c.f) == (0.0, 0.25, 0.75) for cycles in sched.robots for c in cycles)
    assert make_fsync_schedule(0, 3).robots == [[], [], []]
    one = make_fsync_schedule(2, 1)
    assert [(c.o, c.s, c.f) for c in one.robots[0]] == [(0.0, 0.25, 0.75), (1.0, 1.25, 1.75)]


def test_async_sampler_deterministic():
    a = sample_async_schedule(42, 3, 30.0)
    b = sample_async_schedule(42, 3, 30.0)
    assert a.to_json() == b.to_json()
    assert sample_async_schedule(7, 2, 0.0).robots == [[], []]


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


def test_every_sampled_gap_is_at_least_one_grid_step():
    # the sampler snaps each gap with no floor of one step, which the oracle
    # keeps: every range must start at least one step above 0
    assert all(lo * TIME_GRID >= 1 for lo, _ in (LOOK_TO_MOVE, MOVE, BETWEEN_CYCLES))


def test_async_sampler_matches_the_uniform_oracle():
    for seed in range(200):
        for n, horizon in ((1, 10.0), (4, 50.0), (9, 100.0)):
            sampled = sample_async_schedule(seed, n, horizon)
            assert sampled == async_schedule_oracle(seed, n, horizon)


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


_TIME = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 4), st.integers(min_value=1, max_value=10 ** 4),
       _TIME, st.floats(min_value=1e-3, max_value=10.0), st.floats(min_value=1e-3, max_value=10.0))
def test_a_cycle_is_the_tuple_of_its_fields(robot, j, o, a, b):
    s, f = o + a, o + a + b
    c = Cycle(robot, j, o, s, f)
    assert repr(c) == f"Cycle(robot={robot!r}, j={j!r}, o={o!r}, s={s!r}, f={f!r})"
    fields = (robot, j, o, s, f)
    assert hash(c) == hash(fields) and c == fields and tuple(c) == fields
    assert c.ident == (robot, j) and (c.robot, c.j, c.o, c.s, c.f) == fields
    # equal fields of int and float type make equal cycles, as `==` on them does
    assert c == Cycle(float(robot), float(j), o, s, f)
    # a set of cycles iterates in the order of the set of their field tuples
    others = [Cycle(robot + k, j, o, s, f) for k in range(5)]
    assert list(set(others)) == list(set(map(tuple, others)))
    for name in ("robot", "j", "o", "s", "f", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, 1)


def test_an_invalid_cycle_is_refused_with_its_message():
    cases = [
        ((0, 0, 0.0, 1.0, 2.0), "cycle indices start at 1"),
        ((0, 1, 1.0, 1.0, 2.0),
         "cycle times must satisfy o < s < f, got Cycle(robot=0, j=1, o=1.0, s=1.0, f=2.0)"),
        ((0, 1, math.nan, 1.0, 2.0),
         "cycle times must satisfy o < s < f, got Cycle(robot=0, j=1, o=nan, s=1.0, f=2.0)"),
        ((0, 1, -math.inf, 1.0, 2.0),
         "cycle times must be finite, got Cycle(robot=0, j=1, o=-inf, s=1.0, f=2.0)"),
        ((0, 1, 0.0, 1.0, math.inf),
         "cycle times must be finite, got Cycle(robot=0, j=1, o=0.0, s=1.0, f=inf)"),
        ((0, 0, 1.0, 1.0, math.inf), "cycle indices start at 1"),  # j is checked first
    ]
    valid = Cycle(0, 1, 0.0, 1.0, 2.0)
    for fields, message in cases:
        # `_make`, and `_replace` through it, check as the constructor does
        names = ("robot", "j", "o", "s", "f")
        for build in (lambda: Cycle(*fields), lambda: Cycle._make(fields),
                      lambda: valid._replace(**dict(zip(names, fields)))):
            with pytest.raises(InputError) as refused:
                build()
            assert str(refused.value) == message
    assert valid._replace(j=2) == Cycle(0, 2, 0.0, 1.0, 2.0)
    assert type(Cycle._make(valid)) is Cycle
