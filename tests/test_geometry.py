import math
import random

import pytest
from hypothesis import given, strategies as st

from robosync.errors import InputError
from robosync.geometry import (
    FrameSpec,
    Point,
    Route,
    convex_hull,
    hull_distance,
    is_threshold_degenerate,
    is_visible,
    point_along,
    route_to_global,
    squared_distance,
    to_global,
    to_local,
    truncated_length,
)

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


def test_squared_distance_examples():
    assert squared_distance(Point(0, 0), Point(0, 1)) == 1.0
    assert squared_distance(Point(0, 0), Point(0, 0)) == 0.0
    assert squared_distance(Point(0, 0.75), Point(1, 0)) == 25.0 / 16.0


@given(finite, finite, finite, finite)
def test_squared_distance_symmetry(ax, ay, bx, by):
    p, q = Point(ax, ay), Point(bx, by)
    assert squared_distance(p, q) == squared_distance(q, p)


@given(finite, finite, finite, finite, finite, finite)
def test_triangle_inequality_on_roots(ax, ay, bx, by, cx, cy):
    a, b, c = Point(ax, ay), Point(bx, by), Point(cx, cy)
    ab = math.sqrt(squared_distance(a, b))
    bc = math.sqrt(squared_distance(b, c))
    ac = math.sqrt(squared_distance(a, c))
    assert ac <= ab + bc + 1e-9


def test_visibility_threshold_is_closed():
    assert is_visible(Point(0, 0), Point(0, 1))
    assert not is_visible(Point(0, 0), Point(0, 1.001))
    assert not is_threshold_degenerate(Point(0, 0), Point(0, 1))
    assert is_threshold_degenerate(Point(0, 0), Point(1.0 + 2e-10, 0))


def test_truncated_length_examples():
    assert truncated_length(1.0, 0.25, 1.0) == 1.0
    assert truncated_length(1.0, 0.25, 0.0) == 0.25
    assert truncated_length(2.0, 0.5, 0.5) == 1.25


def test_truncated_length_short_route_is_traversed_fully():
    assert truncated_length(0.2, 0.25, 0.0) == 0.2
    assert truncated_length(0.0, 0.25, 0.7) == 0.0


def test_truncated_length_rejects_bad_z():
    with pytest.raises(InputError):
        truncated_length(1.0, 0.25, 1.5)
    with pytest.raises(InputError):
        truncated_length(1.0, 0.25, -0.1)


@given(st.floats(min_value=0.01, max_value=10), st.floats(min_value=0, max_value=5),
       st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_truncated_length_monotone_and_bounded(total, delta, z1, z2):
    lo, hi = sorted((z1, z2))
    a = truncated_length(total, delta, lo)
    b = truncated_length(total, delta, hi)
    assert a <= b + 1e-12
    if total > delta:
        assert truncated_length(total, delta, 0.0) == delta
        assert truncated_length(total, delta, 1.0) == total
        assert delta - 1e-12 <= a <= total + 1e-12


def test_point_along_examples():
    straight = Route((Point(0, 0), Point(0, 1)))
    assert point_along(straight, 0.0) == Point(0, 0)
    assert point_along(straight, 1.0) == Point(0, 1)
    bent = Route((Point(0, 0), Point(1, 0), Point(1, 1)))
    assert point_along(bent, 1.5) == Point(1, 0.5)


def test_point_along_endpoints_are_exact_vertices():
    r = Route((Point(0.1, 0.2), Point(0.7, 0.9)))
    assert point_along(r, r.length) is r.end
    assert point_along(r, 0.0) is r.start


def test_point_along_out_of_range():
    r = Route((Point(0, 0), Point(0, 1)))
    with pytest.raises(InputError):
        point_along(r, 1.5)


def test_route_simplicity():
    with pytest.raises(InputError):  # X crossing
        Route((Point(0, 0), Point(1, 1), Point(1, 0), Point(0, 1)))
    with pytest.raises(InputError):  # backtrack along the same segment
        Route((Point(0, 0), Point(1, 0), Point(0.5, 0)))
    with pytest.raises(InputError):  # duplicate consecutive vertex
        Route((Point(0, 0), Point(0, 0)))
    Route((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))  # open square ok
    assert Route.stay_put(Point(2, 3)).length == 0.0


def test_frame_examples():
    ident = FrameSpec(0.0, 1.0)
    assert to_local(ident, Point(0, 0), Point(2, 3)) == Point(2, 3)
    assert to_local(ident, Point(1, 1), Point(1, 1)) == Point(0, 0)
    quarter = FrameSpec(math.pi / 2, 2.0)
    p = to_local(quarter, Point(0, 0), Point(1, 0))
    assert abs(p.x - 0.0) <= 1e-9 and abs(p.y - (-0.5)) <= 1e-9
    back = to_global(quarter, Point(0, 0), p)
    assert abs(back.x - 1) <= 1e-9 and abs(back.y) <= 1e-9


def test_frame_round_trip_many():
    rng = random.Random(7)
    for _ in range(1000):
        origin = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        frame = FrameSpec(rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 4.0))
        g = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        back = to_global(frame, origin, to_local(frame, origin, g))
        assert abs(back.x - g.x) <= 1e-9 and abs(back.y - g.y) <= 1e-9


def test_route_to_global_drops_a_vertex_that_rounds_onto_the_one_before():
    here = Point(0.6, 0.6)
    # the hull target (1.23e-17, 0) seen from (0.6, 0.6) maps back onto it
    tiny = Route((Point(0, 0), Point(1.23e-17, 0)))
    assert route_to_global(FrameSpec(), here, tiny) == Route.stay_put(here)
    bent = Route((Point(0, 0), Point(1.23e-17, 0), Point(0.5, 0)))
    assert route_to_global(FrameSpec(), here, bent) == Route((here, Point(1.1, 0.6)))


def test_frame_rejects_nonpositive_unit():
    with pytest.raises(InputError):
        FrameSpec(0.0, 0.0)


def test_hull_distance():
    left = [Point(0, 0), Point(0, 1), Point(0.5, 0.5)]
    right = [Point(3, 0), Point(3, 1)]
    assert abs(hull_distance(left, right) - 2.5) <= 1e-12
    assert hull_distance([Point(0, 0)], [Point(0, 2)]) == 2.0
    assert len(convex_hull(left)) == 3
