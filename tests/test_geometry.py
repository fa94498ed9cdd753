import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

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
    truncated_length,
)

from oracles import route_oracle, route_to_global_oracle, to_global

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


# coordinates that repeat, sign a zero, and put vertices on one line, so
# routes hit repeated points, backtracks, closed loops and crossings
_route_coord = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 0.1, 0.3, 1e-200]), finite)
_route_point = st.builds(Point, _route_coord, _route_coord)
_route_vertices = st.lists(_route_point, min_size=1, max_size=6)
_closed_route_vertices = st.lists(_route_point, min_size=3, max_size=5).map(lambda v: v + v[:1])


@settings(max_examples=400, deadline=None)
@given(st.one_of(_route_vertices, _closed_route_vertices))
@example([Point(0.0, 0.0), Point(-0.0, 0.0)])  # a zero-length segment across signed zeros
@example([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1), Point(0, 0)])  # a closed loop
@example([Point(0, 0), Point(1, 0), Point(0.5, 0)])  # a collinear backtrack
@example([Point(0, 0), Point(1, 1), Point(1, 0), Point(0, 1)])  # crossing segments
@example([Point(0.1, 0.2), Point(0.7, 0.9), Point(1.3, 0.1), Point(2.9, 0.3)])  # inexact sums
def test_route_matches_the_segment_by_segment_oracle(vertices):
    """Vertices, bit-equal cumulative lengths, and the same error from the
    same check, as a route built with a dataclass `==` and a `distance` call
    per segment."""
    try:
        verts, cumulative = route_oracle(vertices)
    except InputError as expected:
        with pytest.raises(InputError) as refused:
            Route(vertices)
        assert str(refused.value) == str(expected)
        return
    route = Route(vertices)
    assert route.vertices == verts
    assert [(p.x.hex(), p.y.hex()) for p in route.vertices] == [(p.x.hex(), p.y.hex()) for p in verts]
    assert [c.hex() for c in route.cumulative] == [c.hex() for c in cumulative]


def test_frame_examples():
    ident = FrameSpec(0.0, 1.0)
    assert ident.local(2, 3) == Point(2, 3)
    assert ident.local(0, 0) == Point(0, 0)
    quarter = FrameSpec(math.pi / 2, 2.0)
    p = quarter.local(1, 0)
    assert abs(p.x - 0.0) <= 1e-9 and abs(p.y - (-0.5)) <= 1e-9
    back = to_global(quarter, Point(0, 0), p)
    assert abs(back.x - 1) <= 1e-9 and abs(back.y) <= 1e-9


def test_frame_round_trip_many():
    rng = random.Random(7)
    for _ in range(1000):
        origin = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        frame = FrameSpec(rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 4.0))
        g = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        back = to_global(frame, origin, frame.local(g.x - origin.x, g.y - origin.y))
        assert abs(back.x - g.x) <= 1e-9 and abs(back.y - g.y) <= 1e-9


def test_route_to_global_drops_a_vertex_that_rounds_onto_the_one_before():
    here = Point(0.6, 0.6)
    # the hull target (1.23e-17, 0) seen from (0.6, 0.6) maps back onto it
    tiny = Route((Point(0, 0), Point(1.23e-17, 0)))
    assert route_to_global(FrameSpec(), here, tiny) == Route.stay_put(here)
    bent = Route((Point(0, 0), Point(1.23e-17, 0), Point(0.5, 0)))
    assert route_to_global(FrameSpec(), here, bent) == Route((here, Point(1.1, 0.6)))


# local coordinates that map onto the origin or onto each other once scaled,
# rotated and added to an origin far larger than they are
_tiny = st.floats(min_value=-1e-12, max_value=1e-12)
_local_coord = st.one_of(st.sampled_from([0.0, -0.0, 1.23e-17, 0.5]), _tiny, finite)
_origin_coord = st.one_of(st.sampled_from([0.0, -0.0, 0.6, 1e3]),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _local_routes(draw):
    """1-5 local vertices, each next one either anywhere or a tiny step from
    the one before it; the first is often the local origin."""
    verts = [Point(0.0, 0.0)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(min_value=1, max_value=5)) - len(verts)):
        if verts and draw(st.booleans()):
            p = verts[-1]
            verts.append(Point(p.x + draw(_tiny), p.y + draw(_tiny)))
        else:
            verts.append(Point(draw(_local_coord), draw(_local_coord)))
    return verts or [Point(0.0, 0.0)]


@settings(max_examples=400, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.one_of(st.floats(min_value=1e-3, max_value=1e3), st.sampled_from([1e-300, 1e300])),
       _origin_coord, _origin_coord, _local_routes())
@example(0.0, 1.0, 0.6, 0.6, [Point(0, 0), Point(1.23e-17, 0)])  # target onto the origin
@example(0.0, 1.0, 0.6, 0.6, [Point(0, 0), Point(1.23e-17, 0), Point(0.5, 0)])
@example(0.0, 1.0, 1e3, -0.0, [Point(0, 0), Point(0.5, 0), Point(0.5 + 2e-15, 0)])
@example(0.3, 1e300, 0.0, -0.0, [Point(0, 0), Point(1e10, 0)])  # an image overflows
@example(0.3, 1e300, 0.0, 0.0, [Point(1e-300, 0), Point(1e10, 0)])  # the start's image is finite
def test_route_to_global_matches_the_point_by_point_oracle(rotation, unit, ox, oy, vertices):
    """The global image keeps the oracle's vertices, bit-equal (`float.hex`),
    and refuses with its `InputError`, which names the same vertex."""
    try:
        local = Route(vertices)
    except InputError:
        return
    frame, origin = FrameSpec(rotation, unit), Point(ox, oy)
    try:
        expected = route_to_global_oracle(frame, origin, local)
    except InputError as refused_by_oracle:
        with pytest.raises(InputError) as refused:
            route_to_global(frame, origin, local)
        assert str(refused.value) == str(refused_by_oracle)
        return
    route = route_to_global(frame, origin, local)
    assert [(p.x.hex(), p.y.hex()) for p in route.vertices] == \
        [(p.x.hex(), p.y.hex()) for p in expected.vertices]
    assert [c.hex() for c in route.cumulative] == [c.hex() for c in expected.cumulative]


def test_frame_rejects_nonpositive_unit():
    with pytest.raises(InputError):
        FrameSpec(0.0, 0.0)


def test_hull_distance():
    left = [Point(0, 0), Point(0, 1), Point(0.5, 0.5)]
    right = [Point(3, 0), Point(3, 1)]
    assert abs(hull_distance(left, right) - 2.5) <= 1e-12
    assert hull_distance([Point(0, 0)], [Point(0, 2)]) == 2.0
    assert len(convex_hull(left)) == 3
