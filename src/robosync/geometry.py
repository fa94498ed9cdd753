"""Planar geometry: points, polyline routes, local frames, truncation arithmetic.

All coordinates are 64-bit floats in either the global frame or a robot's
local frame.  Visibility tests are done on squared distances against 1.0 so
that grid-built scenarios (unit separations, quarter steps) stay exact.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import InputError

# Tolerance band around the squared visibility threshold.  A pair sitting at
# exactly 1.0 is visible (closed ball); a pair inside the band but not exactly
# at it is ambiguous and the scenario is rejected as degenerate.
VISIBILITY_EPS = 1e-9

EPS = 1e-9


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InputError(f"non-finite point ({self.x}, {self.y})")

    def as_pair(self) -> tuple[float, float]:
        return (self.x, self.y)


ORIGIN = Point(0.0, 0.0)


def squared_distance(p: Point, q: Point) -> float:
    """Squared Euclidean distance; used for exact threshold tests."""
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def same_points(a: Sequence[Point], b: Sequence[Point], eps: float) -> bool:
    """Equal as unordered point collections: same size, and after sorting
    both by (x, y) each pair agrees within eps per coordinate."""
    if len(a) != len(b):
        return False
    return all(abs(p.x - q.x) <= eps and abs(p.y - q.y) <= eps
               for p, q in zip(sorted(a, key=Point.as_pair), sorted(b, key=Point.as_pair)))


def distance(p: Point, q: Point) -> float:
    return math.sqrt(squared_distance(p, q))


def is_visible(p: Point, q: Point) -> bool:
    """Unit visibility range, closed ball: distance exactly 1 counts."""
    return squared_distance(p, q) <= 1.0


def is_threshold_degenerate(p: Point, q: Point) -> bool:
    """True when the pair is inside the ambiguity band but not exactly at 1."""
    sq = squared_distance(p, q)
    return sq != 1.0 and abs(sq - 1.0) < VISIBILITY_EPS


def truncated_length(total: float, delta: float, z: float) -> float:
    """Realized length of a route truncated by the adversary draw z.

    A route no longer than the minimum movement distance is traversed fully;
    otherwise the realized length is delta + z * (total - delta), which is
    total at z=1 and exactly delta at z=0.
    """
    if total < 0 or delta < 0:
        raise InputError("lengths must be non-negative")
    if not 0.0 <= z <= 1.0:
        raise InputError(f"truncation draw z={z} outside [0, 1]")
    if total <= delta:
        return total
    return total * z - delta * (z - 1.0)


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    """p collinear with a-b assumed; is p within the bounding box?"""
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Closed-segment intersection test, including collinear overlap."""
    d1 = _orient(c, d, a)
    d2 = _orient(c, d, b)
    d3 = _orient(a, b, c)
    d4 = _orient(a, b, d)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    if d1 == 0 and _on_segment(c, d, a):
        return True
    if d2 == 0 and _on_segment(c, d, b):
        return True
    if d3 == 0 and _on_segment(a, b, c):
        return True
    if d4 == 0 and _on_segment(a, b, d):
        return True
    return False


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    ax, ay = b.x - a.x, b.y - a.y
    seg_sq = ax * ax + ay * ay
    if seg_sq == 0.0:
        return distance(p, a)
    t = ((p.x - a.x) * ax + (p.y - a.y) * ay) / seg_sq
    t = max(0.0, min(1.0, t))
    proj = Point(a.x + t * ax, a.y + t * ay)
    return distance(p, proj)


def segment_distance(a: Point, b: Point, c: Point, d: Point) -> float:
    if segments_intersect(a, b, c, d):
        return 0.0
    return min(
        point_segment_distance(a, c, d),
        point_segment_distance(b, c, d),
        point_segment_distance(c, a, b),
        point_segment_distance(d, a, b),
    )


def convex_hull(points: list[Point]) -> list[Point]:
    """Monotone-chain hull; degenerate inputs (1 or 2 points) pass through."""
    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) <= 2:
        return [Point(x, y) for x, y in pts]

    def chain(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    return [Point(x, y) for x, y in lower[:-1] + upper[:-1]]


def hull_distance(points_a: list[Point], points_b: list[Point]) -> float:
    """Minimum distance between the convex hulls of two point sets."""
    ha = convex_hull(points_a)
    hb = convex_hull(points_b)

    def edges(h: list[Point]) -> list[tuple[Point, Point]]:
        if len(h) == 1:
            return [(h[0], h[0])]
        return [(h[k], h[(k + 1) % len(h)]) for k in range(len(h))]

    return min(
        segment_distance(a1, a2, b1, b2)
        for a1, a2 in edges(ha)
        for b1, b2 in edges(hb)
    )


class Route:
    """A simple polyline in some frame; a single vertex is a stay-put route.

    Simplicity (no self-intersection) is validated at construction with an
    O(k^2) segment test; adjacent segments may share only their joint vertex.
    """

    __slots__ = ("vertices", "cumulative")

    def __init__(self, vertices: list[Point] | tuple[Point, ...]):
        verts = tuple(vertices)
        if not verts:
            raise InputError("route needs at least one vertex")
        for a, b in zip(verts, verts[1:]):
            if a == b:
                raise InputError("route has a zero-length segment")
        self._validate_simplicity(verts)
        cum = [0.0]
        for a, b in zip(verts, verts[1:]):
            cum.append(cum[-1] + distance(a, b))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "cumulative", tuple(cum))

    @staticmethod
    def _validate_simplicity(verts: tuple[Point, ...]) -> None:
        segs = list(zip(verts, verts[1:]))
        for i in range(len(segs)):
            for k in range(i + 1, len(segs)):
                a, b = segs[i]
                c, d = segs[k]
                if k == i + 1:
                    # The joint vertex is shared; reject only a backtrack.
                    if _orient(a, b, d) == 0 and (b.x - a.x) * (d.x - c.x) + (b.y - a.y) * (d.y - c.y) < 0:
                        raise InputError("route backtracks on itself")
                    continue
                closed = k == len(segs) - 1 and i == 0 and verts[0] == verts[-1]
                if closed:
                    raise InputError("route is a closed loop")
                if segments_intersect(a, b, c, d):
                    raise InputError("route is not a simple curve")

    @classmethod
    def stay_put(cls, at: Point = ORIGIN) -> "Route":
        return cls((at,))

    @property
    def start(self) -> Point:
        return self.vertices[0]

    @property
    def end(self) -> Point:
        return self.vertices[-1]

    @property
    def length(self) -> float:
        return self.cumulative[-1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Route) and self.vertices == other.vertices

    def __repr__(self) -> str:
        return f"Route({list(self.vertices)!r})"


def point_along(route: Route, s: float) -> Point:
    """The unique point at arclength s along the polyline."""
    total = route.length
    if s < -EPS or s > total + EPS:
        raise InputError(f"arclength {s} outside [0, {total}]")
    if s <= 0.0:
        return route.start
    if s >= total:
        return route.end
    cum = route.cumulative
    verts = route.vertices
    for k in range(1, len(cum)):
        if s <= cum[k]:
            seg_len = cum[k] - cum[k - 1]
            t = (s - cum[k - 1]) / seg_len
            a, b = verts[k - 1], verts[k]
            return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    return route.end


@dataclass(frozen=True)
class FrameSpec:
    """A robot's private coordinate system, rotated and uniformly scaled
    relative to the global frame; its origin is the robot's position."""
    rotation: float = 0.0
    unit: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.rotation):
            raise InputError(f"frame rotation must be finite, got {self.rotation}")
        if not 0 < self.unit < math.inf:
            raise InputError(f"frame unit must be finite and positive, got {self.unit}")


def to_local(frame: FrameSpec, origin: Point, g: Point) -> Point:
    c = math.cos(frame.rotation)
    s = math.sin(frame.rotation)
    dx = g.x - origin.x
    dy = g.y - origin.y
    return Point((c * dx + s * dy) / frame.unit, (-s * dx + c * dy) / frame.unit)


def to_global(frame: FrameSpec, origin: Point, l: Point) -> Point:
    c = math.cos(frame.rotation)
    s = math.sin(frame.rotation)
    gx = frame.unit * (c * l.x - s * l.y)
    gy = frame.unit * (s * l.x + c * l.y)
    return Point(origin.x + gx, origin.y + gy)


def route_to_global(frame: FrameSpec, origin: Point, route: Route) -> Route:
    """The route's global image; a vertex that rounds onto the one before it
    is dropped, so a target too close to the origin stays put."""
    verts = [to_global(frame, origin, v) for v in route.vertices]
    return Route([v for k, v in enumerate(verts) if k == 0 or v != verts[k - 1]])
