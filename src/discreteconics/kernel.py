"""Planar primitives: points, normalized lines, focal angles, projective maps.

Everything here is a pure function over immutable values.  Lines are kept
normalized (a^2 + b^2 = 1) with a canonical sign so that |a*x + b*y + c| is
directly a point-line distance and two lines can be compared coefficientwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _forwarder
from .errors import (
    CoincidentPoints,
    DegenerateConfiguration,
    DegenerateRay,
    ParallelLines,
    PointAtInfinity,
)

# The four-point fit lives in reference; these names import from here too.
__getattr__ = _forwarder(globals(), dict.fromkeys(
    ("projective_from_correspondences", "_matmul3", "_projective_basis"), "reference"))

TWO_PI = 2.0 * math.pi

# Hard degeneracy threshold, in normalized units.  Residual tolerances are
# configurable per call; this one is not.
DEGENERACY_EPS = 1e-12


def normalize_angle(a: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    a = a % TWO_PI
    if a >= TWO_PI:  # guards a % TWO_PI == TWO_PI for tiny negative a
        a -= TWO_PI
    return a


def wrapped_diff(a: float, b: float) -> float:
    """Smallest-magnitude representative of a - b modulo 2*pi, in [-pi, pi]."""
    return wrapped_diffs((a,), (b,))[0]


def wrapped_diffs(xs, ys) -> list[float]:
    """wrapped_diff(x, y) for each pair of angles."""
    return [d - TWO_PI if (d := (x - y) % TWO_PI) > math.pi else d for x, y in zip(xs, ys)]


def left_sum(values) -> float:
    """The floats added left to right, as sum() adds them before Python 3.12,
    whose sum() compensates: the same bits on every Python version."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        # Coerce numpy scalars so downstream JSON stays plain floats.
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise _non_finite_xy(self.x, self.y)


def _non_finite_xy(x: float, y: float) -> ValueError:
    return ValueError(f"non-finite coordinates ({x}, {y})")


def points_xy(pairs) -> tuple[Point, ...]:
    """tuple(starmap(Point, pairs)) for (x, y) float pairs, bit for bit, with
    Point's ValueError at the first non-finite pair, but without a
    Point.__init__ per pair: each Point is set field by field, as
    __post_init__ does."""
    out = []
    for x, y in pairs:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise _non_finite_xy(x, y)
        p = object.__new__(Point)
        object.__setattr__(p, "x", x)
        object.__setattr__(p, "y", y)
        out.append(p)
    return tuple(out)


def distance(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


@dataclass(frozen=True)
class Line:
    """Line {(x, y) : a*x + b*y + c = 0} with a^2 + b^2 = 1.

    (a, b, c) and (-a, -b, -c) denote the same line; construction picks the
    representative whose first nonzero of (a, b) is positive.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))
        _check_coefficients(self.a, self.b, self.c)

    @classmethod
    def from_coefficients(cls, a: float, b: float, c: float) -> "Line":
        return cls(*normalized_coefficients(a, b, c))

    def distance_to(self, p: Point) -> float:
        return abs(self.a * p.x + self.b * p.y + self.c)

    def signed_distance_to(self, p: Point) -> float:
        return self.a * p.x + self.b * p.y + self.c

    def direction(self) -> tuple[float, float]:
        """A unit vector along the line."""
        return (-self.b, self.a)


def _check_coefficients(a: float, b: float, c: float) -> tuple[float, float, float]:
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError(f"non-finite coefficients ({a}, {b}, {c})")
    return a, b, c


def normalized_coefficients(a: float, b: float, c: float) -> tuple[float, float, float]:
    """The (a, b, c) that Line.from_coefficients stores: scaled to
    a^2 + b^2 = 1, with the first nonzero of (a, b) positive."""
    _check_coefficients(a, b, c)  # before dividing, so the message shows the given values
    norm = math.hypot(a, b)
    if norm < DEGENERACY_EPS:
        raise DegenerateConfiguration("line with zero normal vector")
    a, b, c = a / norm, b / norm, c / norm
    if a < 0.0 or (a == 0.0 and b < 0.0):
        return -a, -b, -c
    return a, b, c


def line_through(p: Point, q: Point) -> Line:
    return Line(*coefficients_through(p, q))


def coefficients_through(p: Point, q: Point) -> tuple[float, float, float]:
    """The normalized coefficients of line_through(p, q), without the Line."""
    return next(chords_xy(((p.x, p.y),), ((q.x, q.y),)))


def chords_xy(us, vs):
    """coefficients_through for each pair of points, each an (x, y) pair,
    lazily: a normalized c may overflow to inf, which Line would reject."""
    for (px, py), (qx, qy) in zip(us, vs):
        if math.hypot(px - qx, py - qy) < DEGENERACY_EPS:
            raise CoincidentPoints(f"points {Point(px, py)} and {Point(qx, qy)} coincide")
        a, b, c = py - qy, qx - px, px * qy - qx * py
        norm = math.hypot(a, b)  # the distance checked above
        # A non-finite a, b or c makes the sum non-finite; so can finite ones.
        if not math.isfinite(a + b + c):
            normalized_coefficients(a, b, c)  # raises this pair's error, if it has one
        a, b, c = a / norm, b / norm, c / norm
        yield (-a, -b, -c) if a < 0.0 or (a == 0.0 and b < 0.0) else (a, b, c)


def line_coefficients(us, vs) -> list[tuple[float, float, float]]:
    """line_coefficients_xy for each pair of Points."""
    return line_coefficients_xy([(p.x, p.y) for p in us], [(q.x, q.y) for q in vs])


def line_coefficients_xy(us, vs) -> list[tuple[float, float, float]]:
    """The (a, b, c) of line_through(u, v) for each pair of (x, y) points:
    chords_xy with Line's check, which only a normalized c can fail, as |a|
    and |b| are at most 1.  Each error is a line_through loop's first."""
    return [abc if math.isfinite(abc[2]) else _check_coefficients(*abc)
            for abc in chords_xy(us, vs)]


def checked_coefficients(a: float, b: float, c: float) -> tuple[float, float, float]:
    """The (a, b, c) that Line.from_coefficients(a, b, c) stores, with every
    check it makes, without the Line."""
    return _check_coefficients(*normalized_coefficients(a, b, c))  # a normalized c can overflow


def finite_xy(xys):
    """Each (x, y) pair of xys, lazily, with the ValueError a Point of the
    first non-finite pair raises."""
    for x, y in xys:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise _non_finite_xy(x, y)
        yield x, y


def intersect_lines(l1: Line, l2: Line) -> Point:
    """The meeting point of two lines, each a Line or its (a, b, c) tuple."""
    return Point(*intersections_xy((l1,), (l2,))[0])


def intersections_xy(firsts, seconds, skip_parallel: bool = False) -> list:
    """The meeting point of each pair of lines, each a Line or its (a, b, c)
    tuple, as an (x, y) pair: ParallelLines naming the two lines as given,
    and a Point's ValueError for a non-finite coordinate, each error at the
    first pair that fails.  With skip_parallel a parallel pair gives None
    instead of raising."""
    out = []
    for l1, l2 in zip(firsts, seconds):
        a1, b1, c1 = l1 if type(l1) is tuple else (l1.a, l1.b, l1.c)
        a2, b2, c2 = l2 if type(l2) is tuple else (l2.a, l2.b, l2.c)
        det = a1 * b2 - a2 * b1
        if abs(det) < DEGENERACY_EPS:
            if skip_parallel:
                out.append(None)
                continue
            raise ParallelLines(f"lines {l1} and {l2} are parallel")
        x = (b1 * c2 - b2 * c1) / det
        y = (a2 * c1 - a1 * c2) / det
        if not (math.isfinite(x) and math.isfinite(y)):
            raise _non_finite_xy(x, y)
        out.append((x, y))
    return out


def _centroid(points: list[Point]) -> tuple[float, float]:
    return left_sum(p.x for p in points) / len(points), left_sum(p.y for p in points) / len(points)


def foot_perpendicular(p: Point, line: Line) -> Point:
    d = line.signed_distance_to(p)
    return Point(p.x - d * line.a, p.y - d * line.b)


def reflect_point(p: Point, line: Line) -> Point:
    d = line.signed_distance_to(p)
    return Point(p.x - 2.0 * d * line.a, p.y - 2.0 * d * line.b)


def ray_angle(f: Point, a: Point) -> float:
    """Angle of the ray f->a, in [-pi, pi]."""
    return ray_angles((f.x, f.y), ((a.x, a.y),))[0]


def ray_angles(f, xys) -> list[float]:
    """ray_angle from the vertex f to each endpoint, all of them (x, y)
    pairs: DegenerateRay at the first endpoint within DEGENERACY_EPS of f."""
    fx, fy = f
    out = []
    for x, y in xys:
        if math.hypot(fx - x, fy - y) < DEGENERACY_EPS:
            raise DegenerateRay("ray endpoint coincides with the vertex")
        out.append(math.atan2(y - fy, x - fx))
    return out


def directed_angle(f: Point, a: Point, b: Point) -> float:
    """Counterclockwise angle from ray f->a to ray f->b, in [0, 2*pi)."""
    ang_a, ang_b = ray_angles((f.x, f.y), ((a.x, a.y), (b.x, b.y)))
    return normalize_angle(ang_b - ang_a)


def _triangle_area_residual(a: Point, b: Point, c: Point) -> float:
    """Scale-free collinearity residual: area over the longest incident side."""
    ux, uy = b.x - a.x, b.y - a.y
    vx, vy = c.x - a.x, c.y - a.y
    cross = abs(ux * vy - uy * vx)
    scale = max(math.hypot(ux, uy), math.hypot(vx, vy), DEGENERACY_EPS)
    return cross / scale


@dataclass(frozen=True, eq=False)
class ProjectiveMap:
    """3x3 homogeneous map; matrices proportional to each other are equal maps.

    Rows are tuples of plain floats, scaled to unit Frobenius norm; any 3x3
    nested sequence of numbers is accepted.
    """

    m: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        rows = [[float(v) for v in row] for row in self.m]
        norm = math.hypot(*(v for row in rows for v in row))
        if norm == 0.0:
            raise DegenerateConfiguration("zero projective map")
        m = tuple(tuple(v / norm for v in row) for row in rows)
        adj = _adjugate3(m)
        if abs(left_sum(m[0][k] * adj[k][0] for k in range(3))) < DEGENERACY_EPS:
            raise DegenerateConfiguration("singular projective map")
        object.__setattr__(self, "m", m)


def _adjugate3(m) -> tuple[tuple[float, float, float], ...]:
    """adj(m) = det(m) * inverse(m), defined for singular m too."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def map_xy(m: ProjectiveMap, x: float, y: float) -> tuple[float, float]:
    """The image of the point (x, y) under m, as a coordinate pair."""
    return map_points_xy(m, (Point(x, y),))[0]


def map_points_xy(m: ProjectiveMap, points) -> list[tuple[float, float]]:
    """The image of each point under m as a coordinate pair, with m's
    entries read once: PointAtInfinity at the first point that maps to the
    vanishing line."""
    (a, b, c), (d, e, f), (g, h, i) = m.m
    out = []
    for p in points:
        x, y = p.x, p.y
        hx = a * x + b * y + c
        hy = d * x + e * y + f
        hw = g * x + h * y + i
        if abs(hw) < DEGENERACY_EPS * max(1.0, abs(hx), abs(hy)):
            raise PointAtInfinity(f"{Point(x, y)} maps to the vanishing line")
        out.append((hx / hw, hy / hw))
    return out


def apply_map(m: ProjectiveMap, p: Point) -> Point:
    return Point(*map_points_xy(m, (p,))[0])
