"""Planar primitives: points, normalized lines, focal angles, projective maps.

Everything here is a pure function over immutable values.  Lines are kept
normalized (a^2 + b^2 = 1) with a canonical sign so that |a*x + b*y + c| is
directly a point-line distance and two lines can be compared coefficientwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentPoints,
    DegenerateConfiguration,
    DegenerateRay,
    ParallelLines,
    PointAtInfinity,
)

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
    d = (a - b) % TWO_PI
    if d > math.pi:
        d -= TWO_PI
    return d


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        # Coerce numpy scalars so downstream JSON stays plain floats.
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")

    def __iter__(self):
        yield self.x
        yield self.y


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

    @classmethod
    def from_coefficients(cls, a: float, b: float, c: float) -> "Line":
        norm = math.hypot(a, b)
        if norm < DEGENERACY_EPS:
            raise DegenerateConfiguration("line with zero normal vector")
        a, b, c = a / norm, b / norm, c / norm
        if a < 0.0 or (a == 0.0 and b < 0.0):
            a, b, c = -a, -b, -c
        return cls(a, b, c)

    def distance_to(self, p: Point) -> float:
        return abs(self.a * p.x + self.b * p.y + self.c)

    def signed_distance_to(self, p: Point) -> float:
        return self.a * p.x + self.b * p.y + self.c

    def direction(self) -> tuple[float, float]:
        """A unit vector along the line."""
        return (-self.b, self.a)


def line_through(p: Point, q: Point) -> Line:
    if distance(p, q) < DEGENERACY_EPS:
        raise CoincidentPoints(f"points {p} and {q} coincide")
    a = p.y - q.y
    b = q.x - p.x
    c = p.x * q.y - q.x * p.y
    return Line.from_coefficients(a, b, c)


def intersect_lines(l1: Line, l2: Line) -> Point:
    det = l1.a * l2.b - l2.a * l1.b
    if abs(det) < DEGENERACY_EPS:
        raise ParallelLines(f"lines {l1} and {l2} are parallel")
    x = (l1.b * l2.c - l2.b * l1.c) / det
    y = (l2.a * l1.c - l1.a * l2.c) / det
    return Point(x, y)


def foot_perpendicular(p: Point, line: Line) -> Point:
    d = line.signed_distance_to(p)
    return Point(p.x - d * line.a, p.y - d * line.b)


def reflect_point(p: Point, line: Line) -> Point:
    d = line.signed_distance_to(p)
    return Point(p.x - 2.0 * d * line.a, p.y - 2.0 * d * line.b)


def directed_angle(f: Point, a: Point, b: Point) -> float:
    """Counterclockwise angle from ray f->a to ray f->b, in [0, 2*pi)."""
    if distance(f, a) < DEGENERACY_EPS or distance(f, b) < DEGENERACY_EPS:
        raise DegenerateRay("ray endpoint coincides with the vertex")
    ang_a = math.atan2(a.y - f.y, a.x - f.x)
    ang_b = math.atan2(b.y - f.y, b.x - f.x)
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

    Rows are tuples of plain floats, so applying the map needs no numpy.
    """

    m: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        norm = np.linalg.norm(m)
        if norm == 0.0 or abs(np.linalg.det(m / norm)) < DEGENERACY_EPS:
            raise DegenerateConfiguration("singular projective map")
        object.__setattr__(self, "m", tuple(map(tuple, (m / norm).tolist())))


def _any_three_collinear(points: list[Point]) -> bool:
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            for k in range(j + 1, len(points)):
                if _triangle_area_residual(points[i], points[j], points[k]) < 1e-9:
                    return True
    return False


def projective_from_correspondences(src: list[Point], dst: list[Point]) -> ProjectiveMap:
    """Unique homography sending four source points to four destination points.

    Solved as the null vector of the standard 8x9 direct linear system; the
    four-point problem is exactly determined, so the smallest singular vector
    is the map.
    """
    if len(src) != 4 or len(dst) != 4:
        raise ValueError("exactly four correspondences required")
    if _any_three_collinear(src) or _any_three_collinear(dst):
        raise DegenerateConfiguration("three of the four points are collinear")
    rows = []
    for s, d in zip(src, dst):
        x, y = s.x, s.y
        u, v = d.x, d.y
        rows.append([x, y, 1, 0, 0, 0, -u * x, -u * y, -u])
        rows.append([0, 0, 0, x, y, 1, -v * x, -v * y, -v])
    _, _, vt = np.linalg.svd(np.array(rows, dtype=float))
    return ProjectiveMap(vt[-1].reshape(3, 3))


def apply_map(m: ProjectiveMap, p: Point) -> Point:
    (a, b, c), (d, e, f), (g, h, i) = m.m
    hx = a * p.x + b * p.y + c
    hy = d * p.x + e * p.y + f
    hw = g * p.x + h * p.y + i
    if abs(hw) < DEGENERACY_EPS * max(1.0, abs(hx), abs(hy)):
        raise PointAtInfinity(f"{p} maps to the vanishing line")
    return Point(hx / hw, hy / hw)
