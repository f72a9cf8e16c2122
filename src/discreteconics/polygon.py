"""Discrete conics: polygons with equal vertex angles at a pencil focus.

Three construction routes are provided:

* synthesize      -- sample the focal polar form at equally spaced angles;
* closed_form     -- evaluate the rational closed-form vertex expression,
                     which lands on the t = 1 member;
* negative_pedal  -- intersect consecutive perpendiculars erected on a unit
                     circle, which lands on the t = sec^2(theta/2) member.

The three agree through the tangent-intersection group action: the pedal
polygon is the G_theta image of a closed-form polygon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import AngleOutOfRange, FormulaPole, NotClosed, AllOppositeSidesParallel, ParallelLines, GeometryError
from .kernel import (
    TWO_PI,
    Line,
    Point,
    intersect_lines,
    line_through,
    normalize_angle,
    total_least_squares_line,
)
from .pencil import FocalConic, check_p, focal_parameter, focal_radii, pencil_member, point_at

_CLOSURE_EPS = 1e-9


@dataclass(frozen=True)
class DiscreteConic:
    """Polygon V_1..V_n on the (p, t) pencil member with vertex j at focal
    angle phi + (j-1)*theta measured from the focus (-p, 0); n and closed
    are derived from the vertices and theta, never passed.

    The side lines (sides), the tangency polygon (tangency) and the grid
    layers (layers) are built on first use and cached per instance, outside
    the fields: equality, repr and JSON never see them, and
    dataclasses.replace gives a fresh cache."""

    p: float
    t: float
    theta: float
    phi: float
    n: int = field(init=False)
    closed: bool = field(init=False)
    vertices: tuple[Point, ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", len(self.vertices))
        object.__setattr__(self, "closed", _is_closed(self.n, self.theta))

    @property
    def carrier(self) -> FocalConic:
        return pencil_member(self.p, self.t)

    @property
    def focus(self) -> Point:
        return Point(-self.p, 0.0)

    @property
    def inner(self) -> FocalConic:
        """The inscribed member t*cos^2(theta/2), tangent to every side."""
        c = math.cos(self.theta / 2.0)
        return pencil_member(self.p, self.t * c * c)

    @property
    def winding(self) -> int:
        return round(self.n * self.theta / TWO_PI)

    def vertex(self, j: int) -> Point:
        """1-based, wrapping for closed polygons."""
        if self.closed:
            return self.vertices[(j - 1) % self.n]
        if not 1 <= j <= self.n:
            raise IndexError(f"vertex index {j} out of range for an open chain")
        return self.vertices[j - 1]

    @cached_property
    def sides(self) -> tuple[Line, ...]:
        """Side lines S_1..S_num_sides, built once per instance."""
        return tuple(
            line_through(self.vertex(i), self.vertex(i + 1)) for i in range(1, self.num_sides + 1)
        )

    def side(self, i: int) -> Line:
        """Side line S_i through V_i and V_{i+1} (1-based, wrapping for closed
        polygons), read from sides: cached per instance, and fresh on a copy
        made with dataclasses.replace."""
        if self.closed:
            return self.sides[(i - 1) % self.n]
        if not 1 <= i <= self.num_sides:
            raise IndexError(f"side index {i} out of range for an open chain")
        return self.sides[i - 1]

    @cached_property
    def tangency(self) -> DiscreteConic:
        """The tangency polygon, built once per instance; see tangency_points."""
        if self.n < 2:
            raise ValueError("need at least two vertices")
        inner = self.inner
        half = self.theta / 2.0
        verts = tuple(
            point_at(inner, self.phi + j * self.theta + half) for j in range(self.num_sides)
        )
        return DiscreteConic(self.p, inner.t, self.theta, self.phi + half, verts)

    @cached_property
    def layers(self) -> dict[int, DiscreteConic]:
        """Grid layers built so far, by k; grid_layer fills it on success."""
        return {}

    @property
    def num_sides(self) -> int:
        return self.n if self.closed else self.n - 1


def _is_closed(n: int, theta: float) -> bool:
    """n*theta is a whole number of turns, and at least one: n*theta > pi,
    which n tiny steps that add up to nearly nothing, or a NaN theta, fail."""
    turns = n * theta
    return turns > math.pi and abs(normalize_angle(turns + math.pi) - math.pi) < _CLOSURE_EPS


def _check_theta_n(p: float, theta: float, n: int, phi: float) -> None:
    """The polygon rules of every constructor and of polygon JSON, p first."""
    check_p(p)
    if not 0.0 < theta < math.pi:
        raise AngleOutOfRange(f"theta must lie in (0, pi), got {theta}")
    if n < 3:
        raise ValueError(f"a polygon needs at least three vertices, got {n}")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")


def synthesize(p: float, t: float, theta: float, phi: float, n: int) -> DiscreteConic:
    """Vertices at focal angles phi + (j-1)*theta on the (p, t) member."""
    _check_theta_n(p, theta, n, phi)
    c = pencil_member(p, t)
    alphas = [phi + j * theta for j in range(n)]
    verts = tuple(Point(-c.p + r * math.cos(a), r * math.sin(a))
                  for a, r in zip(alphas, focal_radii(c, alphas)))
    return DiscreteConic(c.p, c.t, theta, phi, verts)


def closed_form_vertices(p: float, theta: float, phi: float, n: int) -> DiscreteConic:
    """Rational closed form for a discrete conic on the t = 1 member.

    V_j = ((p - cos psi) / (p cos psi - 1), (p^2 - 1) sin psi / (p cos psi - 1))
    with psi = (j-1)*theta + phi.  The focal direction of V_j from (-p, 0) is
    exactly (cos psi, sin psi), so the equal-angle property holds by algebra.
    """
    _check_theta_n(p, theta, n, phi)
    verts = []
    for j in range(n):
        psi = j * theta + phi
        denom = p * math.cos(psi) - 1.0
        if abs(denom) < 1e-12:
            raise FormulaPole(f"denominator vanishes at vertex {j + 1}")
        verts.append(
            Point(
                (p - math.cos(psi)) / denom,
                (p * p - 1.0) * math.sin(psi) / denom,
            )
        )
    return DiscreteConic(float(p), 1.0, theta, phi, tuple(verts))


@dataclass(frozen=True)
class PedalScaffold:
    """Unit-circle samples and the perpendiculars erected on them.

    samples[j] sits at angle (j+1)*theta + phi; lines[j] passes through
    samples[j] perpendicular to the segment from the pedal point.
    """

    pedal_point: Point
    samples: tuple[Point, ...]
    lines: tuple[Line, ...]


def negative_pedal(p: float, theta: float, phi: float, n: int) -> tuple[PedalScaffold, DiscreteConic]:
    """Discrete negative-pedal construction about the pedal point (p, 0).

    Vertices are intersections of consecutive scaffold lines.  They land on
    the t = sec^2(theta/2) member with first vertex at focal angle
    phi + 3*theta/2, and the equal-angle property holds at (-p, 0) even
    though that point plays no role in the construction.
    """
    _check_theta_n(p, theta, n, phi)
    pedal = Point(float(p), 0.0)
    samples = []
    lines = []
    for j in range(1, n + 2):  # one extra sample so V_n exists for open chains
        beta = j * theta + phi
        x = Point(math.cos(beta), math.sin(beta))
        nx, ny = x.x - pedal.x, x.y - pedal.y
        samples.append(x)
        lines.append(Line.from_coefficients(nx, ny, -(nx * x.x + ny * x.y)))
    verts = tuple(intersect_lines(lines[j], lines[j + 1]) for j in range(n))
    sec = 1.0 / math.cos(theta / 2.0)
    poly = DiscreteConic(float(p), sec * sec, theta, phi + 1.5 * theta, verts)
    return PedalScaffold(pedal, tuple(samples), tuple(lines)), poly


def tangency_points(d: DiscreteConic) -> DiscreteConic:
    """Contact points of the side lines with the inscribed member.

    M_j sits on the t*cos^2(theta/2) member at focal angle
    phi + (j-1)*theta + theta/2, midway between the incident vertices.  The
    polygon is cached on d (d.tangency): every call on one instance returns
    the same object, and dataclasses.replace gives a fresh cache.
    """
    return d.tangency


def grid_layer(d: DiscreteConic, k: int) -> DiscreteConic:
    """Polygon of intersections of side lines k apart: Z_i = S_i n S_{i+k}.

    Lands on the t*cos^2(theta/2)*sec^2(k*theta/2) member, Z_i at focal angle
    d.phi + theta/2 + (i-1)*theta + k*theta/2, plus pi where cos(k*theta/2) < 0.
    The layer's phi is Z_1's focal parameter, so synthesize reproduces it.
    It is cached on d (d.layers[k]) once built: every call on one instance
    returns the same object, and a call that raises caches nothing.
    """
    if k in d.layers:
        return d.layers[k]
    if not d.closed:
        raise NotClosed("grid layers are defined for closed polygons")
    if not 1 <= k <= d.n - 2:
        raise ValueError(f"k must lie in [1, n-2], got {k}")
    s = d.sides
    try:
        verts = tuple(intersect_lines(s[i], s[(i + k) % d.n]) for i in range(d.n))
    except ParallelLines:
        raise ParallelLines(
            f"side lines {k} apart are parallel; for opposite sides use "
            "opposite_side_intersections"
        )
    sec_k = 1.0 / math.cos(k * d.theta / 2.0)
    t_layer = d.inner.t * sec_k * sec_k
    phi_layer = focal_parameter(d.p, verts[0])
    layer = d.layers[k] = DiscreteConic(d.p, t_layer, d.theta, phi_layer, verts)
    return layer


def opposite_side_intersections(d: DiscreteConic) -> tuple[list[Point], Line]:
    """Intersections K_i = S_i n S_{i+n/2} of a closed even-sided polygon,
    with the total-least-squares line through them.

    The fitted line is perpendicular to the axis through the two foci; on the
    circle member every opposite pair is parallel and there is nothing to
    intersect.
    """
    indexed, line = _indexed_opposite_intersections(d)
    return [k for _, k in indexed], line


def _indexed_opposite_intersections(d: DiscreteConic) -> tuple[list[tuple[int, Point]], Line]:
    """(i, K_i) for each opposite pair that meets, and the line through the K_i."""
    if not d.closed:
        raise NotClosed("opposite sides require a closed polygon")
    if d.n % 2 != 0:
        raise GeometryError("opposite sides require an even-sided polygon")
    m = d.n // 2
    s = d.sides
    indexed = []
    for i in range(1, m + 1):  # one point per distinct opposite pair
        try:
            indexed.append((i, intersect_lines(s[i - 1], s[i - 1 + m])))
        except ParallelLines:
            continue
    if len(indexed) < 2:
        raise AllOppositeSidesParallel("all opposite side pairs are parallel")
    return indexed, total_least_squares_line([pt for _, pt in indexed])
