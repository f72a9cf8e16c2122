"""Discrete conics: polygons with equal vertex angles at a pencil focus.

Three construction routes are provided:

* synthesize      -- sample the focal polar form at equally spaced angles;
* closed_form     -- evaluate the rational closed-form vertex expression,
                     which lands on the t = 1 member (in reference, where
                     tests and the benchmark use it as an oracle);
* negative_pedal  -- intersect consecutive perpendiculars erected on a unit
                     circle, which lands on the t = sec^2(theta/2) member.

The three agree through the tangent-intersection group action: the pedal
polygon is the G_theta image of a closed-form polygon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from . import _forwarder
from .errors import (AllOppositeSidesParallel, AngleOutOfRange, GeometryError, NotClosed,
                     OnExcludedLine, ParallelLines)
from .kernel import (
    TWO_PI,
    Line,
    Point,
    intersect_lines,
    intersections_xy,
    line_coefficients,
    normalize_angle,
    points_xy,
)
from .pencil import FocalConic, check_p, focal_parameter, pencil_member, point_at, points_at_xy

# The closed form lives in reference; it imports from here too.
__getattr__ = _forwarder(globals(), {"closed_form_vertices": "reference"})

_CLOSURE_EPS = 1e-9


@dataclass(frozen=True)
class DiscreteConic:
    """Polygon V_1..V_n on the (p, t) pencil member with vertex j at focal
    angle phi + (j-1)*theta measured from the focus (-p, 0); n and closed
    are derived from the vertices and theta, never passed.

    The normalized side coefficients (side_coefficients), the side lines
    built from them (sides, side), the tangency polygon (tangency) and the
    grid layers (layers) are built on first use and cached per instance,
    outside the fields: equality, repr and JSON never see them, and
    dataclasses.replace gives a fresh cache.  The checks read the side
    coefficients, and a side Line only where they need one (reflective,
    isogonal); they read single tangency points through tangency_point, so
    on an even n run_checks leaves the tangency cache empty."""

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
    def side_coefficients(self) -> tuple[tuple[float, float, float], ...]:
        """The normalized (a, b, c) of S_1..S_num_sides, formed once per
        instance in one line_coefficients call, with line_through's float
        operations and checks: the one place side geometry is computed."""
        v = self.vertices
        following = v[1:] + v[:1] if self.closed else v[1:]
        return tuple(line_coefficients(v, following))

    @cached_property
    def sides(self) -> tuple[Line, ...]:
        """Side lines S_1..S_num_sides, the Lines side(i) returns."""
        return tuple(self._side_line(i) for i in range(self.num_sides))

    def side(self, i: int) -> Line:
        """Side line S_i through V_i and V_{i+1} (1-based, wrapping for closed
        polygons), built from side_coefficients on first use: cached per
        instance, and fresh on a copy made with dataclasses.replace."""
        if self.closed:
            return self._side_line((i - 1) % self.n)
        if not 1 <= i <= self.num_sides:
            raise IndexError(f"side index {i} out of range for an open chain")
        return self._side_line(i - 1)

    @cached_property
    def _side_lines(self) -> dict[int, Line]:
        """Side Lines built so far, by 0-based index."""
        return {}

    def _side_line(self, index: int) -> Line:
        lines = self._side_lines
        if index not in lines:
            lines[index] = Line(*self.side_coefficients[index])
        return lines[index]

    @cached_property
    def tangency(self) -> DiscreteConic:
        """The tangency polygon, built once per instance; see tangency_points."""
        if self.n < 2:
            raise ValueError("need at least two vertices")
        inner = self.inner
        verts = tuple(point_at(inner, self._contact_angle(i)) for i in range(self.num_sides))
        return DiscreteConic(self.p, inner.t, self.theta, self.phi + self.theta / 2.0, verts)

    def tangency_point(self, j: int) -> Point:
        """M_j, where side j touches the inner member: tangency.vertex(j),
        without building the tangency polygon.  1-based, wrapping like side."""
        if not self.closed and not 1 <= j <= self.num_sides:
            raise IndexError(f"tangency index {j} out of range for an open chain")
        return point_at(self.inner, self._contact_angle((j - 1) % self.n))

    def _contact_angle(self, i: int) -> float:
        """The focal angle of M_{i+1}: phi + i*theta + theta/2."""
        return self.phi + i * self.theta + self.theta / 2.0

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
    verts = points_xy(_synthesized_xy(p, t, theta, phi, n))
    return DiscreteConic(float(p), float(t), theta, phi, verts)


def _synthesized_xy(p: float, t: float, theta: float, phi: float, n: int):
    """synthesize's checks, then a lazy iterator over its vertices as (x, y)
    pairs in angle order, so a caller meets the errors synthesize raises."""
    _check_theta_n(p, theta, n, phi)
    return points_at_xy(pencil_member(p, t), [phi + j * theta for j in range(n)])


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
    the same object, and dataclasses.replace gives a fresh cache.  A check
    that reads a few M_j calls d.tangency_point(j) instead, so only the
    odd-n diagonals check fills this cache.
    """
    return d.tangency


def grid_layer(d: DiscreteConic, k: int) -> DiscreteConic:
    """Polygon of intersections of side lines k apart: Z_i = S_i n S_{i+k}.

    Lands on the t*cos^2(theta/2)*sec^2(k*theta/2) member, Z_i at focal angle
    d.phi + theta/2 + (i-1)*theta + k*theta/2, plus pi where cos(k*theta/2) < 0.
    Where cos(k*theta/2) = 0 there is no such member: the layer lies on the
    excluded line x = -1/p (OnExcludedLine), or at infinity for p = 0
    (ParallelLines).
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
    s = d.side_coefficients
    parallel = (f"side lines {k} apart are parallel; for opposite sides use "
                "opposite_side_intersections")
    cos_k = math.cos(k * d.theta / 2.0)
    # On a closed polygon |cos(k*theta/2)| is 0 up to rounding or at least
    # sin(pi/(2n)); at 0 the sides meet on x = -1/p, at infinity for p = 0.
    if abs(cos_k) < 0.5 * math.sin(math.pi / (2 * d.n)):
        if d.p == 0.0:
            raise ParallelLines(parallel)
        raise OnExcludedLine(f"side lines {k} apart meet on the excluded line x = {-1.0 / d.p}")
    try:
        verts = points_xy(intersections_xy(s, s[k:] + s[:k]))
    except ParallelLines:
        raise ParallelLines(parallel)
    sec_k = 1.0 / cos_k
    t_layer = d.inner.t * sec_k * sec_k
    phi_layer = focal_parameter(d.p, verts[0])
    layer = d.layers[k] = DiscreteConic(d.p, t_layer, d.theta, phi_layer, verts)
    return layer


def opposite_side_intersections(d: DiscreteConic) -> tuple[list[Point], Line]:
    """Intersections K_i = S_i n S_{i+n/2} of a closed even-sided polygon,
    with the line they lie on: the shared directrix x = -1/p.

    The directrix is the focal homology's image of the line at infinity,
    where a regular polygon's opposite sides meet; it is perpendicular to
    the axis through the two foci.  On the circle member every opposite pair
    is parallel and there is nothing to intersect.
    """
    indexed, line = _indexed_opposite_intersections(d)
    return [Point(x, y) for _, (x, y) in indexed], line


def _indexed_opposite_intersections(d: DiscreteConic) -> tuple[list, Line]:
    """(i, K_i) for each opposite pair that meets, K_i as an (x, y) pair, and
    the directrix x = -1/p."""
    if not d.closed:
        raise NotClosed("opposite sides require a closed polygon")
    if d.n % 2 != 0:
        raise GeometryError("opposite sides require an even-sided polygon")
    m = d.n // 2
    s = d.side_coefficients
    # One point per distinct opposite pair, S_i and S_{i+m}.
    meets = intersections_xy(s[:m], s[m:], skip_parallel=True)
    indexed = [(i, k) for i, k in enumerate(meets, 1) if k is not None]
    if len(indexed) < 2:
        raise AllOppositeSidesParallel("all opposite side pairs are parallel")
    return indexed, Line(1.0, 0.0, 1.0 / d.p)
