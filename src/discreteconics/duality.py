"""Reciprocation (polar duality) about a circle centered at the pencil focus.

The transform exchanges points and lines: the polar of P is the line
perpendicular to the radius through the inverse of P, and the pole of a line
is the inverse of the foot of the perpendicular from the center.  A pencil
member reciprocated about its focus becomes a circle, namely the inverse
image of its pedal circle.  The circle side of a member lives here too: the
pedal circle itself, and the least-squares circle that dual_conic fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AsymptoticDirection,
    CenterHasNoPolar,
    CenterNotFocus,
    FocusOutsideDual,
    LineThroughCenter,
    ParabolaMember,
)
from .kernel import (DEGENERACY_EPS, Line, Point, _adjugate3, _centroid, distance,
                     foot_perpendicular, left_sum)
from .pencil import FocalConic, classify, tangent_at

_SAMPLES = 32  # tangent lines whose poles are fitted
_FIT_TOL = 1e-9  # largest pole deviation from the fit, relative to max(1, radius)


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float


@dataclass(frozen=True)
class Reciprocator:
    center: Point
    k: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.k):
            raise ValueError(f"inversion radius must be finite, got {self.k!r}")
        if self.k <= 0.0:
            raise ValueError("inversion radius must be positive")


def invert_point(r: Reciprocator, p: Point) -> Point:
    d2 = (p.x - r.center.x) ** 2 + (p.y - r.center.y) ** 2
    if d2 < DEGENERACY_EPS**2:
        raise CenterHasNoPolar("the center has no inverse")
    s = r.k * r.k / d2
    return Point(r.center.x + s * (p.x - r.center.x), r.center.y + s * (p.y - r.center.y))


def polar_of(r: Reciprocator, p: Point) -> Line:
    if distance(p, r.center) < DEGENERACY_EPS:
        raise CenterHasNoPolar("the center has no polar line")
    inv = invert_point(r, p)
    nx, ny = p.x - r.center.x, p.y - r.center.y
    return Line.from_coefficients(nx, ny, -(nx * inv.x + ny * inv.y))


def pole_of(r: Reciprocator, line: Line) -> Point:
    if line.distance_to(r.center) < DEGENERACY_EPS:
        raise LineThroughCenter("a line through the center has no pole")
    return invert_point(r, foot_perpendicular(r.center, line))


def invert_circle(r: Reciprocator, c: Circle) -> Circle:
    """Image of a circle not through the center under inversion."""
    d2 = (c.center.x - r.center.x) ** 2 + (c.center.y - r.center.y) ** 2
    denom = d2 - c.radius * c.radius
    if abs(denom) < DEGENERACY_EPS:
        raise LineThroughCenter("circle through the center inverts to a line")
    s = r.k * r.k / denom
    center = Point(
        r.center.x + s * (c.center.x - r.center.x),
        r.center.y + s * (c.center.y - r.center.y),
    )
    return Circle(center, abs(s) * c.radius)


def dual_conic(r: Reciprocator, c: FocalConic, require_focus_inside: bool = True) -> Circle:
    """Reciprocal of a pencil member about its own focus: a fitted circle.

    The poles of sampled tangent lines are fitted to a circle; the fit
    residual is itself a correctness check.  Tangents through the center
    (measure zero) are skipped.  When require_focus_inside is set and the
    focus lies outside the fitted circle, FocusOutsideDual is raised.
    Changing the inversion radius k is a homothety about the focus, so no
    other radius could put it inside: with a hyperbola member the focus is
    always outside, so pass require_focus_inside=False to accept that
    configuration.
    """
    if distance(r.center, c.focus) > 1e-9:
        raise CenterNotFocus(f"reciprocation center {r.center} is not the focus {c.focus}")
    poles = []
    for _, line in _sampled_tangents(c, _SAMPLES):
        try:
            poles.append(pole_of(r, line))
        except LineThroughCenter:  # a tangent through the focus has no pole
            pass
    circ = fit_circle(poles)
    dev = max(
        abs(math.hypot(p.x - circ.center.x, p.y - circ.center.y) - circ.radius)
        for p in poles
    )
    if dev > _FIT_TOL * max(1.0, circ.radius):
        raise ValueError(f"tangent poles deviate from a circle by {dev}")
    if require_focus_inside and distance(r.center, circ.center) >= circ.radius:
        raise FocusOutsideDual("focus outside the dual circle")
    return circ


def fit_circle(points: list[Point]) -> Circle:
    """Algebraic least-squares circle through the given points.

    Solves the normal equations of x^2 + y^2 + d*x + e*y + g = 0 in
    coordinates centred on the points' centroid, which keeps the 3x3 system
    well conditioned far from the origin.
    """
    if len(points) < 3:
        raise ValueError("need at least three points to fit a circle")
    mx, my = _centroid(points)
    rows = [(p.x - mx, p.y - my, 1.0) for p in points]
    ata = [[left_sum(r[i] * r[j] for r in rows) for j in range(3)] for i in range(3)]
    atb = [-left_sum(r[i] * (r[0] * r[0] + r[1] * r[1]) for r in rows) for i in range(3)]
    adj = _adjugate3(ata)
    det = left_sum(ata[0][k] * adj[k][0] for k in range(3))
    if det == 0.0:
        raise ValueError("degenerate circle fit")
    d, e, g = (left_sum(a * b for a, b in zip(row, atb)) / det for row in adj)
    cx, cy = -d / 2.0, -e / 2.0
    r2 = cx * cx + cy * cy - g
    if r2 <= 0.0:
        raise ValueError("degenerate circle fit")
    return Circle(Point(mx + cx, my + cy), math.sqrt(r2))


def _sampled_tangents(c: FocalConic, count: int) -> list[tuple[float, Line]]:
    """Tangents at evenly spread angles, nudging off asymptotic directions."""
    out = []
    for j in range(count):
        alpha = 2.0 * math.pi * j / count
        for _ in range(4):
            try:
                out.append((alpha, tangent_at(c, alpha)))
                break
            except AsymptoticDirection:
                alpha += 1e-6
    return out


def pedal_circle(c: FocalConic) -> Circle:
    """Locus of feet of perpendiculars from the focus to tangent lines.

    The pedal curve of a central conic about a focus is its auxiliary
    circle, in closed form: centred at the conic's center, with radius the
    semi-axis on the focal axis, sqrt(t) * |1 - p^2| / |1 - t * p^2|.
    """
    if classify(c) == "parabola":
        raise ParabolaMember("pedal of a parabola about its focus is a line")
    p, t = c.p, c.t
    return Circle(c.center, math.sqrt(t) * abs(1.0 - p * p) / abs(1.0 - t * p * p))
