"""Reciprocation (polar duality) about a circle centered at the pencil focus.

The transform exchanges points and lines: the polar of P is the line
perpendicular to the radius through the inverse of P, and the pole of a line
is the inverse of the foot of the perpendicular from the center.  A pencil
member reciprocated about its focus becomes a circle, namely the inverse
image of its pedal circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CenterHasNoPolar,
    CenterNotFocus,
    FocusOutsideDual,
    LineThroughCenter,
)
from .kernel import DEGENERACY_EPS, Line, Point, distance, foot_perpendicular
from .pencil import Circle, FocalConic, _sampled_tangents, fit_circle

_SAMPLES = 32  # tangent lines whose poles are fitted
_FIT_TOL = 1e-9  # largest pole deviation from the fit, relative to max(1, radius)


@dataclass(frozen=True)
class Reciprocator:
    center: Point
    k: float = 1.0

    def __post_init__(self):
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
