"""The lemma checks as residual reports: equal distances cut by the
perpendiculars at a chord's endpoints, a 4-periodic billiard trajectory in a
rectangle, and focal lines parallel to radii of the pedal circle.

check_lemma runs one of them by name.  The acceptance tests call it; no CLI
subcommand does, so no call loads this module.
"""

from __future__ import annotations

import math

from .duality import pedal_circle
from .kernel import (Line, Point, _triangle_area_residual, distance, foot_perpendicular,
                     intersect_lines, line_through, reflect_point)
from .pencil import pencil_member, point_at, tangent_at
from .verify import Report, make_report


def _cross_of_units(ux, uy, vx, vy) -> float:
    nu = math.hypot(ux, uy)
    nv = math.hypot(vx, vy)
    return abs(ux * vy - uy * vx) / (nu * nv)


def _check_equal_distances(center: Point, radius: float, beta1: float, beta2: float,
                           line_angle: float, tol: float) -> Report:
    x = Point(center.x + radius * math.cos(beta1), center.y + radius * math.sin(beta1))
    y = Point(center.x + radius * math.cos(beta2), center.y + radius * math.sin(beta2))
    chord = line_through(x, y)
    # Perpendiculars to the chord through each endpoint.
    lx = Line.from_coefficients(-chord.b, chord.a, chord.b * x.x - chord.a * x.y)
    ly = Line.from_coefficients(-chord.b, chord.a, chord.b * y.x - chord.a * y.y)
    dx, dy = math.cos(line_angle), math.sin(line_angle)
    through = Line.from_coefficients(-dy, dx, dy * center.x - dx * center.y)
    p1 = intersect_lines(through, lx)
    p2 = intersect_lines(through, ly)
    residual = abs(distance(center, p1) - distance(center, p2))
    return make_report("lemma_equal_distances", [residual], tol)


def _check_rectangle_billiard(center: Point, half_w: float, half_h: float,
                              tilt: float, e_frac: float, tol: float) -> Report:
    ux, uy = math.cos(tilt), math.sin(tilt)
    vx, vy = -uy, ux
    corner = lambda su, sv: Point(center.x + su * half_w * ux + sv * half_h * vx,
                                  center.y + su * half_w * uy + sv * half_h * vy)
    a, b, c, dd = corner(-1, 1), corner(1, 1), corner(1, -1), corner(-1, -1)
    e = Point(a.x + e_frac * (b.x - a.x), a.y + e_frac * (b.y - a.y))
    f = Point(2 * center.x - e.x, 2 * center.y - e.y)
    side_bc = line_through(b, c)
    side_da = line_through(dd, a)
    g = intersect_lines(line_through(e, reflect_point(f, side_bc)), side_bc)
    h = intersect_lines(line_through(e, reflect_point(f, side_da)), side_da)

    def reflect_dir(wx, wy, line):
        dot = wx * line.a + wy * line.b
        return wx - 2 * dot * line.a, wy - 2 * dot * line.b

    side_ab = line_through(a, b)
    side_cd = line_through(c, dd)
    residuals = []
    # Closure of the 4-periodic trajectory: reflection law at E and at F.
    rx, ry = reflect_dir(e.x - h.x, e.y - h.y, side_ab)
    residuals.append(_cross_of_units(rx, ry, g.x - e.x, g.y - e.y))
    rx, ry = reflect_dir(f.x - g.x, f.y - g.y, side_cd)
    residuals.append(_cross_of_units(rx, ry, h.x - f.x, h.y - f.y))
    residuals.append(_triangle_area_residual(g, center, h))
    # Parallelogram sides parallel to the rectangle diagonals.
    residuals.append(_cross_of_units(g.x - e.x, g.y - e.y, c.x - a.x, c.y - a.y))
    residuals.append(_cross_of_units(f.x - g.x, f.y - g.y, dd.x - b.x, dd.y - b.y))
    return make_report("lemma_rectangle_billiard", residuals, tol)


def _check_parallelism(p: float, t: float, alpha: float, tol: float) -> Report:
    c = pencil_member(p, t)
    f = c.focus
    f2 = c.second_focus
    o = pedal_circle(c)
    tangent = tangent_at(c, alpha)
    z = point_at(c, alpha)
    x = foot_perpendicular(f, tangent)
    # Second intersection of the tangent with the pedal circle.
    dx, dy = tangent.direction()
    s = -2.0 * (dx * (x.x - o.center.x) + dy * (x.y - o.center.y))
    y = Point(x.x + s * dx, x.y + s * dy)
    residuals = [
        _cross_of_units(z.x - f2.x, z.y - f2.y, x.x - o.center.x, x.y - o.center.y),
        _cross_of_units(z.x - f.x, z.y - f.y, y.x - o.center.x, y.y - o.center.y),
    ]
    return make_report("lemma_parallelism", residuals, tol)


_LEMMAS = {
    "equal_distances": _check_equal_distances,
    "rectangle_billiard": _check_rectangle_billiard,
    "parallelism": _check_parallelism,
}


def check_lemma(lemma_id: str, tol: float = 1e-9, **params) -> Report:
    if lemma_id not in _LEMMAS:
        raise ValueError(f"unknown lemma check {lemma_id!r}")
    return _LEMMAS[lemma_id](tol=tol, **params)
