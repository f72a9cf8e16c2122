"""Named numerical checks turning each claimed polygon property into a
structured residual report.

Every check is pure and deterministic: identical inputs give bitwise
identical residual lists.  A report passes iff its maximum residual is
within the tolerance handed to the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import AllOppositeSidesParallel, NotClosed, ParallelLines
from .kernel import (
    Line,
    Point,
    _triangle_area_residual,
    coefficients_through,
    directed_angle,
    distance,
    foot_perpendicular,
    intersect_lines,
    line_through,
    map_xy,
    projective_from_correspondences,
    reflect_point,
    wrapped_diff,
)
from .pencil import (
    classify,
    focal_parameter,
    focal_parameters,
    pedal_circle,
    pencil_member,
    point_at,
    tangency_residuals,
    tangent_at,
)
from .polygon import (
    DiscreteConic,
    _indexed_opposite_intersections,
    grid_layer,
    synthesize,
    tangency_points,
)

DEFAULT_TOL = 1e-8
# projective_regular never runs at a tighter tolerance than this.
PROJECTIVE_FLOOR = 1e-6


@dataclass(frozen=True)
class Report:
    """max_residual and passed are derived from the residuals, never passed."""

    check: str
    residuals: tuple[float, ...]
    max_residual: float = field(init=False)
    tolerance: float
    passed: bool = field(init=False)
    metadata: dict

    def __post_init__(self):
        if not self.residuals:
            raise ValueError("a report needs at least one residual")
        # max() skips a NaN unless it comes first; any NaN makes the report fail.
        worst = math.nan if any(map(math.isnan, self.residuals)) else max(self.residuals)
        object.__setattr__(self, "max_residual", worst)
        object.__setattr__(self, "passed", worst <= self.tolerance)


def make_report(check: str, residuals, tolerance: float, **metadata) -> Report:
    return Report(check, tuple(float(r) for r in residuals), tolerance, metadata)


def _line_angle(ux: float, uy: float, vx: float, vy: float) -> float:
    """Angle between the lines along two direction vectors, in [0, pi/2]."""
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return math.atan2(abs(cross), abs(dot))


def _cross_of_units(ux, uy, vx, vy) -> float:
    nu = math.hypot(ux, uy)
    nv = math.hypot(vx, vy)
    return abs(ux * vy - uy * vx) / (nu * nv)


_inner_member = DiscreteConic.inner.fget


def _parameter_step_residuals(p: float, points, theta: float, closed: bool) -> list[float]:
    """|focal-parameter step - theta| for consecutive points, wrap-aware."""
    return _step_residuals(focal_parameters(p, points)[1], theta, closed)


def _step_residuals(alphas: list[float], theta: float, closed: bool) -> list[float]:
    last = len(alphas) if closed else len(alphas) - 1
    return [
        abs(wrapped_diff(alphas[(i + 1) % len(alphas)] - alphas[i], theta))
        for i in range(last)
    ]


def check_equal_angles(d: DiscreteConic, f: Point | None = None, tol: float = 1e-9) -> Report:
    """Focal-parameter steps at the pencil focus; ray angles at any other f."""
    if d.n < 3:
        raise ValueError("need at least three vertices")
    f = d.focus if f is None else f
    if f == d.focus:
        residuals = _parameter_step_residuals(d.p, d.vertices, d.theta, closed=d.closed)
    else:
        residuals = [
            abs(wrapped_diff(directed_angle(f, d.vertex(i), d.vertex(i + 1)), d.theta))
            for i in range(1, d.num_sides + 1)
        ]
    return make_report("equal_angles", residuals, tol, focus=[f.x, f.y], theta=d.theta)


def check_projective_regular(d: DiscreteConic, tol: float = PROJECTIVE_FLOOR) -> Report:
    """Vertices map onto the regular polygon of the same winding and sense
    under the homography fixed by the first four; tested on the other n - 4."""
    if not d.closed:
        raise NotClosed("projective regularity is checked on closed polygons")
    if d.n < 5:
        raise ValueError("need n >= 5 so a fifth vertex can test the map")
    w = d.winding  # at least 1 on a closed polygon
    step = 2.0 * math.pi * w
    basis = [Point(math.cos(step * j / d.n), math.sin(step * j / d.n)) for j in range(4)]
    m = projective_from_correspondences(list(d.vertices[:4]), basis)
    residuals = []
    for j, v in enumerate(d.vertices[4:], 4):
        mx, my = map_xy(m, v.x, v.y)
        a = step * j / d.n
        residuals.append(math.hypot(mx - math.cos(a), my - math.sin(a)))
    return make_report("projective_regular", residuals, tol, winding=w)


def check_poncelet(d: DiscreteConic, tol: float = DEFAULT_TOL) -> Report:
    """Every side line is tangent to the inscribed pencil member, so the
    polygon is inscribed in one focus-sharing conic and circumscribes another."""
    inner = d.inner
    residuals = tangency_residuals(inner, d.sides)
    return make_report("poncelet", residuals, tol, inner_t=inner.t)


def check_diagonals(d: DiscreteConic, tol: float = 1e-9) -> Report:
    """Even n: main diagonals pass through the shared focus.  Odd n: the
    chords from each vertex to the opposite tangency point do."""
    if not d.closed:
        raise NotClosed("diagonals are checked on closed polygons")
    f = d.focus
    if d.n % 2 == 0:
        chords = [(d.vertex(j), d.vertex(j + d.n // 2)) for j in range(1, d.n // 2 + 1)]
        pairing = "vertex-vertex"
    else:
        m = tangency_points(d)
        chords = [(d.vertex(j), m.vertex(j + (d.n - 1) // 2)) for j in range(1, d.n + 1)]
        pairing = "vertex-tangency"
    residuals = []
    for u, v in chords:  # line_through(u, v).distance_to(f), without the Line
        a, b, c = coefficients_through(u, v)
        residuals.append(abs(a * f.x + b * f.y + c))
    return make_report("diagonals", residuals, tol, pairing=pairing)


def check_reflective(d: DiscreteConic, j: int = 1, tol: float = 1e-9) -> Report:
    """A ray from the second focus reflecting off side j toward the shared
    focus continues to the opposite side and back to the second focus (even n)
    or to the opposite vertex (odd n)."""
    if not d.closed:
        raise NotClosed("the reflective property needs a closed polygon")
    f = d.focus
    f2 = d.inner.second_focus
    m = tangency_points(d)
    s_j = d.side(j)
    residuals = []
    # The hit point on side j is its tangency point: the reflected source,
    # the tangency point and the focus are collinear.
    residuals.append(_triangle_area_residual(reflect_point(f2, s_j), m.vertex(j), f))
    if d.n % 2 == 0:
        j2 = j + d.n // 2
        residuals.append(_triangle_area_residual(m.vertex(j), f, m.vertex(j2)))
        residuals.append(_triangle_area_residual(reflect_point(f, d.side(j2)), m.vertex(j2), f2))
        metadata = {"parity": "even", "opposite_side": j2}
    else:
        # Continued ray through the focus meets the vertex (n+1)/2 steps on.
        jv = j + (d.n + 1) // 2
        residuals.append(_triangle_area_residual(m.vertex(j), f, d.vertex(jv)))
        metadata = {"parity": "odd", "hit_vertex": jv}
    return make_report("reflective", residuals, tol, side=j, **metadata)


def check_isogonal(d: DiscreteConic, i: int, j: int, tol: float = 1e-9) -> Report:
    """The intersection z of two side lines is, in focal parameter, midway
    between their tangency points and between the matching vertex pairs, and
    the *lines* from z to the two foci are isogonal with respect to the sides
    (on a hyperbola member the rays can differ by pi)."""
    z = intersect_lines(d.side(i), d.side(j))
    f = d.focus
    f2 = d.inner.second_focus
    m = tangency_points(d)
    az = focal_parameter(d.p, z)
    pairs = ((m.vertex(i), m.vertex(j)), (d.vertex(i), d.vertex(j + 1)),
             (d.vertex(i + 1), d.vertex(j)))
    residuals = [
        abs(wrapped_diff(az - focal_parameter(d.p, a), focal_parameter(d.p, b) - az))
        for a, b in pairs
    ]
    ang1 = _line_angle(f.x - z.x, f.y - z.y, m.vertex(i).x - z.x, m.vertex(i).y - z.y)
    ang2 = _line_angle(f2.x - z.x, f2.y - z.y, m.vertex(j).x - z.x, m.vertex(j).y - z.y)
    residuals.append(abs(ang1 - ang2))
    return make_report("isogonal", residuals, tol, i=i, j=j, z=[z.x, z.y])


def check_grid(d: DiscreteConic, k: int, tol: float = DEFAULT_TOL) -> Report:
    """Intersections of side lines k apart form another discrete conic with
    the same angle, at the points the closed form gives.

    Z_i = S_i n S_{i+k} lies on grid_layer's member at focal angle
    phi + theta/2 + (i-1)*theta + k*theta/2, plus pi where cos(k*theta/2) < 0
    (the member's signed sqrt(t) is then negative).  That holds for every k
    in [1, n-2] and every theta, so the reference is one synthesize call and
    the distance residual compares vertex i with vertex i: O(n).
    """
    layer = grid_layer(d, k)
    t_vals, alphas = focal_parameters(d.p, layer.vertices)
    t_mean = sum(t_vals) / len(t_vals)
    residuals = [abs(t - t_mean) for t in t_vals]
    residuals += _step_residuals(alphas, d.theta, closed=True)
    half_k = k * d.theta / 2.0
    phi = d.phi + d.theta / 2.0 + half_k + (math.pi if math.cos(half_k) < 0.0 else 0.0)
    ref = synthesize(d.p, layer.t, d.theta, phi, d.n)
    residuals.append(max(map(distance, layer.vertices, ref.vertices)))
    return make_report("grid", residuals, tol, k=k, layer_t=layer.t)


def check_pascal_line(d: DiscreteConic, tol: float = DEFAULT_TOL) -> Report:
    """Opposite-side intersections of a closed even-sided polygon are
    collinear on a line perpendicular to the focal axis, and subtend equal
    angles at the shared focus."""
    # Angle bookkeeping needs the pair indices: a parallel opposite pair has
    # its intersection at infinity, leaving a gap in the sequence.
    indexed, line = _indexed_opposite_intersections(d)
    residuals = [line.distance_to(pt) for _, pt in indexed]
    residuals.append(abs(line.b))  # vertical line has direction (0, 1)
    f = d.focus
    for (i1, k1), (i2, k2) in zip(indexed, indexed[1:]):
        # The points may straddle the focus, so compare the angle step
        # between the focal *lines* (modulo pi), not the rays.
        delta = directed_angle(f, k1, k2)
        expected = (i2 - i1) * d.theta
        residuals.append(
            min(
                abs(wrapped_diff(delta, expected)),
                abs(wrapped_diff(delta, expected - math.pi)),
            )
        )
    x_at = -line.c / line.a if abs(line.a) > 1e-12 else math.inf
    return make_report("pascal_line", residuals, tol, line_x=x_at, count=len(indexed))


# ---------------------------------------------------------------------------
# Lemma checks


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


# ---------------------------------------------------------------------------
# Batch runner

# (skip reason, whether it applies to a polygon).
_OPEN = ("open chain", lambda d: not d.closed)
_N_GE_5 = ("needs a closed polygon with n >= 5", lambda d: not d.closed or d.n < 5)
_EVEN = ("needs a closed even-sided polygon", lambda d: not d.closed or d.n % 2 != 0)
# The second focus of a parabola is at infinity.
_PARABOLA = ("inscribed member is a parabola", lambda d: classify(d.inner) == "parabola")

# Check name -> (check(d, tol), its skip rules; the first that applies wins).
_CHECKS = {
    "equal_angles": (lambda d, tol: check_equal_angles(d, tol=tol), ()),
    "poncelet": (lambda d, tol: check_poncelet(d, tol=tol), ()),
    "diagonals": (lambda d, tol: check_diagonals(d, tol=tol), (_OPEN,)),
    "projective_regular": (
        lambda d, tol: check_projective_regular(d, tol=max(tol, PROJECTIVE_FLOOR)), (_N_GE_5,)
    ),
    "reflective": (lambda d, tol: check_reflective(d, tol=tol), (_OPEN, _PARABOLA)),
    "isogonal": (
        lambda d, tol: check_isogonal(d, 1, 2 if d.n == 4 else 3, tol=tol), (_OPEN, _PARABOLA)
    ),
    "grid": (lambda d, tol: check_grid(d, 2, tol=tol), (_N_GE_5,)),
    "pascal_line": (lambda d, tol: check_pascal_line(d, tol=tol), (_EVEN,)),
}

CHECK_NAMES = tuple(_CHECKS)


def _skipped(name: str, tol: float, reason: str) -> Report:
    return Report(name, (0.0,), tol, {"skipped": reason})


def run_checks(d: DiscreteConic, names=None, tol: float = DEFAULT_TOL) -> list[Report]:
    """Run the named checks (default: all applicable), skipping those whose
    preconditions the polygon cannot meet."""
    names = list(names) if names else list(CHECK_NAMES)
    reports = []
    for name in names:
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}")
        check, rules = _CHECKS[name]
        try:
            for reason, skips in rules:
                if skips(d):
                    reports.append(_skipped(name, tol, reason))
                    break
            else:
                reports.append(check(d, tol))
        except (AllOppositeSidesParallel, ParallelLines) as exc:
            reports.append(_skipped(name, tol, str(exc)))
    return reports
