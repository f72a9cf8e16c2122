"""Named numerical checks turning each claimed polygon property into a
structured residual report.

Every check is pure and deterministic: identical inputs give bitwise
identical residual lists.  A report passes iff its maximum residual is
within the tolerance handed to the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AllOppositeSidesParallel, GeometryError, NotClosed, ParallelLines
from .group import from_angle, act_on_discrete
from .kernel import (
    Line,
    Point,
    _triangle_area_residual,
    apply_map,
    directed_angle,
    distance,
    foot_perpendicular,
    intersect_lines,
    line_through,
    projective_from_correspondences,
    reflect_point,
    wrapped_diff,
)
from .pencil import (
    focal_radius,
    parameter_of,
    pedal_circle,
    pencil_member,
    point_at,
    tangency_residuals,
    tangent_at,
)
from .polygon import DiscreteConic, grid_layer, opposite_side_intersections, tangency_points

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class Report:
    check: str
    residuals: tuple[float, ...]
    max_residual: float
    tolerance: float
    passed: bool
    metadata: dict

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{self.check}: {status} (max residual {self.max_residual:.3e}, tol {self.tolerance:.1e})"


def make_report(check: str, residuals, tolerance: float, **metadata) -> Report:
    residuals = tuple(float(r) for r in residuals)
    if not residuals:
        raise ValueError("a report needs at least one residual")
    worst = max(residuals)
    return Report(check, residuals, worst, tolerance, worst <= tolerance, metadata)


def _unsigned_angle(ux: float, uy: float, vx: float, vy: float) -> float:
    """Angle between two direction vectors, in [0, pi]."""
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return math.atan2(abs(cross), dot)


def _cross_of_units(ux, uy, vx, vy) -> float:
    nu = math.hypot(ux, uy)
    nv = math.hypot(vx, vy)
    return abs(ux * vy - uy * vx) / (nu * nv)


_inner_member = DiscreteConic.inner.fget


def _focal_parameter(p: float, z: Point) -> float:
    """Signed focal parameter of z on its own pencil member.

    On a hyperbola member the far branch has negative signed radius, so the
    parameter is the direction angle from the focus plus pi there; choosing
    the branch by the better radius match makes equal-parameter-step claims
    testable on derived polygons that land on hyperbola members.
    """
    c = pencil_member(p, parameter_of(p, z))
    f = c.focus
    d = math.hypot(z.x - f.x, z.y - f.y)
    beta = math.atan2(z.y - f.y, z.x - f.x)
    try:
        err_pos = abs(focal_radius(c, beta) - d)
    except GeometryError:
        err_pos = math.inf
    try:
        err_neg = abs(focal_radius(c, beta + math.pi) + d)
    except GeometryError:
        err_neg = math.inf
    return beta if err_pos <= err_neg else beta + math.pi


def _parameter_step_residuals(p: float, points, theta: float, closed: bool = False) -> list[float]:
    """|focal-parameter step - theta| for consecutive points, wrap-aware."""
    alphas = [_focal_parameter(p, z) for z in points]
    last = len(alphas) if closed else len(alphas) - 1
    return [
        abs(wrapped_diff(alphas[(i + 1) % len(alphas)] - alphas[i], theta))
        for i in range(last)
    ]


def check_equal_angles(d: DiscreteConic, f: Point | None = None, tol: float = 1e-9) -> Report:
    if d.n < 3:
        raise ValueError("need at least three vertices")
    if f is None:
        f = d.focus
    count = d.n if d.closed else d.n - 1
    residuals = [
        abs(wrapped_diff(directed_angle(f, d.vertex(i), d.vertex(i + 1)), d.theta))
        for i in range(1, count + 1)
    ]
    return make_report("equal_angles", residuals, tol, focus=[f.x, f.y], theta=d.theta)


def check_projective_regular(d: DiscreteConic, tol: float = 1e-6) -> Report:
    """Vertices map onto a regular polygon under the homography fixed by the
    first four; tested on the remaining n - 4."""
    if not d.closed:
        raise NotClosed("projective regularity is checked on closed polygons")
    if d.n < 5:
        raise ValueError("need n >= 5 so a fifth vertex can test the map")
    w = max(1, d.winding)
    best = None
    for orient in (1.0, -1.0):
        target = [
            Point(math.cos(orient * 2.0 * math.pi * w * j / d.n),
                  math.sin(orient * 2.0 * math.pi * w * j / d.n))
            for j in range(d.n)
        ]
        m = projective_from_correspondences(list(d.vertices[:4]), target[:4])
        residuals = [distance(apply_map(m, d.vertices[j]), target[j]) for j in range(4, d.n)]
        if best is None or max(residuals) < best[0]:
            best = (max(residuals), residuals, orient)
    return make_report("projective_regular", best[1], tol, orientation=best[2], winding=w)


def check_poncelet(d: DiscreteConic, tol: float = DEFAULT_TOL) -> Report:
    """Every side line is tangent to the inscribed pencil member, so the
    polygon is inscribed in one focus-sharing conic and circumscribes another."""
    inner = d.inner
    residuals = tangency_residuals(inner, [d.side(i) for i in range(1, d.num_sides + 1)])
    return make_report("poncelet", residuals, tol, inner_t=inner.t)


def check_diagonals(d: DiscreteConic, tol: float = 1e-9) -> Report:
    """Even n: main diagonals pass through the shared focus.  Odd n: the
    chords from each vertex to the opposite tangency point do."""
    if not d.closed:
        raise NotClosed("diagonals are checked on closed polygons")
    f = d.focus
    residuals = []
    if d.n % 2 == 0:
        for j in range(1, d.n // 2 + 1):
            residuals.append(line_through(d.vertex(j), d.vertex(j + d.n // 2)).distance_to(f))
        pairing = "vertex-vertex"
    else:
        m = tangency_points(d)
        for j in range(1, d.n + 1):
            residuals.append(line_through(d.vertex(j), m.vertex(j + (d.n - 1) // 2)).distance_to(f))
        pairing = "vertex-tangency"
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
    """The focal ray to the intersection of two side lines bisects the angles
    subtended by their tangency points and by the matching vertex pairs, and
    the rays from the two foci are isogonal with respect to the sides."""
    z = intersect_lines(d.side(i), d.side(j))
    f = d.focus
    f2 = d.inner.second_focus
    m = tangency_points(d)
    residuals = []
    for a, b in (
        (m.vertex(i), m.vertex(j)),
        (d.vertex(i), d.vertex(j + 1)),
        (d.vertex(i + 1), d.vertex(j)),
    ):
        residuals.append(
            abs(wrapped_diff(directed_angle(f, a, z), directed_angle(f, z, b)))
        )
    ang1 = _unsigned_angle(f.x - z.x, f.y - z.y, m.vertex(i).x - z.x, m.vertex(i).y - z.y)
    ang2 = _unsigned_angle(f2.x - z.x, f2.y - z.y, m.vertex(j).x - z.x, m.vertex(j).y - z.y)
    residuals.append(abs(ang1 - ang2))
    return make_report("isogonal", residuals, tol, i=i, j=j, z=[z.x, z.y])


def check_grid(d: DiscreteConic, k: int, tol: float = DEFAULT_TOL) -> Report:
    """Intersections of side lines k apart form another discrete conic with
    the same angle, and equal the k-step tangent-intersection image of the
    tangency-point polygon.

    Z_i = S_i n S_{i+k} meets the tangents at M_i and M_{i+k}, so it is
    vertex i of the G_{k*theta} image of the tangency polygon M.  For
    k > n/2 the image is taken at k_eff = n - k (G needs an angle below pi),
    and Z_i = S_{i+k} n S_{i+k+k_eff} is its vertex i + k.  The vertex
    correspondence is fixed by these indices, so the check is O(n).
    """
    layer = grid_layer(d, k)
    t_vals = [parameter_of(d.p, z) for z in layer.vertices]
    t_mean = sum(t_vals) / len(t_vals)
    residuals = [abs(t - t_mean) for t in t_vals]
    residuals += _parameter_step_residuals(d.p, layer.vertices, d.theta, closed=True)
    k_eff = min(k, d.n - k)
    shift = 0 if k_eff == k else k
    image = act_on_discrete(from_angle("G", k_eff * d.theta), tangency_points(d))
    residuals.append(
        max(
            distance(layer.vertices[idx], image.vertices[(idx + shift) % d.n])
            for idx in range(d.n)
        )
    )
    return make_report("grid", residuals, tol, k=k, layer_t=layer.t)


def check_pascal_line(d: DiscreteConic, tol: float = DEFAULT_TOL) -> Report:
    """Opposite-side intersections of a closed even-sided polygon are
    collinear on a line perpendicular to the focal axis, and subtend equal
    angles at the shared focus."""
    points, line = opposite_side_intersections(d)
    residuals = [line.distance_to(pt) for pt in points]
    residuals.append(abs(line.b))  # vertical line has direction (0, 1)
    # Angle bookkeeping needs the pair indices: a parallel opposite pair has
    # its intersection at infinity, leaving a gap in the sequence.
    f = d.focus
    m = d.n // 2
    indexed = []
    for i in range(1, m + 1):
        try:
            indexed.append((i, intersect_lines(d.side(i), d.side(i + m))))
        except ParallelLines:
            continue
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
    return make_report("pascal_line", residuals, tol, line_x=x_at, count=len(points))


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

_OPEN = "open chain"
_N_GE_5 = "needs a closed polygon with n >= 5"
_EVEN = "needs a closed even-sided polygon"

# Skip reason -> whether it applies to a polygon.
_SKIP_WHEN = {
    _OPEN: lambda d: not d.closed,
    _N_GE_5: lambda d: not d.closed or d.n < 5,
    _EVEN: lambda d: not d.closed or d.n % 2 != 0,
}

# Check name -> (check(d, tol), skip reason or None when it always runs).
_CHECKS = {
    "equal_angles": (lambda d, tol: check_equal_angles(d, tol=tol), None),
    "poncelet": (lambda d, tol: check_poncelet(d, tol=tol), None),
    "diagonals": (lambda d, tol: check_diagonals(d, tol=tol), _OPEN),
    "projective_regular": (lambda d, tol: check_projective_regular(d, tol=max(tol, 1e-6)), _N_GE_5),
    "reflective": (lambda d, tol: check_reflective(d, tol=tol), _OPEN),
    "isogonal": (lambda d, tol: check_isogonal(d, 1, 2 if d.n == 4 else 3, tol=tol), _OPEN),
    "grid": (lambda d, tol: check_grid(d, 2, tol=tol), _N_GE_5),
    "pascal_line": (lambda d, tol: check_pascal_line(d, tol=tol), _EVEN),
}

CHECK_NAMES = tuple(_CHECKS)


def _skipped(name: str, tol: float, reason: str) -> Report:
    return Report(name, (0.0,), 0.0, tol, True, {"skipped": reason})


def run_checks(d: DiscreteConic, names=None, tol: float = DEFAULT_TOL) -> list[Report]:
    """Run the named checks (default: all applicable), skipping those whose
    preconditions the polygon cannot meet."""
    names = list(names) if names else list(CHECK_NAMES)
    reports = []
    for name in names:
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}")
        check, reason = _CHECKS[name]
        try:
            if reason and _SKIP_WHEN[reason](d):
                reports.append(_skipped(name, tol, reason))
            else:
                reports.append(check(d, tol))
        except (AllOppositeSidesParallel, ParallelLines) as exc:
            reports.append(_skipped(name, tol, str(exc)))
    return reports
