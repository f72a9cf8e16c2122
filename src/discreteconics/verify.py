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
    DEGENERACY_EPS,
    TWO_PI,
    Line,
    Point,
    ProjectiveMap,
    _triangle_area_residual,
    coefficients_through,
    directed_angle,
    distance,
    foot_perpendicular,
    intersect_lines,
    line_through,
    map_points_xy,
    ray_angles,
    reflect_point,
    wrapped_diff,
)
from .pencil import (
    classify,
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
    _synthesized_xy,
    grid_layer,
    tangency_points,
)

DEFAULT_TOL = 1e-8


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
    return Report(check, tuple(map(float, residuals)), tolerance, metadata)


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
    """|focal-parameter step - theta| for consecutive points, wrap-aware:
    abs(wrapped_diff(step, theta)), with its arithmetic inline."""
    alphas = focal_parameters(p, points)[1]
    following = alphas[1:] + alphas[:1] if closed else alphas[1:]
    out = []
    for a, b in zip(alphas, following):
        e = (b - a - theta) % TWO_PI
        out.append(abs(e - TWO_PI if e > math.pi else e))
    return out


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


def check_projective_regular(d: DiscreteConic, tol: float = DEFAULT_TOL) -> Report:
    """The polygon is the focal homology H_p of a regular polygon: H_p's
    inverse maps vertex j to sqrt(t) * (cos a_j, sin a_j), a_j = phi +
    (j-1)*theta.  One residual per vertex, measured at radius 1."""
    if not d.closed:
        raise NotClosed("projective regularity is checked on closed polygons")
    m = ProjectiveMap(((1.0, 0.0, d.p), (0.0, 1.0, 0.0), (d.p, 0.0, 1.0)))
    r = math.sqrt(d.t)
    phi, theta = d.phi, d.theta
    residuals = []
    for j, (x, y) in enumerate(map_points_xy(m, d.vertices)):
        a = phi + j * theta
        residuals.append(math.hypot(x / r - math.cos(a), y / r - math.sin(a)))
    return make_report("projective_regular", residuals, tol, winding=d.winding)


def check_poncelet(d: DiscreteConic, tol: float = DEFAULT_TOL) -> Report:
    """Every side line is tangent to the inscribed pencil member, so the
    polygon is inscribed in one focus-sharing conic and circumscribes another."""
    inner = d.inner
    residuals = tangency_residuals(inner, d.side_coefficients)
    return make_report("poncelet", residuals, tol, inner_t=inner.t)


def check_diagonals(d: DiscreteConic, tol: float = 1e-9) -> Report:
    """Even n: main diagonals pass through the shared focus.  Odd n: the
    chords from each vertex to the opposite tangency point do."""
    if not d.closed:
        raise NotClosed("diagonals are checked on closed polygons")
    f = d.focus
    verts, h = d.vertices, d.n // 2
    if d.n % 2 == 0:
        chords = zip(verts[:h], verts[h:])
        pairing = "vertex-vertex"
    else:  # V_j with M_{j + h}, h = (n - 1)/2
        m = tangency_points(d).vertices
        chords = zip(verts, m[h:] + m[:h])
        pairing = "vertex-tangency"
    fx, fy = f.x, f.y
    residuals = []
    for u, v in chords:  # line_through(u, v).distance_to(f), without the Line
        # coefficients_through's arithmetic, inline.  Its sign flip does not
        # change |a*fx + b*fy + c|; a normalized c that overflows gives inf.
        px, py, qx, qy = u.x, u.y, v.x, v.y
        a, b, c = py - qy, qx - px, px * qy - qx * py
        norm = math.hypot(a, b)
        if (math.hypot(px - qx, py - qy) >= DEGENERACY_EPS and norm >= DEGENERACY_EPS
                and math.isfinite(a + b + c)):
            a, b, c = a / norm, b / norm, c / norm
        else:  # this chord's error, or a + b + c overflowed
            a, b, c = coefficients_through(u, v)
        residuals.append(abs(a * fx + b * fy + c))
    return make_report("diagonals", residuals, tol, pairing=pairing)


def check_reflective(d: DiscreteConic, j: int = 1, tol: float = 1e-9) -> Report:
    """A ray from the second focus reflecting off side j toward the shared
    focus continues to the opposite side and back to the second focus (even n)
    or to the opposite vertex (odd n)."""
    if not d.closed:
        raise NotClosed("the reflective property needs a closed polygon")
    f = d.focus
    f2 = d.inner.second_focus
    m_j = d.tangency_point(j)
    s_j = d.side(j)
    residuals = []
    # The hit point on side j is its tangency point: the reflected source,
    # the tangency point and the focus are collinear.
    residuals.append(_triangle_area_residual(reflect_point(f2, s_j), m_j, f))
    if d.n % 2 == 0:
        j2 = j + d.n // 2
        m_j2 = d.tangency_point(j2)
        residuals.append(_triangle_area_residual(m_j, f, m_j2))
        residuals.append(_triangle_area_residual(reflect_point(f, d.side(j2)), m_j2, f2))
        metadata = {"parity": "even", "opposite_side": j2}
    else:
        # Continued ray through the focus meets the vertex (n+1)/2 steps on.
        jv = j + (d.n + 1) // 2
        residuals.append(_triangle_area_residual(m_j, f, d.vertex(jv)))
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
    m_i, m_j = d.tangency_point(i), d.tangency_point(j)
    # z's focal parameter is midway in each pair: tangency points i and j,
    # vertices i and j + 1, vertices i + 1 and j.
    az, *alphas = focal_parameters(d.p, (z, m_i, m_j, d.vertex(i),
                                         d.vertex(j + 1), d.vertex(i + 1), d.vertex(j)))[1]
    residuals = [abs(wrapped_diff(az - a, b - az)) for a, b in zip(alphas[::2], alphas[1::2])]
    ang1 = _line_angle(f.x - z.x, f.y - z.y, m_i.x - z.x, m_i.y - z.y)
    ang2 = _line_angle(f2.x - z.x, f2.y - z.y, m_j.x - z.x, m_j.y - z.y)
    residuals.append(abs(ang1 - ang2))
    return make_report("isogonal", residuals, tol, i=i, j=j, z=[z.x, z.y])


def check_grid(d: DiscreteConic, k: int, tol: float = DEFAULT_TOL) -> Report:
    """Intersections of side lines k apart form another discrete conic with
    the same angle, at the points the closed form gives.

    Z_i = S_i n S_{i+k} lies on grid_layer's member at focal angle
    phi + theta/2 + (i-1)*theta + k*theta/2, plus pi where cos(k*theta/2) < 0
    (the member's signed sqrt(t) is then negative).  That holds for every k
    in [1, n-2] and every theta, so the reference R is synthesize's.  It is
    read as coordinates, without building a polygon, and raises what that
    synthesize call raises.  Residual i is |Z_i - R_i| / max(1, |Z_i|),
    relative because the float error of both points grows with |Z_i|.  O(n).
    """
    layer = grid_layer(d, k)
    half_k = k * d.theta / 2.0
    phi = d.phi + d.theta / 2.0 + half_k + (math.pi if math.cos(half_k) < 0.0 else 0.0)
    ref = _synthesized_xy(d.p, layer.t, d.theta, phi, d.n)
    residuals = [math.hypot(z.x - x, z.y - y) / max(1.0, math.hypot(z.x, z.y))
                 for z, (x, y) in zip(layer.vertices, ref)]
    return make_report("grid", residuals, tol, k=k, layer_t=layer.t)


def _directrix_incidences(p: float, firsts, seconds) -> list[float]:
    """For each pair of lines l1, l2: |det[l1; l2; (p, 0, 1)]| over the
    product of the three rows' lengths, zero exactly when l1, l2 and the
    directrix x = -1/p meet in one point."""
    p_length = math.hypot(p, 1.0)
    out = []
    for (a1, b1, c1), (a2, b2, c2) in zip(firsts, seconds):
        det = p * (b1 * c2 - b2 * c1) + a1 * b2 - a2 * b1
        out.append(abs(det) / (math.hypot(a1, b1, c1) * math.hypot(a2, b2, c2) * p_length))
    return out


def check_pascal_line(d: DiscreteConic, tol: float = DEFAULT_TOL) -> Report:
    """Opposite sides of a closed even-sided polygon meet on the directrix
    x = -1/p, at points that subtend equal angles at the shared focus.

    One incidence residual per opposite pair that meets, from the side
    coefficients alone: it needs no intersection point, so a nearly parallel
    pair, whose K_i lies far out, costs it no accuracy.  Then one angle step
    per consecutive pair of intersections, 2*count - 1 residuals in all.
    The K_i are read as coordinate pairs; the check builds no Point.
    """
    # Angle bookkeeping needs the pair indices: a parallel opposite pair has
    # its intersection at infinity, leaving a gap in the sequence.
    indexed, _ = _indexed_opposite_intersections(d)
    s, m = d.side_coefficients, d.n // 2
    index = [i for i, _ in indexed]
    residuals = _directrix_incidences(d.p, [s[i - 1] for i in index], [s[i - 1 + m] for i in index])
    angles = ray_angles((-d.p, 0.0), [k for _, k in indexed])  # at the focus (-p, 0)
    for i1, i2, a1, a2 in zip(index, index[1:], angles, angles[1:]):
        # The points may straddle the focus, so compare the angle step
        # between the focal *lines* (modulo pi), not the rays: the smaller of
        # |wrapped_diff(delta, expected)| and |wrapped_diff(delta, expected
        # - pi)|, delta = normalize_angle(a2 - a1), with the arithmetic inline.
        delta = (a2 - a1) % TWO_PI
        if delta >= TWO_PI:
            delta -= TWO_PI
        expected = (i2 - i1) * d.theta
        e1 = (delta - expected) % TWO_PI
        e2 = (delta - (expected - math.pi)) % TWO_PI
        residuals.append(min(abs(e1 - TWO_PI if e1 > math.pi else e1),
                             abs(e2 - TWO_PI if e2 > math.pi else e2)))
    return make_report("pascal_line", residuals, tol, line_x=-1.0 / d.p, count=len(indexed))


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
    "projective_regular": (lambda d, tol: check_projective_regular(d, tol=tol), (_OPEN,)),
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
