"""Named numerical checks turning each claimed polygon property into a
structured residual report.

Every check is pure and deterministic: identical inputs give bitwise
identical residual lists.  A report passes iff its maximum residual is
within the tolerance handed to the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _forwarder
from .errors import AllOppositeSidesParallel, NotClosed, ParallelLines
from .kernel import (
    Point,
    ProjectiveMap,
    _triangle_area_residual,
    chords_xy,
    intersect_lines,
    map_points_xy,
    normalize_angle,
    ray_angles,
    reflect_point,
    wrapped_diff,
    wrapped_diffs,
)
from .pencil import classify, focal_parameters, tangency_residuals
from .polygon import (
    DiscreteConic,
    _indexed_opposite_intersections,
    _synthesized_xy,
    grid_layer,
    tangency_points,
)

# The lemma suite lives in lemmas; check_lemma imports from here too.
__getattr__ = _forwarder(globals(), {"check_lemma": "lemmas"})

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


_inner_member = DiscreteConic.inner.fget


def _parameter_step_residuals(p: float, points, theta: float, closed: bool) -> list[float]:
    """|focal-parameter step - theta| for consecutive points, wrap-aware:
    abs(wrapped_diff(step, theta))."""
    alphas = focal_parameters(p, points)[1]
    following = alphas[1:] + alphas[:1] if closed else alphas[1:]
    steps = [b - a for a, b in zip(alphas, following)]
    return [abs(e) for e in wrapped_diffs(steps, [theta] * len(steps))]


def check_equal_angles(d: DiscreteConic, f: Point | None = None, tol: float = 1e-9) -> Report:
    """Focal-parameter steps at the pencil focus; ray angles at any other f."""
    if d.n < 3:
        raise ValueError("need at least three vertices")
    f = d.focus if f is None else f
    if f == d.focus:
        residuals = _parameter_step_residuals(d.p, d.vertices, d.theta, closed=d.closed)
    else:
        ends = [d.vertex(i) for i in range(1, d.num_sides + 2)]  # each ray angle once
        angles = ray_angles((f.x, f.y), [(v.x, v.y) for v in ends])
        steps = [normalize_angle(b - a) for a, b in zip(angles, angles[1:])]  # directed_angle
        residuals = [abs(e) for e in wrapped_diffs(steps, [d.theta] * len(steps))]
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
        us, vs = verts[:h], verts[h:]
        pairing = "vertex-vertex"
    else:  # V_j with M_{j + h}, h = (n - 1)/2
        m = tangency_points(d).vertices
        us, vs = verts, m[h:] + m[:h]
        pairing = "vertex-tangency"
    # line_through(u, v).distance_to(f) without the Line; an overflowing c gives inf.
    chords = chords_xy([(u.x, u.y) for u in us], [(v.x, v.y) for v in vs])
    fx, fy = f.x, f.y
    residuals = [abs(a * fx + b * fy + c) for a, b, c in chords]
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
    # The points may straddle the focus, so compare the angle step between
    # the focal *lines* (modulo pi), not the rays: the smaller of
    # |wrapped_diff(delta, expected)| and |wrapped_diff(delta, expected - pi)|.
    deltas = [normalize_angle(a2 - a1) for a1, a2 in zip(angles, angles[1:])]
    expected = [(i2 - i1) * d.theta for i1, i2 in zip(index, index[1:])]
    e1 = wrapped_diffs(deltas, expected)
    e2 = wrapped_diffs(deltas, [e - math.pi for e in expected])
    residuals += [min(abs(u), abs(v)) for u, v in zip(e1, e2)]
    return make_report("pascal_line", residuals, tol, line_x=-1.0 / d.p, count=len(indexed))


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
