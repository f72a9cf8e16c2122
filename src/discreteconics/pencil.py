"""The focus-sharing pencil of conics (p + x)^2 + y^2 = (1 + p*x)^2 * t.

Every member shares the focus F = (-p, 0).  The family foliates the plane
minus the line x = -1/p: each point off that line lies on exactly one member.
The canonical parametrization is the focal polar form

    r(alpha) = sqrt(t) * (1 - p^2) / (1 - sqrt(t) * p * cos(alpha)),

measured from F; r may be negative on the far branch of a hyperbola member.
focal_radius evaluates it at one angle; focal_radii at many, with the same
float operations and the member's constants formed once, and points_at_xy
gives the points at many angles as coordinate pairs.  The pencil equation
makes r = sqrt(t) * (1 + p*x), so the angle of a point at F, its signed focal
parameter alpha (point_at(member, alpha) is the point), is the ray angle plus
pi where 1 + p*x < 0.  focal_parameters is the one place that computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AsymptoticDirection,
    DegenerateP,
    NonFiniteParameter,
    NonpositiveT,
    OnExcludedLine,
    ParabolaMember,
)
from .kernel import DEGENERACY_EPS, Line, Point, _adjugate3, _centroid, checked_coefficients

# Half-width of the |eccentricity| = 1 band treated as a parabola.
_CLASSIFY_EPS = 1e-12


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float


@dataclass(frozen=True)
class QuadraticForm:
    """Implicit conic A x^2 + B xy + C y^2 + D x + E y + G = 0."""

    A: float
    B: float
    C: float
    D: float
    E: float
    G: float

    def residual_at(self, p: Point) -> float:
        """|value| normalized by the size of the evaluated terms."""
        x, y = p.x, p.y
        terms = (self.A * x * x, self.B * x * y, self.C * y * y, self.D * x, self.E * y, self.G)
        value = scale = 0.0
        for term in terms:  # left to right, as the formula reads; sum() may compensate
            value += term
            scale += abs(term)
        return abs(value) / max(scale, 1.0)


@dataclass(frozen=True)
class FocalConic:
    """Pencil member with shape parameter p and pencil parameter t."""

    p: float
    t: float

    @property
    def focus(self) -> Point:
        return Point(-self.p, 0.0)

    @property
    def center(self) -> Point:
        """From the expanded implicit form; the major axis is the x-axis.  A
        parabola member (classify) has its center, and second focus, at
        infinity: both raise ParabolaMember."""
        if classify(self) == "parabola":
            raise ParabolaMember(f"the parabola member t = {self.t} has no center")
        return Point(-self.p * (1.0 - self.t) / (1.0 - self.t * self.p * self.p), 0.0)

    @property
    def second_focus(self) -> Point:
        return Point(2.0 * self.center.x + self.p, 0.0)


def check_p(p: float) -> None:
    """Reject a non-finite p and the degenerate shape parameters p = +-1."""
    if not math.isfinite(p):
        raise NonFiniteParameter(f"p must be finite, got {p!r}")
    if abs(abs(p) - 1.0) < 1e-9:
        raise DegenerateP(f"p = {p} is within 1e-9 of +-1, which gives a degenerate pencil")


def pencil_member(p: float, t: float) -> FocalConic:
    if not math.isfinite(t):
        raise NonFiniteParameter(f"pencil parameter t must be finite, got {t!r}")
    check_p(p)
    if t <= 0.0:
        raise NonpositiveT(f"pencil parameter t must be positive, got {t}")
    return FocalConic(float(p), float(t))


def limiting_conic(p: float) -> FocalConic:
    """The t = 1 member, x^2 + y^2/(1 - p^2) = 1 with foci (+-p, 0)."""
    return pencil_member(p, 1.0)


def classify(c: FocalConic) -> str:
    e2 = c.p * c.p * c.t
    if abs(e2 - 1.0) <= _CLASSIFY_EPS:
        return "parabola"
    return "ellipse" if e2 < 1.0 else "hyperbola"


def focal_radius(c: FocalConic, alpha: float) -> float:
    """Signed distance from the focus along direction alpha."""
    rt = math.sqrt(c.t)
    denom = 1.0 - rt * c.p * math.cos(alpha)
    if abs(denom) < DEGENERACY_EPS:
        raise AsymptoticDirection(f"alpha = {alpha} is an asymptotic direction")
    return rt * (1.0 - c.p * c.p) / denom


def focal_radii(c: FocalConic, alphas):
    """focal_radius at each angle, bit for bit: its float operations in its
    order, with sqrt(t), sqrt(t)*p and sqrt(t)*(1 - p^2) formed once.  Lazy,
    so a caller building a point per radius meets all errors in angle order."""
    rt = math.sqrt(c.t)
    rtp = rt * c.p
    num = rt * (1.0 - c.p * c.p)
    for alpha in alphas:
        denom = 1.0 - rtp * math.cos(alpha)
        if abs(denom) < DEGENERACY_EPS:
            raise AsymptoticDirection(f"alpha = {alpha} is an asymptotic direction")
        yield num / denom


def point_at(c: FocalConic, alpha: float) -> Point:
    r = focal_radius(c, alpha)
    return Point(-c.p + r * math.cos(alpha), r * math.sin(alpha))


def points_at_xy(c: FocalConic, alphas):
    """point_at's coordinates at each angle as (x, y) pairs, bit for bit:
    focal_radii's radius, with cos(alpha) formed once for the radius and
    x.  Lazy, so a caller building a point per pair meets all errors in
    angle order."""
    rt = math.sqrt(c.t)
    rtp = rt * c.p
    num = rt * (1.0 - c.p * c.p)
    for alpha in alphas:
        cos_a = math.cos(alpha)
        denom = 1.0 - rtp * cos_a
        if abs(denom) < DEGENERACY_EPS:
            raise AsymptoticDirection(f"alpha = {alpha} is an asymptotic direction")
        r = num / denom
        yield -c.p + r * cos_a, r * math.sin(alpha)


def parameter_of(p: float, x: Point) -> float:
    """The unique t whose member passes through x (foliation property)."""
    check_p(p)
    return _parameter(p, x)


def _parameter(p: float, x: Point) -> float:
    """parameter_of for a p that check_p has passed."""
    denom = 1.0 + p * x.x
    if abs(denom) < DEGENERACY_EPS:
        raise OnExcludedLine(f"{x} lies on the excluded line x = {-1.0 / p}")
    try:
        t = ((p + x.x) ** 2 + x.y**2) / denom**2
    except OverflowError:
        t = math.inf
    if not math.isfinite(t):
        raise NonFiniteParameter(f"the member through {x} has t = {t}, beyond float range")
    return t


def focal_parameter(p: float, z: Point) -> float:
    """The alpha with point_at(member, alpha) == z on z's own member.

    The signed focal radius of z is sqrt(t) * (1 + p*x), with |z - F| its
    absolute value, so alpha is the ray angle from the focus, plus pi where
    1 + p*x < 0 (the far branch of a hyperbola member)."""
    return focal_parameters(p, (z,))[1][0]


def focal_parameters(p: float, points) -> tuple[list[float], list[float]]:
    """parameter_of and focal_parameter of each point, as (ts, alphas), with
    p checked once and each t computed once.  Every t is checked before the
    focus test, so a point off every member (OnExcludedLine,
    NonFiniteParameter) is reported before the focus (t = 0), which lies on
    no member.  _parameter's arithmetic is inline; a point that fails one of
    its checks goes through _parameter."""
    check_p(p)
    ts, alphas = [], []
    for z in points:
        x, y = z.x, z.y
        denom = 1.0 + p * x
        try:
            t = ((p + x) ** 2 + y**2) / denom**2 if abs(denom) >= DEGENERACY_EPS else math.nan
        except OverflowError:
            t = math.inf
        if not math.isfinite(t):
            t = _parameter(p, z)  # raises this point's error
        ts.append(t)
        beta = math.atan2(y, x + p)
        alphas.append(beta + math.pi if denom < 0.0 else beta)
    if 0.0 in ts:
        z = points[ts.index(0.0)]
        raise NonpositiveT(f"{z} is the focus, which lies on no member (t = 0)")
    return ts, alphas


def quadratic_form(c: FocalConic) -> QuadraticForm:
    p, t = c.p, c.t
    return QuadraticForm(
        A=1.0 - t * p * p,
        B=0.0,
        C=1.0,
        D=2.0 * p * (1.0 - t),
        E=0.0,
        G=p * p - t,
    )


def tangent_at(c: FocalConic, alpha: float) -> Line:
    """Tangent line at point_at(c, alpha), from the implicit gradient."""
    pt = point_at(c, alpha)
    p, t = c.p, c.t
    gx = (p + pt.x) - t * p * (1.0 + p * pt.x)
    gy = pt.y
    return Line.from_coefficients(gx, gy, -(gx * pt.x + gy * pt.y))


def tangent_coefficients(c: FocalConic, xys) -> list[tuple[float, float, float]]:
    """The (a, b, c) of tangent_at at each point of c, given as point_at's
    (x, y) pair, bit for bit: tangent_at's gradient in its order, with
    t*p formed once, then the checks of its Line, each error at the first
    point that fails.  Given points_at_xy's lazy pairs through finite_xy, it
    raises what a tangent_at loop raises first."""
    p = c.p
    tp = c.t * p
    out = []
    for x, y in xys:
        gx = (p + x) - tp * (1.0 + p * x)
        out.append(checked_coefficients(gx, y, -(gx * x + y * y)))
    return out


def tangency_residual(c: FocalConic, line: Line) -> float:
    """0 iff the line is tangent to c; the line-conic discriminant, scale-free.

    A line l is tangent to the conic with matrix M iff l^T adj(M) l = 0, which
    is the discriminant of substituting the line into the implicit equation.
    adj(M) is taken in closed form (normalized_adjugate), not as det*inv.
    """
    return tangency_residuals(c, (line,))[0]


def tangency_residuals(c: FocalConic, lines) -> list[float]:
    """tangency_residual of each line, a Line or its (a, b, c) tuple, with
    adj(M) formed once for c."""
    (xx, _, xw), (_, yy, _), (_, _, ww) = normalized_adjugate(c)
    out = []
    for l in lines:
        a, b, w = l if type(l) is tuple else (l.a, l.b, l.c)
        quad = (a * xx + w * xw) * a + b * yy * b + (a * xw + w * ww) * w
        out.append(abs(quad) / (1.0 + w * w))
    return out


def normalized_adjugate(c: FocalConic) -> tuple[tuple[float, float, float], ...]:
    """adj(M) of the member's conic matrix M, scaled to unit max-abs entry.

    A pencil member has M = [[A, 0, D/2], [0, 1, 0], [D/2, 0, G]], so
    adj(M) = [[G, 0, -D/2], [0, A*G - D^2/4, 0], [-D/2, 0, A]] in closed
    form.  Its middle entry is det(M) = -t*(1 - p^2)^2, nonzero on every
    member, so the scale never vanishes.
    """
    q = quadratic_form(c)
    h = q.D / 2.0
    adj = ((q.G, 0.0, -h), (0.0, q.A * q.G - h * h, 0.0), (-h, 0.0, q.A))
    scale = max(abs(v) for row in adj for v in row)
    return tuple(tuple(v / scale for v in row) for row in adj)


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
    ata = [[sum(r[i] * r[j] for r in rows) for j in range(3)] for i in range(3)]
    atb = [-sum(r[i] * (r[0] * r[0] + r[1] * r[1]) for r in rows) for i in range(3)]
    adj = _adjugate3(ata)
    det = sum(ata[0][k] * adj[k][0] for k in range(3))
    if det == 0.0:
        raise ValueError("degenerate circle fit")
    d, e, g = (sum(a * b for a, b in zip(row, atb)) / det for row in adj)
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
