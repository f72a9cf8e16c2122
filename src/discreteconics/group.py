"""The abelian group acting on the focus-sharing pencil.

An element is stored as a single positive scale s on the dual-circle radius:
the tangent-intersection operation at vertex-angle gap theta has
s = sec(theta/2) >= 1, the chord-envelope operation has s = cos(theta/2) <= 1,
and composition is plain multiplication.  The map theta -> cos(theta/2) is an
isomorphism onto the positive reals, so the s-representation also covers
compositions whose angle leaves the [0, pi) chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import AngleOutOfRange, NonpositiveT, ParallelLines
from .kernel import DEGENERACY_EPS, Line, finite_xy, intersections_xy, line_coefficients_xy
from .pencil import Circle, points_at_xy, tangency_residuals, tangent_coefficients
from .polygon import DiscreteConic, synthesize

_CORRESPONDENCE_TOL = 1e-9  # largest relative vertex distance act_on_discrete accepts


@dataclass(frozen=True)
class GroupElement:
    s: float

    def __post_init__(self):
        if self.s <= 0.0:
            raise ValueError("group scale must be positive")


IDENTITY = GroupElement(1.0)


def from_angle(kind: str, theta: float) -> GroupElement:
    """G gives s = sec(theta/2), H gives s = cos(theta/2); theta in [0, pi)."""
    if kind not in ("G", "H"):
        raise ValueError(f"kind must be 'G' or 'H', got {kind!r}")
    if not 0.0 <= theta < math.pi:
        raise AngleOutOfRange(f"{kind} acts at the angle theta = {theta}, "
                              "but theta must lie in [0, pi)")
    if kind == "G":
        return GroupElement(1.0 / math.cos(theta / 2.0))
    return GroupElement(math.cos(theta / 2.0))


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    return GroupElement(a.s * b.s)


def inverse(a: GroupElement) -> GroupElement:
    return GroupElement(1.0 / a.s)


def as_angle(e: GroupElement) -> tuple[str, float]:
    """Round-trips from_angle: (G, 2 acos(1/s)) if s >= 1 else (H, 2 acos(s))."""
    if e.s >= 1.0:
        return "G", 2.0 * math.acos(min(1.0, 1.0 / e.s))
    return "H", 2.0 * math.acos(e.s)


def act_on_parameter(e: GroupElement, t: float) -> float:
    """Pencil parameter update: t -> t * s^2."""
    if t <= 0.0:
        raise NonpositiveT(f"pencil parameter t must be positive, got {t}")
    return t * e.s * e.s


def act_on_circle(e: GroupElement, c: Circle) -> Circle:
    """On circles the action scales the radius about the center."""
    return Circle(c.center, c.radius * e.s)


def image(e: GroupElement, d: DiscreteConic) -> DiscreteConic:
    """The parametric image: t -> t*s^2, phi -> phi + half the acted angle."""
    _, psi = as_angle(e)
    return synthesize(d.p, act_on_parameter(e, d.t), d.theta, d.phi + psi / 2.0, d.n)


def act_on_discrete(e: GroupElement, d: DiscreteConic) -> DiscreteConic:
    """image(e, d), with its vertex correspondence checked where it is known.

    When the acted angle is an integer multiple k of the polygon's own theta,
    the image vertices coincide with tangent-line intersections (G) or chord
    tangency points (H) taken k apart on the original carrier; for
    1 <= k <= n that vertex correspondence is verified numerically, from
    the carrier's points at n + k angles (correspondence_residuals), and
    recorded in the result's meta.  For other angles, and for a ratio too
    large to be a float, the parametric image is returned with the
    correspondence flagged as not asserted.
    """
    kind, psi = as_angle(e)
    out = image(e, d)
    ratio = psi / d.theta  # inf for a subnormal theta
    k = round(ratio) if math.isfinite(ratio) else 0
    if psi < 1e-15:
        meta = {"vertex_correspondence": "identity"}
    elif 1 <= k <= d.n and abs(ratio - k) < 1e-9:
        _verify_correspondence(d, out, kind, k)
        meta = {"vertex_correspondence": "verified", "k": k}
    else:
        meta = {"vertex_correspondence": "not_asserted"}
    return replace(out, meta=meta)


def _verify_correspondence(d, out, kind, k):
    worst = max(0.0, *correspondence_residuals(d, out, kind, k))
    if worst > _CORRESPONDENCE_TOL:
        raise ValueError(f"vertex correspondence failed with residual {worst}")


def correspondence_residuals(d, out, kind, k) -> list[float]:
    """The residuals of out's vertices against d's carrier, k apart.

    Image vertex j is met by the carrier at angles j and j + k, so the
    carrier is read at n + k angles, as coordinate pairs.  G: the distance
    from each vertex to the meet of the tangents there, relative to the
    meet's size.  H: the distance from each vertex to the chord through
    those points, relative to the vertex's size, then each chord's tangency
    residual on out's carrier.  The values, and the errors, are those of
    tangent_at, point_at, intersect_lines and line_through on Points and
    Lines.
    """
    c, vs = d.carrier, out.vertices
    alphas = [d.phi + j * d.theta for j in range(d.n + k)]
    xys = finite_xy(points_at_xy(c, alphas))
    if kind == "G":
        tangents = tangent_coefficients(c, xys)
        try:
            zs = intersections_xy(tangents, tangents[k:])
        except ParallelLines:  # named as Lines, as intersect_lines names them
            a, b = next((a, b) for a, b in zip(tangents, tangents[k:])
                        if abs(a[0] * b[1] - b[0] * a[1]) < DEGENERACY_EPS)
            raise ParallelLines(f"lines {Line(*a)} and {Line(*b)} are parallel") from None
        return [math.hypot(x - v.x, y - v.y) / max(1.0, math.hypot(x, y))
                for (x, y), v in zip(zs, vs)]
    xys = list(xys)
    chords = line_coefficients_xy(xys, xys[k:])
    residuals = [abs(a * v.x + b * v.y + w) / max(1.0, math.hypot(v.x, v.y))
                 for (a, b, w), v in zip(chords, vs)]
    return residuals + tangency_residuals(out.carrier, chords)
