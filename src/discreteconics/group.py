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

from .errors import AngleOutOfRange, NonpositiveT
from .kernel import distance, intersect_lines, line_through
from .pencil import Circle, point_at, tangent_at, tangency_residuals
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
    if not 0.0 <= theta < math.pi:
        raise AngleOutOfRange(f"theta must lie in [0, pi), got {theta}")
    if kind == "G":
        return GroupElement(1.0 / math.cos(theta / 2.0))
    if kind == "H":
        return GroupElement(math.cos(theta / 2.0))
    raise ValueError(f"kind must be 'G' or 'H', got {kind!r}")


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
    1 <= k <= n that vertex correspondence is verified numerically, on n + k
    carrier lines, and recorded in the result's meta.  For other angles, and
    for a ratio too large to be a float, the parametric image is returned
    with the correspondence flagged as not asserted.
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
    # Image vertex j meets the carrier lines at angles j and j + k: n + k lines.
    c, vs = d.carrier, out.vertices
    alphas = [d.phi + j * d.theta for j in range(d.n + k)]
    if kind == "G":
        tangents = [tangent_at(c, a) for a in alphas]
        zs = [intersect_lines(a, b) for a, b in zip(tangents, tangents[k:])]
        residuals = [distance(z, v) / max(1.0, math.hypot(z.x, z.y)) for z, v in zip(zs, vs)]
    else:
        pts = [point_at(c, a) for a in alphas]
        chords = [line_through(a, b) for a, b in zip(pts, pts[k:])]
        residuals = [l.distance_to(v) / max(1.0, math.hypot(v.x, v.y)) for l, v in zip(chords, vs)]
        residuals += tangency_residuals(out.carrier, chords)
    worst = max(0.0, *residuals)
    if worst > _CORRESPONDENCE_TOL:
        raise ValueError(f"vertex correspondence failed with residual {worst}")
