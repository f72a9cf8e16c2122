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
from .kernel import intersect_lines, line_through
from .pencil import pencil_member, point_at, tangent_at, tangency_residual
from .polygon import DiscreteConic, synthesize
from .pencil import Circle


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


def act_on_discrete(e: GroupElement, d: DiscreteConic, tol: float = 1e-9) -> DiscreteConic:
    """Image polygon: t -> t*s^2, phi -> phi + half the acted angle.

    When the acted angle is an integer multiple k of the polygon's own theta,
    the image vertices coincide with tangent-line intersections (G) or chord
    tangency points (H) taken k apart on the original carrier; that vertex
    correspondence is verified numerically and recorded in the result's meta.
    For other angles the parametric image is returned with the correspondence
    flagged as not asserted.
    """
    kind, psi = as_angle(e)
    out = synthesize(d.p, act_on_parameter(e, d.t), d.theta, d.phi + psi / 2.0, d.n)
    if psi < 1e-15:
        return replace(out, meta={**out.meta, "vertex_correspondence": "identity"})
    ratio = psi / d.theta
    k = round(ratio)
    if k >= 1 and abs(ratio - k) < 1e-9:
        _verify_correspondence(e, d, out, kind, k, tol)
        out = replace(out, meta={**out.meta, "vertex_correspondence": "verified", "k": k})
    else:
        out = replace(out, meta={**out.meta, "vertex_correspondence": "not_asserted"})
    return out


def _verify_correspondence(e, d, out, kind, k, tol):
    carrier = pencil_member(d.p, d.t)
    worst = 0.0
    for j in range(d.n):
        a1 = d.phi + j * d.theta
        a2 = a1 + k * d.theta
        v = out.vertices[j]
        if kind == "G":
            z = intersect_lines(tangent_at(carrier, a1), tangent_at(carrier, a2))
            scale = max(1.0, math.hypot(z.x, z.y))
            worst = max(worst, math.hypot(z.x - v.x, z.y - v.y) / scale)
        else:
            chord = line_through(point_at(carrier, a1), point_at(carrier, a2))
            worst = max(worst, chord.distance_to(v) / max(1.0, math.hypot(v.x, v.y)))
            worst = max(worst, tangency_residual(out.carrier, chord))
    if worst > tol:
        raise ValueError(f"vertex correspondence failed with residual {worst}")
