"""The reciprocal circle of a pencil member, proved and probed.

Reciprocating the (p, t) member about its focus F = (-p, 0) with radius k
gives the circle centred at (-p - k^2 p / (1 - p^2), 0) with radius
k^2 / (sqrt(t) |1 - p^2|): the pole of every tangent line lies on it.  The
pole of a line n . (X - F) = h, with n the unit normal and h the signed
distance from F, is F + k^2 n / h; written with the unnormalised gradient g
of the member, it is F + k^2 g / (g . (Z - F)) for the tangent at Z.

sympy proves it with a = e^{i alpha}, so the identity reduces to a
polynomial zero.  dual_conic, which fits a circle to 32 sampled poles, is
compared with the closed form on ellipse and hyperbola members.
"""

import math

import pytest
import sympy as sp

from discreteconics.duality import Reciprocator, dual_conic
from discreteconics.pencil import classify, pencil_member
from test_chord_pedal_proof import _gradient, _is_zero, _point


def _reciprocal_circle(p: float, t: float, k: float) -> tuple[float, float]:
    """Centre x and radius of the closed form."""
    return -p - k * k * p / (1.0 - p * p), k * k / (math.sqrt(t) * abs(1.0 - p * p))


def test_tangent_poles_lie_on_the_reciprocal_circle():
    p = sp.symbols("p", real=True)
    s, k = sp.symbols("s k", positive=True)  # sqrt(t), the reciprocation radius
    a = sp.symbols("a", nonzero=True)  # e^{i alpha}
    x, y = _point(p, s, a)
    gx, gy = _gradient(p, s, x, y)
    h = gx * (x + p) + gy * y  # g . (Z - F)
    px, py = k**2 * gx / h, k**2 * gy / h  # the pole, relative to F
    cx = -(k**2) * p / (1 - p**2)
    # radius^2 = k^4 / (t (1 - p^2)^2): the absolute value squares away.
    assert _is_zero(((px - cx) ** 2 + py**2) * s**2 * (1 - p**2) ** 2 - k**4)


# (p, t): two ellipses, the circle member, two hyperbola members (one with |p| > 1).
MEMBERS = [(0.75, 0.5), (-0.6, 1.3), (0.0, 0.7), (0.3, 20.0), (2.0, 0.5)]


@pytest.mark.parametrize("p, t", MEMBERS)
@pytest.mark.parametrize("k", [1.0, 0.7, 2.5])
def test_dual_conic_is_the_reciprocal_circle(p, t, k):
    c = pencil_member(p, t)
    fit = dual_conic(Reciprocator(c.focus, k), c, require_focus_inside=False)
    cx, radius = _reciprocal_circle(p, t, k)
    # Measured on Python 3.11 over these cases: the centre is within 4.6e-16 of the
    # radius, the radius within 2.8e-16 of itself.  The bound leaves 4x for sum(),
    # which rounds differently on 3.12, inside fit_circle.
    assert math.hypot(fit.center.x - cx, fit.center.y) <= 2e-15 * radius
    assert abs(fit.radius - radius) <= 2e-15 * radius


def test_the_members_cover_both_kinds():
    assert {classify(pencil_member(p, t)) for p, t in MEMBERS} >= {"ellipse", "hyperbola"}
