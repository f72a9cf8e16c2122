"""The chord-tangency and pedal-circle identities, proved and probed.

Chord: the chord of the member t between focal angles alpha and alpha + psi
touches the member t * cos^2(psi/2) at focal angle alpha + psi/2.  With
psi = theta that is DiscreteConic.inner and tangency, and the tangency that
check_poncelet measures.

Pedal: the foot of the perpendicular from the focus to any tangent of a
central member lies on pedal_circle's circle, centred at FocalConic.center
with radius sqrt(t) * |1 - p^2| / |1 - t * p^2|.

sympy proves the three identities (the contact point is on the chord, the
chord is tangent there, the foot is on the circle).  Angles are written as
a = e^{i alpha} and h = e^{i psi/2}, so every expression is rational and the
identities reduce to polynomial zeros.  Numeric probes tie each proof to the
library code.
"""

import math

import pytest
import sympy as sp

from discreteconics.kernel import distance, foot_perpendicular, line_through
from discreteconics.pencil import (
    pedal_circle,
    pencil_member,
    point_at,
    tangency_residual,
    tangent_at,
)
from discreteconics.polygon import synthesize
from discreteconics.verify import check_poncelet


def _cos_sin(u):
    """cos and sin of the angle whose unit complex number is u."""
    return (u + 1 / u) / 2, (u - 1 / u) / (2 * sp.I)


def _point(p, s, u):
    """point_at at the angle of u on the member with sqrt(t) = s."""
    c, si = _cos_sin(u)
    r = s * (1 - p**2) / (1 - s * p * c)
    return -p + r * c, r * si


def _gradient(p, s, x, y):
    """Half the gradient of (p + x)^2 + y^2 - s^2 (1 + p x)^2 at (x, y)."""
    return (p + x) - s**2 * p * (1 + p * x), y


def _is_zero(expr) -> bool:
    return sp.expand(sp.numer(sp.together(expr))) == 0


def test_chord_touches_the_cos_squared_member_midway():
    p = sp.symbols("p", real=True)
    s = sp.symbols("s", positive=True)  # sqrt(t)
    a, h = sp.symbols("a h", nonzero=True)  # e^{i alpha}, e^{i psi/2}
    cos_half, _ = _cos_sin(h)
    s_m = s * cos_half  # sqrt(t * cos^2(psi/2)), up to a sign the member equation squares
    x1, y1 = _point(p, s, a)
    x2, y2 = _point(p, s, a * h**2)
    mx, my = _point(p, s_m, a * h)
    # The contact point lies on the chord ...
    assert _is_zero((x2 - x1) * (my - y1) - (y2 - y1) * (mx - x1))
    # ... and the chord runs along the member's tangent there.
    gx, gy = _gradient(p, s_m, mx, my)
    assert _is_zero(gx * (x2 - x1) + gy * (y2 - y1))


def test_tangent_foot_lies_on_the_pedal_circle():
    p = sp.symbols("p", real=True)
    s = sp.symbols("s", positive=True)
    a = sp.symbols("a", nonzero=True)
    t = s**2
    x, y = _point(p, s, a)
    gx, gy = _gradient(p, s, x, y)
    k = ((x + p) * gx + y * gy) / (gx**2 + gy**2)
    fx, fy = -p + k * gx, k * gy  # the foot from F = (-p, 0)
    cx = -p * (1 - t) / (1 - t * p**2)  # FocalConic.center
    radius2 = t * (1 - p**2) ** 2 / (1 - t * p**2) ** 2
    assert _is_zero((fx - cx) ** 2 + fy**2 - radius2)


MEMBERS = [(0.75, 0.5), (0.3, 20.0), (-0.6, 1.3), (0.0, 0.7), (0.9, 1.2)]


@pytest.mark.parametrize("p, t", MEMBERS)
@pytest.mark.parametrize("alpha, psi", [(0.3, 0.4), (2.9, 1.1), (-1.0, 0.05), (1.0, 2.5)])
def test_chord_midpoint_is_point_at_on_the_inner_member(p, t, alpha, psi):
    c = pencil_member(p, t)
    half = math.cos(psi / 2.0)
    inner = pencil_member(p, t * half * half)
    m = point_at(inner, alpha + psi / 2.0)
    chord = line_through(point_at(c, alpha), point_at(c, alpha + psi))
    assert chord.distance_to(m) <= 1e-12 * max(1.0, math.hypot(m.x, m.y))
    assert tangency_residual(inner, chord) <= 1e-12


@pytest.mark.parametrize("p, t", MEMBERS)
def test_tangency_polygon_sits_on_the_sides(p, t):
    d = synthesize(p, t, 2.0 * math.pi / 7, 0.4, 7)
    assert math.isclose(d.inner.t, t * math.cos(d.theta / 2.0) ** 2, rel_tol=1e-15)
    for j, m in enumerate(d.tangency.vertices, start=1):
        assert d.side(j).distance_to(m) <= 1e-12 * max(1.0, math.hypot(m.x, m.y))
    assert check_poncelet(d).passed


@pytest.mark.parametrize("p, t", MEMBERS)
def test_tangent_feet_lie_on_pedal_circle(p, t):
    c = pencil_member(p, t)
    circle = pedal_circle(c)
    for j in range(24):
        alpha = 2.0 * math.pi * j / 24 + 0.1
        foot = foot_perpendicular(c.focus, tangent_at(c, alpha))
        assert math.isclose(distance(foot, circle.center), circle.radius, rel_tol=1e-12)
