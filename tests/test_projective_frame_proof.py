"""The projective frame of a pencil member, proved and probed.

In homogeneous coordinates point_at(alpha) = M * (cos alpha, sin alpha, 1)
on the (p, t) member, with

    M = [[sqrt(t), 0, -p], [0, sqrt(t) (1 - p^2), 0], [-sqrt(t) p, 0, 1]]

and det M = t (1 - p^2)^2, which is positive for p != +-1.  So M is a
projective map of the unit circle onto the member, and a discrete conic is
M applied to a regular polygon rotated by phi: the paper's projective
regularity with the map written out.  sympy proves the three facts; a
numeric probe ties M to synthesize at n = 960 near |p| = 1, where the
four-point fit of check_projective_regular reads 1.26e-5.
"""

import math

import pytest
import sympy as sp

from discreteconics.polygon import synthesize


def _frame(p, s):
    """M for the member with sqrt(t) = s."""
    return [[s, 0, -p], [0, s * (1 - p**2), 0], [-s * p, 0, 1]]


def test_point_at_is_the_frame_image_of_the_unit_circle_point():
    p = sp.symbols("p", real=True)
    s = sp.symbols("s", positive=True)  # sqrt(t)
    c, si = sp.symbols("c si", real=True)  # cos alpha, sin alpha
    r = s * (1 - p**2) / (1 - s * p * c)  # point_at's signed focal radius
    X, Y, W = sp.Matrix(_frame(p, s)) * sp.Matrix([c, si, 1])
    assert sp.simplify(X / W - (-p + r * c)) == 0
    assert sp.simplify(Y / W - r * si) == 0
    # The image of the unit circle c^2 + si^2 = 1 lies on the member's equation.
    x, y = X / W, Y / W
    member = sp.numer(sp.together((p + x) ** 2 + y**2 - s**2 * (1 + p * x) ** 2))
    assert sp.rem(sp.expand(member), c**2 + si**2 - 1, si) == 0


def test_frame_determinant_is_t_times_one_minus_p_squared_squared():
    p = sp.symbols("p", real=True)
    s = sp.symbols("s", positive=True)
    assert sp.expand(sp.Matrix(_frame(p, s)).det() - s**2 * (1 - p**2) ** 2) == 0


def _frame_error(d) -> float:
    """Largest |V_j - M (cos a_j, sin a_j, 1)| / |V_j|, a_j = phi + j theta."""
    m = _frame(d.p, math.sqrt(d.t))
    worst = 0.0
    for j, v in enumerate(d.vertices):
        a = d.phi + j * d.theta
        hx, hy, hw = (row[0] * math.cos(a) + row[1] * math.sin(a) + row[2] for row in m)
        worst = max(worst, math.hypot(hx / hw - v.x, hy / hw - v.y) / math.hypot(v.x, v.y))
    return worst


# (p, t, theta, phi, n), and a bound about 3x the error measured on Python 3.11.
@pytest.mark.parametrize("args, bound", [
    ((-0.9999, 1.2, 2.0 * math.pi / 960, 0.3, 960), 1e-12),  # measured 3.23e-13
    ((0.75, 0.5, math.pi / 6, 0.0, 12), 2e-15),  # measured 6.1e-16
    ((0.3, 20.0, 2.0 * math.pi / 7, 0.0, 7), 6e-16),  # a hyperbola member; 2.0e-16
    ((0.5, 1.0, 5.0 * math.pi / 6, 0.2, 12), 4e-16),  # winding 5; 1.3e-16
])
def test_synthesize_is_the_frame_image_of_a_regular_polygon(args, bound):
    d = synthesize(*args)
    assert d.closed
    assert _frame_error(d) <= bound
