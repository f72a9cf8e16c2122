"""The signed focal radius identity behind focal_parameter, proved and probed.

point_at(member, alpha) lies at signed radius r = sqrt(t) * (1 - p^2) /
(1 - sqrt(t) * p * cos(alpha)) from the focus.  sympy proves that
r = sqrt(t) * (1 + p*x) on the pencil equation, and Hypothesis checks that
focal_parameter inverts point_at over the pencil.
"""

import math

import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discreteconics.kernel import wrapped_diff
from discreteconics.pencil import focal_parameter, pencil_member, point_at
from test_focal_angle import INVERSE_TOL


def _polar_point():
    """point_at's r, x and y as sympy expressions, with s = sqrt(t) > 0."""
    p, alpha = sp.symbols("p alpha", real=True)
    s = sp.symbols("s", positive=True)
    r = s * (1 - p**2) / (1 - s * p * sp.cos(alpha))
    return (p, s, alpha), r, -p + r * sp.cos(alpha), r * sp.sin(alpha)


def test_signed_radius_is_sqrt_t_times_one_plus_px():
    (p, s, _), r, x, y = _polar_point()
    assert sp.simplify(r - s * (1 + p * x)) == 0
    assert sp.simplify((p + x) ** 2 + y**2 - s**2 * (1 + p * x) ** 2) == 0


def test_symbolic_point_is_point_at():
    (p, s, alpha), _, x, y = _polar_point()
    xy = sp.lambdify((p, s, alpha), (x, y), "math")
    for pv, tv, av in [(0.75, 0.5, 0.3), (0.3, 20.0, 2.9), (-0.9999, 1.2, -1.0)]:
        z = point_at(pencil_member(pv, tv), av)
        zx, zy = xy(pv, math.sqrt(tv), av)
        assert math.isclose(zx, z.x, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(zy, z.y, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(
    p=st.floats(-0.999, 0.999),
    log10_t=st.floats(-2.0, 2.0),
    alpha=st.floats(-math.pi, math.pi),
)
def test_focal_parameter_inverts_point_at(p, log10_t, alpha):
    t = 10.0**log10_t
    assume(abs(1.0 - math.sqrt(t) * p * math.cos(alpha)) >= 1e-3)
    z = point_at(pencil_member(p, t), alpha)
    assert abs(wrapped_diff(focal_parameter(p, z), alpha)) <= INVERSE_TOL
