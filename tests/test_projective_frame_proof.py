"""The projective frame of a pencil member, proved and probed.

In homogeneous coordinates point_at(alpha) = M * (cos alpha, sin alpha, 1)
on the (p, t) member, with

    M = [[sqrt(t), 0, -p], [0, sqrt(t) (1 - p^2), 0], [-sqrt(t) p, 0, 1]]

and det M = t (1 - p^2)^2, which is positive for p != +-1.  So M is a
projective map of the unit circle onto the member, and a discrete conic is
M applied to a regular polygon rotated by phi: the paper's projective
regularity with the map written out.  sympy proves the three facts; a
numeric probe ties M to synthesize at n = 960 near |p| = 1, where the
four-point fit that check_projective_regular used before it read its
vertices through this frame read 1.26e-5 and failed.

check_projective_regular maps each vertex through N = [[1, 0, p], [0, 1, 0],
[p, 0, 1]], the inverse of the focal homology H_p.  sympy proves
N * M = (1 - p^2) diag(sqrt(t), sqrt(t), 1), so N sends point_at(alpha) to
sqrt(t) (cos alpha, sin alpha) on both branches of a hyperbola member.
"""

import io
import json
import math

import pytest
import sympy as sp

from discreteconics.cli import main
from discreteconics.kernel import ProjectiveMap, map_xy
from discreteconics.pencil import pencil_member, point_at
from discreteconics.polygon import synthesize
from discreteconics.verify import DEFAULT_TOL, check_projective_regular

P_NEAR_MINUS_1 = (-0.9999, 1.2, 2.0 * math.pi / 960, 0.3, 960)


def _inverse_homology(p):
    """N, the matrix check_projective_regular maps vertices through."""
    return [[1, 0, p], [0, 1, 0], [p, 0, 1]]


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
    (P_NEAR_MINUS_1, 1e-12),  # measured 3.23e-13
    ((0.75, 0.5, math.pi / 6, 0.0, 12), 2e-15),  # measured 6.1e-16
    ((0.3, 20.0, 2.0 * math.pi / 7, 0.0, 7), 6e-16),  # a hyperbola member; 2.0e-16
    ((0.5, 1.0, 5.0 * math.pi / 6, 0.2, 12), 4e-16),  # winding 5; 1.3e-16
])
def test_synthesize_is_the_frame_image_of_a_regular_polygon(args, bound):
    d = synthesize(*args)
    assert d.closed
    assert _frame_error(d) <= bound


def test_the_check_map_undoes_the_frame():
    p = sp.symbols("p", real=True)
    s = sp.symbols("s", positive=True)  # sqrt(t)
    product = sp.Matrix(_inverse_homology(p)) * sp.Matrix(_frame(p, s))
    assert sp.expand(product - (1 - p**2) * sp.diag(s, s, 1)) == sp.zeros(3, 3)


def test_the_check_map_sends_both_branches_to_the_circle():
    # (p, t) = (0.3, 20): sqrt(t) p cos(alpha) > 1 near alpha = 0, the far branch.
    p, t = 0.3, 20.0
    c = pencil_member(p, t)
    m = ProjectiveMap(_inverse_homology(p))
    s = math.sqrt(t)
    branches = set()
    for alpha in (0.0, 0.2, 1.0, 2.0, 3.0, 4.5, 6.2):
        v = point_at(c, alpha)
        branches.add(1.0 + p * v.x > 0.0)
        x, y = map_xy(m, v.x, v.y)
        assert math.hypot(x - s * math.cos(alpha), y - s * math.sin(alpha)) <= 1e-14 * s
    assert branches == {True, False}


def test_the_near_parabola_polygon_at_n960_passes():
    report = check_projective_regular(synthesize(*P_NEAR_MINUS_1))
    assert report.tolerance == DEFAULT_TOL and report.passed
    assert len(report.residuals) == 960 and max(report.residuals) < 1e-11


def test_verify_passes_the_near_parabola_polygon_at_n960(monkeypatch, capsys):
    assert main(["generate", "--p", "-0.9999", "--t", "1.2", "--theta", "2pi/960",
                 "--phi", "0.3", "--n", "960"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert main(["verify", "--check", "projective_regular"]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert report["check"] == "projective_regular" and report["pass"] is True
