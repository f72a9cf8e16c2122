"""The tangent-intersection closed form behind grid_layer and check_grid.

Tangents to the member t at focal angles alpha and alpha + psi meet on the
member t * sec^2(psi/2), at focal angle alpha + psi/2.  With psi = k*theta
on the inscribed member, that is grid_layer's member t*cos^2(theta/2) *
sec^2(k*theta/2) and the G_{k*theta} image that check_grid compares with.

sympy proves it: the point z at focal angle alpha + psi/2 on the member
t * sec^2(psi/2) satisfies the tangent-line equation at both points, and
lies on its member.  Angles are written through a = e^{i alpha} and
h = e^{i psi/2}, so every expression is rational and the identities reduce
to polynomial zeros.  A numeric probe ties the proof to the library code,
and the check_grid error names the acted angle.
"""

import io
import math

import pytest
import sympy as sp

from discreteconics.cli import main
from discreteconics.errors import AngleOutOfRange
from discreteconics.kernel import distance, intersect_lines
from discreteconics.pencil import pencil_member, point_at, tangent_at
from discreteconics.polygon import grid_layer, synthesize
from discreteconics.verify import check_grid


def _cos_sin(u):
    """cos and sin of the angle whose unit complex number is u."""
    return (u + 1 / u) / 2, (u - 1 / u) / (2 * sp.I)


def _point(p, s, u):
    """point_at at the angle of u on the member with sqrt(t) = s."""
    c, si = _cos_sin(u)
    r = s * (1 - p**2) / (1 - s * p * c)
    return -p + r * c, r * si


def _is_zero(expr) -> bool:
    return sp.expand(sp.numer(sp.together(expr))) == 0


def test_tangents_psi_apart_meet_on_the_sec_squared_member():
    p = sp.symbols("p", real=True)
    s = sp.symbols("s", positive=True)  # sqrt(t)
    a, h = sp.symbols("a h", nonzero=True)  # e^{i alpha}, e^{i psi/2}
    t = s**2
    cos_half, _ = _cos_sin(h)
    s_z = s / cos_half  # sqrt(t * sec^2(psi/2))
    zx, zy = _point(p, s_z, a * h)
    for u in (a, a * h**2):  # the tangency points at alpha and alpha + psi
        x, y = _point(p, s, u)
        # Gradient of (p + x)^2 + y^2 - t (1 + p x)^2, halved.
        gx, gy = (p + x) - t * p * (1 + p * x), y
        assert _is_zero(gx * (zx - x) + gy * (zy - y))
    # z lies on the member t * sec^2(psi/2).
    assert _is_zero((p + zx) ** 2 + zy**2 - s_z**2 * (1 + p * zx) ** 2)


@pytest.mark.parametrize("p, t, alpha, psi", [
    (0.75, 0.5, 0.3, 0.4), (0.3, 20.0, 2.9, 1.1), (-0.9999, 1.2, -1.0, 0.05), (0.0, 0.7, 1.0, 2.5),
])
def test_tangent_intersection_is_point_at_on_the_layer_member(p, t, alpha, psi):
    c = pencil_member(p, t)
    z = intersect_lines(tangent_at(c, alpha), tangent_at(c, alpha + psi))
    half = math.cos(psi / 2.0)
    want = point_at(pencil_member(p, t / (half * half)), alpha + psi / 2.0)
    assert distance(z, want) <= 1e-12 * max(1.0, math.hypot(want.x, want.y))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_grid_layer_is_the_closed_form(k):
    d = synthesize(0.75, 0.5, 2.0 * math.pi / 11, 0.3, 11)
    layer = grid_layer(d, k)
    member = pencil_member(d.p, layer.t)
    for j, z in enumerate(layer.vertices):
        want = point_at(member, d.phi + d.theta / 2.0 + j * d.theta + k * d.theta / 2.0)
        assert distance(z, want) <= 1e-12 * max(1.0, math.hypot(want.x, want.y))


# ---------------------------------------------------------------------------
# check_grid names the acted angle when it leaves G's chart

def test_check_grid_names_k_theta_and_the_acted_angle():
    theta = 5.0 * math.pi / 6.0
    d = synthesize(0.5, 1.0, theta, 0.0, 12)
    with pytest.raises(AngleOutOfRange) as exc:
        check_grid(d, 2)
    assert str(exc.value) == (f"grid k = 2 at theta = {theta!r}: the acted angle "
                              f"k*theta = {2 * theta!r} must lie in [0, pi)")
    with pytest.raises(AngleOutOfRange, match=r"^grid k = 9 at theta = .*: the acted angle "
                                              r"\(n - k\)\*theta = "):
        check_grid(d, 9)


def test_verify_exits_2_naming_the_acted_angle(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["generate", "--p", "0.5", "--t", "1", "--theta", "5pi/6", "--n", "12"]) == 0
    polygon = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(polygon))
    assert main(["verify"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: grid k = 2 at theta = ")
    assert "k*theta = " in err and "Traceback" not in err
