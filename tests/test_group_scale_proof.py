"""The group's parameter update t -> t * s^2, proved and probed.

from_angle gives G at angle psi the scale s = sec(psi/2) and H the scale
s = cos(psi/2), and act_on_parameter moves member t to t * s^2.  For psi in
[0, pi), with a = e^{i alpha}:

G: the tangents to member (p, t) at focal parameters alpha - psi/2 and
   alpha + psi/2 meet on member t * sec^2(psi/2), at focal parameter alpha.
H: the chord between those two points touches member t * cos^2(psi/2) at
   focal parameter alpha.

sympy proves both with a = e^{i alpha} and h = e^{i psi/2}, so every
expression is rational and the identities reduce to polynomial zeros.  The
point at focal parameter alpha on a member is point_at with its positive
root, and on [0, pi) cos(psi/2) > 0, so the positive roots of t * sec^2 and
t * cos^2 are sqrt(t) / cos(psi/2) and sqrt(t) * cos(psi/2): no half turn.
Numeric probes tie the statements to from_angle and act_on_parameter.
"""

import math

import pytest
import sympy as sp

from discreteconics.group import act_on_parameter, from_angle
from discreteconics.kernel import distance, intersect_lines, line_through
from discreteconics.pencil import pencil_member, point_at, tangency_residual, tangent_at

from test_chord_pedal_proof import _cos_sin, _gradient, _is_zero, _point


def _symbols():
    p = sp.symbols("p", real=True)
    s = sp.symbols("s", positive=True)  # sqrt(t)
    a, h = sp.symbols("a h", nonzero=True)  # e^{i alpha}, e^{i psi/2}
    return p, s, a, h


def test_half_angle_cosine_is_positive_on_the_chart():
    psi = sp.symbols("psi", real=True)
    chart = sp.Interval.Ropen(0, sp.pi)
    assert sp.solveset(sp.cos(psi / 2) <= 0, psi, chart) == sp.S.EmptySet


def test_g_tangents_meet_on_the_sec_squared_member_at_alpha():
    p, s, a, h = _symbols()
    cos_half, _ = _cos_sin(h)
    s_z = s / cos_half  # the positive root of t * sec^2(psi/2) on [0, pi)
    zx, zy = _point(p, s_z, a)
    for u in (a / h, a * h):  # the tangency points at alpha -+ psi/2
        x, y = _point(p, s, u)
        gx, gy = _gradient(p, s, x, y)
        assert _is_zero(gx * (zx - x) + gy * (zy - y))
    assert _is_zero((p + zx) ** 2 + zy**2 - s_z**2 * (1 + p * zx) ** 2)


def test_h_chord_touches_the_cos_squared_member_at_alpha():
    p, s, a, h = _symbols()
    cos_half, _ = _cos_sin(h)
    s_m = s * cos_half  # the positive root of t * cos^2(psi/2) on [0, pi)
    x1, y1 = _point(p, s, a / h)
    x2, y2 = _point(p, s, a * h)
    mx, my = _point(p, s_m, a)
    # The contact point lies on the chord ...
    assert _is_zero((x2 - x1) * (my - y1) - (y2 - y1) * (mx - x1))
    # ... and the chord runs along the member's tangent there.
    gx, gy = _gradient(p, s_m, mx, my)
    assert _is_zero(gx * (x2 - x1) + gy * (y2 - y1))


PROBES = [
    (0.75, 0.5, 0.3, 0.4), (0.3, 20.0, 2.9, 1.1), (-0.6, 1.3, -1.0, 0.05),
    (0.0, 0.7, 1.0, 2.5), (0.5, 1.0, 0.2, 3.0),
]


@pytest.mark.parametrize("p, t, alpha, psi", PROBES)
def test_g_probe_through_act_on_parameter(p, t, alpha, psi):
    c = pencil_member(p, t)
    z = intersect_lines(tangent_at(c, alpha - psi / 2.0), tangent_at(c, alpha + psi / 2.0))
    want = point_at(pencil_member(p, act_on_parameter(from_angle("G", psi), t)), alpha)
    assert distance(z, want) <= 1e-12 * max(1.0, math.hypot(want.x, want.y))


@pytest.mark.parametrize("p, t, alpha, psi", PROBES)
def test_h_probe_through_act_on_parameter(p, t, alpha, psi):
    c = pencil_member(p, t)
    chord = line_through(point_at(c, alpha - psi / 2.0), point_at(c, alpha + psi / 2.0))
    member = pencil_member(p, act_on_parameter(from_angle("H", psi), t))
    m = point_at(member, alpha)
    assert chord.distance_to(m) <= 1e-12 * max(1.0, math.hypot(m.x, m.y))
    assert tangency_residual(member, chord) <= 1e-12
