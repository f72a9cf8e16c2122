"""check_grid against a 50-digit evaluation of the grid rule, for every k and theta.

Side lines k apart on a polygon of the (p, t) member meet on the member whose
signed sqrt is sqrt(t)*cos(theta/2)/cos(k*theta/2), with vertex i at focal
angle phi + theta/2 + (i-1)*theta + k*theta/2.  check_grid's float reference
is synthesize on the positive root, with pi added to the angle where
cos(k*theta/2) < 0.  The mpmath reference below evaluates the signed form at
50 digits, so the two agree only if that sign rule holds.

Cases: every pencil member of test_fast_paths times its convex polygons and
acute stars, plus four obtuse stars, at every k in [1, n-2].  Each asserts:

* check_grid raises only where grid_layer raises, and then the same error;
* the float reference is within FORWARD_BOUND of the 50-digit point, in
  units of a forward-error scale (see _scale); the worst case measured is
  2.47, at p = -0.9999, n = 11, winding 2, k = 2;
* where the earlier G-image oracle (the exhaustive shift search, kept below)
  gives a report, check_grid passes or fails with it, and where it raises
  AngleOutOfRange (G acts only below pi), check_grid passes.
"""

import math

import mpmath
import pytest

from discreteconics.errors import AngleOutOfRange
from discreteconics.group import act_on_discrete, from_angle
from discreteconics.kernel import distance
from discreteconics.pencil import parameter_of
from discreteconics.polygon import grid_layer, synthesize, tangency_points
from discreteconics.verify import DEFAULT_TOL, _parameter_step_residuals, check_grid, make_report

from test_fast_paths import EPS, MEMBERS, POLYGONS, _outcome, _polygon

# (n, winding) with theta = 2*pi*winding/n above pi/2.
OBTUSE = [(12, 5), (7, 3), (9, 4), (13, 6)]

CASES = [
    pytest.param(p, t, n, w, id=f"{label}-n{n}-w{w}")
    for label, p, t in MEMBERS
    for n, w in POLYGONS + OBTUSE
]

# Measured worst error / _scale over CASES: 2.47.
FORWARD_BOUND = 8.0


def g_image_check_grid(d, k, tol=DEFAULT_TOL):
    """check_grid as it was: the G_{k_eff*theta} image of the tangency polygon,
    k_eff = min(k, n - k), with the vertex correspondence found by trying all
    n shifts.  Raises AngleOutOfRange where k_eff*theta >= pi."""
    layer = grid_layer(d, k)
    t_vals = [parameter_of(d.p, z) for z in layer.vertices]
    t_mean = sum(t_vals) / len(t_vals)
    residuals = [abs(t - t_mean) for t in t_vals]
    residuals += _parameter_step_residuals(d.p, layer.vertices, d.theta, closed=True)
    k_eff = min(k, d.n - k)
    image = act_on_discrete(from_angle("G", k_eff * d.theta), tangency_points(d))
    best = min(
        max(
            distance(layer.vertices[idx], image.vertices[(idx + shift) % d.n])
            for idx in range(d.n)
        )
        for shift in range(d.n)
    )
    residuals.append(best)
    return make_report("grid", residuals, tol, k=k, layer_t=layer.t)


def float_reference(d, k):
    """The polygon check_grid compares the layer with."""
    half_k = k * d.theta / 2.0
    phi = d.phi + d.theta / 2.0 + half_k + (math.pi if math.cos(half_k) < 0.0 else 0.0)
    return synthesize(d.p, grid_layer(d, k).t, d.theta, phi, d.n)


def rule_points(d, k):
    """The rule at 50 digits from d's float inputs, with the signed root and
    no pi: (x, y, alpha, r, sqrt(t)*p / (1 - sqrt(t)*p*cos(alpha))) per vertex."""
    with mpmath.workdps(50):
        p, t, theta, phi = map(mpmath.mpf, (d.p, d.t, d.theta, d.phi))
        half_k = k * theta / 2
        s = mpmath.sqrt(t) * mpmath.cos(theta / 2) / mpmath.cos(half_k)
        points = []
        for i in range(d.n):
            a = phi + theta / 2 + i * theta + half_k
            denom = 1 - s * p * mpmath.cos(a)
            r = s * (1 - p * p) / denom
            points.append((-p + r * mpmath.cos(a), r * mpmath.sin(a), a, r, s * p / denom))
        return points


def _scale(p, a, r, gain):
    """Forward-error scale of point_at at angle a: eps per unit of the angle's
    size, times the focus offset plus the radius, whose relative error grows
    as 1 - sqrt(t)*p*cos(a) cancels."""
    return EPS * (1.0 + abs(a)) * (abs(p) + abs(r) * (1.0 + abs(gain)))


@pytest.mark.parametrize("p, t, n, w", CASES)
def test_check_grid_follows_the_rule_at_50_digits(p, t, n, w):
    d = _polygon(p, t, n, w)
    for k in range(1, n - 1):
        layer = _outcome(grid_layer, d, k)
        report = _outcome(check_grid, d, k)
        if isinstance(layer, type):
            assert report is layer, f"k={k}"
            continue
        assert not isinstance(report, type), f"k={k}: {report.__name__}"
        ref = float_reference(d, k)
        assert report.residuals[-1] == max(map(distance, layer.vertices, ref.vertices))
        with mpmath.workdps(50):
            for v, (x, y, a, r, gain) in zip(ref.vertices, rule_points(d, k)):
                err = float(mpmath.hypot(v.x - x, v.y - y))
                assert err <= FORWARD_BOUND * _scale(p, float(a), float(r), float(gain)), f"k={k}"
        old = _outcome(g_image_check_grid, d, k)
        if not isinstance(old, type):
            assert report.passed == old.passed, f"k={k}"
        elif old is AngleOutOfRange:
            assert report.passed, f"k={k}"


def test_obtuse_stars_reach_past_the_g_chart():
    """The G-image oracle cannot act on 252 of the 297 obtuse-star cases
    (k_eff*theta >= pi); check_grid passes every one of them."""
    past = 0
    for _, p, t in MEMBERS:
        for n, w in OBTUSE:
            d = _polygon(p, t, n, w)
            for k in range(1, n - 1):
                if _outcome(g_image_check_grid, d, k) is AngleOutOfRange:
                    past += 1
                    assert check_grid(d, k).passed
    assert past == 252
