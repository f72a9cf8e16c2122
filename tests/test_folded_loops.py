"""The batch loops with their helpers' arithmetic inline, against the helper
calls they replaced, bit for bit and error for error.

focal_parameters no longer calls _parameter per point, line_coefficients_xy
no longer calls checked_coefficients per pair, check_diagonals no longer
calls coefficients_through per chord, and the equal_angles and pascal_line
steps no longer call wrapped_diff or normalize_angle.  An element that fails
a fast-path test goes through the helper, so every error keeps its type,
its message and its index.  Each oracle below is the helper-call loop as it
was written before the fold.  Polygons are drawn from the benchmark's sweep
and large_n pencils (test_batch_parity.py), and one bad element is put in
at a drawn index.
"""

import math
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_batch_parity import POLYGONS, SETTINGS, TOP, _synthesized, bits, call_outcome

from discreteconics import verify
from discreteconics.errors import (CoincidentPoints, DegenerateConfiguration, NonFiniteParameter,
                                   NonpositiveT, OnExcludedLine)
from discreteconics.kernel import (DEGENERACY_EPS, Point, checked_coefficients,
                                   coefficients_through, line_coefficients_xy, line_through,
                                   normalize_angle, wrapped_diff)
from discreteconics.pencil import _parameter, check_p, focal_parameters
from discreteconics.polygon import DiscreteConic
from discreteconics.verify import (_parameter_step_residuals, check_diagonals,
                                   check_equal_angles, check_pascal_line)

# ---------------------------------------------------------------------------
# The helper-call loops


def reference_focal_parameters(p, points):
    """focal_parameters with a _parameter call per point: every t, then
    every angle."""
    check_p(p)
    ts = [_parameter(p, z) for z in points]
    alphas = []
    for t, z in zip(ts, points):
        if t == 0.0:
            raise NonpositiveT(f"{z} is the focus, which lies on no member (t = 0)")
        beta = math.atan2(z.y, z.x + p)
        alphas.append(beta + math.pi if 1.0 + p * z.x < 0.0 else beta)
    return ts, alphas


def reference_line_coefficients_xy(us, vs):
    """line_coefficients_xy with a checked_coefficients call per pair."""
    out = []
    for (px, py), (qx, qy) in zip(us, vs):
        if math.hypot(px - qx, py - qy) < DEGENERACY_EPS:
            raise CoincidentPoints(f"points {Point(px, py)} and {Point(qx, qy)} coincide")
        out.append(checked_coefficients(py - qy, qx - px, px * qy - qx * py))
    return out


def reference_diagonals(d):
    """check_diagonals' residuals with a coefficients_through call per chord
    (even n)."""
    f, h = d.focus, d.n // 2
    residuals = []
    for u, v in zip(d.vertices[:h], d.vertices[h:]):
        a, b, c = coefficients_through(u, v)
        residuals.append(abs(a * f.x + b * f.y + c))
    return residuals


def reference_steps(alphas, theta, closed):
    """_parameter_step_residuals' arithmetic through wrapped_diff."""
    last = len(alphas) if closed else len(alphas) - 1
    return [abs(wrapped_diff(alphas[(i + 1) % len(alphas)] - alphas[i], theta))
            for i in range(last)]


def reference_pascal_steps(index, angles, theta):
    """check_pascal_line's angle steps through normalize_angle and wrapped_diff."""
    out = []
    for i1, i2, a1, a2 in zip(index, index[1:], angles, angles[1:]):
        delta = normalize_angle(a2 - a1)
        expected = (i2 - i1) * theta
        out.append(min(abs(wrapped_diff(delta, expected)),
                       abs(wrapped_diff(delta, expected - math.pi))))
    return out


def outcome(fn, *args):
    """bits of fn's value, or (type, message) of what it raises."""
    value, error = call_outcome(fn, *args)
    return (None, error) if error else (bits(tuple(map(tuple, value))), None)


def _vertices(data, closed=False, even=False):
    d = data.draw(POLYGONS.map(_synthesized).filter(
        lambda d: d is not None and (d.closed or not closed) and (d.n % 2 == 0 or not even)))
    return d, list(d.vertices)


# ---------------------------------------------------------------------------
# focal_parameters


@SETTINGS
@given(args=POLYGONS)
def test_focal_parameters_are_the_parameter_loop(args):
    d = _synthesized(args)
    if d is None:
        return
    assert outcome(focal_parameters, d.p, d.vertices) == outcome(
        reference_focal_parameters, d.p, d.vertices)


def _off_member(p, data):
    """A point on no member: on x = -1/p, or with a t beyond float range,
    through an OverflowError in (p + x)**2 or a sum that overflows silently."""
    cases = [Point(1e200, data.draw(st.floats(-5.0, 5.0))), Point(1.25e154, 1.25e154)]
    if p != 0.0:
        cases.append(Point(-1.0 / p, data.draw(st.floats(-5.0, 5.0))))
    return data.draw(st.sampled_from(cases))


@SETTINGS
@given(data=st.data())
def test_focal_parameters_raise_at_the_scalar_index(data):
    d, points = _vertices(data)
    i = data.draw(st.integers(0, len(points)))
    at_focus = data.draw(st.booleans())
    points.insert(i, Point(-d.p, 0.0) if at_focus else _off_member(d.p, data))
    want = call_outcome(reference_focal_parameters, d.p, points)[1]
    assert want is not None and want[0] in (OnExcludedLine, NonFiniteParameter, NonpositiveT)
    assert str(points[i]) in want[1]
    assert call_outcome(focal_parameters, d.p, points)[1] == want


@SETTINGS
@given(data=st.data())
def test_every_t_is_checked_before_the_focus(data):
    d, points = _vertices(data)
    i = data.draw(st.integers(0, len(points)))
    j = data.draw(st.integers(i + 1, len(points) + 1))
    points.insert(i, Point(-d.p, 0.0))
    points.insert(j, _off_member(d.p, data))
    want = call_outcome(reference_focal_parameters, d.p, points)[1]
    assert want[0] in (OnExcludedLine, NonFiniteParameter) and str(points[j]) in want[1]
    assert call_outcome(focal_parameters, d.p, points)[1] == want


def test_each_off_member_case_is_reached():
    p = 0.5
    for z, error, text in (
            (Point(-2.0, 0.7), OnExcludedLine, "lies on the excluded line x = -2.0"),
            (Point(1e200, 0.3), NonFiniteParameter, "has t = inf"),  # (p + x)**2 raises
            (Point(1.25e154, 1.25e154), NonFiniteParameter, "has t = inf"),  # the sum is inf
            (Point(-p, 0.0), NonpositiveT, "is the focus")):
        got = call_outcome(focal_parameters, p, [Point(0.3, 0.2), z])[1]
        assert got == call_outcome(reference_focal_parameters, p, [Point(0.3, 0.2), z])[1]
        assert got[0] is error and text in got[1]


# ---------------------------------------------------------------------------
# line_coefficients_xy


def _pair_lists(pairs):
    return [u for u, _ in pairs], [v for _, v in pairs]


@SETTINGS
@given(data=st.data())
def test_line_coefficients_xy_raise_at_the_scalar_index(data):
    _, points = _vertices(data)
    xys = [(v.x, v.y) for v in points]
    pairs = list(zip(xys, xys[1:]))
    i = data.draw(st.integers(0, len(pairs)))
    u = xys[i % len(xys)]
    pairs.insert(i, data.draw(st.sampled_from([
        (u, u),  # CoincidentPoints
        (u, (u[0] + 1e-13, u[1])),  # CoincidentPoints, within DEGENERACY_EPS
        ((1e200, 1e200), (-1e200, 1e200)),  # c = 1e400: non-finite raw coefficients
        ((1e308, 0.0), (-1e308, 1.0)),  # b = -2e308: non-finite raw coefficients
        ((math.nan, 0.3), (0.1, 0.2)),  # a NaN coordinate: non-finite raw coefficients
        ((TOP, 0.3), (TOP, 0.4)),  # the normalized c overflows
    ])))
    want = call_outcome(reference_line_coefficients_xy, *_pair_lists(pairs))[1]
    assert want is not None and want[0] in (CoincidentPoints, ValueError)
    assert call_outcome(line_coefficients_xy, *_pair_lists(pairs))[1] == want
    before = _pair_lists(pairs[:i])
    assert bits(tuple(line_coefficients_xy(*before))) == bits(
        tuple(reference_line_coefficients_xy(*before)))


@SETTINGS
@given(u=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
       r=st.floats(0.5, 2.0), a=st.floats(0.0, 2.0 * math.pi))
def test_a_pair_at_the_degeneracy_threshold_is_the_scalar_pair(u, r, a):
    # DegenerateConfiguration is the zero-normal error of checked_coefficients.
    # Through pairs it is unreachable: |a| = |py - qy| and |b| = |px - qx|
    # exactly, so the normal (a, b) is as long as the pair is apart, and a pair
    # whose normal is shorter than DEGENERACY_EPS is coincident first.  On
    # both sides of the threshold the fold gives the scalar's outcome.
    v = (u[0] + r * DEGENERACY_EPS * math.cos(a), u[1] + r * DEGENERACY_EPS * math.sin(a))
    got = outcome(line_coefficients_xy, [u], [v])
    want = outcome(reference_line_coefficients_xy, [u], [v])
    assert got == want
    assert want[1] is None or want[1][0] is CoincidentPoints
    with pytest.raises(DegenerateConfiguration, match="line with zero normal vector"):
        checked_coefficients(0.0, r * DEGENERACY_EPS / 4.0, 1.0)


# ---------------------------------------------------------------------------
# check_diagonals


def _with_chord(d, j, u, v):
    """d with vertices j and j + n/2 replaced, so chord j runs from u to v."""
    verts = list(d.vertices)
    verts[j], verts[j + d.n // 2] = u, v
    return DiscreteConic(d.p, d.t, d.theta, d.phi, tuple(verts))


@SETTINGS
@given(data=st.data())
def test_diagonals_are_the_coefficients_through_route(data):
    d, _ = _vertices(data, closed=True, even=True)
    j = data.draw(st.integers(0, d.n // 2 - 1))
    u = d.vertices[j]
    bad = data.draw(st.sampled_from([
        None,
        (u, u),  # CoincidentPoints
        (Point(1e200, 1e200), Point(-1e200, 1e200)),  # non-finite raw coefficients
        (Point(TOP, 0.3), Point(TOP, 0.4)),  # the normalized c overflows: an inf residual
        (Point(0.0, 1e308), Point(-1.5, -0.5e308)),  # a + b + c overflows, each finite
    ]))
    if bad is not None:
        d = _with_chord(d, j, *bad)
    got, want = call_outcome(check_diagonals, d), call_outcome(reference_diagonals, d)
    assert got[1] == want[1]
    if want[1] is None:
        assert bits(got[0].residuals) == bits(tuple(want[0]))


def test_an_overflowing_normalized_c_reports_inf_and_does_not_raise():
    base = _synthesized((0.75, 0.5, 2.0 * math.pi / 12, 0.3, 12))
    d = _with_chord(base, 2, Point(TOP, 0.3), Point(TOP, 0.4))
    with pytest.raises(ValueError, match="non-finite coefficients"):
        line_through(Point(TOP, 0.3), Point(TOP, 0.4))  # the Line route raises; the check keeps inf
    report = check_diagonals(d)
    assert report.residuals[2] == math.inf and not report.passed
    assert bits(report.residuals) == bits(tuple(reference_diagonals(d)))
    assert [r.passed for r in verify.run_checks(d, names=["diagonals"])] == [False]


def test_a_sum_that_overflows_keeps_the_chord_residual():
    base = _synthesized((0.75, 0.5, 2.0 * math.pi / 12, 0.3, 12))
    u, v = Point(0.0, 1e308), Point(-1.5, -0.5e308)
    a, b, c = u.y - v.y, v.x - u.x, u.x * v.y - v.x * u.y
    assert all(map(math.isfinite, (a, b, c))) and a + b + c == math.inf
    d = _with_chord(base, 1, u, v)
    residuals = check_diagonals(d).residuals
    assert math.isfinite(residuals[1])
    assert bits(residuals) == bits(tuple(reference_diagonals(d)))


# ---------------------------------------------------------------------------
# The angle steps


@SETTINGS
@given(args=POLYGONS)
def test_equal_angles_steps_are_the_wrapped_diff_route(args):
    d = _synthesized(args)
    if d is None:
        return
    alphas = call_outcome(reference_focal_parameters, d.p, d.vertices)[0]
    if alphas is None:
        return
    alphas = alphas[1]
    assert bits(check_equal_angles(d).residuals) == bits(tuple(
        reference_steps(alphas, d.theta, d.closed)))
    assert bits(tuple(_parameter_step_residuals(d.p, d.vertices, d.theta, False))) == bits(
        tuple(reference_steps(alphas, d.theta, False)))


# Angles whose steps land on the edges of the two reductions: a tiny
# negative step (the a % 2pi == 2pi guard), steps of exactly +-pi, 0, 2pi,
# theta and theta - pi, and steps one ulp either side of pi.
EDGE_ANGLES = st.lists(st.sampled_from([
    0.0, -0.0, 1e-17, -1e-17, math.pi, -math.pi, 2.0 * math.pi, math.nextafter(math.pi, 0.0),
    math.nextafter(math.pi, 4.0), 0.3, 0.3 + 2.0 * math.pi / 7, 0.3 - math.pi,
    0.3 + 2.0 * math.pi / 7 - math.pi, 1e300, -1e-300,
]) | st.floats(-10.0, 10.0), min_size=3, max_size=12)


@SETTINGS
@given(alphas=EDGE_ANGLES, closed=st.booleans())
def test_parameter_steps_are_wrapped_diff_on_edge_angles(alphas, closed):
    theta = 2.0 * math.pi / 7
    with patch.object(verify, "focal_parameters", lambda p, points: (None, list(alphas))):
        got = _parameter_step_residuals(0.5, [None] * len(alphas), theta, closed)
    assert bits(tuple(got)) == bits(tuple(reference_steps(alphas, theta, closed)))


@SETTINGS
@given(angles=EDGE_ANGLES, theta=st.sampled_from([2.0 * math.pi / 8, 2.0 * math.pi / 480,
                                                   5.0 * math.pi / 6]))
def test_pascal_steps_are_normalize_angle_and_wrapped_diff_on_edge_angles(angles, theta):
    # Four of eight opposite pairs of an n = 16 polygon meet, at the drawn
    # focal angles; the steps skip the parallel pairs between them.
    d = _synthesized((0.75, 0.5, 2.0 * math.pi / 16, 0.3, 16))
    d = DiscreteConic(d.p, d.t, theta, d.phi, d.vertices)
    angles = angles[:4]
    index = [1, 2, 4, 7]
    with patch.object(verify, "_indexed_opposite_intersections",
                      lambda d: ([(i, (0.0, 0.0)) for i in index], None)), \
            patch.object(verify, "ray_angles", lambda f, xys: list(angles)):
        got = check_pascal_line(d).residuals[len(index):]
    assert bits(got) == bits(tuple(reference_pascal_steps(index, angles, theta)))

