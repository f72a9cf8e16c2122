"""The batch loops that carry their helpers' formulas, against the helper
calls they replaced, bit for bit and error for error.

focal_parameters reads _parameters, line_coefficients_xy and check_diagonals
read chords_xy, and the equal_angles and pascal_line steps read
wrapped_diffs.  Each batch raises its own errors, so every error keeps its
type, its message and its index.  The scalars coefficients_through,
wrapped_diff, ray_angle, focal_radius, point_at and _parameter are now
batches of one.  The oracles named "as written before" are frozen copies
of those scalars' pre-fold bodies, and each batch and its scalar are
checked against them.  The helper-call loops (reference_focal_parameters,
reference_diagonals, reference_steps, reference_pascal_steps) call today's
scalars, so they route through the batches; reference_focal_parameters is
also run on the frozen _parameter.  Polygons are drawn from the
benchmark's sweep and large_n pencils (test_batch_parity.py), and from
test_batched_kernels.py's members, and one bad element is put in at a drawn
index.
"""

import math
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_batch_parity import (POLYGONS, SETTINGS, TOP, _synthesized, batch_outcome, bits,
                               call_outcome, reference_ray_angle, same_outcome, scalar_outcome)
from test_batched_kernels import MEMBER_PARAMS

from discreteconics import verify
from discreteconics.errors import (AsymptoticDirection, CoincidentPoints, DegenerateConfiguration,
                                   DegenerateRay, NonFiniteParameter, NonpositiveT,
                                   OnExcludedLine)
from discreteconics.kernel import (DEGENERACY_EPS, TWO_PI, Point, checked_coefficients, chords_xy,
                                   coefficients_through, distance, line_coefficients_xy,
                                   line_through, normalize_angle, normalized_coefficients,
                                   wrapped_diff, wrapped_diffs)
from discreteconics.pencil import (_parameter, _parameters, check_p, focal_parameters,
                                   focal_radii, focal_radius, parameter_of, pencil_member,
                                   point_at, points_at_xy)
from discreteconics.polygon import DiscreteConic, synthesize
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


def reference_coefficients_through(p, q):
    """coefficients_through as it was written before chords_xy."""
    if distance(p, q) < DEGENERACY_EPS:
        raise CoincidentPoints(f"points {p} and {q} coincide")
    return normalized_coefficients(p.y - q.y, q.x - p.x, p.x * q.y - q.x * p.y)


def reference_wrapped_diff(a, b):
    """wrapped_diff as it was written before wrapped_diffs."""
    d = (a - b) % TWO_PI
    if d > math.pi:
        d -= TWO_PI
    return d


def reference_focal_radius(c, alpha):
    """focal_radius as it was written before focal_radii carried it."""
    rt = math.sqrt(c.t)
    denom = 1.0 - rt * c.p * math.cos(alpha)
    if abs(denom) < DEGENERACY_EPS:
        raise AsymptoticDirection(f"alpha = {alpha} is an asymptotic direction")
    return rt * (1.0 - c.p * c.p) / denom


def reference_point_at(c, alpha):
    """point_at as it was written before points_at_xy carried it."""
    r = reference_focal_radius(c, alpha)
    return Point(-c.p + r * math.cos(alpha), r * math.sin(alpha))


def reference_parameter(p, x):
    """_parameter as it was written before _parameters carried it."""
    denom = 1.0 + p * x.x
    if abs(denom) < DEGENERACY_EPS:
        raise OnExcludedLine(f"{x} lies on the excluded line x = {-1.0 / p}")
    try:
        t = ((p + x.x) ** 2 + x.y**2) / denom**2
    except OverflowError:
        t = math.inf
    if not math.isfinite(t):
        raise NonFiniteParameter(f"the member through {x} has t = {t}, beyond float range")
    return t


def reference_equal_angles_off_focus(d, f):
    """check_equal_angles' residuals at a point f other than the focus: a
    directed_angle per side, with ray_angle and wrapped_diff as written
    before their batches."""
    out = []
    for i in range(1, d.num_sides + 1):
        a, b = d.vertex(i), d.vertex(i + 1)
        ang_a = reference_ray_angle(f, a)
        step = normalize_angle(reference_ray_angle(f, b) - ang_a)
        out.append(abs(reference_wrapped_diff(step, d.theta)))
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
# chords_xy, the chord batch that coefficients_through and check_diagonals read


@SETTINGS
@given(data=st.data())
def test_chords_xy_are_coefficients_through(data):
    _, points = _vertices(data)
    k = data.draw(st.integers(1, len(points) - 1))
    pairs = list(zip(points, points[k:] + points[:k]))
    i = data.draw(st.integers(0, len(pairs)))
    u = points[i % len(points)]
    pairs.insert(i, data.draw(st.sampled_from([
        None,
        (u, u),  # CoincidentPoints
        (Point(1e200, 1e200), Point(-1e200, 1e200)),  # non-finite raw coefficients
        (Point(TOP, 0.3), Point(TOP, 0.4)),  # the normalized c overflows to inf: no error
        (Point(0.0, 1e308), Point(-1.5, -0.5e308)),  # a + b + c overflows, each finite
    ])))
    pairs = [pair for pair in pairs if pair is not None]

    def batch(items):
        return list(chords_xy([(p.x, p.y) for p, _ in items], [(q.x, q.y) for _, q in items]))

    want = scalar_outcome(lambda pair: reference_coefficients_through(*pair), pairs)
    same_outcome(batch_outcome(batch, pairs), want)
    same_outcome(scalar_outcome(lambda pair: coefficients_through(*pair), pairs), want)


def test_the_chord_batch_keeps_an_overflowing_c_and_an_overflowing_sum():
    for p, q, overflows in ((Point(TOP, 0.3), Point(TOP, 0.4), True),
                            (Point(0.0, 1e308), Point(-1.5, -0.5e308), False)):
        got = next(chords_xy([(p.x, p.y)], [(q.x, q.y)]))
        assert bits(got) == bits(reference_coefficients_through(p, q))
        assert math.isinf(got[2]) is overflows


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
@given(xs=EDGE_ANGLES, ys=EDGE_ANGLES)
def test_wrapped_diffs_are_wrapped_diff_on_edge_angles(xs, ys):
    want = [bits(reference_wrapped_diff(x, y)) for x, y in zip(xs, ys)]
    assert [bits(e) for e in wrapped_diffs(xs, ys)] == want
    assert [bits(wrapped_diff(x, y)) for x, y in zip(xs, ys)] == want
    steps = [y - x for x, y in zip(xs, xs[1:])]  # the steps _parameter_step_residuals wraps
    assert [bits(e) for e in wrapped_diffs(steps, [2.0 * math.pi / 7] * len(steps))] == [
        bits(reference_wrapped_diff(s, 2.0 * math.pi / 7)) for s in steps]


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



# ---------------------------------------------------------------------------
# focal_radius, point_at and _parameter: batches of one, against their
# bodies as written before


# test_batched_kernels.py's members, and one whose p^2 overflows, so that
# every radius is infinite and every point non-finite.
MEMBER_POLYGONS = st.tuples(
    st.sampled_from(MEMBER_PARAMS + [(1e156, 1e-312)]),
    st.sampled_from([(7, 1), (12, 1), (9, 2), (240, 1)]),
    st.floats(0.0, 2.0 * math.pi),
).map(lambda a: (*a[0], 2.0 * math.pi * a[1][1] / a[1][0], a[2], a[1][0]))
ALL_POLYGONS = st.one_of(POLYGONS, MEMBER_POLYGONS)


def _angles(data):
    """A drawn member and its polygon's angles, with a bad angle at a drawn
    index: non-finite, 0 (asymptotic where sqrt(t) p = 1) or, on a
    hyperbola, an asymptote."""
    p, t, theta, phi, n = data.draw(ALL_POLYGONS)
    c = pencil_member(p, t)
    alphas = [phi + j * theta for j in range(n)]
    rtp = math.sqrt(t) * p
    bad = [None, math.inf, -math.inf, math.nan, 0.0]
    if abs(rtp) >= 1.0:
        bad.append(math.acos(1.0 / rtp))
    alpha = data.draw(st.sampled_from(bad))
    if alpha is not None:
        alphas.insert(data.draw(st.integers(0, len(alphas))), alpha)
    return c, alphas


@SETTINGS
@given(data=st.data())
def test_focal_radii_and_focal_radius_are_the_focal_radius_as_written(data):
    c, alphas = _angles(data)
    want = scalar_outcome(lambda a: reference_focal_radius(c, a), alphas)
    same_outcome(batch_outcome(lambda items: list(focal_radii(c, items)), alphas), want)
    same_outcome(scalar_outcome(lambda a: focal_radius(c, a), alphas), want)


@SETTINGS
@given(data=st.data())
def test_points_at_xy_and_point_at_are_point_at_as_written(data):
    c, alphas = _angles(data)

    def xy(z):
        return (z.x, z.y)

    want = scalar_outcome(lambda a: xy(reference_point_at(c, a)), alphas)
    same_outcome(batch_outcome(
        lambda items: [xy(Point(*pair)) for pair in points_at_xy(c, items)], alphas), want)
    same_outcome(scalar_outcome(lambda a: xy(point_at(c, a)), alphas), want)


@SETTINGS
@given(args=ALL_POLYGONS)
def test_synthesize_is_point_at_as_written(args):
    p, t, theta, phi, n = args
    c = pencil_member(p, t)
    want = scalar_outcome(lambda j: reference_point_at(c, phi + j * theta), range(n))
    d, error = call_outcome(synthesize, p, t, theta, phi, n)
    assert error == want[1]
    if error is None:
        assert [bits((v.x, v.y)) for v in d.vertices] == [bits((v.x, v.y)) for v in want[0]]


def test_the_drawn_angles_reach_every_outcome():
    hyper, extreme = pencil_member(0.5, 16.0), pencil_member(1e156, 1e-312)
    for c, alpha, error in ((hyper, math.acos(0.5), AsymptoticDirection),
                            (extreme, 0.0, AsymptoticDirection),
                            (extreme, 0.3, ValueError),
                            (hyper, math.nan, ValueError),
                            (hyper, 0.3, None)):
        got = call_outcome(point_at, c, alpha)[1]
        assert got == call_outcome(reference_point_at, c, alpha)[1]
        assert (got and got[0]) is error


@SETTINGS
@given(data=st.data())
def test_parameters_and_parameter_of_are_parameter_as_written(data):
    d = data.draw(ALL_POLYGONS.map(_synthesized).filter(lambda d: d is not None))
    p, points = d.p, list(d.vertices)
    bad = data.draw(st.sampled_from(["none", "focus", "off_member"]))
    if bad != "none":
        z = Point(-p, 0.0) if bad == "focus" else _off_member(p, data)
        points.insert(data.draw(st.integers(0, len(points))), z)
    want = scalar_outcome(lambda z: reference_parameter(p, z), points)
    same_outcome(batch_outcome(lambda items: _parameters(p, items)[0], points), want)
    same_outcome(scalar_outcome(lambda z: parameter_of(p, z), points), want)
    same_outcome(scalar_outcome(lambda z: _parameter(p, z), points), want)
    with patch(f"{__name__}._parameter", reference_parameter):
        frozen = outcome(reference_focal_parameters, p, points)
    assert outcome(focal_parameters, p, points) == frozen


# ---------------------------------------------------------------------------
# check_equal_angles at a point other than the focus


@SETTINGS
@given(data=st.data())
def test_equal_angles_off_the_focus_is_the_directed_angle_loop(data):
    d, points = _vertices(data)
    i = data.draw(st.integers(0, len(points) - 1))
    f = data.draw(st.sampled_from([
        Point(0.1, 0.2),
        Point(-d.p, 1e-3),
        points[i],  # DegenerateRay at vertex i
        Point(points[i].x + DEGENERACY_EPS / 4.0, points[i].y),  # DegenerateRay, within the eps
    ]))
    want = call_outcome(reference_equal_angles_off_focus, d, f)
    got = call_outcome(lambda: list(verify.check_equal_angles(d, f).residuals))
    assert got[1] == want[1]
    assert want[1] is None or want[1][0] is DegenerateRay
    if want[1] is None:
        assert [bits(r) for r in got[0]] == [bits(r) for r in want[0]]


def test_equal_angles_off_the_focus_reads_each_ray_angle_once():
    d = synthesize(0.5, 1.0, 2.0 * math.pi / 24, 0.3, 24)
    with patch.object(verify, "ray_angles", wraps=verify.ray_angles) as spy:
        verify.check_equal_angles(d, Point(0.1, 0.2))
    assert spy.call_count == 1 and len(spy.call_args.args[1]) == d.n + 1
