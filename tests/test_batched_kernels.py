"""The batched pencil and line kernels against their scalar paths, bit for bit.

focal_radii (behind synthesize and sample_conic) forms a member's constants
once; focal_parameters (behind the focal-angle steps and check_isogonal's
seven angles) checks p once and computes each t once; coefficients_through
(behind check_diagonals) gives line_through's coefficients without the Line.
Every output must equal the scalar path's to the last bit, and every error
must have the scalar path's type at the scalar path's first index.  The
oracles below are the scalar code the batched paths replaced.  focal_radius,
point_at and parameter_of now call focal_radii, points_at_xy and
_parameters with one element; test_folded_loops.py holds both forms to
frozen copies of the scalars' earlier bodies.
"""

import math

import pytest

from discreteconics.errors import (
    AsymptoticDirection,
    CoincidentPoints,
    DegenerateConfiguration,
    NonFiniteParameter,
    NonpositiveT,
    OnExcludedLine,
)
from discreteconics.kernel import (
    Line,
    Point,
    coefficients_through,
    line_through,
    normalized_coefficients,
    wrapped_diff,
)
from discreteconics.pencil import (
    FocalConic,
    focal_parameter,
    focal_parameters,
    focal_radii,
    focal_radius,
    parameter_of,
    pencil_member,
    point_at,
)
from discreteconics.polygon import grid_layer, synthesize, tangency_points
from discreteconics.render import sample_conic
from discreteconics.verify import _parameter_step_residuals, check_diagonals

# (label, p, t): an ellipse, a hyperbola with a far branch, the two sides of
# the parabola p^2 t = 1 at 1e-9, the circle and |p| = 0.9999.
MEMBERS = [
    ("ellipse", 0.75, 0.5),
    ("hyperbola", 0.3, 20.0),
    ("near_parabola_in", 0.6, (1.0 - 1e-9) / 0.36),
    ("near_parabola_out", 0.6, (1.0 + 1e-9) / 0.36),
    ("circle", 0.0, 0.7),
    ("p_0_9999", 0.9999, 0.9),
    ("p_minus_0_9999", -0.9999, 1.2),
]
IDS = [label for label, _, _ in MEMBERS]
MEMBER_PARAMS = [(p, t) for _, p, t in MEMBERS]

# Equal steps from an offset, and the sample grid of render; safe_angles
# drops those on an asymptote of the member at hand.
ANGLES = [0.3 + j * 2.0 * math.pi / 97 for j in range(97)] + [
    2.0 * math.pi * j / 512 for j in range(513)
]


def bits(values):
    return [float(v).hex() for v in values]


def scalar_run(fn, items):
    """fn of each item up to the first that raises, and that exception's type."""
    values = []
    for item in items:
        try:
            values.append(fn(item))
        except Exception as exc:
            return values, type(exc)
    return values, None


def batched_run(gen):
    """What a lazy batch yields before it raises, and the exception's type."""
    values = []
    try:
        for value in gen:
            values.append(value)
    except Exception as exc:
        return values, type(exc)
    return values, None


def safe_angles(c):
    return [a for a in ANGLES if scalar_run(lambda x: focal_radius(c, x), [a])[1] is None]


def reference_focal_parameter(p, z):
    """focal_parameter as it was written before focal_parameters."""
    if parameter_of(p, z) == 0.0:
        raise NonpositiveT(f"{z} is the focus, which lies on no member (t = 0)")
    beta = math.atan2(z.y, z.x + p)
    return beta + math.pi if 1.0 + p * z.x < 0.0 else beta


def reference_through(p, q):
    """line_through's coefficients by the Line.from_coefficients route."""
    if math.hypot(p.x - q.x, p.y - q.y) < 1e-12:
        raise CoincidentPoints("coincide")
    a, b, c = p.y - q.y, q.x - p.x, p.x * q.y - q.x * p.y
    norm = math.hypot(a, b)
    if norm < 1e-12:
        raise DegenerateConfiguration("line with zero normal vector")
    a, b, c = a / norm, b / norm, c / norm
    if a < 0.0 or (a == 0.0 and b < 0.0):
        a, b, c = -a, -b, -c
    return a, b, c


# ---------------------------------------------------------------------------
# focal_radii

@pytest.mark.parametrize("p, t", MEMBER_PARAMS, ids=IDS)
def test_focal_radii_is_focal_radius_bit_for_bit(p, t):
    c = pencil_member(p, t)
    alphas = safe_angles(c)
    assert len(alphas) >= len(ANGLES) - 4
    assert bits(focal_radii(c, alphas)) == bits(focal_radius(c, a) for a in alphas)


def test_the_members_cover_the_far_branch():
    c = pencil_member(0.3, 20.0)
    assert any(r < 0.0 for r in focal_radii(c, safe_angles(c)))


@pytest.mark.parametrize("p, t", MEMBER_PARAMS, ids=IDS)
def test_synthesize_is_point_at_bit_for_bit(p, t):
    for n, w in ((7, 1), (12, 1), (9, 2), (240, 1)):
        theta = 2.0 * math.pi * w / n
        try:
            ref = tuple(point_at(pencil_member(p, t), 0.3 + j * theta) for j in range(n))
        except AsymptoticDirection:
            with pytest.raises(AsymptoticDirection):
                synthesize(p, t, theta, 0.3, n)
            continue
        d = synthesize(p, t, theta, 0.3, n)
        assert bits(v.x for v in d.vertices) == bits(v.x for v in ref)
        assert bits(v.y for v in d.vertices) == bits(v.y for v in ref)


def reference_sample_conic(c, count=512, r_clip=1e3):
    """sample_conic with a focal_radius call per sample."""
    branches, current, prev_r = [], [], None
    for j in range(count + 1):
        alpha = 2.0 * math.pi * j / count
        try:
            r = focal_radius(c, alpha)
        except AsymptoticDirection:
            r = math.inf
        if not math.isfinite(r) or abs(r) > r_clip or (prev_r is not None and r * prev_r < 0.0):
            if len(current) >= 2:
                branches.append(current)
            current, prev_r = [], None
            if not math.isfinite(r) or abs(r) > r_clip:
                continue
        current.append((-c.p + r * math.cos(alpha), r * math.sin(alpha)))
        prev_r = r
    if len(current) >= 2:
        branches.append(current)
    return branches


def _asymptotic_member(count):
    """A hyperbola member with sample angle 2 pi / count on an asymptote."""
    alpha = 2.0 * math.pi / count
    p = 0.5
    c = FocalConic(p, (1.0 / (p * math.cos(alpha))) ** 2)
    with pytest.raises(AsymptoticDirection):
        focal_radius(c, alpha)
    return c


@pytest.mark.parametrize("p, t", MEMBER_PARAMS, ids=IDS)
def test_sample_conic_is_the_scalar_sampling(p, t):
    c = pencil_member(p, t)
    for count, r_clip in ((512, 1e3), (64, 20.0), (512, 3.0)):
        got = sample_conic(c, count, r_clip)
        want = reference_sample_conic(c, count, r_clip)
        assert [bits(x for x, _ in b) for b in got] == [bits(x for x, _ in b) for b in want]
        assert [bits(y for _, y in b) for b in got] == [bits(y for _, y in b) for b in want]


def test_an_asymptotic_sample_still_breaks_the_branch():
    # Samples 1 and 7 of 8 lie on the asymptotes; 0 and 8 are single samples
    # of the far branch, so only samples 2-6 make a branch.
    c = _asymptotic_member(8)
    got = sample_conic(c, 8, 1e6)
    assert got == reference_sample_conic(c, 8, 1e6)
    assert [len(b) for b in got] == [5]


# Errors of focal_radii, each at the scalar path's first index.

def _radius_cases():
    hyper = pencil_member(0.5, 16.0)  # sqrt(t) p = 2: asymptotes at cos(alpha) = 1/2
    return {
        "asymptotic_angle": (hyper, [0.3, 2.0, 1.0, math.acos(0.5), 1.0]),
        "asymptote_at_zero": (pencil_member(0.5, 4.0), [2.0, 0.5, 0.0, 1.0]),
        "focus_member": (FocalConic(0.5, 0.0), [0.1, 0.2]),  # t = 0: every radius is 0
        "non_finite_angle": (pencil_member(0.5, 0.7), [0.1, 0.2, math.inf, 0.3]),
        "nan_angle": (pencil_member(0.5, 0.7), [0.1, math.nan, 0.3]),
    }


@pytest.mark.parametrize("case", list(_radius_cases()))
def test_focal_radii_raises_at_the_scalar_index(case):
    c, alphas = _radius_cases()[case]
    got, error = batched_run(focal_radii(c, alphas))
    want, want_error = scalar_run(lambda a: focal_radius(c, a), alphas)
    assert (bits(got), error) == (bits(want), want_error)


def test_the_asymptotic_cases_raise():
    for case, index in (("asymptotic_angle", 3), ("asymptote_at_zero", 2)):
        c, alphas = _radius_cases()[case]
        got, error = batched_run(focal_radii(c, alphas))
        assert (len(got), error) == (index, AsymptoticDirection)


THETA8 = 2.0 * math.pi / 8


@pytest.mark.parametrize("p, t, phi", [
    (0.5, 16.0, math.acos(0.5) - 2.0 * THETA8),  # vertex 3 on an asymptote
    (0.5, 4.0, -3.0 * THETA8),  # vertex 4 at alpha = 0, on the asymptote
    (1e156, 1e-312, -3.0 * THETA8),  # every vertex non-finite, vertex 4 asymptotic
    (0.5, 0.7, 0.3),
])
def test_synthesize_raises_as_the_point_at_loop(p, t, phi):
    c = pencil_member(p, t)
    try:
        want = tuple(point_at(c, phi + j * THETA8) for j in range(8))
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            synthesize(p, t, THETA8, phi, 8)
        assert str(got.value) == str(exc)
    else:
        assert synthesize(p, t, THETA8, phi, 8).vertices == want


def test_a_non_finite_vertex_comes_before_a_later_asymptote():
    # p^2 overflows, so every radius is infinite; sqrt(t) p is 1, so alpha = 0
    # is asymptotic.  Vertex 1 fails first, as in the point_at loop.
    theta = THETA8
    c = pencil_member(1e156, 1e-312)
    with pytest.raises(AsymptoticDirection):
        focal_radius(c, 0.0)
    with pytest.raises(ValueError, match="non-finite coordinates"):
        point_at(c, -3.0 * theta)
    with pytest.raises(ValueError, match="non-finite coordinates"):
        synthesize(1e156, 1e-312, theta, -3.0 * theta, 8)


# ---------------------------------------------------------------------------
# focal_parameters

def _points(p, t, n=60):
    c = pencil_member(p, t)
    return [point_at(c, a) for a in safe_angles(c)[:n]]


@pytest.mark.parametrize("p, t", MEMBER_PARAMS, ids=IDS)
def test_focal_parameters_is_the_scalar_pair_bit_for_bit(p, t):
    pts = _points(p, t)
    d = synthesize(p, t, 2.0 * math.pi / 9, 0.3, 9)
    grid = [z for k in (2, 3) for z in grid_layer(d, k).vertices]
    for points in (pts, list(d.vertices), tangency_points(d).vertices, grid):
        ts, alphas = focal_parameters(p, points)
        assert bits(ts) == bits(parameter_of(p, z) for z in points)
        assert bits(alphas) == bits(reference_focal_parameter(p, z) for z in points)
        assert bits(alphas) == bits(focal_parameter(p, z) for z in points)


@pytest.mark.parametrize("p, t", MEMBER_PARAMS, ids=IDS)
def test_parameter_steps_are_the_scalar_steps(p, t):
    d = synthesize(p, t, 2.0 * math.pi / 11, 0.3, 11)
    alphas = [reference_focal_parameter(p, z) for z in d.vertices]
    for closed in (True, False):
        last = len(alphas) if closed else len(alphas) - 1
        want = [abs(wrapped_diff(alphas[(i + 1) % len(alphas)] - alphas[i], d.theta))
                for i in range(last)]
        assert bits(_parameter_step_residuals(p, d.vertices, d.theta, closed)) == bits(want)


def _scalar_grid_order(p, points):
    """check_grid's order before focal_parameters: every t, then every angle."""
    for z in points:
        parameter_of(p, z)
    for z in points:
        reference_focal_parameter(p, z)


def _parameter_error(fn, p, points):
    """(exception type, message) that fn(p, points) raises."""
    try:
        fn(p, points)
    except Exception as exc:
        return type(exc), str(exc)
    return None


P = 0.5
GOOD = [Point(0.3, 0.2), Point(1.0, -0.4), Point(-0.2, 0.9)]
EXCLUDED = Point(-1.0 / P, 0.7)  # on x = -1/p
FOCUS = Point(-P, 0.0)  # t = 0
HUGE = Point(1e200, 1e200)  # t beyond float range

PARAMETER_CASES = {
    "excluded_line": GOOD[:2] + [EXCLUDED] + GOOD[2:],
    "focus": GOOD[:1] + [FOCUS] + GOOD[1:],
    "non_finite": GOOD + [HUGE],
    "near_excluded_line": GOOD[:1] + [Point(-1.0 / P + 1e-14, 3.0)] + GOOD,
    "focus_before_excluded": GOOD[:1] + [FOCUS, EXCLUDED] + GOOD[1:],
    "excluded_before_non_finite": [EXCLUDED, HUGE],
}


@pytest.mark.parametrize("case", list(PARAMETER_CASES))
def test_focal_parameters_raises_as_the_scalar_order(case):
    points = PARAMETER_CASES[case]
    got = _parameter_error(focal_parameters, P, points)
    assert got is not None
    # The same type, with the message naming the same point.
    assert got == _parameter_error(_scalar_grid_order, P, points)


@pytest.mark.parametrize("case", ["excluded_line", "focus", "non_finite", "near_excluded_line"])
def test_a_single_bad_point_is_at_the_scalar_index(case):
    points = PARAMETER_CASES[case]
    done, error = scalar_run(lambda z: reference_focal_parameter(P, z), points)
    index = len(done)
    assert error in (OnExcludedLine, NonpositiveT, NonFiniteParameter)
    got = _parameter_error(focal_parameters, P, points)
    assert got[0] is error and str(points[index]) in got[1]
    assert _parameter_error(lambda p, pts: focal_parameter(p, pts[index]), P, points)[0] is error


@pytest.mark.parametrize("p, error", [(1.0, "DegenerateP"), (math.nan, "NonFiniteParameter")])
def test_focal_parameters_checks_p_first(p, error):
    got = _parameter_error(focal_parameters, p, [EXCLUDED, FOCUS])
    assert got[0].__name__ == error
    assert _parameter_error(focal_parameters, p, [])[0].__name__ == error


# ---------------------------------------------------------------------------
# Line coefficients and check_diagonals

@pytest.mark.parametrize("p, t", MEMBER_PARAMS, ids=IDS)
def test_coefficients_through_is_line_through(p, t):
    pts = _points(p, t, 40)
    for u, v in zip(pts, pts[7:] + pts[:7]):
        line = line_through(u, v)
        assert bits(coefficients_through(u, v)) == bits((line.a, line.b, line.c))
        assert bits(coefficients_through(u, v)) == bits(reference_through(u, v))


@pytest.mark.parametrize("abc", [(3.0, -4.0, 10.0), (-3.0, 4.0, -10.0), (0.0, -2.0, 1.0),
                                 (-0.0, 5.0, 3.0), (1e-6, -1e-6, 0.5), (-7.0, 0.0, 0.0)])
def test_normalized_coefficients_is_from_coefficients(abc):
    line = Line.from_coefficients(*abc)
    assert bits(normalized_coefficients(*abc)) == bits((line.a, line.b, line.c))
    a, b, _ = normalized_coefficients(*abc)
    assert a > 0.0 or (a == 0.0 and b > 0.0)


def test_normalized_coefficients_errors():
    with pytest.raises(ValueError, match=r"non-finite coefficients \(nan, 1.0, 0.0\)"):
        normalized_coefficients(math.nan, 1.0, 0.0)
    with pytest.raises(ValueError, match=r"non-finite coefficients \(1.0, 1e\+308, inf\)"):
        normalized_coefficients(1.0, 1e308, math.inf)
    with pytest.raises(DegenerateConfiguration):
        normalized_coefficients(0.0, 1e-13, 1.0)
    with pytest.raises(CoincidentPoints):
        coefficients_through(Point(1.0, 2.0), Point(1.0, 2.0 + 1e-13))


@pytest.mark.parametrize("p, t", MEMBER_PARAMS, ids=IDS)
@pytest.mark.parametrize("n, w", [(8, 1), (12, 1), (240, 1), (9, 1), (11, 2), (241, 1)])
def test_diagonals_are_line_through_distances(p, t, n, w):
    d = synthesize(p, t, 2.0 * math.pi * w / n, 0.3, n)
    f = d.focus
    if n % 2 == 0:
        want = [line_through(d.vertex(j), d.vertex(j + n // 2)).distance_to(f)
                for j in range(1, n // 2 + 1)]
    else:
        m = tangency_points(d)
        want = [line_through(d.vertex(j), m.vertex(j + (n - 1) // 2)).distance_to(f)
                for j in range(1, n + 1)]
    assert bits(check_diagonals(d).residuals) == bits(want)
