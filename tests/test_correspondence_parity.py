"""act_on_discrete's correspondence check on coordinates against its Line
and Point route, bit for bit and error for error.

correspondence_residuals reads the n + k carrier points as pairs from one
points_at_xy call, through finite_xy; G forms the tangents in one
tangent_coefficients call and meets them k apart with intersections_xy, H
forms the chords in one line_coefficients_xy call.  The route it replaced
built a Line per tangent or chord and a Point per carrier point and
meet; it is kept here as the oracle (reference_residuals).  The residual
lists must have its bits on every verified action of the benchmark's sweep
schedule (seed 3, ops 0-2999) and on Hypothesis draws of closed and open
chains with k * theta < pi, and crafted inputs must raise its errors, with
its messages.  Each batch form is tied to its scalar as in
test_batch_parity.py.  Line's check of a normalized c, which can overflow
only for a line farther from the origin than the largest float, cannot fail
on carrier points: a tangent or chord is no farther from the origin than its
points.  It is tested on the batch forms alone.
"""

import math
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from test_batch_parity import (POLYGONS, SETTINGS, SWEEP_MEMBERS, TOP, batch_outcome, bits,
                               call_outcome, line_triple, same_outcome, scalar_outcome)

from discreteconics import group
from discreteconics.errors import (AsymptoticDirection, CoincidentPoints,
                                   DegenerateConfiguration, ParallelLines)
from discreteconics.group import (_verify_correspondence, act_on_discrete,
                                  correspondence_residuals, from_angle, image)
from discreteconics.kernel import (Line, Point, checked_coefficients, distance, finite_xy,
                                   intersect_lines, line_coefficients, line_coefficients_xy,
                                   line_through)
from discreteconics.pencil import (pencil_member, point_at, points_at_xy, tangency_residuals,
                                   tangent_at, tangent_coefficients)
from discreteconics.polygon import DiscreteConic, closed_form_vertices, synthesize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# ---------------------------------------------------------------------------
# The Line and Point route


def reference_residuals(d, out, kind, k):
    """correspondence_residuals as it was computed before it read pairs: a
    Line per tangent (G) or chord (H), a Point per carrier point and meet."""
    c, vs = d.carrier, out.vertices
    alphas = [d.phi + j * d.theta for j in range(d.n + k)]
    if kind == "G":
        tangents = [tangent_at(c, a) for a in alphas]
        zs = [intersect_lines(a, b) for a, b in zip(tangents, tangents[k:])]
        return [distance(z, v) / max(1.0, math.hypot(z.x, z.y)) for z, v in zip(zs, vs)]
    pts = [point_at(c, a) for a in alphas]
    chords = [line_through(a, b) for a, b in zip(pts, pts[k:])]
    residuals = [l.distance_to(v) / max(1.0, math.hypot(v.x, v.y)) for l, v in zip(chords, vs)]
    return residuals + tangency_residuals(out.carrier, chords)


def reference_verify(d, out, kind, k):
    worst = max(0.0, *reference_residuals(d, out, kind, k))
    if worst > group._CORRESPONDENCE_TOL:
        raise ValueError(f"vertex correspondence failed with residual {worst}")


def same_residuals(d, out, kind, k):
    got = call_outcome(correspondence_residuals, d, out, kind, k)
    want = call_outcome(reference_residuals, d, out, kind, k)
    assert got[1] == want[1]
    if want[1] is None:
        assert [bits(r) for r in got[0]] == [bits(r) for r in want[0]]
    assert call_outcome(_verify_correspondence, d, out, kind, k)[1] == call_outcome(
        reference_verify, d, out, kind, k)[1]
    return got


# ---------------------------------------------------------------------------
# Bit for bit on the sweep schedule and on drawn chains


def test_residuals_are_the_line_route_on_the_sweep_schedule(monkeypatch):
    """Every verified action of sweep seed 3, ops 0-2999, as a sweep op makes
    it: H at k * theta on the polygon, G at theta on its closed form."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs

    actions = []
    real = group._verify_correspondence
    monkeypatch.setattr(group, "_verify_correspondence",
                        lambda *args: actions.append(args) or real(*args))
    schedule = inputs.sweep_schedule(3)
    for i in range(3000):
        inp = schedule.op_input(i)
        d = synthesize(inp.p, inp.t, inp.theta, inp.phi, inp.n)
        act_on_discrete(from_angle("H", inp.k * inp.theta), d)
        cf = closed_form_vertices(inp.p, inp.theta, inp.phi + inp.theta, inp.n)
        act_on_discrete(from_angle("G", inp.theta), cf)
    assert len(actions) == 6000
    assert {kind for _, _, kind, _ in actions} == {"G", "H"}
    assert max(k for *_, k in actions) > 1
    for args in actions:
        got = correspondence_residuals(*args)
        assert [bits(r) for r in got] == [bits(r) for r in reference_residuals(*args)]


@st.composite
def chains(draw):
    """A closed polygon or an open chain on a sweep member, with a kind and
    a k for which k * theta < pi."""
    p, t = draw(SWEEP_MEMBERS)
    n = draw(st.integers(5, 40))
    if draw(st.booleans()):
        w = draw(st.sampled_from([w for w in range(1, (n + 1) // 2) if math.gcd(w, n) == 1]))
        theta = 2.0 * math.pi * w / n
    else:
        theta = draw(st.floats(0.05, 3.0))
    k = draw(st.integers(1, n))
    assume(k * theta < math.pi)
    return draw(st.sampled_from("GH")), p, t, theta, draw(st.floats(0.0, 2.0 * math.pi)), n, k


@SETTINGS
@given(args=chains())
def test_residuals_are_the_line_route_on_drawn_chains(args):
    kind, p, t, theta, phi, n, k = args
    d, _ = call_outcome(synthesize, p, t, theta, phi, n)
    if d is None:
        return
    out, _ = call_outcome(image, from_angle(kind, k * theta), d)
    if out is not None:
        same_residuals(d, out, kind, k)


# ---------------------------------------------------------------------------
# Crafted inputs: each error of the Line and Point route, with its message


def _polygon(p, t, theta, phi, n):
    """A polygon whose carrier is (p, t); the check reads only its carrier,
    phi, theta and n from it, and the vertices of the image it is given."""
    return DiscreteConic(p, t, theta, phi, tuple(Point(0.1 * j, 0.2) for j in range(n)))


ASYMPTOTE = math.acos(1.0 / (4.0 * 0.5))  # on (p, t) = (0.5, 16), sqrt(t) * p * cos = 1

CRAFTED = [
    # (id, polygon, kinds, k, error type, message start); AsymptoticDirection
    # has its own tests below.
    ("non-finite-point", _polygon(1e200, 1.0, 0.3, 0.1, 6), "GH", 1,
     ValueError, "non-finite coordinates ("),
    ("non-finite-tangent", _polygon(1e10, 1e300, 0.3, 0.1, 6), "G", 1,
     ValueError, "non-finite coefficients ("),
    ("degenerate-tangent", _polygon(0.5, 1e-30, 0.3, 0.1, 6), "G", 1,
     DegenerateConfiguration, "line with zero normal vector"),
    ("coincident-chord", _polygon(0.5, 1.0, math.pi, 0.1, 4), "H", 2,
     CoincidentPoints, "points Point(x="),
    ("parallel-tangents", _polygon(0.0, 1.0, math.pi / 2, 0.0, 4), "G", 2,
     ParallelLines, "lines Line(a="),
]


@pytest.mark.parametrize("polygon, kinds, k, error, start",
                         [pytest.param(*case[1:], id=case[0]) for case in CRAFTED])
def test_crafted_inputs_raise_the_line_route_error(polygon, kinds, k, error, start):
    for kind in kinds:
        got = same_residuals(polygon, polygon, kind, k)
        assert got[1][0] is error and got[1][1].startswith(start)


def test_the_line_named_parallel_lines_is_raised_without_a_chain():
    # As the route through intersect_lines raises it: one exception, so a
    # traceback shows no "During handling of the above exception".
    polygon = CRAFTED[-1][1]
    with pytest.raises(ParallelLines, match=r"^lines Line\(a=") as got:
        correspondence_residuals(polygon, polygon, "G", 2)
    assert got.value.__cause__ is None
    assert got.value.__context__ is None or got.value.__suppress_context__


def test_the_first_failing_angle_is_named():
    # The asymptotic angle is the third of eight; the carrier points before
    # it are read, and the message names it.
    d = _polygon(0.5, 16.0, 0.3, ASYMPTOTE - 2 * 0.3, 6)
    for kind in "GH":
        _, error = same_residuals(d, d, kind, 2)
        assert error == (AsymptoticDirection,
                         f"alpha = {d.phi + 2 * d.theta} is an asymptotic direction")


def test_every_carrier_point_is_read_before_any_chord():
    # theta = pi with k = 2: the first chord joins two copies of one point,
    # but the second angle, ASYMPTOTE, has no point, and that is raised first.
    d = _polygon(0.5, 16.0, math.pi, ASYMPTOTE - math.pi, 4)
    _, error = same_residuals(d, d, "H", 2)
    assert error == (AsymptoticDirection, f"alpha = {d.phi + d.theta} is an asymptotic direction")
    assert call_outcome(correspondence_residuals, _polygon(0.5, 16.0, math.pi, 0.1, 4), d,
                        "H", 2)[1][0] is CoincidentPoints


def test_a_wrong_image_fails_with_the_line_route_residual():
    d = synthesize(0.5, 1.0, 2.0 * math.pi / 8, 0.0, 8)
    for kind in "GH":
        wrong = image(from_angle(kind, 2.0 * d.theta), d)  # the image for k = 2, checked at k = 1
        got = call_outcome(_verify_correspondence, d, wrong, kind, 1)
        assert got[1] == call_outcome(reference_verify, d, wrong, kind, 1)[1]
        worst = max(reference_residuals(d, wrong, kind, 1))
        assert got[1] == (ValueError, f"vertex correspondence failed with residual {worst}")


# ---------------------------------------------------------------------------
# Each batch form against its scalar


def _xy(v):
    return (v.x, v.y)


def _alphas(args):
    p, t, theta, phi, n = args
    return pencil_member(p, t), [phi + j * theta for j in range(n)]


def _tangents(c):
    return lambda items: tangent_coefficients(c, finite_xy(points_at_xy(c, items)))


def _tangent_triple(c):
    def scalar(alpha):
        line = tangent_at(c, alpha)
        return (line.a, line.b, line.c)
    return scalar


@SETTINGS
@given(args=POLYGONS)
def test_tangent_coefficients_are_tangent_at(args):
    c, alphas = _alphas(args)
    same_outcome(batch_outcome(_tangents(c), alphas), scalar_outcome(_tangent_triple(c), alphas))


@SETTINGS
@given(data=st.data())
def test_tangent_coefficients_raise_at_the_scalar_index(data):
    p, t, theta, phi, n = data.draw(POLYGONS)
    c, alphas = _alphas((0.5, 16.0, theta, phi, n))
    i = data.draw(st.integers(0, n))
    alphas.insert(i, ASYMPTOTE)
    want = scalar_outcome(_tangent_triple(c), alphas)
    assert want[1] is not None and want[1][0] is AsymptoticDirection and len(want[0]) <= i
    same_outcome(batch_outcome(_tangents(c), alphas), want)


@pytest.mark.parametrize("p, t", [(1e200, 1.0), (1e10, 1e300), (0.5, 1e-30)],
                         ids=["non-finite-point", "non-finite-coefficients", "zero-normal"])
def test_tangent_coefficients_raise_the_tangent_at_error(p, t):
    c = pencil_member(p, t)
    alphas = [0.1 + 0.3 * j for j in range(6)]
    want = scalar_outcome(_tangent_triple(c), alphas)
    assert want[1] is not None
    same_outcome(batch_outcome(_tangents(c), alphas), want)


@SETTINGS
@given(data=st.data())
def test_finite_xy_is_point(data):
    c, alphas = _alphas(data.draw(POLYGONS))
    xys = list(points_at_xy(c, alphas))
    i = data.draw(st.integers(0, len(xys)))
    xys.insert(i, data.draw(st.sampled_from([(math.inf, 0.5), (0.5, -math.inf),
                                             (math.nan, math.nan), (TOP, 0.0)])))
    want = scalar_outcome(lambda xy: _xy(Point(*xy)), xys)
    same_outcome(batch_outcome(lambda items: list(finite_xy(items)), xys), want)


@SETTINGS
@given(args=POLYGONS, data=st.data())
def test_line_coefficients_xy_are_line_through(args, data):
    c, alphas = _alphas(args)
    pts = scalar_outcome(lambda a: point_at(c, a), alphas)[0]
    k = data.draw(st.integers(1, 3))
    pairs = list(zip(pts, pts[k:]))
    want = scalar_outcome(line_triple, pairs)
    got = batch_outcome(lambda items: line_coefficients_xy(
        [_xy(u) for u, _ in items], [_xy(v) for _, v in items]), pairs)
    same_outcome(got, want)
    same_outcome(batch_outcome(lambda items: line_coefficients(
        [u for u, _ in items], [v for _, v in items]), pairs), want)


@SETTINGS
@given(data=st.data())
def test_line_coefficients_xy_raise_at_the_scalar_index(data):
    c, alphas = _alphas(data.draw(POLYGONS))
    pts = scalar_outcome(lambda a: point_at(c, a), alphas)[0]
    pairs = list(zip(pts, pts[1:]))
    i = data.draw(st.integers(0, len(pairs)))
    u = pts[0] if pts else Point(0.3, 0.2)
    pairs.insert(i, data.draw(st.sampled_from([
        (u, u),  # CoincidentPoints
        (Point(1e200, 1e200), Point(-1e200, 1e200)),  # c = 1e400: non-finite coefficients
        (Point(TOP, 0.3), Point(TOP, 0.4)),  # the normalized c overflows
    ])))
    want = scalar_outcome(line_triple, pairs)
    assert want[1] is not None and len(want[0]) == i
    got = batch_outcome(lambda items: line_coefficients_xy(
        [_xy(u) for u, _ in items], [_xy(v) for _, v in items]), pairs)
    same_outcome(got, want)


@pytest.mark.parametrize("abc", [(3.0, -4.0, 10.0), (-3.0, 4.0, -10.0), (0.0, -2.0, 1.0),
                                 (-0.0, 5.0, 3.0), (math.nan, 1.0, 0.0), (1.0, 1e308, math.inf),
                                 (0.0, 1e-13, 1.0), (1e-200, 0.0, 1e200)],
                         ids=["plain", "negated", "vertical", "minus-zero", "nan", "inf",
                              "zero-normal", "normalized-c-overflows"])
def test_checked_coefficients_are_from_coefficients(abc):
    def stored():
        line = Line.from_coefficients(*abc)
        return (line.a, line.b, line.c)

    got, want = call_outcome(checked_coefficients, *abc), call_outcome(stored)
    assert got[1] == want[1]
    assert bits(got[0]) == bits(want[0])
