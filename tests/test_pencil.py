"""The focus-sharing pencil: membership, parametrization, tangency, pedal."""

import math

import numpy as np
import pytest

from discreteconics.errors import (
    AsymptoticDirection,
    DegenerateP,
    GeometryError,
    NonFiniteParameter,
    NonpositiveT,
    OnExcludedLine,
    ParabolaMember,
)
from discreteconics.kernel import Line, Point, distance
from discreteconics.pencil import (
    classify,
    fit_circle,
    focal_radius,
    limiting_conic,
    parameter_of,
    pedal_circle,
    pencil_member,
    point_at,
    quadratic_form,
    tangency_residual,
    tangent_at,
)


def _form_ratio(qf, a, c, g):
    """True iff qf is proportional to (a, 0, c, 0, 0, g)."""
    scale = qf.C / c
    return (
        abs(qf.A - scale * a) < 1e-12
        and abs(qf.B) < 1e-12
        and abs(qf.D) < 1e-12
        and abs(qf.E) < 1e-12
        and abs(qf.G - scale * g) < 1e-12
    )


def test_member_circle():
    c = pencil_member(0.0, 1.0)
    assert _form_ratio(quadratic_form(c), 1.0, 1.0, -1.0)
    assert c.focus == Point(0.0, 0.0)


def test_member_ellipse():
    c = pencil_member(0.75, 1.0)
    # x^2 + y^2 / (1 - 9/16) = 1 expanded: (7/16) x^2 + y^2 - 7/16 = 0
    assert _form_ratio(quadratic_form(c), 7.0 / 16.0, 1.0, -7.0 / 16.0)


def test_member_degenerate_p():
    with pytest.raises(DegenerateP):
        pencil_member(1.0, 2.0)
    with pytest.raises(NonpositiveT):
        pencil_member(0.5, 0.0)


def test_limiting_conic_forms():
    assert _form_ratio(quadratic_form(limiting_conic(0.75)), 1.0, 16.0 / 7.0, -1.0)
    assert _form_ratio(quadratic_form(limiting_conic(0.0)), 1.0, 1.0, -1.0)
    # p^2 > 1: x^2 - y^2 = 1 signature.
    qf = quadratic_form(limiting_conic(math.sqrt(2.0)))
    assert qf.A < 0.0 and qf.C > 0.0


def test_point_at_circle():
    c = pencil_member(0.0, 1.0)
    for a in (0.0, 0.7, 2.0, 5.1):
        pt = point_at(c, a)
        assert distance(pt, Point(math.cos(a), math.sin(a))) < 1e-15


def test_point_at_ellipse_apex():
    c = pencil_member(0.75, 1.0)
    assert math.isclose(focal_radius(c, 0.0), 7.0 / 4.0)
    assert distance(point_at(c, 0.0), Point(1.0, 0.0)) < 1e-15


def test_point_at_asymptotic():
    c = pencil_member(0.75, 16.0 / 9.0)  # e = p*sqrt(t) = 1
    with pytest.raises(AsymptoticDirection):
        point_at(c, 0.0)


def test_classify():
    assert classify(pencil_member(0.0, 0.3)) == "ellipse"
    assert classify(pencil_member(0.0, 7.0)) == "ellipse"
    assert classify(pencil_member(0.75, 16.0 / 9.0)) == "parabola"
    assert classify(pencil_member(math.sqrt(2.0), 1.0)) == "hyperbola"


def test_parameter_of_examples():
    assert math.isclose(parameter_of(0.75, Point(1.0, 0.0)), 1.0)
    assert math.isclose(parameter_of(0.0, Point(0.0, 2.0)), 4.0)
    with pytest.raises(OnExcludedLine):
        parameter_of(0.75, Point(-4.0 / 3.0, 5.0))


def test_tangent_examples():
    for p in (0.0, 0.75):
        l = tangent_at(pencil_member(p, 1.0), 0.0)
        assert math.isclose(l.a, 1.0) and abs(l.b) < 1e-15 and math.isclose(l.c, -1.0)
    l = tangent_at(pencil_member(0.0, 1.0), math.pi / 2.0)
    assert abs(l.a) < 1e-15 and math.isclose(abs(l.b), 1.0)
    assert l.distance_to(Point(0.0, 1.0)) < 1e-15


def test_tangency_residual_examples():
    circ = pencil_member(0.0, 1.0)
    assert tangency_residual(circ, Line.from_coefficients(1, 0, -1)) < 1e-15
    assert tangency_residual(circ, Line.from_coefficients(1, 0, -2)) > 1e-3
    assert tangency_residual(pencil_member(0.75, 1.0), Line.from_coefficients(1, 0, -1)) < 1e-15


def test_membership_invariant():
    rng = np.random.default_rng(23)
    for _ in range(200):
        p = rng.uniform(-0.9, 0.9)
        t = rng.uniform(0.1, 4.0)
        c = pencil_member(p, t)
        a = rng.uniform(0.0, 2.0 * math.pi)
        try:
            pt = point_at(c, a)
        except AsymptoticDirection:
            continue
        assert quadratic_form(c).residual_at(pt) < 1e-10
        # Foliation: the point recovers its own t.
        assert abs(parameter_of(p, pt) - t) < 1e-8 * max(1.0, t)


def test_tangent_touches_without_crossing():
    rng = np.random.default_rng(29)
    for _ in range(100):
        p = rng.uniform(-0.9, 0.9)
        t = rng.uniform(0.2, 3.0)
        c = pencil_member(p, t)
        a = rng.uniform(0.0, 2.0 * math.pi)
        try:
            line = tangent_at(c, a)
        except AsymptoticDirection:
            continue
        assert line.distance_to(point_at(c, a)) < 1e-10
        assert tangency_residual(c, line) < 1e-12


def test_fit_circle_exact():
    pts = [Point(2 + 3 * math.cos(a), -1 + 3 * math.sin(a)) for a in (0.1, 1.2, 2.9, 4.4)]
    circ = fit_circle(pts)
    assert distance(circ.center, Point(2, -1)) < 1e-10
    assert math.isclose(circ.radius, 3.0)


def test_pedal_circle_circle_member():
    circ = pedal_circle(pencil_member(0.0, 1.0))
    assert distance(circ.center, Point(0, 0)) < 1e-10
    assert math.isclose(circ.radius, 1.0, abs_tol=1e-10)


def test_pedal_circle_ellipse_is_auxiliary():
    # For the t=1 member the semimajor axis is 1, so the pedal circle about
    # either focus is the unit circle centered at the conic's center.
    circ = pedal_circle(pencil_member(0.75, 1.0))
    assert distance(circ.center, Point(0, 0)) < 1e-9
    assert math.isclose(circ.radius, 1.0, abs_tol=1e-9)


def test_pedal_circle_parabola_rejected():
    with pytest.raises(ParabolaMember):
        pedal_circle(pencil_member(0.75, 16.0 / 9.0))


@pytest.mark.parametrize("p, t", [(math.nan, 1.0), (0.5, math.inf), (-math.inf, 1.0), (0.5, math.nan)])
def test_pencil_member_rejects_non_finite_parameters(p, t):
    with pytest.raises(NonFiniteParameter):
        pencil_member(p, t)
    assert issubclass(NonFiniteParameter, GeometryError)
