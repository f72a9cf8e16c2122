"""Reciprocation about the pencil focus: polars, poles, dual circles."""

import math

import numpy as np
import pytest

from discreteconics import duality
from discreteconics.duality import (
    Reciprocator,
    dual_conic,
    invert_circle,
    invert_point,
    polar_of,
    pole_of,
)
from discreteconics.errors import (
    CenterHasNoPolar,
    CenterNotFocus,
    FocusOutsideDual,
    LineThroughCenter,
)
from discreteconics.kernel import Line, Point, distance, left_sum
from discreteconics.pencil import Circle, pencil_member

ORIGIN = Reciprocator(Point(0, 0), 1.0)


def test_polar_textbook():
    l = polar_of(ORIGIN, Point(2, 0))
    assert math.isclose(l.a, 1.0) and abs(l.b) < 1e-15 and math.isclose(l.c, -0.5)


def test_polar_self_conjugate():
    l = polar_of(ORIGIN, Point(1, 0))
    assert l.distance_to(Point(1, 0)) < 1e-15


def test_polar_of_center_rejected():
    with pytest.raises(CenterHasNoPolar):
        polar_of(ORIGIN, Point(0, 0))


def test_pole_examples():
    p = pole_of(ORIGIN, Line.from_coefficients(1, 0, -0.5))
    assert distance(p, Point(2, 0)) < 1e-12
    p = pole_of(ORIGIN, Line.from_coefficients(1, 0, -1))
    assert distance(p, Point(1, 0)) < 1e-12
    with pytest.raises(LineThroughCenter):
        pole_of(ORIGIN, Line.from_coefficients(0, 1, 0))


def test_involution():
    rng = np.random.default_rng(31)
    r = Reciprocator(Point(0.3, -0.7), 1.4)
    for _ in range(100):
        p = Point(*rng.uniform(-3, 3, 2))
        if distance(p, r.center) < 0.05:
            continue
        assert distance(pole_of(r, polar_of(r, p)), p) < 1e-10
        line = polar_of(r, p)
        l2 = polar_of(r, pole_of(r, line))
        assert abs(line.a - l2.a) + abs(line.b - l2.b) + abs(line.c - l2.c) < 1e-10


def test_incidence_reversal():
    """P on L iff pole of L lies on polar of P."""
    rng = np.random.default_rng(37)
    r = Reciprocator(Point(0.0, 0.0), 1.0)
    for _ in range(100):
        a, b = rng.normal(size=2)
        line = Line.from_coefficients(a, b, rng.normal())
        if line.distance_to(r.center) < 0.05:
            continue
        # A point on the line, away from the center.
        dx, dy = line.direction()
        foot = Point(-line.c * line.a, -line.c * line.b)
        p = Point(foot.x + 1.3 * dx, foot.y + 1.3 * dy)
        if distance(p, r.center) < 0.05:
            continue
        assert polar_of(r, p).distance_to(pole_of(r, line)) < 1e-9


def test_invert_point_involution():
    rng = np.random.default_rng(41)
    r = Reciprocator(Point(-0.75, 0.0), 0.8)
    for _ in range(100):
        p = Point(*rng.uniform(-3, 3, 2))
        if distance(p, r.center) < 0.05:
            continue
        assert distance(invert_point(r, invert_point(r, p)), p) < 1e-10


def test_invert_circle_maps_points():
    r = Reciprocator(Point(0, 0), 1.0)
    c = Circle(Point(3, 0), 1.0)
    img = invert_circle(r, c)
    for a in np.linspace(0, 2 * math.pi, 17):
        q = invert_point(r, Point(3 + math.cos(a), math.sin(a)))
        assert abs(distance(q, img.center) - img.radius) < 1e-10


def test_dual_unit_circle_self():
    circ = dual_conic(Reciprocator(Point(0, 0), 1.0), pencil_member(0.0, 1.0))
    assert distance(circ.center, Point(0, 0)) < 1e-9
    assert math.isclose(circ.radius, 1.0, abs_tol=1e-9)


def test_dual_ellipse_center_on_axis():
    c = pencil_member(0.75, 1.0)
    circ = dual_conic(Reciprocator(c.focus, 1.0), c)
    assert abs(circ.center.y) < 1e-9
    assert distance(c.focus, circ.center) < circ.radius  # focus inside


def test_dual_center_must_be_focus():
    with pytest.raises(CenterNotFocus):
        dual_conic(Reciprocator(Point(0, 0), 1.0), pencil_member(0.75, 1.0))


def test_dual_radius_scaling():
    """Dual circles for inversion radii k and 2k are scaled by 4 = (2k/k)^2."""
    c = pencil_member(0.5, 0.8)
    c1 = dual_conic(Reciprocator(c.focus, 1.0), c)
    c2 = dual_conic(Reciprocator(c.focus, 2.0), c)
    assert math.isclose(c2.radius, 4.0 * c1.radius, rel_tol=1e-9)


def test_dual_hyperbola_focus_outside():
    c = pencil_member(0.75, 2.0)  # e = 0.75*sqrt(2) > 1
    circ = dual_conic(Reciprocator(c.focus, 1.0), c, require_focus_inside=False)
    assert distance(c.focus, circ.center) > circ.radius


@pytest.mark.parametrize("p, t, inside", [(0.5, 0.8, True), (0.75, 2.0, False), (0.3, 20.0, False)])
def test_dual_fits_once(monkeypatch, p, t, inside):
    """The inversion radius is a homothety about the focus, so one fit
    decides whether the focus is inside; hyperbola members fail at once."""
    calls = []
    real_fit = duality.fit_circle

    def counted_fit(points):
        calls.append(len(points))
        return real_fit(points)

    monkeypatch.setattr(duality, "fit_circle", counted_fit)
    c = pencil_member(p, t)
    if inside:
        dual_conic(Reciprocator(c.focus, 1.0), c)
    else:
        with pytest.raises(FocusOutsideDual):
            dual_conic(Reciprocator(c.focus, 1.0), c)
    assert len(calls) == 1


def test_dual_circle_has_the_same_bits_on_every_python_version():
    # The fit adds its sums left to right; from Python 3.12 sum() compensates,
    # which moved the last bit of this circle's center and radius.
    c = pencil_member(0.5, 0.7)
    assert repr(dual_conic(Reciprocator(c.focus), c)) == (
        "Circle(center=Point(x=-1.1666666666666665, y=-1.2750217548429532e-16), "
        "radius=1.5936381457791917)")
    assert left_sum([1e16, 1.0, -1e16]) == 0.0  # sum() gives 1.0 from Python 3.12
