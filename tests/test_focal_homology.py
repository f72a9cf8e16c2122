"""Every construction route against the focal homology.

H_p sends the circle of radius sqrt(t) about the origin onto the (p, t)
pencil member (test_projective_frame_proof.py), so every discrete conic the
library builds is H_p of a regular polygon, and check_projective_regular
tests each vertex against that closed form.  Hypothesis draws p, t, phi, n
and the winding; each route either raises a GeometryError or gives a
polygon that passes at DEFAULT_TOL:

* synthesize, closed_form_vertices and negative_pedal;
* tangency_points;
* grid_layer at every k in [1, n - 2], except that a layer the closed form
  puts on the directrix x = -1/p (cos(k*theta/2) = 0) must raise, in
  grid_layer or in the check;
* the G and H images (act_on_discrete) at every multiple m*theta < pi.

A 1e-3 shift of one vertex across its focal ray turns its focal angle by
1e-3 / |V - F|, so where |V - F| <= 10 the check must then fail.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discreteconics.errors import GeometryError
from discreteconics.group import act_on_discrete, from_angle
from discreteconics.kernel import Point
from discreteconics.polygon import (
    closed_form_vertices,
    grid_layer,
    negative_pedal,
    synthesize,
    tangency_points,
)
from discreteconics.verify import DEFAULT_TOL, check_projective_regular

SHIFT = 1e-3


def _routes(p, t, theta, phi, n):
    """(name, construction, whether the closed form puts it on the directrix)
    for every route from these arguments."""
    yield "synthesize", lambda: synthesize(p, t, theta, phi, n), False
    yield "closed_form_vertices", lambda: closed_form_vertices(p, theta, phi, n), False
    yield "negative_pedal", lambda: negative_pedal(p, theta, phi, n)[1], False
    try:
        d = synthesize(p, t, theta, phi, n)
    except GeometryError:
        return
    yield "tangency_points", lambda: tangency_points(d), False
    for k in range(1, n - 1):
        # Where cos(k*theta/2) = 0 the layer member has t = inf: the layer lies
        # on x = -1/p, the H_p image of the line at infinity.
        yield (f"grid_layer k={k}", lambda k=k: grid_layer(d, k),
               abs(math.cos(k * theta / 2.0)) < 1e-9)
    for m in range(1, math.ceil(math.pi / theta)):
        for kind in ("G", "H"):
            yield (f"{kind} at {m} theta",
                   lambda kind=kind, m=m: act_on_discrete(from_angle(kind, m * theta), d), False)


def _shifted(poly, j):
    """poly with vertex j moved SHIFT across its focal ray, and |V_j - F|."""
    v, f = poly.vertices[j], poly.focus
    dx, dy = v.x - f.x, v.y - f.y
    length = math.hypot(dx, dy)
    vertices = list(poly.vertices)
    vertices[j] = Point(v.x - SHIFT * dy / length, v.y + SHIFT * dx / length)
    return replace(poly, vertices=tuple(vertices)), length


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    p=st.floats(-3.0, 3.0),
    log10_t=st.floats(-1.0, 1.5),
    phi=st.floats(-math.pi, math.pi),
    n=st.integers(3, 24),
    data=st.data(),
)
def test_every_route_is_the_homology_image_of_a_regular_polygon(p, log10_t, phi, n, data):
    assume(abs(abs(p) - 1.0) >= 1e-3)
    winding = data.draw(st.integers(1, max(1, (n - 1) // 2)), label="winding")
    theta = 2.0 * math.pi * winding / n
    for name, route, on_directrix in _routes(p, 10.0**log10_t, theta, phi, n):
        if on_directrix:  # grid_layer raises, or the check meets a vertex at infinity
            with pytest.raises(GeometryError):
                check_projective_regular(route())
            continue
        try:
            poly = route()
        except GeometryError:
            continue
        report = check_projective_regular(poly)
        assert report.tolerance == DEFAULT_TOL
        assert report.passed, (name, report.max_residual)
        assert len(report.residuals) == poly.n
        j = data.draw(st.integers(0, poly.n - 1), label=f"shifted vertex of {name}")
        shifted, length = _shifted(poly, j)
        if length <= 10.0:
            assert not check_projective_regular(shifted).passed, name
