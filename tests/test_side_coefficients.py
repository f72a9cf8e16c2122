"""The side coefficient cache against the Line path it replaces.

DiscreteConic.side_coefficients forms each side's normalized (a, b, c) once,
with line_through's float operations and checks, and sides/side(i) build
their Lines from it.  These tests compare, bit for bit, against
coefficients_through and line_through, and against intersect_lines and
tangency_residual as they read a Line's fields before they took triples:
on open chains, closed convex polygons, obtuse stars and hyperbola members
with far vertices.  The errors keep their types and messages.
"""

import math
import sys

import pytest

from discreteconics.errors import CoincidentPoints, ParallelLines
from discreteconics.kernel import (
    DEGENERACY_EPS,
    Line,
    Point,
    coefficients_through,
    intersect_lines,
    line_through,
)
from discreteconics.pencil import normalized_adjugate, tangency_residual, tangent_at
from discreteconics.polygon import DiscreteConic, grid_layer, synthesize
from discreteconics.verify import check_poncelet, run_checks

# sqrt(t)*p*cos(a) = 1 at the asymptotic direction a of the p = 0.3, t = 20 member.
_ASYMPTOTE = math.acos(1.0 / (math.sqrt(20.0) * 0.3))

POLYGONS = {
    "open_chain": synthesize(0.5, 1.0, 1.0, 0.0, 5),
    "open_hyperbola_chain": synthesize(0.3, 20.0, 0.4, -1.0, 7),
    "closed_convex": synthesize(0.75, 0.5, 2.0 * math.pi / 12, 0.3, 12),
    "closed_convex_large": synthesize(-0.4, 1.7, 2.0 * math.pi / 241, 0.3, 241),
    "obtuse_star": synthesize(0.75, 0.5, 2.0 * math.pi * 5 / 12, 0.3, 12),
    "obtuse_star_odd": synthesize(-0.6, 2.0, 2.0 * math.pi * 6 / 13, 0.1, 13),
    "hyperbola_far": synthesize(0.3, 20.0, 2.0 * math.pi / 12, _ASYMPTOTE - 1e-4, 12),
    "hyperbola_farther": synthesize(0.3, 20.0, 2.0 * math.pi / 12, _ASYMPTOTE + 1e-5, 12),
}


def _hex(values):
    return tuple(float.hex(v) for v in values)


def _triple(line):
    return (line.a, line.b, line.c)


def _pairs(d):
    return [(d.vertex(i), d.vertex(i + 1)) for i in range(1, d.num_sides + 1)]


def intersect_as_before(l1, l2):
    """intersect_lines as it read a Line's fields."""
    det = l1.a * l2.b - l2.a * l1.b
    if abs(det) < DEGENERACY_EPS:
        raise ParallelLines(f"lines {l1} and {l2} are parallel")
    return Point((l1.b * l2.c - l2.b * l1.c) / det, (l2.a * l1.c - l1.a * l2.c) / det)


def tangency_residual_as_before(c, line):
    """tangency_residual as it read a Line's fields."""
    (xx, _, xw), (_, yy, _), (_, _, ww) = normalized_adjugate(c)
    a, b, w = line.a, line.b, line.c
    quad = (a * xx + w * xw) * a + b * yy * b + (a * xw + w * ww) * w
    return abs(quad) / (1.0 + w * w)


def test_the_cases_cover_what_they_name():
    assert not POLYGONS["open_chain"].closed and not POLYGONS["open_hyperbola_chain"].closed
    assert POLYGONS["obtuse_star"].theta > math.pi / 2 < POLYGONS["obtuse_star_odd"].theta
    for name in ("hyperbola_far", "hyperbola_farther"):
        d = POLYGONS[name]
        assert d.closed and d.p * d.p * d.t > 1.0
        assert max(math.hypot(v.x, v.y) for v in d.vertices) > 4e4


@pytest.mark.parametrize("name", POLYGONS)
def test_coefficients_are_those_of_coefficients_through_and_line_through(name):
    d = POLYGONS[name]
    assert len(d.side_coefficients) == d.num_sides
    for abc, (u, v) in zip(d.side_coefficients, _pairs(d)):
        assert _hex(abc) == _hex(coefficients_through(u, v))
        line = line_through(u, v)
        assert _hex(abc) == _hex(_triple(line))


@pytest.mark.parametrize("name", POLYGONS)
def test_sides_and_side_keep_their_bits(name):
    d = POLYGONS[name]
    run_checks(d)  # the checks' reads come first; the Lines must not depend on them
    for i, (u, v) in enumerate(_pairs(d), start=1):
        line = line_through(u, v)
        assert d.side(i) is d.sides[i - 1]
        assert _hex(_triple(d.side(i))) == _hex(_triple(line))
        assert _triple(d.side(i)) == d.side_coefficients[i - 1]
    if d.closed:
        assert d.side(d.n + 1) is d.side(1) and d.side(0) is d.side(d.n)


@pytest.mark.parametrize("name", POLYGONS)
def test_intersect_lines_and_tangency_residual_keep_their_bits_on_a_line(name):
    d = POLYGONS[name]
    inner = d.inner
    sides = d.sides
    for l1, l2 in zip(sides, sides[2:] + sides[:2]):
        try:
            before = intersect_as_before(l1, l2)
        except ParallelLines:
            continue
        for a, b in ((l1, l2), (_triple(l1), _triple(l2)), (l1, _triple(l2))):
            z = intersect_lines(a, b)
            assert _hex((z.x, z.y)) == _hex((before.x, before.y))
    lines = list(sides) + [tangent_at(d.carrier, d.phi + j * 0.37) for j in range(5)]
    for line in lines:
        before = tangency_residual_as_before(inner, line)
        assert float.hex(tangency_residual(inner, line)) == float.hex(before)
        assert float.hex(tangency_residual(inner, _triple(line))) == float.hex(before)


def test_a_parallel_pair_keeps_its_message_in_intersect_lines():
    l1 = Line.from_coefficients(1.0, 2.0, 3.0)
    l2 = Line.from_coefficients(-1.0, -2.0, 7.0)
    with pytest.raises(ParallelLines) as before:
        intersect_as_before(l1, l2)
    with pytest.raises(ParallelLines) as now:
        intersect_lines(l1, l2)
    assert str(now.value) == str(before.value)


def _with_vertex(d, j, vertex):
    vertices = list(d.vertices)
    vertices[j] = vertex
    return DiscreteConic(d.p, d.t, d.theta, d.phi, tuple(vertices))


def test_coincident_vertices_keep_their_error_in_run_checks_and_grid_layer():
    base = POLYGONS["closed_convex"]
    v = base.vertices[2]
    with pytest.raises(CoincidentPoints) as expected:
        line_through(v, v)
    for call in (run_checks, lambda d: grid_layer(d, 2)):
        d = _with_vertex(base, 3, v)
        for _ in range(2):  # a raise caches nothing, so a second call raises the same
            with pytest.raises(CoincidentPoints) as got:
                call(d)
            assert str(got.value) == str(expected.value)
        assert "side_coefficients" not in vars(d) and 2 not in d.layers


PARALLEL = {
    # p = 0, cos(k*theta/2) = 0: opposite sides of a square.
    "square": (synthesize(0.0, 1.0, math.pi / 2, 0.3, 4), 2),
    # theta = 2*pi/3 on n = 6 walks a triangle twice: sides 3 apart coincide.
    "doubled_triangle": (synthesize(0.5, 1.0, 2.0 * math.pi / 3, 0.3, 6), 3),
}


@pytest.mark.parametrize("case", PARALLEL)
def test_a_parallel_pair_keeps_its_message_in_grid_layer(case):
    d, k = PARALLEL[case]
    with pytest.raises(ParallelLines) as got:
        grid_layer(d, k)
    assert str(got.value) == (f"side lines {k} apart are parallel; for opposite sides use "
                              "opposite_side_intersections")


def test_a_normalized_c_that_overflows_keeps_the_line_error():
    top = sys.float_info.max
    u, v = Point(top, 0.3), Point(top, 0.4)
    a, b, c = coefficients_through(u, v)
    assert math.isfinite(a) and math.isfinite(b) and c == -math.inf
    with pytest.raises(ValueError) as expected:
        line_through(u, v)
    chain = DiscreteConic(0.5, 1.0, 1.0, 0.0, (Point(0.0, 0.0), u, v))
    assert not chain.closed
    for call in (lambda: chain.side_coefficients, lambda: chain.sides, lambda: chain.side(1),
                 lambda: check_poncelet(chain)):
        with pytest.raises(ValueError) as got:
            call()
        assert type(got.value) is ValueError and str(got.value) == str(expected.value)
