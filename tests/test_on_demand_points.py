"""Points the checks read one at a time, bit for bit against what they replaced.

* DiscreteConic.tangency_point(j) is tangency_points(d).vertex(j), without
  building the tangency polygon, and raises IndexError wherever side(j) does.
* check_grid reads synthesize's reference as coordinates; where that
  synthesize call raises, check_grid raises the same type.  Its residuals
  against synthesize + distance, at every k, are in test_grid_oracle.py.
* directed_angle through ray_angle keeps the bits of the two-atan2 form, and
  check_pascal_line's focal angle steps keep the bits of directed_angle.
* The side lines and the diagonal chords, paired by slicing, keep the bits
  of the 1-based vertex(j) form.
"""

import math
import random
from dataclasses import replace

import pytest

from discreteconics.errors import AngleOutOfRange, DegenerateRay, NonFiniteParameter
from discreteconics.kernel import (
    DEGENERACY_EPS,
    Point,
    coefficients_through,
    directed_angle,
    distance,
    line_through,
    normalize_angle,
    ray_angle,
    wrapped_diff,
)
from discreteconics.polygon import (
    _indexed_opposite_intersections,
    grid_layer,
    synthesize,
    tangency_points,
)
from discreteconics.verify import check_diagonals, check_grid, check_pascal_line

from test_fast_paths import MEMBERS, _outcome
from test_grid_oracle import float_reference


def bits(pt):
    return pt.x.hex(), pt.y.hex()


def line_bits(line):
    return line.a.hex(), line.b.hex(), line.c.hex()


# (label, polygon): an ellipse member, a hyperbola member with vertices and
# tangency points on the far branch, a theta > pi/2 star, and two large n.
CLOSED = [
    ("ellipse", synthesize(0.75, 0.5, 2.0 * math.pi / 12, 0.3, 12)),
    ("hyperbola_far_branch", synthesize(0.3, 20.0, 2.0 * math.pi / 7, 0.3, 7)),
    ("obtuse_star", synthesize(0.6, 0.9, 2.0 * math.pi * 5 / 12, 0.3, 12)),
    ("star_w3", synthesize(-0.4, 1.7, 2.0 * math.pi * 3 / 7, 1.1, 7)),
    ("large_even", synthesize(0.3, 20.0, 2.0 * math.pi / 240, 0.3, 240)),
    ("large_odd", synthesize(0.75, 0.5, 2.0 * math.pi / 241, 0.3, 241)),
]


def _far_branch(p, points):
    return any(1.0 + p * v.x < 0.0 for v in points)


def test_the_hyperbola_case_reaches_the_far_branch():
    d = dict(CLOSED)["hyperbola_far_branch"]
    assert _far_branch(d.p, d.vertices) and _far_branch(d.p, tangency_points(d).vertices)
    assert dict(CLOSED)["obtuse_star"].theta > math.pi / 2


@pytest.mark.parametrize("label, d", CLOSED, ids=[label for label, _ in CLOSED])
def test_tangency_point_is_the_tangency_polygon_vertex(label, d):
    d = replace(d)  # a fresh cache
    got = {j: bits(d.tangency_point(j)) for j in range(-d.n, 2 * d.n + 1)}
    assert "tangency" not in vars(d)
    m = tangency_points(d)
    assert got == {j: bits(m.vertex(j)) for j in got}


def test_tangency_point_on_an_open_chain_raises_where_side_does():
    chain = synthesize(0.5, 1.0, 1.0, 0.0, 5)
    m = tangency_points(chain)
    assert not chain.closed and not m.closed
    for j in range(-chain.n, 2 * chain.n + 1):
        try:
            chain.side(j)
        except IndexError:
            with pytest.raises(IndexError):
                chain.tangency_point(j)
        else:
            assert bits(chain.tangency_point(j)) == bits(m.vertex(j))


@pytest.mark.parametrize("label, p, t", MEMBERS)
def test_check_grid_raises_what_its_synthesize_call_raises(label, p, t):
    d = synthesize(p, t, 2.0 * math.pi / 8, 0.3, 8)
    bad = [  # each still closed, so grid_layer builds the layer
        (replace(d, theta=d.theta + 2.0 * math.pi), AngleOutOfRange),
        (replace(d, theta=2.0 * math.pi - d.theta), AngleOutOfRange),
        (replace(d, t=1.7e308), NonFiniteParameter),  # the layer's t overflows
    ]
    for poly, expected in bad:
        raised = []
        for k in range(1, poly.n - 1):
            want = _outcome(float_reference, poly, k)  # the synthesize call check_grid made
            got = _outcome(check_grid, poly, k)
            if isinstance(want, type):
                assert got is want, (k, got, want)
                raised.append(want)
            else:
                assert not isinstance(got, type), (k, got)
        assert expected in raised


def parent_directed_angle(f, a, b):
    """directed_angle as it was: both rays checked, then two atan2 calls."""
    if distance(f, a) < DEGENERACY_EPS or distance(f, b) < DEGENERACY_EPS:
        raise DegenerateRay("ray endpoint coincides with the vertex")
    ang_a = math.atan2(a.y - f.y, a.x - f.x)
    ang_b = math.atan2(b.y - f.y, b.x - f.x)
    return normalize_angle(ang_b - ang_a)


def test_directed_angle_keeps_its_bits():
    rng = random.Random(23)
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-6, 6)
        f, a, b = (Point(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale) for _ in range(3))
        assert directed_angle(f, a, b).hex() == parent_directed_angle(f, a, b).hex()
    for _, d in CLOSED:
        f = d.focus
        for u, v in zip(d.vertices, d.vertices[1:] + d.vertices[:1]):
            assert directed_angle(f, u, v).hex() == parent_directed_angle(f, u, v).hex()


@pytest.mark.parametrize("near", [0.0, 1e-13])
def test_directed_angle_raises_from_either_endpoint(near):
    f = Point(0.3, -0.2)
    on_f = Point(f.x + near, f.y)
    far = Point(1.0, 2.0)
    for a, b in ((on_f, far), (far, on_f), (on_f, on_f)):
        with pytest.raises(DegenerateRay):
            directed_angle(f, a, b)
    with pytest.raises(DegenerateRay):
        ray_angle(f, on_f)
    assert ray_angle(f, far) == math.atan2(far.y - f.y, far.x - f.x)


def parent_pascal_steps(d):
    """check_pascal_line's angle residuals as they were, through directed_angle
    on Points at the K_i."""
    indexed, _ = _indexed_opposite_intersections(d)
    steps = []
    for (i1, k1), (i2, k2) in zip(indexed, indexed[1:]):
        delta = directed_angle(d.focus, Point(*k1), Point(*k2))
        expected = (i2 - i1) * d.theta
        steps.append(min(abs(wrapped_diff(delta, expected)),
                         abs(wrapped_diff(delta, expected - math.pi))))
    return steps


EVEN = [(p, t, n, w) for _, p, t in MEMBERS for n, w in [(8, 1), (12, 1), (10, 3), (240, 1)]]


@pytest.mark.parametrize("p, t, n, w", EVEN)
def test_pascal_line_angle_steps_keep_their_bits(p, t, n, w):
    d = synthesize(p, t, 2.0 * math.pi * w / n, 0.3, n)
    report = _outcome(check_pascal_line, d)
    if isinstance(report, type):
        assert report is _outcome(parent_pascal_steps, d)
        return
    steps = parent_pascal_steps(d)
    assert [r.hex() for r in report.residuals[len(report.residuals) - len(steps):]] == [
        s.hex() for s in steps]


@pytest.mark.parametrize("label, d", CLOSED, ids=[label for label, _ in CLOSED])
def test_sides_and_diagonal_chords_keep_their_bits(label, d):
    d = replace(d)
    assert [line_bits(s) for s in d.sides] == [
        line_bits(line_through(d.vertex(i), d.vertex(i + 1))) for i in range(1, d.num_sides + 1)]
    f = d.focus
    if d.n % 2 == 0:
        chords = [(d.vertex(j), d.vertex(j + d.n // 2)) for j in range(1, d.n // 2 + 1)]
    else:
        m = tangency_points(d)
        chords = [(d.vertex(j), m.vertex(j + (d.n - 1) // 2)) for j in range(1, d.n + 1)]
    want = []
    for u, v in chords:
        a, b, c = coefficients_through(u, v)
        want.append(abs(a * f.x + b * f.y + c))
    assert [r.hex() for r in check_diagonals(d).residuals] == [r.hex() for r in want]
