"""Each batch kernel against its scalar form, bit for bit and error for error.

The per-element loops of a large-n op each make one batch call:
line_coefficients (the side lines) against line_through, intersections_xy
(grid layers and opposite-side intersections) against intersect_lines,
map_points_xy (projective_regular) against map_xy as it was written
before it became map_points_xy's one-element wrapper, ray_angles (the
Pascal intersections' focal angles) against ray_angle,
points_at_xy (synthesize) against point_at, and the render's vertex
attribute against the pair formatter.  Hypothesis draws members and
polygons from the benchmark's sweep pencil (ellipses, hyperbola members,
both sides of the parabola, the circle, |p| near 1; n in [5, 40], convex
and star) and its large_n pencil (ellipse and hyperbola members, n in
{240, 480, 960}).  Every value must have the scalar's bits, and every
error the scalar's type and message at the scalar's index: a batch that
raises on items[:i + 1] must return the scalar's values on items[:i].
The checks that use the batches are compared with their scalar routes too.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discreteconics.errors import (AllOppositeSidesParallel, CoincidentPoints, DegenerateRay,
                                   ParallelLines, PointAtInfinity)
from discreteconics.kernel import (
    DEGENERACY_EPS,
    Line,
    Point,
    ProjectiveMap,
    directed_angle,
    intersect_lines,
    intersections_xy,
    line_coefficients,
    line_through,
    map_points_xy,
    map_xy,
    normalize_angle,
    ray_angle,
    ray_angles,
    wrapped_diff,
)
from discreteconics.pencil import pencil_member, point_at, points_at_xy
from discreteconics.polygon import (DiscreteConic, grid_layer, opposite_side_intersections,
                                    synthesize)
from discreteconics.render import _points_attr, _vertices_attr
from discreteconics.verify import check_pascal_line, check_projective_regular

SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)


# ---------------------------------------------------------------------------
# Outcomes: values up to the first error, and that error


def scalar_outcome(fn, items):
    """fn of each item up to the first that raises, and (type, message) of
    that exception."""
    values = []
    for item in items:
        try:
            values.append(fn(item))
        except Exception as exc:
            return values, (type(exc), str(exc))
    return values, None


def batch_outcome(batch, items):
    """batch(items) and no error, or the longest prefix batch accepts, its
    values, and (type, message) of what batch raises on one item more."""
    items = list(items)
    try:
        return list(batch(items)), None
    except Exception as exc:
        whole = (type(exc), str(exc))
    for i in range(len(items)):
        try:
            batch(items[:i + 1])
        except Exception as exc:
            assert (type(exc), str(exc)) == whole  # the same error, wherever the batch ends
            return list(batch(items[:i])), whole
    raise AssertionError("the batch raised on the whole list only")


def bits(value):
    """Hex floats of a value, a tuple of floats or None, for exact comparison."""
    if value is None:
        return None
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return float(value).hex()


def same_outcome(got, want):
    assert [bits(v) for v in got[0]] == [bits(v) for v in want[0]]
    assert got[1] == want[1]


# ---------------------------------------------------------------------------
# The scalar routes the batches replaced


def reference_ray_angle(f, a):
    """ray_angle as it was written before ray_angles."""
    if math.hypot(f.x - a.x, f.y - a.y) < DEGENERACY_EPS:
        raise DegenerateRay("ray endpoint coincides with the vertex")
    return math.atan2(a.y - f.y, a.x - f.x)


def reference_intersect_lines(l1, l2):
    """intersect_lines as it was written before intersections_xy took Lines."""
    a1, b1, c1 = l1 if type(l1) is tuple else (l1.a, l1.b, l1.c)
    a2, b2, c2 = l2 if type(l2) is tuple else (l2.a, l2.b, l2.c)
    det = a1 * b2 - a2 * b1
    if abs(det) < DEGENERACY_EPS:
        raise ParallelLines(f"lines {l1} and {l2} are parallel")
    z = Point((b1 * c2 - b2 * c1) / det, (a2 * c1 - a1 * c2) / det)
    return (z.x, z.y)


def reference_map_xy(m, x, y):
    """map_xy as it was written before map_points_xy."""
    (a, b, c), (d, e, f), (g, h, i) = m.m
    hx = a * x + b * y + c
    hy = d * x + e * y + f
    hw = g * x + h * y + i
    if abs(hw) < DEGENERACY_EPS * max(1.0, abs(hx), abs(hy)):
        raise PointAtInfinity(f"{Point(x, y)} maps to the vanishing line")
    return hx / hw, hy / hw


def reference_incidence(p, l1, l2):
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = p * (b1 * c2 - b2 * c1) + a1 * b2 - a2 * b1
    return abs(det) / (math.hypot(a1, b1, c1) * math.hypot(a2, b2, c2) * math.hypot(p, 1.0))


def line_triple(pair):
    line = line_through(*pair)
    return (line.a, line.b, line.c)


def batch_lines(pairs):
    return line_coefficients([u for u, _ in pairs], [v for _, v in pairs])


def reference_sides(d):
    v = d.vertices
    following = v[1:] + v[:1] if d.closed else v[1:]
    return [line_triple(pair) for pair in zip(v, following)]


def reference_pascal_residuals(d):
    """check_pascal_line's residuals by the scalar route: a Point per
    intersection from intersect_lines, a ray_angle per Point."""
    s, m = reference_sides(d), d.n // 2
    indexed = []
    for i in range(1, m + 1):
        try:
            indexed.append((i, intersect_lines(s[i - 1], s[i - 1 + m])))
        except ParallelLines:
            continue
    if len(indexed) < 2:
        raise AllOppositeSidesParallel("all opposite side pairs are parallel")
    residuals = [reference_incidence(d.p, s[i - 1], s[i - 1 + m]) for i, _ in indexed]
    rays = [(i, reference_ray_angle(d.focus, k)) for i, k in indexed]
    for (i1, a1), (i2, a2) in zip(rays, rays[1:]):
        delta = normalize_angle(a2 - a1)
        expected = (i2 - i1) * d.theta
        residuals.append(min(abs(wrapped_diff(delta, expected)),
                             abs(wrapped_diff(delta, expected - math.pi))))
    return residuals


def reference_projective_residuals(d):
    m = ProjectiveMap(((1.0, 0.0, d.p), (0.0, 1.0, 0.0), (d.p, 0.0, 1.0)))
    r = math.sqrt(d.t)
    residuals = []
    for j, v in enumerate(d.vertices):
        x, y = reference_map_xy(m, v.x, v.y)
        a = d.phi + j * d.theta
        residuals.append(math.hypot(x / r - math.cos(a), y / r - math.sin(a)))
    return residuals


def reference_layer(d, k):
    """grid_layer's vertices by one intersect_lines call per pair, with its
    parallel message."""
    s = reference_sides(d)
    try:
        return [intersect_lines(s[i], s[(i + k) % d.n]) for i in range(d.n)]
    except ParallelLines:
        raise ParallelLines(f"side lines {k} apart are parallel; for opposite sides use "
                            "opposite_side_intersections")


def call_outcome(fn, *args):
    """fn's value, or (type, message) of what it raises."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, (type(exc), str(exc))


# ---------------------------------------------------------------------------
# The benchmark's pencils


def _signed(magnitude):
    return st.tuples(st.sampled_from((1.0, -1.0)), magnitude).map(lambda sm: sm[0] * sm[1])


def _conic(e2):
    """A member with p^2 t = e2, |p| in [0.1, 0.95]."""
    return st.tuples(_signed(st.floats(0.1, 0.95)), e2).map(lambda pe: (pe[0], pe[1] / pe[0] ** 2))


ELLIPSE = _conic(st.floats(0.01, 0.9))
HYPERBOLA = _conic(st.floats(1.05, 4.0))
NEAR_PARABOLA = _conic(st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-6.0, -2.0)).map(
    lambda se: 1.0 + se[0] * 10.0 ** se[1]))
CIRCLE = st.floats(0.1, 4.0).map(lambda t: (0.0, t))
P_NEAR_1 = st.tuples(_signed(st.floats(0.99, 0.9999)), st.floats(0.25, 0.95))

SWEEP_MEMBERS = st.one_of(ELLIPSE, HYPERBOLA, NEAR_PARABOLA, CIRCLE, P_NEAR_1)
LARGE_N_MEMBERS = st.one_of(ELLIPSE, HYPERBOLA)


@st.composite
def sweep_polygons(draw):
    p, t = draw(SWEEP_MEMBERS)
    n = draw(st.integers(5, 40))
    w = draw(st.sampled_from([w for w in range(1, (n + 1) // 2) if math.gcd(w, n) == 1]))
    return p, t, 2.0 * math.pi * w / n, draw(st.floats(0.0, 2.0 * math.pi)), n


@st.composite
def large_n_polygons(draw):
    p, t = draw(LARGE_N_MEMBERS)
    n = draw(st.sampled_from((240, 480, 960)))
    return p, t, 2.0 * math.pi / n, draw(st.floats(0.0, 2.0 * math.pi)), n


POLYGONS = st.one_of(sweep_polygons(), large_n_polygons())


def _synthesized(args):
    """synthesize(*args), or None where the scalar point_at route raises."""
    p, t, theta, phi, n = args
    try:
        return synthesize(p, t, theta, phi, n)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Bit for bit on the pencils


@SETTINGS
@given(args=POLYGONS)
def test_points_at_xy_is_point_at(args):
    p, t, theta, phi, n = args
    c = pencil_member(p, t)
    alphas = [phi + j * theta for j in range(n)]
    want = scalar_outcome(lambda a: point_at(c, a), alphas)
    got = batch_outcome(lambda items: [Point(*xy) for xy in points_at_xy(c, items)], alphas)
    same_outcome(([(v.x, v.y) for v in got[0]], got[1]), ([(v.x, v.y) for v in want[0]], want[1]))
    if want[1] is None:
        d = synthesize(p, t, theta, phi, n)
        assert [bits((v.x, v.y)) for v in d.vertices] == [bits((v.x, v.y)) for v in want[0]]


@SETTINGS
@given(args=POLYGONS)
def test_line_coefficients_are_line_through(args):
    d = _synthesized(args)
    if d is None:
        return
    v = d.vertices
    pairs = list(zip(v, v[1:] + v[:1]))
    want = scalar_outcome(line_triple, pairs)
    got = batch_outcome(batch_lines, pairs)
    same_outcome(got, want)
    if want[1] is None:
        assert [bits(s) for s in d.side_coefficients] == [bits(s) for s in want[0]]


@SETTINGS
@given(args=POLYGONS, data=st.data())
def test_intersections_xy_are_intersect_lines(args, data):
    d = _synthesized(args)
    if d is None or not d.closed:
        return
    k = data.draw(st.integers(1, d.n - 2))
    s = d.side_coefficients
    pairs = list(zip(s, s[k:] + s[:k]))

    def scalar(pair):
        z = intersect_lines(*pair)
        return (z.x, z.y)

    def skipping(pair):
        try:
            return scalar(pair)
        except ParallelLines:
            return None

    def batch(items, **kwargs):
        return intersections_xy([a for a, _ in items], [b for _, b in items], **kwargs)

    same_outcome(batch_outcome(batch, pairs), scalar_outcome(scalar, pairs))
    same_outcome(batch_outcome(lambda items: batch(items, skip_parallel=True), pairs),
                 scalar_outcome(skipping, pairs))
    layer, error = call_outcome(grid_layer, d, k)
    ref, ref_error = call_outcome(reference_layer, d, k)
    if error is None:
        assert [bits((z.x, z.y)) for z in layer.vertices] == [bits((z.x, z.y)) for z in ref]
    elif ref_error is not None and error[0] is ParallelLines:
        assert error == ref_error


@SETTINGS
@given(args=POLYGONS, data=st.data())
def test_intersections_xy_on_lines_are_intersect_lines(args, data):
    d = _synthesized(args)
    if d is None or not d.closed:
        return
    k = data.draw(st.integers(1, d.n - 2))
    lines = list(d.sides)
    pairs = list(zip(lines, lines[k:] + lines[:k]))
    i = data.draw(st.integers(0, len(pairs)))
    a, b, c = d.side_coefficients[i % d.n]
    pairs.insert(i, data.draw(st.sampled_from([
        None,
        (Line(a, b, c), Line(a, b, c + 1.0)),  # ParallelLines, named as Lines
        (Line(1.0, 0.0, -1e300), (1.0, 1e-11, 0.0)),  # y = -1e311, a Line with a tuple
    ])))
    pairs = [pair for pair in pairs if pair is not None]

    def scalar(pair):
        z = intersect_lines(*pair)
        return (z.x, z.y)

    def batch(items):
        return intersections_xy([l1 for l1, _ in items], [l2 for _, l2 in items])

    want = scalar_outcome(lambda pair: reference_intersect_lines(*pair), pairs)
    same_outcome(batch_outcome(batch, pairs), want)
    same_outcome(scalar_outcome(scalar, pairs), want)
    if want[1] is not None and want[1][0] is ParallelLines:
        assert want[1][1].startswith("lines Line(a=")


def test_a_parallel_pair_is_named_as_each_line_was_given():
    l1, l2 = Line(1.0, 0.0, 0.5), Line(1.0, 0.0, -0.5)
    for pair in ((l1, l2), ((1.0, 0.0, 0.5), l2), (l1, (1.0, 0.0, -0.5))):
        want = (ParallelLines, f"lines {pair[0]} and {pair[1]} are parallel")
        assert call_outcome(intersections_xy, [pair[0]], [pair[1]])[1] == want
        assert call_outcome(intersect_lines, *pair)[1] == want
        assert call_outcome(reference_intersect_lines, *pair)[1] == want
    assert intersections_xy([l1], [l2], skip_parallel=True) == [None]


@SETTINGS
@given(args=POLYGONS)
def test_map_points_xy_is_map_xy(args):
    d = _synthesized(args)
    if d is None:
        return
    m = ProjectiveMap(((1.0, 0.0, d.p), (0.0, 1.0, 0.0), (d.p, 0.0, 1.0)))
    verts = list(d.vertices)
    want = scalar_outcome(lambda v: reference_map_xy(m, v.x, v.y), verts)
    same_outcome(batch_outcome(lambda items: map_points_xy(m, items), verts), want)
    same_outcome(scalar_outcome(lambda v: map_xy(m, v.x, v.y), verts), want)
    if d.closed:
        got = call_outcome(lambda: check_projective_regular(d).residuals)
        want = call_outcome(reference_projective_residuals, d)
        assert got[1] == want[1]
        if got[1] is None:
            assert [bits(r) for r in got[0]] == [bits(r) for r in want[0]]


@SETTINGS
@given(args=POLYGONS)
def test_pascal_line_is_the_scalar_route(args):
    d = _synthesized(args)
    if d is None or not d.closed or d.n % 2:
        return
    got = call_outcome(lambda: check_pascal_line(d).residuals)
    want = call_outcome(reference_pascal_residuals, d)
    assert got[1] == want[1]
    if got[1] is None:
        assert [bits(r) for r in got[0]] == [bits(r) for r in want[0]]
        points, _ = opposite_side_intersections(d)
        f = d.focus
        xys = [(k.x, k.y) for k in points]
        assert [bits(a) for a in ray_angles((f.x, f.y), xys)] == [
            bits(reference_ray_angle(f, k)) for k in points]
        assert [bits(ray_angle(f, k)) for k in points] == [
            bits(reference_ray_angle(f, k)) for k in points]


@SETTINGS
@given(args=POLYGONS)
def test_vertices_attr_is_the_pair_format(args):
    d = _synthesized(args)
    if d is None:
        return
    assert _vertices_attr(d.vertices) == _points_attr((v.x, v.y) for v in d.vertices)


def test_directed_angle_is_two_reference_rays():
    d = synthesize(0.75, 0.5, 2.0 * math.pi / 240, 0.3, 240)
    f = Point(0.1, -0.2)
    for a, b in zip(d.vertices, d.vertices[7:]):
        want = normalize_angle(reference_ray_angle(f, b) - reference_ray_angle(f, a))
        assert directed_angle(f, a, b).hex() == want.hex()
    for a, b in ((f, d.vertices[0]), (d.vertices[0], f)):
        with pytest.raises(DegenerateRay, match="ray endpoint coincides with the vertex"):
            directed_angle(f, a, b)


# ---------------------------------------------------------------------------
# Errors at the scalar index: one bad item put into a list drawn from the pencils

TOP = sys.float_info.max


def _sides_and_index(data):
    d = data.draw(POLYGONS.map(_synthesized).filter(lambda d: d is not None and d.closed))
    s = list(d.side_coefficients)
    return d, s, data.draw(st.integers(0, len(s) - 1))


@SETTINGS
@given(data=st.data())
def test_line_coefficients_raise_at_the_scalar_index(data):
    d, _, i = _sides_and_index(data)
    v = list(d.vertices)
    us, vs = v, v[1:] + v[:1]
    bad = data.draw(st.sampled_from([
        (v[i], v[i]),  # CoincidentPoints
        (Point(1e200, 1e200), Point(-1e200, 1e200)),  # c = 1e400: non-finite coefficients
        (Point(TOP, 0.3), Point(TOP, 0.4)),  # the normalized c overflows
    ]))
    us, vs = us[:i] + [bad[0]] + us[i:], vs[:i] + [bad[1]] + vs[i:]
    pairs = list(zip(us, vs))
    want = scalar_outcome(line_triple, pairs)
    got = batch_outcome(batch_lines, pairs)
    assert want[1] is not None and want[1][0] in (CoincidentPoints, ValueError)
    assert len(want[0]) == i
    same_outcome(got, want)


@SETTINGS
@given(data=st.data())
def test_intersections_xy_raise_at_the_scalar_index(data):
    d, s, i = _sides_and_index(data)
    a, b, c = s[i]
    bad = data.draw(st.sampled_from([
        ((a, b, c), (a, b, c + 1.0)),  # ParallelLines
        ((1.0, 0.0, -1e300), (1.0, 1e-11, 0.0)),  # y = -1e311: non-finite coordinates
    ]))
    firsts, seconds = s[:i] + [bad[0]] + s[i:], s[1:i + 1] + [bad[1]] + s[i + 1:] + s[:1]
    pairs = list(zip(firsts, seconds))

    def scalar(pair):
        z = intersect_lines(*pair)
        return (z.x, z.y)

    def batch(items, **kwargs):
        return intersections_xy([p for p, _ in items], [q for _, q in items], **kwargs)

    want = scalar_outcome(scalar, pairs)
    assert want[1] is not None and want[1][0] in (ParallelLines, ValueError)
    if want[1][0] is ValueError:
        assert want[1][1].startswith("non-finite coordinates (")
    same_outcome(batch_outcome(batch, pairs), want)
    if want[1][0] is ParallelLines:  # skipped, with the pairs after it still met
        skipped = batch(pairs, skip_parallel=True)
        assert skipped[len(want[0])] is None
        assert [bits(z) for z in skipped[:len(want[0])]] == [bits(z) for z in want[0]]


@SETTINGS
@given(data=st.data())
def test_map_points_xy_raise_at_the_scalar_index(data):
    d, _, i = _sides_and_index(data)
    if d.p == 0.0:
        return  # the inverse homology of the circle member has no vanishing line
    m = ProjectiveMap(((1.0, 0.0, d.p), (0.0, 1.0, 0.0), (d.p, 0.0, 1.0)))
    verts = list(d.vertices)
    bad = data.draw(st.sampled_from([
        Point(-1.0 / d.p, data.draw(st.floats(-5.0, 5.0))),  # on x = -1/p
        # 1e-9 off it, far out: |hw| is below 1e-12 * |hy| only.
        Point(-1.0 / d.p + 1e-9, data.draw(st.sampled_from((-1.0, 1.0))) * 1e6),
    ]))
    verts.insert(i, bad)
    want = scalar_outcome(lambda v: reference_map_xy(m, v.x, v.y), verts)
    assert want[1] is not None and want[1][0] is PointAtInfinity and len(want[0]) == i
    assert want[1][1] == f"{verts[i]} maps to the vanishing line"
    same_outcome(batch_outcome(lambda items: map_points_xy(m, items), verts), want)
    same_outcome(scalar_outcome(lambda v: map_xy(m, v.x, v.y), verts), want)


@SETTINGS
@given(data=st.data())
def test_ray_angles_raise_at_the_scalar_index(data):
    d, _, i = _sides_and_index(data)
    f = d.focus
    points = list(d.vertices)
    points.insert(i, Point(f.x + data.draw(st.floats(-1e-13, 1e-13)), f.y))
    want = scalar_outcome(lambda k: reference_ray_angle(f, k), points)
    assert want[1] == (DegenerateRay, "ray endpoint coincides with the vertex")
    got = batch_outcome(lambda items: ray_angles((f.x, f.y), [(k.x, k.y) for k in items]), points)
    same_outcome(got, want)
    assert scalar_outcome(lambda k: ray_angle(f, k), points) == want


# ---------------------------------------------------------------------------
# The checks raise what their scalar routes raised


def test_grid_layer_keeps_its_parallel_message_through_the_batch():
    # theta = 2*pi/3 on n = 6 walks a triangle twice: sides 3 apart coincide,
    # with cos(3*theta/2) = -1, so the batch meet finds them.
    d = synthesize(0.5, 1.0, 2.0 * math.pi / 3, 0.3, 6)
    got = call_outcome(grid_layer, d, 3)
    assert got[1] == call_outcome(reference_layer, d, 3)[1]
    assert got[1] == (ParallelLines, "side lines 3 apart are parallel; for opposite sides use "
                                     "opposite_side_intersections")


def _quadrilateral(p, *vertices):
    """A closed four-vertex polygon with the given vertices (theta = pi/2)."""
    return DiscreteConic(p, 1.0, math.pi / 2, 0.0, tuple(Point(x, y) for x, y in vertices))


def test_a_far_intersection_raises_the_point_error_in_pascal_line():
    # S_1 is x = 1e300 and S_3 nearly vertical through the origin, so K_1
    # has y near -1e311; S_2 and S_4 are parallel and skipped.
    d = _quadrilateral(0.5, (1e300, 0.0), (1e300, 1.0), (0.0, 1.0), (1e-11, 0.0))
    got = call_outcome(check_pascal_line, d)
    assert got[1] == call_outcome(reference_pascal_residuals, d)[1]
    assert got[1][0] is ValueError and got[1][1].startswith("non-finite coordinates (1e+300, ")
    assert call_outcome(opposite_side_intersections, d)[1] == got[1]


def test_an_intersection_at_the_focus_raises_degenerate_ray_in_pascal_line():
    # S_1 (y = 0) and S_3 (x = -1/2) meet at the focus (-1/2, 0).
    d = _quadrilateral(0.5, (0.5, 0.0), (1.5, 0.0), (-0.5, 2.0), (-0.5, 0.5))
    got = call_outcome(check_pascal_line, d)
    assert got[1] == call_outcome(reference_pascal_residuals, d)[1]
    assert got[1] == (DegenerateRay, "ray endpoint coincides with the vertex")


def test_a_vertex_on_the_vanishing_line_raises_in_projective_regular():
    base = synthesize(0.5, 1.0, 2.0 * math.pi / 8, 0.3, 8)
    verts = list(base.vertices)
    verts[5] = Point(-2.0, 0.7)  # on x = -1/p
    d = DiscreteConic(base.p, base.t, base.theta, base.phi, tuple(verts))
    got = call_outcome(check_projective_regular, d)
    assert got[1] == call_outcome(reference_projective_residuals, d)[1]
    assert got[1] == (PointAtInfinity, f"{verts[5]} maps to the vanishing line")


def test_a_coincident_or_overflowing_side_raises_the_line_error():
    base = synthesize(0.75, 0.5, 2.0 * math.pi / 12, 0.3, 12)
    for bad in ((base.vertices[3], base.vertices[3]), (Point(TOP, 0.3), Point(TOP, 0.4))):
        verts = list(base.vertices)
        verts[3:5] = bad
        d = DiscreteConic(base.p, base.t, base.theta, base.phi, tuple(verts))
        got = call_outcome(lambda: d.side_coefficients)
        assert got[1] is not None and got[1] == call_outcome(reference_sides, d)[1]
