"""check_projective_regular maps coordinate pairs, not throwaway Points.

kernel.map_points_xy maps many points to (x, y) pairs; map_xy (one pair)
and apply_map (one Point) wrap it, so the map has one home.  The check maps
its vertices in one map_points_xy call and builds no Point; its residuals
must equal, bit for bit, the distance between apply_map of each vertex,
scaled to radius 1, and the Point on the regular polygon.
"""

import math

import pytest

from discreteconics import verify
from discreteconics.errors import PointAtInfinity
from discreteconics.kernel import (Point, ProjectiveMap, apply_map, distance, map_xy,
                                   projective_from_correspondences)
from discreteconics.polygon import DiscreteConic, synthesize
from discreteconics.verify import check_projective_regular


def _inverse_homology(p):
    return ProjectiveMap(((1, 0, p), (0, 1, 0), (p, 0, 1)))


def reference_residuals(d):
    """The Point path: every target a Point, every image through apply_map."""
    m = _inverse_homology(d.p)
    r = math.sqrt(d.t)
    residuals = []
    for j, v in enumerate(d.vertices):
        image = apply_map(m, v)
        a = d.phi + j * d.theta
        residuals.append(distance(Point(image.x / r, image.y / r), Point(math.cos(a), math.sin(a))))
    return residuals


POLYGONS = {
    "p_near_minus_1_n960": synthesize(-0.9999, 1.2, 2.0 * math.pi / 960, 0.3, 960),
    "winding_5_star": synthesize(0.5, 1.0, 5 * 2.0 * math.pi / 12, 0.3, 12),
    "winding_5_star_hyperbola": synthesize(0.3, 20.0, 5 * 2.0 * math.pi / 11, 0.3, 11),
    "ellipse_n480": synthesize(0.75, 0.5, 2.0 * math.pi / 480, 0.3, 480),
}


@pytest.mark.parametrize("name", POLYGONS)
def test_residuals_equal_the_point_path_bit_for_bit(name):
    d = POLYGONS[name]
    report = check_projective_regular(d)
    assert list(report.residuals) == reference_residuals(d)
    assert report.metadata == {"winding": d.winding}


def test_the_batch_map_gets_every_vertex_with_the_inverse_homology(monkeypatch):
    d = POLYGONS["winding_5_star"]
    calls = []
    real = verify.map_points_xy

    def recorded(m, points):
        points = list(points)
        calls.append((m, points))
        return real(m, points)

    monkeypatch.setattr(verify, "map_points_xy", recorded)
    check_projective_regular(d)
    assert len(calls) == 1
    m, points = calls[0]
    assert len(points) == d.n and all(p is v for p, v in zip(points, d.vertices))
    assert m.m == _inverse_homology(d.p).m


@pytest.mark.parametrize("name", POLYGONS)
def test_apply_map_is_map_xy_in_a_point(name):
    d = POLYGONS[name]
    target = [Point(math.cos(2.0 * math.pi * j / 5), math.sin(2.0 * math.pi * j / 5))
              for j in range(4)]
    m = projective_from_correspondences(list(d.vertices[:4]), target)
    for v in d.vertices[::7]:
        image = apply_map(m, v)
        assert map_xy(m, v.x, v.y) == (image.x, image.y)
        assert all(type(c) is float for c in map_xy(m, v.x, v.y))


def test_a_numpy_map_gives_the_same_verdict(monkeypatch):
    np = pytest.importorskip("numpy")

    def numpy_map_xy(m, x, y):
        hx, hy, hw = np.array(m.m) @ np.array([x, y, 1.0])
        return float(hx / hw), float(hy / hw)

    def numpy_map_points_xy(m, points):
        return [numpy_map_xy(m, v.x, v.y) for v in points]

    for d in POLYGONS.values():
        fast = check_projective_regular(d)
        with monkeypatch.context() as patch:
            patch.setattr(verify, "map_points_xy", numpy_map_points_xy)
            slow = check_projective_regular(d)
        assert slow.passed == fast.passed
        assert max(abs(a - b) for a, b in zip(slow.residuals, fast.residuals)) < 1e-9


def _vanishing_polygon():
    """A closed pentagon whose fifth vertex lies on the vanishing line of
    the map fitted to the first four."""
    base = synthesize(0.5, 1.0, 2.0 * math.pi / 5, 0.3, 5)
    target = [Point(math.cos(2.0 * math.pi * j / 5), math.sin(2.0 * math.pi * j / 5))
              for j in range(4)]
    m = projective_from_correspondences(list(base.vertices[:4]), target)
    g, h, i = m.m[2]
    x = 0.25
    fifth = Point(x, -(g * x + i) / h)
    return DiscreteConic(base.p, base.t, base.theta, base.phi, base.vertices[:4] + (fifth,)), m


def test_point_at_infinity_is_raised_where_apply_map_raises():
    d, m = _vanishing_polygon()
    fifth = d.vertices[4]
    with pytest.raises(PointAtInfinity) as by_point:
        apply_map(m, fifth)
    with pytest.raises(PointAtInfinity) as by_pair:
        map_xy(m, fifth.x, fifth.y)
    assert str(by_pair.value) == str(by_point.value) == f"{fifth} maps to the vanishing line"
    with pytest.raises(PointAtInfinity, match="vanishing line"):
        check_projective_regular(d)
