"""Fast paths of the verification inner loops against the code they replaced.

The reference implementations below are the earlier library versions, kept
here only as oracles: the numpy det*inv adjugate and the numpy matrix-vector
projective map.  The earlier grid correspondence is in test_grid_oracle.py.
"""

import math

import numpy as np
import pytest

from discreteconics import group, polygon, verify
from discreteconics.errors import GeometryError
from discreteconics.kernel import Line, Point, apply_map, distance, projective_from_correspondences
from discreteconics.pencil import (
    normalized_adjugate,
    pencil_member,
    quadratic_form,
    tangency_residual,
)
from discreteconics.polygon import synthesize
from discreteconics.verify import _inner_member, check_grid, check_poncelet, check_projective_regular

EPS = 2.0**-52

# (label, p, t) over the whole pencil.
MEMBERS = [
    ("ellipse", 0.75, 0.5),
    ("ellipse_neg_p", -0.4, 1.7),
    ("hyperbola", 0.3, 20.0),
    ("hyperbola_near_limit", 0.75, 2.6667),
    ("near_parabola_ellipse_side", 0.6, (1.0 - 1e-4) / 0.36),
    ("near_parabola_hyperbola_side", 0.6, (1.0 + 1e-4) / 0.36),
    ("circle", 0.0, 0.7),
    ("p_near_1", 0.999, 0.9),
    ("p_near_minus_1", -0.9999, 1.2),
]

# (n, winding): convex polygons and acute stars (theta < pi/2).
POLYGONS = [(7, 1), (8, 1), (11, 1), (12, 1), (9, 2), (11, 2), (13, 3)]

CASES = [
    pytest.param(p, t, n, w, id=f"{label}-n{n}-w{w}")
    for label, p, t in MEMBERS
    for n, w in POLYGONS
]


def _polygon(p, t, n, w):
    return synthesize(p, t, 2.0 * math.pi * w / n, 0.3, n)


def reference_adjugate(c):
    q = quadratic_form(c)
    m = np.array(
        [
            [q.A, q.B / 2.0, q.D / 2.0],
            [q.B / 2.0, q.C, q.E / 2.0],
            [q.D / 2.0, q.E / 2.0, q.G],
        ]
    )
    adj = np.linalg.det(m) * np.linalg.inv(m)
    return adj / np.max(np.abs(adj))


def reference_tangency_residual(c, line):
    l = np.array([line.a, line.b, line.c])
    return abs(l @ reference_adjugate(c) @ l) / (1.0 + line.c * line.c)


def reference_apply_map(m, p):
    h = np.array(m.m) @ np.array([p.x, p.y, 1.0])
    if abs(h[2]) < 1e-12 * max(1.0, abs(h[0]), abs(h[1])):
        raise GeometryError("vanishing line")
    return Point(h[0] / h[2], h[1] / h[2])


def reference_map_xy(m, x, y):
    """reference_apply_map as map_xy's coordinate pair."""
    q = reference_apply_map(m, Point(x, y))
    return q.x, q.y


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (GeometryError, ValueError) as exc:
        return type(exc)


def test_grid_cases_cover_k_above_half_n():
    """k above n/2 must be exercised by passing reports."""
    covered = 0
    for _, p, t in MEMBERS:
        for n, w in POLYGONS:
            d = _polygon(p, t, n, w)
            for k in range(n // 2 + 1, n - 1):
                report = _outcome(check_grid, d, k)
                covered += not isinstance(report, type) and report.passed
    assert covered >= 100


@pytest.mark.parametrize("label, p, t", MEMBERS)
def test_adjugate_matches_det_inv(label, p, t):
    c = pencil_member(p, t)
    got = np.array(normalized_adjugate(c))
    assert np.max(np.abs(got - reference_adjugate(c))) <= 4 * EPS


@pytest.mark.parametrize("p, t, n, w", CASES)
def test_poncelet_matches_det_inv(p, t, n, w):
    d = _polygon(p, t, n, w)
    inner = _inner_member(d)
    sides = [d.side(i) for i in range(1, d.num_sides + 1)]
    # Normals to the sides at the vertices: lines whose residual is far from 0.
    secants = [Line.from_coefficients(-s.b, s.a, s.b * v.x - s.a * v.y)
               for s, v in zip(sides, d.vertices)]
    for line in sides + secants:
        # adj is scaled to max-abs 1 and a^2 + b^2 = 1, so the residual is O(1)
        # in size and both forms round within a few ulps of 1.
        assert abs(tangency_residual(inner, line) - reference_tangency_residual(inner, line)) <= 8 * EPS
    report = check_poncelet(d)
    ref_residuals = [reference_tangency_residual(inner, s) for s in sides]
    assert report.passed == (max(ref_residuals) <= report.tolerance)


@pytest.mark.parametrize("p, t, n, w", CASES)
def test_apply_map_matches_numpy(p, t, n, w, monkeypatch):
    d = _polygon(p, t, n, w)
    target = [
        Point(math.cos(2.0 * math.pi * w * j / n), math.sin(2.0 * math.pi * w * j / n))
        for j in range(n)
    ]
    m = projective_from_correspondences(list(d.vertices[:4]), target[:4])
    rows = np.abs(np.array(m.m))
    for v in d.vertices:
        got = apply_map(m, v)
        want = reference_apply_map(m, v)
        # Forward-error bound of a 3-term dot product followed by a division.
        s = rows @ np.array([abs(v.x), abs(v.y), 1.0])
        h_w = np.array(m.m)[2] @ np.array([v.x, v.y, 1.0])
        assert abs(got.x - want.x) <= 4 * EPS * (s[0] + abs(want.x) * s[2]) / abs(h_w)
        assert abs(got.y - want.y) <= 4 * EPS * (s[1] + abs(want.y) * s[2]) / abs(h_w)
    fast = check_projective_regular(d)
    monkeypatch.setattr(verify, "map_xy", reference_map_xy)
    assert check_projective_regular(d).passed == fast.passed


def _count_calls(monkeypatch, module, name, counter):
    real = getattr(module, name)

    def counted(*args):
        counter[name] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)


def test_check_grid_call_count_is_linear(monkeypatch):
    counter = {"distance": 0, "intersect_lines": 0}
    _count_calls(monkeypatch, verify, "distance", counter)
    for module in (polygon, group):
        _count_calls(monkeypatch, module, "intersect_lines", counter)
    counts = {}
    for n in (240, 480):
        for key in counter:
            counter[key] = 0
        check_grid(synthesize(0.75, 0.5, 2.0 * math.pi / n, 0.3, n), 2)
        counts[n] = dict(counter)
    for key in counter:
        assert counts[240][key] >= 240
        assert counts[480][key] <= 2 * counts[240][key] + 8, (key, counts)
