"""Each derived fact is stored once and computed once.

A polygon's n and closed and a report's max_residual and passed are derived
in __post_init__, on every construction route, and JSON that states them
must agree.  check_projective_regular fits no homography and
check_pascal_line meets each opposite pair of sides once; the earlier
two-fit projective check and two-pass Pascal angle steps are kept below as
oracles.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from discreteconics import kernel, polygon, verify
from discreteconics.errors import AllOppositeSidesParallel, MalformedInput
from discreteconics.group import from_angle, image
from discreteconics.kernel import (
    Point,
    apply_map,
    directed_angle,
    distance,
    intersect_lines,
    projective_from_correspondences,
    wrapped_diff,
)
from discreteconics.polygon import (
    DiscreteConic,
    closed_form_vertices,
    grid_layer,
    negative_pedal,
    synthesize,
    tangency_points,
)
from discreteconics.serialize import (
    polygon_from_dict,
    polygon_to_dict,
    report_from_dict,
    report_to_dict,
)
from discreteconics.verify import (
    Report,
    check_pascal_line,
    check_projective_regular,
    make_report,
)
from test_fast_paths import MEMBERS, POLYGONS, _outcome, _polygon
from test_focal_homology import _shifted

PASCAL_POLYGONS = [(n, w) for n, w in POLYGONS if n % 2 == 0] + [(10, 3), (16, 1)]


def reference_check_projective_regular(d, tol=1e-6):
    """The earlier check: fit a homography at both orientations of the
    regular target and keep the one with the smaller worst residual."""
    w = max(1, d.winding)
    best = None
    for orient in (1.0, -1.0):
        target = [
            Point(math.cos(orient * 2.0 * math.pi * w * j / d.n),
                  math.sin(orient * 2.0 * math.pi * w * j / d.n))
            for j in range(d.n)
        ]
        m = projective_from_correspondences(list(d.vertices[:4]), target[:4])
        residuals = [distance(apply_map(m, d.vertices[j]), target[j]) for j in range(4, d.n)]
        if best is None or max(residuals) < best[0]:
            best = (max(residuals), residuals, orient)
    return make_report("projective_regular", best[1], tol, orientation=best[2], winding=w)


def reference_pascal_steps(d):
    """The earlier check's angle steps: every opposite pair intersected a
    second time, through the side Lines, for the indices."""
    f = d.focus
    m = d.n // 2
    indexed = []
    for i in range(1, m + 1):
        try:
            indexed.append((i, intersect_lines(d.side(i), d.side(i + m))))
        except kernel.ParallelLines:
            continue
    steps = []
    for (i1, k1), (i2, k2) in zip(indexed, indexed[1:]):
        delta = directed_angle(f, k1, k2)
        expected = (i2 - i1) * d.theta
        steps.append(
            min(
                abs(wrapped_diff(delta, expected)),
                abs(wrapped_diff(delta, expected - math.pi)),
            )
        )
    return steps


# ---------------------------------------------------------------------------
# Derived polygon fields

CONVEX = synthesize(0.75, 0.5, 2.0 * math.pi / 8, 0.3, 8)
STAR = synthesize(0.5, 0.8, 2.0 * math.pi * 3 / 7, 0.3, 7)
OPEN = synthesize(0.5, 0.8, 0.5, 0.3, 6)

# Route -> (polygon, the n and closed its constructor passed before).
ROUTES = {
    "synthesize_convex": (CONVEX, 8, True),
    "synthesize_star": (STAR, 7, True),
    "synthesize_open_chain": (OPEN, 6, False),
    "closed_form_vertices": (closed_form_vertices(0.5, 2.0 * math.pi / 6, 0.2, 6), 6, True),
    "closed_form_vertices_open": (closed_form_vertices(0.5, 0.7, 0.2, 5), 5, False),
    "negative_pedal": (negative_pedal(0.75, math.pi / 6, 0.0, 12)[1], 12, True),
    "negative_pedal_open": (negative_pedal(0.75, 0.4, 0.0, 5)[1], 5, False),
    "tangency_points_closed": (tangency_points(CONVEX), 8, True),
    "tangency_points_open_chain": (tangency_points(OPEN), 5, False),
    "grid_layer": (grid_layer(CONVEX, 2), 8, True),
    "group_image_closed": (image(from_angle("G", 0.4), STAR), 7, True),
    "group_image_open_chain": (image(from_angle("H", 0.4), OPEN), 6, False),
}


@pytest.mark.parametrize("route", ROUTES)
def test_derived_n_and_closed_on_every_route(route):
    d, n, closed = ROUTES[route]
    assert (d.n, d.closed) == (n, closed)
    assert d.n == len(d.vertices)


def test_n_and_closed_are_not_constructor_arguments():
    with pytest.raises(TypeError):
        DiscreteConic(0.5, 1.0, 0.5, 0.0, 3, False, CONVEX.vertices[:3])
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(CONVEX, closed=False)


def test_replace_rederives_n_and_closed():
    shorter = dataclasses.replace(CONVEX, vertices=CONVEX.vertices[:5])
    assert (shorter.n, shorter.closed) == (5, False)
    assert dataclasses.replace(CONVEX, meta={"x": 1}) == CONVEX


@pytest.mark.parametrize(
    "key, value",
    [("closed", False), ("n", 7), ("n", 9)],
)
def test_polygon_from_dict_rejects_contradictory_keys(key, value):
    obj = polygon_to_dict(CONVEX)
    obj[key] = value
    with pytest.raises(MalformedInput):
        polygon_from_dict(obj)


def test_polygon_from_dict_rejects_closed_open_chain():
    obj = polygon_to_dict(synthesize(0.5, 1.0, 2.0 * math.pi / 8, 0.0, 7))
    assert obj["closed"] is False
    obj["closed"] = True
    with pytest.raises(MalformedInput, match="closed"):
        polygon_from_dict(obj)


@pytest.mark.parametrize("key", ["n", "closed"])
def test_polygon_from_dict_still_requires_the_keys(key):
    obj = polygon_to_dict(CONVEX)
    del obj[key]
    with pytest.raises(KeyError):
        polygon_from_dict(obj)


@pytest.mark.parametrize("route", ROUTES)
def test_polygon_round_trip_on_every_route(route):
    d = ROUTES[route][0]
    assert polygon_from_dict(json.loads(json.dumps(polygon_to_dict(d)))) == d


# ---------------------------------------------------------------------------
# Derived report fields


def test_report_derives_max_residual_and_passed():
    r = Report("demo", (1e-10, 3e-9, 2e-9), 1e-8, {})
    assert (r.max_residual, r.passed) == (3e-9, True)
    assert not Report("demo", (1e-10, 3e-8), 1e-8, {}).passed
    with pytest.raises(ValueError):
        Report("demo", (), 1e-8, {})


@pytest.mark.parametrize(
    "key, value",
    [("max_residual", 1e-9), ("max_residual", 0.0), ("pass", False)],
)
def test_report_from_dict_rejects_contradictory_keys(key, value):
    obj = report_to_dict(make_report("poncelet", [1e-10, 2e-10], 1e-8))
    obj[key] = value
    with pytest.raises(MalformedInput):
        report_from_dict(obj)


def test_report_from_dict_rejects_pass_above_tolerance():
    obj = {"check": "poncelet", "residuals": [1e-6], "max_residual": 1e-6,
           "tolerance": 1e-8, "pass": True}
    with pytest.raises(MalformedInput, match="pass"):
        report_from_dict(obj)


def test_report_round_trip_with_nan_residual():
    r = make_report("poncelet", [math.nan, 1e-10], 1e-8)
    assert math.isnan(r.max_residual) and not r.passed
    back = report_from_dict(json.loads(json.dumps(report_to_dict(r))))
    assert math.isnan(back.max_residual) and not back.passed


def test_skipped_report_is_derived_too():
    (r,) = verify.run_checks(OPEN, names=["grid"], tol=1e-5)
    assert (r.residuals, r.max_residual, r.passed) == ((0.0,), 0.0, True)
    assert report_from_dict(report_to_dict(r)) == r


# ---------------------------------------------------------------------------
# One homography per projective_regular check

PROJECTIVE_CASES = [
    pytest.param(p, t, n, w, id=f"{label}-n{n}-w{w}")
    for label, p, t in MEMBERS
    for n, w in POLYGONS
]


@pytest.mark.parametrize("p, t, n, w", PROJECTIVE_CASES)
def test_projective_regular_matches_best_of_two(p, t, n, w):
    """The check against the focal homology gives the best-of-two fit's
    verdict, with every residual near rounding."""
    d = _polygon(p, t, n, w)
    new = check_projective_regular(d)
    ref = reference_check_projective_regular(d)
    assert new.passed == ref.passed
    assert new.metadata == {"winding": ref.metadata["winding"]}
    assert len(new.residuals) == n and new.max_residual <= 1e-11


# The two orientations' maps differ by the reflection y -> -y up to rounding:
# at most 1.0e-12 (unit Frobenius norm) on these members, 6.0e-12 at p = -0.9999.
REFLECTION_TOL = 1e-10


@pytest.mark.parametrize("p, t, n, w", PROJECTIVE_CASES)
def test_opposite_orientation_map_is_the_reflection(p, t, n, w):
    d = _polygon(p, t, n, w)
    maps = []
    for orient in (1.0, -1.0):
        target = [
            Point(math.cos(orient * 2.0 * math.pi * w * j / n),
                  math.sin(orient * 2.0 * math.pi * w * j / n))
            for j in range(4)
        ]
        maps.append(np.array(projective_from_correspondences(list(d.vertices[:4]), target).m))
    reflected = np.diag([1.0, -1.0, 1.0]) @ maps[0]
    assert min(np.max(np.abs(maps[1] - s * reflected)) for s in (1.0, -1.0)) <= REFLECTION_TOL


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("n, w", [(7, 1), (12, 1), (13, 3), (240, 7)])
def test_projective_regular_makes_no_fit(monkeypatch, n, w):
    def no_fit(*args):
        raise AssertionError("check_projective_regular fitted a homography")

    monkeypatch.setattr(kernel, "projective_from_correspondences", no_fit)
    assert not hasattr(verify, "projective_from_correspondences")
    assert check_projective_regular(_polygon(0.75, 0.5, n, w)).passed


# ---------------------------------------------------------------------------
# One intersection per opposite pair in pascal_line


@pytest.mark.parametrize("n, w", [(8, 1), (12, 1), (10, 3), (240, 1)])
def test_pascal_line_meets_each_opposite_pair_once_and_builds_no_point(monkeypatch, n, w):
    d = _polygon(0.75, 0.5, n, w)
    calls, pairs, points = [], [], []
    for module in (polygon, verify):
        _counting(monkeypatch, module, "intersect_lines", calls)
    real_batch, real_post_init = polygon.intersections_xy, Point.__post_init__

    def counted_batch(firsts, seconds, **kwargs):
        firsts, seconds = list(firsts), list(seconds)
        pairs.extend(zip(firsts, seconds))
        return real_batch(firsts, seconds, **kwargs)

    def counted_post_init(point):
        points.append(point)
        real_post_init(point)

    monkeypatch.setattr(polygon, "intersections_xy", counted_batch)
    monkeypatch.setattr(Point, "__post_init__", counted_post_init)
    check_pascal_line(d)
    s, m = d.side_coefficients, n // 2
    assert calls == [] and pairs == list(zip(s[:m], s[m:]))
    assert points == []


@pytest.mark.parametrize("n, w", [(8, 1), (12, 1), (10, 3), (240, 1)])
def test_pascal_line_builds_no_point_through_the_batch_constructor(monkeypatch, n, w):
    # points_xy sets each Point's fields without __post_init__, which the
    # test above counts, so its calls are counted here.
    d = _polygon(0.75, 0.5, n, w)
    calls = []
    for module in (kernel, polygon, verify):
        if hasattr(module, "points_xy"):
            _counting(monkeypatch, module, "points_xy", calls)
    assert polygon.points_xy is not kernel.points_xy or calls == []
    assert check_pascal_line(d).passed
    assert calls == []


# Largest incidence residual on these cases: 1.2e-15 (5.2e-14 with the
# n = 240 to 960 cases of test_numpy_free.py).
INCIDENCE_BOUND = 20 * 5.2e-14


@pytest.mark.parametrize(
    "p, t, n, w",
    [
        pytest.param(p, t, n, w, id=f"{label}-n{n}-w{w}")
        for label, p, t in MEMBERS
        for n, w in PASCAL_POLYGONS
    ],
)
def test_pascal_line_is_incidences_then_angle_steps(p, t, n, w):
    """count incidences with the directrix, then the two-pass angle steps
    bit for bit: 2*count - 1 residuals."""
    d = _polygon(p, t, n, w)
    report = _outcome(check_pascal_line, d)
    if isinstance(report, type):  # the circle member: every opposite pair is parallel
        assert report is AllOppositeSidesParallel and p == 0.0
        return
    count = report.metadata["count"]
    assert report.metadata["line_x"] == -1.0 / p
    assert len(report.residuals) == 2 * count - 1
    assert report.residuals[count:] == tuple(reference_pascal_steps(d))
    assert max(report.residuals[:count]) <= INCIDENCE_BOUND
    # Smallest worst incidence after the shift on these cases: 3.1e-6.
    shifted = check_pascal_line(_shifted(d, 0)[0])
    assert max(shifted.residuals[:shifted.metadata["count"]]) > 1e-6
    assert not shifted.passed


# ---------------------------------------------------------------------------
# A NaN residual anywhere fails the report


@pytest.mark.parametrize(
    "residuals",
    [[1e-10, math.nan], [math.nan, 1e-10], [0.0, math.nan, 1e-12], [math.nan], [math.nan, math.inf]],
)
def test_nan_residual_fails_the_report(residuals):
    r = make_report("x", residuals, 1e-8)
    assert math.isnan(r.max_residual) and r.passed is False
    back = report_from_dict(json.loads(json.dumps(report_to_dict(r))))
    assert math.isnan(back.max_residual) and back.passed is False


def test_report_without_nan_keeps_its_maximum():
    r = make_report("x", [1e-10, 3e-9, math.inf], 1e-8)
    assert r.max_residual == math.inf and r.passed is False
    assert make_report("x", [1e-10, 3e-9], 1e-8).max_residual == 3e-9
