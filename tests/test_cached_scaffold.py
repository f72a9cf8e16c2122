"""Each side is formed once per polygon, as coefficients, and tangency
points only where a check reads them.

DiscreteConic caches its normalized side coefficients, the side Lines built
from them and its tangency polygon on first use.  These tests count the
builds over one run_checks plus grid_layer: one coefficient triple per
side, all formed in one line_coefficients call, at most four Lines (a side
each for reflective and isogonal to read, and the directrix that
pascal_line gets with the opposite-side intersections), four tangency
points on an even n (reflective and isogonal read two each through
tangency_point) and the whole tangency polygon only for the odd-n
diagonals.  They also check that the caches never leak: not into a copy
made with dataclasses.replace, and not into equality, repr, hashing or
JSON.
"""

import json
import math
from dataclasses import replace

import pytest

from discreteconics import polygon
from discreteconics.kernel import Line, Point, line_through
from discreteconics.polygon import grid_layer, synthesize, tangency_points
from discreteconics.serialize import deserialize, polygon_to_dict, serialize
from discreteconics.verify import check_isogonal, check_poncelet, run_checks


def _closed(n, p=0.75, t=0.5):
    return synthesize(p, t, 2.0 * math.pi / n, 0.3, n)


@pytest.mark.parametrize("n", [240, 480, 241])
def test_one_run_forms_the_sides_in_one_batch_and_builds_at_most_four_lines(n, monkeypatch):
    d = _closed(n)
    inner = d.inner
    batches, counts = [], {"lines": 0, "inner_point_at": 0}
    real_coefficients, real_point_at = polygon.line_coefficients, polygon.point_at
    real_post_init = Line.__post_init__

    def counted_coefficients(us, vs):
        batches.append(list(zip(us, vs)))
        return real_coefficients(us, vs)

    def counted_post_init(line):
        counts["lines"] += 1
        real_post_init(line)

    def counted_point_at(c, alpha):
        if (c.p, c.t) == (inner.p, inner.t):
            counts["inner_point_at"] += 1
        return real_point_at(c, alpha)

    monkeypatch.setattr(polygon, "line_coefficients", counted_coefficients)
    monkeypatch.setattr(Line, "__post_init__", counted_post_init)
    monkeypatch.setattr(polygon, "point_at", counted_point_at)
    run_checks(d)
    grid_layer(d, 2)
    v = d.vertices
    assert batches == [list(zip(v, v[1:] + v[:1]))]  # each side once, in order, in one call
    assert counts["lines"] <= 4
    if n % 2 == 0:
        assert counts["inner_point_at"] == 4 and "tangency" not in vars(d)
    else:  # the diagonals pair each vertex with the opposite tangency point
        assert n <= counts["inner_point_at"] <= n + 4 and "tangency" in vars(d)


def test_replace_gives_fresh_caches_and_perturbations_still_fail():
    base = _closed(8, 0.6, 0.8)
    assert run_checks(base)  # fills both caches
    sides, tangency = base.sides, tangency_points(base)
    vs = list(base.vertices)
    vs[0] = Point(vs[0].x + 1e-3, vs[0].y)
    perturbed = replace(base, vertices=tuple(vs))
    assert perturbed.sides is not sides and tangency_points(perturbed) is not tangency
    assert perturbed.sides[0] == line_through(vs[0], vs[1]) != sides[0]
    assert perturbed.sides[1:-1] == sides[1:-1]
    assert not check_poncelet(perturbed).passed
    assert not check_isogonal(perturbed, 1, 3).passed
    assert check_poncelet(base).passed and check_isogonal(base, 1, 3).passed

    moved = replace(base, t=base.t * 1.01)
    assert tangency_points(moved).vertices == tangency_points(_closed(8, 0.6, base.t * 1.01)).vertices
    assert tangency_points(moved).vertices != tangency.vertices


def test_coefficient_cache_stays_out_of_equality_repr_and_json():
    caches = {"side_coefficients", "_side_lines", "sides", "tangency"}
    cached = _closed(12)
    tangency_points(cached)
    run_checks(cached)
    grid_layer(cached, 2)
    assert cached.sides[0] is cached.side(1)
    assert caches <= set(vars(cached))
    fresh = _closed(12)
    assert not caches & set(vars(fresh))
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)
    assert polygon_to_dict(cached) == polygon_to_dict(fresh)
    text = serialize(cached)
    assert text == serialize(fresh) and set(json.loads(text)) == {
        "p", "t", "theta", "phi", "n", "closed", "vertices"}
    back = deserialize(text)
    assert back == cached and not caches & set(vars(back))
    copy = replace(cached)
    assert not caches & set(vars(copy))
    assert copy.side_coefficients == cached.side_coefficients
    assert copy.side_coefficients is not cached.side_coefficients
    assert copy.side(1) == cached.side(1) and copy.side(1) is not cached.side(1)


def test_side_indexing_over_the_cache():
    chain = synthesize(0.5, 1.0, 1.0, 0.0, 5)
    assert not chain.closed and len(chain.sides) == 4
    for i in range(1, 5):
        assert chain.side(i) == line_through(chain.vertex(i), chain.vertex(i + 1))
    for i in (0, 5, -1):
        with pytest.raises(IndexError):
            chain.side(i)
    closed = _closed(7)
    assert closed.side(8) is closed.side(1) and closed.side(0) is closed.side(7)
    assert closed.side(-6) is closed.side(1)


def test_tangency_points_is_cached_per_instance():
    d = _closed(9)
    assert tangency_points(d) is tangency_points(d) is d.tangency
    few = replace(d, vertices=d.vertices[:1])
    with pytest.raises(ValueError, match="two vertices"):
        tangency_points(few)
