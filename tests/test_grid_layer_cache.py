"""grid_layer builds each layer once per polygon.

The layer for k is cached on the polygon (d.layers[k]) once it is built, so
check_grid inside run_checks and a later grid_layer(d, 2) share one build.
A call that raises caches nothing, and the cache stays out of equality,
hashing, repr and JSON, and out of a copy made with dataclasses.replace.
"""

import json
import math
from dataclasses import replace

import pytest

from discreteconics import polygon
from discreteconics.errors import NotClosed, ParallelLines
from discreteconics.polygon import grid_layer, synthesize
from discreteconics.serialize import deserialize, polygon_to_dict, serialize
from discreteconics.verify import check_grid, run_checks


def _closed(n, p=0.75, t=0.5):
    return synthesize(p, t, 2.0 * math.pi / n, 0.3, n)


def _count_intersections(monkeypatch):
    counter = {"intersect_lines": 0}
    real = polygon.intersect_lines

    def counted(*args):
        counter["intersect_lines"] += 1
        return real(*args)

    monkeypatch.setattr(polygon, "intersect_lines", counted)
    return counter


def _count_pairs_met(monkeypatch):
    """Calls to the batch meet polygon.intersections_xy and the pairs they get."""
    counter = {"calls": 0, "pairs": 0}
    real = polygon.intersections_xy

    def counted(firsts, seconds, **kwargs):
        firsts, seconds = list(firsts), list(seconds)
        counter["calls"] += 1
        counter["pairs"] += min(len(firsts), len(seconds))
        return real(firsts, seconds, **kwargs)

    monkeypatch.setattr(polygon, "intersections_xy", counted)
    return counter


def test_a_second_call_returns_the_same_layer():
    d = _closed(9)
    layer = grid_layer(d, 2)
    assert grid_layer(d, 2) is layer is d.layers[2]
    assert grid_layer(d, 3) is not layer and set(d.layers) == {2, 3}
    assert grid_layer(d, 3).vertices == grid_layer(_closed(9), 3).vertices


@pytest.mark.parametrize("n", [241, 240])
def test_run_checks_and_grid_layer_meet_the_layer_pairs_once(n, monkeypatch):
    d = _closed(n)
    counter = _count_pairs_met(monkeypatch)
    run_checks(d)
    grid_layer(d, 2)
    # n for the one layer; on even n, pascal_line meets the n/2 opposite pairs.
    assert counter["pairs"] == n + (n // 2 if n % 2 == 0 else 0)
    assert counter["calls"] == (2 if n % 2 == 0 else 1)


def test_the_cached_layer_is_the_one_check_grid_read(monkeypatch):
    d = _closed(11)
    report = check_grid(d, 2)
    counter = _count_intersections(monkeypatch)
    assert grid_layer(d, 2).t == report.metadata["layer_t"]
    assert counter["intersect_lines"] == 0


def test_the_cached_layer_read_meets_no_pairs(monkeypatch):
    d = _closed(11)
    report = check_grid(d, 2)
    counter = _count_pairs_met(monkeypatch)
    assert grid_layer(d, 2).t == report.metadata["layer_t"]
    assert counter == {"calls": 0, "pairs": 0}
    grid_layer(d, 3)  # the counter sees an uncached layer
    assert counter == {"calls": 1, "pairs": 11}


SQUARE = synthesize(0.0, 1.0, math.pi / 2, 0.3, 4)  # opposite sides of a square are parallel

RAISING = {
    "k_zero": (_closed(8), 0, ValueError),
    "k_n_minus_1": (_closed(8), 7, ValueError),
    "open_chain": (synthesize(0.5, 1.0, 1.0, 0.2, 6), 2, NotClosed),
    "parallel_sides": (SQUARE, 2, ParallelLines),
}


@pytest.mark.parametrize("case", RAISING)
def test_a_raising_call_caches_nothing(case):
    d, k, error = RAISING[case]
    d = replace(d)  # a fresh cache for each case
    for _ in range(2):
        with pytest.raises(error):
            grid_layer(d, k)
        assert k not in vars(d).get("layers", {})


def test_the_cache_stays_out_of_equality_repr_and_json():
    cached = _closed(12)
    grid_layer(cached, 2)
    grid_layer(cached, 5)
    fresh = _closed(12)
    assert "layers" in vars(cached) and "layers" not in vars(fresh)
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)
    assert polygon_to_dict(cached) == polygon_to_dict(fresh)
    text = serialize(cached)
    assert text == serialize(fresh) and "layers" not in json.loads(text)
    assert "layers" not in vars(deserialize(text))


def test_replace_gives_a_fresh_cache():
    base = _closed(10)
    layer = grid_layer(base, 2)
    copy = replace(base)
    assert "layers" not in vars(copy)
    assert grid_layer(copy, 2) is not layer and grid_layer(copy, 2) == layer
    moved = replace(base, t=base.t * 1.01)
    assert grid_layer(moved, 2).t != layer.t
