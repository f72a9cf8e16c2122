"""points_xy, the batch Point constructor, against a Point per pair.

synthesize and grid_layer build a large-n op's 2n vertices through one
points_xy call each: every Point is set field by field, without a
Point.__init__ per pair.  Over the benchmark's sweep and large_n pencils
(the strategies of test_batch_parity.py) the Points must be those of
tuple(starmap(Point, pairs)) in every way a caller can see: the bits and
type of each field, equality, hash, repr, pickling, dataclasses.replace and
frozenness, and Point's non-finite ValueError at the first bad pair.  The
counting tests tie the two call sites to one call each, and a whole large_n
op to a number of Point.__init__ calls that does not grow with n.
"""

import dataclasses
import math
import pickle
from itertools import starmap

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_batch_parity import (POLYGONS, SETTINGS, TOP, batch_outcome, bits, same_outcome,
                               scalar_outcome)

from discreteconics import kernel, polygon
from discreteconics.kernel import Point, points_xy
from discreteconics.pencil import pencil_member, points_at_xy
from discreteconics.polygon import grid_layer, synthesize
from discreteconics.render import Scene, render_svg
from discreteconics.verify import run_checks


def _pairs(args):
    """The polygon's finite vertex pairs as points_at_xy gives them, up to
    the first asymptotic angle, and its grid layer's pairs where it has one."""
    p, t, theta, phi, n = args
    alphas = [phi + j * theta for j in range(n)]
    pairs = scalar_outcome(lambda a: next(points_at_xy(pencil_member(p, t), [a])), alphas)[0]
    pairs = [xy for xy in pairs if math.isfinite(xy[0]) and math.isfinite(xy[1])]
    try:
        d = synthesize(p, t, theta, phi, n)
        layer = grid_layer(d, 2)
    except Exception:
        return pairs
    return pairs + [(z.x, z.y) for z in layer.vertices]


@SETTINGS
@given(args=POLYGONS)
def test_points_are_a_point_per_pair(args):
    pairs = _pairs(args)
    got, want = points_xy(pairs), tuple(starmap(Point, pairs))
    assert type(got) is tuple and len(got) == len(want)
    assert [bits((v.x, v.y)) for v in got] == [bits((v.x, v.y)) for v in want]
    assert all(type(v) is Point and type(v.x) is float and type(v.y) is float for v in got)
    assert got == want
    assert [hash(v) for v in got] == [hash(v) for v in want]
    assert [repr(v) for v in got] == [repr(v) for v in want]
    assert [dataclasses.astuple(v) for v in got] == [dataclasses.astuple(v) for v in want]
    back = pickle.loads(pickle.dumps(got))
    assert back == want and [bits((v.x, v.y)) for v in back] == [bits((v.x, v.y)) for v in want]


@SETTINGS
@given(args=POLYGONS, data=st.data())
def test_points_replace_and_stay_frozen(args, data):
    pairs = _pairs(args)
    if not pairs:
        return
    i = data.draw(st.integers(0, len(pairs) - 1))
    v, w = points_xy(pairs)[i], Point(*pairs[i])
    assert dataclasses.replace(v) == w
    assert dataclasses.replace(v, y=0.5) == dataclasses.replace(w, y=0.5) == Point(w.x, 0.5)
    for name in ("x", "y"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(v, name)
    with pytest.raises(ValueError, match="non-finite coordinates"):
        dataclasses.replace(v, x=math.inf)


@SETTINGS
@given(args=POLYGONS, data=st.data())
def test_a_non_finite_pair_raises_at_the_scalar_index(args, data):
    pairs = _pairs(args)
    i = data.draw(st.integers(0, len(pairs)))
    pairs.insert(i, data.draw(st.sampled_from([
        (math.inf, 0.5), (0.5, -math.inf), (math.nan, 0.3), (math.nan, math.nan),
        (-math.inf, TOP),
    ])))
    want = scalar_outcome(lambda xy: Point(*xy), pairs)
    assert want[1] is not None and want[1][0] is ValueError and len(want[0]) == i
    assert want[1][1].startswith("non-finite coordinates (")

    def batch(items):
        return [(v.x, v.y) for v in points_xy(items)]

    same_outcome(batch_outcome(batch, pairs), ([(v.x, v.y) for v in want[0]], want[1]))


def test_a_lazy_iterator_raises_at_its_first_bad_pair():
    def pairs():
        yield 0.1, 0.2
        yield math.inf, 0.0
        raise AssertionError("read past the first bad pair")

    with pytest.raises(ValueError, match=r"^non-finite coordinates \(inf, 0.0\)$"):
        points_xy(pairs())
    assert points_xy(()) == ()


# ---------------------------------------------------------------------------
# Who calls it, and how often


def _counting(monkeypatch):
    """Count points_xy calls in polygon and Point.__post_init__ calls."""
    calls, inits = [], []
    real_batch, real_post_init = kernel.points_xy, Point.__post_init__

    def counted_batch(pairs):
        calls.append(1)
        return real_batch(pairs)

    def counted_post_init(point):
        inits.append(1)
        real_post_init(point)

    monkeypatch.setattr(polygon, "points_xy", counted_batch)
    monkeypatch.setattr(Point, "__post_init__", counted_post_init)
    return calls, inits


@pytest.mark.parametrize("p, t, n", [(0.75, 0.5, 240), (0.3, 20.0, 480), (-0.6, 0.4, 9)])
def test_synthesize_and_grid_layer_make_one_call_each(monkeypatch, p, t, n):
    theta = 2.0 * math.pi / n
    calls, inits = _counting(monkeypatch)
    d = synthesize(p, t, theta, 0.3, n)
    assert (len(calls), len(inits)) == (1, 0)
    calls.clear()
    layer = grid_layer(d, 2)
    assert (len(calls), len(inits)) == (1, 0)
    assert layer.n == d.n == n


def test_a_large_n_op_builds_no_point_per_vertex(monkeypatch):
    # synthesize, every check, grid_layer(d, 2) and two renders, as a large_n op.
    calls, inits = _counting(monkeypatch)
    counts = []
    for n in (240, 480, 960):
        calls.clear()
        inits.clear()
        d = synthesize(0.3, 20.0, 2.0 * math.pi / n, 0.3, n)
        assert all(r.passed for r in run_checks(d))
        scene = Scene(conics=(d.carrier,), polygons=(d, grid_layer(d, 2)))
        assert render_svg(scene) == render_svg(scene)
        counts.append((len(calls), len(inits)))
    assert counts[0] == counts[1] == counts[2]
    assert counts[0][0] == 2 and counts[0][1] < 240
