"""Each rule in one place, with the outputs of its former second copies.

- QuadraticForm.residual_at forms each term once; it equals the two-pass
  formula (the value summed, then the absolute terms summed) bit for bit.
- A polygon's meta is read like a report's metadata: a JSON object or
  absent.  A polygon that is not an object is named as such, through the
  library and through a scene's polygons.
- dual_conic fits the poles of its 32 sampled tangents, one pole_of call
  each, and skips a tangent through the focus without a nearby retry.
- from_angle names the element and the angle it acts at, and checks the
  element first.
"""

import io
import json
import math
import random

import pytest

from discreteconics import duality
from discreteconics.cli import main
from discreteconics.duality import Reciprocator, dual_conic
from discreteconics.errors import AngleOutOfRange, MalformedInput
from discreteconics.group import from_angle
from discreteconics.kernel import Point, distance
from discreteconics.pencil import QuadraticForm, pencil_member, point_at, quadratic_form
from discreteconics.polygon import synthesize
from discreteconics.serialize import polygon_from_dict, polygon_to_dict


def _two_pass(q: QuadraticForm, pt: Point) -> float:
    """residual_at as it was written before: the value, then the scale."""
    x, y = pt.x, pt.y
    value = q.A * x * x + q.B * x * y + q.C * y * y + q.D * x + q.E * y + q.G
    scale = (abs(q.A * x * x) + abs(q.B * x * y) + abs(q.C * y * y)
             + abs(q.D * x) + abs(q.E * y) + abs(q.G))
    return abs(value) / max(scale, 1.0)


def _forms_and_points(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice([rng.uniform(-0.99, 0.99), rng.uniform(1.01, 4.0) * rng.choice((-1, 1))])
        c = pencil_member(p, 10.0 ** rng.uniform(-6.0, 6.0))
        q = quadratic_form(c)
        on = point_at(c, rng.uniform(-math.pi, math.pi))
        for pt in (on, Point(rng.uniform(-50, 50), rng.uniform(-50, 50))):
            yield q, pt
        general = QuadraticForm(*(rng.uniform(-1e3, 1e3) for _ in range(6)))
        yield general, Point(10.0 ** rng.uniform(-8, 8), -(10.0 ** rng.uniform(-8, 8)))


def test_residual_at_equals_the_two_pass_formula_bit_for_bit():
    for q, pt in _forms_and_points(19, 3000):
        assert q.residual_at(pt).hex() == _two_pass(q, pt).hex()


@pytest.mark.parametrize("q, pt", [
    (QuadraticForm(-0.0, 0.0, -0.0, 0.0, -0.0, -0.0), Point(1.0, 1.0)),
    (QuadraticForm(1e308, 0.0, 1e308, 0.0, 0.0, -1.0), Point(10.0, 10.0)),
    (QuadraticForm(1.0, 0.0, 1.0, 0.0, 0.0, -1e300), Point(1e154, 1e154)),
])
def test_residual_at_matches_on_signed_zeros_and_overflow(q, pt):
    assert repr(q.residual_at(pt)) == repr(_two_pass(q, pt))


# ---------------------------------------------------------------------------
# meta through the exact-type reader

def run(argv, text, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    figure = tmp_path / "figure.svg"
    if argv[0] == "render":
        argv = [*argv, "--out", str(figure)]
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err, figure.exists()


def _polygon(**changes) -> str:
    return json.dumps({**polygon_to_dict(synthesize(0.5, 1.0, math.pi / 4, 0.0, 8)), **changes})


@pytest.mark.parametrize("argv", [["verify"], ["grid", "--k", "2"], ["render"],
                                  ["transform", "--op", "H", "--angle", "pi/4"]])
@pytest.mark.parametrize("meta, shown", [
    (None, "None"), ("ab", "'ab'"), ([["a", 1]], "[['a', 1]]"), (5, "5"), (True, "True"),
])
def test_meta_that_is_no_object_exits_2_naming_meta(argv, meta, shown, tmp_path, capsys,
                                                    monkeypatch):
    code, out, err, wrote = run(argv, _polygon(meta=meta), tmp_path, capsys, monkeypatch)
    assert (code, out, wrote) == (2, "", False)
    assert err == f"error: meta must be an object, got {shown}\n"


def test_meta_object_is_kept_and_absent_meta_is_empty():
    assert polygon_from_dict(json.loads(_polygon(meta={"a": [1, 2]}))).meta == {"a": [1, 2]}
    obj = json.loads(_polygon())
    assert "meta" not in obj and polygon_from_dict(obj).meta == {}


@pytest.mark.parametrize("entry", [5, None, "p", [0.5, 1.0], True])
def test_scene_polygon_that_is_no_object_exits_2(entry, tmp_path, capsys, monkeypatch):
    scene = json.dumps({"polygons": [entry]})
    code, out, err, wrote = run(["render"], scene, tmp_path, capsys, monkeypatch)
    assert (code, out, wrote) == (2, "", False)
    assert err == f"error: polygon must be an object, got {entry!r}\n"


@pytest.mark.parametrize("obj", [5, None, "polygon", [["p", 0.5]]])
def test_library_polygon_that_is_no_object_is_malformed_input(obj):
    with pytest.raises(MalformedInput, match="^polygon must be an object"):
        polygon_from_dict(obj)


# ---------------------------------------------------------------------------
# dual_conic: one pole_of call per sampled tangent

@pytest.mark.parametrize("p, t, inside", [
    (0.75, 0.5, True),  # ellipse
    (0.3, 20.0, False),  # hyperbola: the focus is outside its dual circle
    (0.5, 4.0 * (1.0 - 1e-9), True),  # near-parabola ellipse
])
def test_dual_conic_makes_one_pole_of_call_per_tangent(p, t, inside, monkeypatch):
    calls = count_pole_of(monkeypatch)
    c = pencil_member(p, t)
    dual_conic(Reciprocator(c.focus), c, require_focus_inside=inside)
    assert len(calls) == 32


def count_pole_of(monkeypatch) -> list:
    """The lines duality.pole_of is called on, from now on."""
    calls, pole_of = [], duality.pole_of

    def counted(r, line):
        calls.append(line)
        return pole_of(r, line)

    monkeypatch.setattr(duality, "pole_of", counted)
    return calls


def test_knife_edge_circle_member_still_has_a_dual_circle(monkeypatch):
    calls = count_pole_of(monkeypatch)
    c = pencil_member(0.0, 1e-24)  # a circle of radius 1e-12 about its focus
    circ = dual_conic(Reciprocator(c.focus), c)
    assert len(calls) == 32  # a tangent within 1e-12 of the focus is skipped, not retried
    assert math.isclose(circ.radius, 1e12, rel_tol=1e-9)
    assert distance(circ.center, c.focus) <= 1e-9 * circ.radius


# ---------------------------------------------------------------------------
# from_angle names the element and its angle

def test_transform_out_of_range_names_the_element_and_its_angle(tmp_path, capsys, monkeypatch):
    angle = 7.0 * math.pi / 6.0
    code, out, err, _ = run(["transform", "--op", "G", "--angle", "7pi/6"], _polygon(),
                            tmp_path, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"error: G acts at the angle theta = {angle!r}, but theta must lie in [0, pi)\n"


def test_from_angle_checks_the_element_before_the_angle():
    with pytest.raises(AngleOutOfRange, match=r"^H acts at the angle theta = -0\.1, "):
        from_angle("H", -0.1)
    with pytest.raises(ValueError, match="kind must be 'G' or 'H', got 'X'"):
        from_angle("X", 5.0)
