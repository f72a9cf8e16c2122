"""JSON interchange and deterministic SVG emission."""

import json
import math
import xml.etree.ElementTree as ET

import pytest

from discreteconics.errors import EmptyScene
from discreteconics.kernel import Line, Point
from discreteconics.pencil import FocalConic, pencil_member
from discreteconics.polygon import synthesize
from discreteconics.render import (
    Scene,
    render_svg,
    sample_conic,
    scene_from_dict,
    scene_to_dict,
)
from discreteconics.serialize import (
    conic_from_dict,
    conic_to_dict,
    deserialize,
    polygon_from_dict,
    polygon_to_dict,
    report_from_dict,
    report_to_dict,
    serialize,
)
from discreteconics.verify import check_equal_angles


SQUARE = synthesize(0.0, 1.0, math.pi / 2, 0.0, 4)


def test_polygon_schema():
    obj = polygon_to_dict(SQUARE)
    assert obj["p"] == 0.0 and obj["t"] == 1.0 and obj["n"] == 4
    assert obj["theta"] == 1.5707963267948966
    assert obj["closed"] is True
    assert obj["vertices"][0] == [1.0, 0.0]
    json.dumps(obj)  # plain types only


def test_polygon_roundtrip():
    d = synthesize(0.6123456789, 0.87654321, 2 * math.pi / 9, 0.123456, 9)
    assert polygon_from_dict(json.loads(serialize(d))) == d
    assert deserialize(serialize(d)) == d


def test_report_roundtrip():
    r = check_equal_angles(SQUARE)
    obj = report_to_dict(r)
    assert obj["check"] == "equal_angles" and obj["pass"] is True
    assert report_from_dict(json.loads(json.dumps(obj))) == r
    assert deserialize(serialize(r)) == r


def test_conic_roundtrip():
    c = pencil_member(0.75, 1.25)
    assert conic_from_dict(conic_to_dict(c)) == c
    assert deserialize(serialize(c)) == c


def test_deserialize_dispatch_errors():
    with pytest.raises(ValueError):
        deserialize("[1,2,3]")
    with pytest.raises(ValueError):
        deserialize('{"foo": 1}')
    with pytest.raises(TypeError):
        serialize("not a model object")


def test_scene_roundtrip():
    s = Scene(
        conics=(pencil_member(0.75, 1.0),),
        polygons=(SQUARE,),
        points=(("F", Point(-0.75, 0.0)),),
        lines=(Line.from_coefficients(1.0, 0.0, -2.0),),
        viewbox=(-2.0, -2.0, 4.0, 4.0),
    )
    assert scene_from_dict(json.loads(json.dumps(scene_to_dict(s)))) == s


def test_sample_conic_branches():
    assert len(sample_conic(pencil_member(0.0, 1.0))) == 1
    # A hyperbola member splits at its asymptotic directions.
    assert len(sample_conic(pencil_member(math.sqrt(2.0), 1.0))) >= 2


def test_render_svg_well_formed_one_element_per_item():
    s = Scene(
        conics=(pencil_member(0.75, 0.5), pencil_member(0.75, 1.0)),
        polygons=(SQUARE,),
        points=(("F", Point(-0.75, 0.0)),),
        lines=(Line.from_coefficients(1.0, 0.0, 0.5),),
    )
    svg = render_svg(s)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    flip = list(root)[0]
    assert len(list(flip)) == 2 + 1 + 1 + 1


def test_render_unit_circle_polyline():
    svg = render_svg(Scene(conics=(pencil_member(0.0, 1.0),)))
    root = ET.fromstring(svg)
    polys = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polys) == 1
    pts = polys[0].get("points").split()
    assert len(pts) >= 256
    x, y = map(float, pts[0].split(","))
    assert abs(math.hypot(x, y) - 1.0) < 1e-6


def test_render_deterministic():
    s = Scene(
        conics=tuple(pencil_member(0.75, t) for t in (0.5, 1.0, 2.0, 4.0)),
        points=(("F", Point(-0.75, 0.0)),),
    )
    assert render_svg(s) == render_svg(s)


def test_render_empty_scene():
    with pytest.raises(EmptyScene):
        render_svg(Scene())


def test_render_degenerate_viewbox():
    with pytest.raises(ValueError):
        render_svg(Scene(polygons=(SQUARE,), viewbox=(0.0, 0.0, 0.0, 1.0)))


@pytest.mark.parametrize(
    "viewbox",
    [(0.0, 0.0, 1e-320, 1.0), (0.0, 0.0, math.nan, 1.0), (math.inf, 0.0, 1.0, 1.0),
     (0.0, 0.0, 1.0, math.inf)],
)
def test_render_non_finite_viewbox(viewbox):
    with pytest.raises(ValueError):
        render_svg(Scene(polygons=(SQUARE,), viewbox=viewbox))
