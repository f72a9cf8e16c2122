"""Scene lines in render: clipping a slanted line to the view box, a line
that misses the view, and a scene of lines only, which falls back to the
default view box.  The assertions read geometry from the SVG, not bytes."""

import math
import xml.dom.minidom

import pytest

from discreteconics.kernel import Line, Point
from discreteconics.render import Scene, _clip_line, render_svg, scene_from_dict

BOX = (-2.0, -2.0, 4.0, 4.0)  # the default view box: xmin, ymin, width, height
EDGE_TOL = 1e-12


def on_box_edge(pt, box) -> bool:
    xmin, ymin, w, h = box
    inside = (xmin - EDGE_TOL <= pt.x <= xmin + w + EDGE_TOL
              and ymin - EDGE_TOL <= pt.y <= ymin + h + EDGE_TOL)
    on_edge = min(abs(pt.x - xmin), abs(pt.x - xmin - w),
                  abs(pt.y - ymin), abs(pt.y - ymin - h)) <= EDGE_TOL
    return inside and on_edge


@pytest.mark.parametrize("a, b, c, ends", [
    (0.5, -1.0, 0.1, {(-2.0, -0.9), (2.0, 1.1)}),  # y = x/2 + 0.1: crosses the side edges
    (3.0, -1.0, 0.0, {(-2.0 / 3.0, -2.0), (2.0 / 3.0, 2.0)}),  # y = 3x: top and bottom
    (1.0, 1.0, 0.0, {(-2.0, 2.0), (2.0, -2.0)}),  # the diagonal through two corners
    (0.0, 1.0, -0.5, {(-2.0, 0.5), (2.0, 0.5)}),  # horizontal
])
def test_a_slanted_line_is_clipped_to_the_box(a, b, c, ends):
    line = Line.from_coefficients(a, b, c)
    seg = _clip_line(line, BOX)
    assert seg is not None
    for pt in seg:
        assert line.distance_to(pt) <= EDGE_TOL
        assert on_box_edge(pt, BOX)
    got = {(pt.x, pt.y) for pt in seg}
    for want in ends:
        assert min(math.hypot(x - want[0], y - want[1]) for x, y in got) <= EDGE_TOL


@pytest.mark.parametrize("a, b, c", [(1.0, 1.0, -10.0), (1.0, -0.3, 5.0), (0.0, 1.0, 2.5)])
def test_a_line_outside_the_view_is_drawn_as_an_empty_group(a, b, c):
    line = Line.from_coefficients(a, b, c)
    assert _clip_line(line, BOX) is None
    svg = xml.dom.minidom.parseString(render_svg(Scene(lines=(line,), viewbox=BOX)))
    assert svg.getElementsByTagName("line") == []
    groups = [g for g in svg.getElementsByTagName("g")
              if g.getAttribute("class") == "line-outside-view"]
    assert len(groups) == 1


def test_a_lines_only_scene_uses_the_default_view_box():
    scene = scene_from_dict({"lines": [[1, -2, 0.2], [1, 0, 0.5]]})
    assert scene.viewbox is None
    svg = xml.dom.minidom.parseString(render_svg(scene)).documentElement
    xmin, flipped_ymin, w, h = map(float, svg.getAttribute("viewBox").split())
    # The y axis is flipped: the view box states -(ymin + h) for ymin.
    assert (xmin, -(flipped_ymin + h), w, h) == BOX
    drawn = svg.getElementsByTagName("line")
    assert len(drawn) == len(scene.lines)
    for element, line in zip(drawn, scene.lines):
        ends = [(float(element.getAttribute(f"x{i}")), float(element.getAttribute(f"y{i}")))
                for i in (1, 2)]
        for x, y in ends:
            assert abs(line.a * x + line.b * y + line.c) <= EDGE_TOL
            assert on_box_edge(Point(x, y), BOX)
        assert math.dist(*ends) > 1.0
