"""render_svg writes coordinate pairs without building a Point per sample.

sample_conic returns (x, y) float pairs and the points attributes format
them with repr directly.  The SVG must stay byte for byte what the Point
path wrote: a reference renderer below keeps that path (a validated Point
per sample, every number through repr(float(x))) and each scene is rendered
by both.
"""

import math

import pytest

from discreteconics.kernel import Line, Point
from discreteconics.pencil import FocalConic, focal_radius, pencil_member
from discreteconics.errors import AsymptoticDirection
from discreteconics.polygon import synthesize
from discreteconics.render import (_STROKES, _WIDTH, Scene, _clip_line, _escape, render_svg,
                                   sample_conic)


def ref_fmt(x) -> str:
    return repr(float(x))


def ref_sample_conic(c, count=512, r_clip=1e3):
    branches, current, prev_r = [], [], None
    for j in range(count + 1):
        alpha = 2.0 * math.pi * j / count
        try:
            r = focal_radius(c, alpha)
        except AsymptoticDirection:
            r = math.inf
        if not math.isfinite(r) or abs(r) > r_clip or (prev_r is not None and r * prev_r < 0.0):
            if len(current) >= 2:
                branches.append(current)
            current, prev_r = [], None
            if not math.isfinite(r) or abs(r) > r_clip:
                continue
        current.append(Point(-c.p + r * math.cos(alpha), r * math.sin(alpha)))
        prev_r = r
    if len(current) >= 2:
        branches.append(current)
    return branches


def ref_auto_viewbox(s):
    pts = [v for poly in s.polygons for v in poly.vertices] + [p for _, p in s.points]
    for c in s.conics:
        for branch in ref_sample_conic(c, count=64, r_clip=20.0):
            pts += branch
    if not pts:
        return (-2.0, -2.0, 4.0, 4.0)
    xmin, xmax = min(p.x for p in pts), max(p.x for p in pts)
    ymin, ymax = min(p.y for p in pts), max(p.y for p in pts)
    pad = 0.1 * max(xmax - xmin, ymax - ymin, 1.0)
    return (xmin - pad, ymin - pad, (xmax - xmin) + 2 * pad, (ymax - ymin) + 2 * pad)


def ref_points_attr(points) -> str:
    return " ".join(f"{ref_fmt(p.x)},{ref_fmt(p.y)}" for p in points)


def ref_render_svg(s) -> str:
    box = s.viewbox if s.viewbox is not None else ref_auto_viewbox(s)
    xmin, ymin, w, h = box
    sw = ref_fmt(h / 400.0)
    body, color = [], 0
    for c in s.conics:
        stroke = _STROKES[color % len(_STROKES)]
        color += 1
        lines = "".join(
            f'<polyline points="{ref_points_attr(branch)}" fill="none" '
            f'stroke="{stroke}" stroke-width="{sw}"/>'
            for branch in ref_sample_conic(c, r_clip=2.0 * (abs(xmin) + abs(ymin) + w + h))
        )
        body.append(f'<g class="conic" data-p="{ref_fmt(c.p)}" data-t="{ref_fmt(c.t)}">{lines}</g>')
    for poly in s.polygons:
        stroke = _STROKES[color % len(_STROKES)]
        color += 1
        tag = "polygon" if poly.closed else "polyline"
        body.append(f'<{tag} points="{ref_points_attr(poly.vertices)}" fill="none" '
                    f'stroke="{stroke}" stroke-width="{sw}"/>')
    for line in s.lines:
        seg = _clip_line(line, box)
        if seg is None:
            body.append('<g class="line-outside-view"/>')
            continue
        body.append(f'<line x1="{ref_fmt(seg[0].x)}" y1="{ref_fmt(seg[0].y)}" '
                    f'x2="{ref_fmt(seg[1].x)}" y2="{ref_fmt(seg[1].y)}" '
                    f'stroke="#444444" stroke-width="{sw}"/>')
    for label, p in s.points:
        body.append(f'<circle cx="{ref_fmt(p.x)}" cy="{ref_fmt(p.y)}" r="{ref_fmt(h / 150.0)}" '
                    f'fill="#000000" data-label="{_escape(label)}"/>')
    view = f"{ref_fmt(xmin)} {ref_fmt(-(ymin + h))} {ref_fmt(w)} {ref_fmt(h)}"
    return ('<?xml version="1.0" encoding="UTF-8"?>'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_WIDTH}" height="{ref_fmt(_WIDTH * h / w)}" viewBox="{view}">'
            f'<g transform="scale(1,-1)">{"".join(body)}</g></svg>')


ELLIPSE = pencil_member(0.75, 0.5)
HYPERBOLA = pencil_member(0.5, 20.0)  # sqrt(t) * p > 1: two branches
CLOSED = synthesize(0.75, 0.5, 2.0 * math.pi / 12, 0.3, 12)
CHAIN = synthesize(0.5, 1.0, 1.0, 0.2, 5)  # 5 * 1.0 is no multiple of 2 pi
LINES = (Line.from_coefficients(0.5, -1.0, 0.1), Line.from_coefficients(1.0, 1.0, -10.0))
POINTS = (("F", Point(-0.75, 0.0)), ('a"b&<c>', Point(0.25, -0.5)))

SCENES = {
    "ellipse": Scene(conics=(ELLIPSE,)),
    "ellipse_polygon_focus": Scene(conics=(ELLIPSE,), polygons=(CLOSED,), points=POINTS[:1]),
    "hyperbola": Scene(conics=(HYPERBOLA,)),
    "hyperbola_box": Scene(conics=(HYPERBOLA,), viewbox=(-3.0, -2.5, 6.0, 5.0)),
    "open_chain": Scene(polygons=(CHAIN,)),
    "lines": Scene(lines=LINES),
    "lines_box": Scene(lines=LINES, viewbox=(-2.0, -2.0, 4.0, 4.0)),
    "labelled_points": Scene(points=POINTS),
    "everything": Scene(conics=(ELLIPSE, HYPERBOLA), polygons=(CLOSED, CHAIN), points=POINTS,
                        lines=LINES),
    "int_box_int_conic": Scene(conics=(FocalConic(0, 1),), viewbox=(-2, -2, 4, 4)),
    "int_conic_auto_box": Scene(conics=(FocalConic(0, 1),)),
}


def test_the_hyperbola_scene_draws_both_branches():
    # The branch crossing the direction alpha = 0 is cut there, so three polylines.
    sides = {branch[0][0] > -HYPERBOLA.p for branch in sample_conic(HYPERBOLA)}
    assert sides == {True, False}


@pytest.mark.parametrize("name", SCENES)
def test_svg_bytes_match_the_point_path(name):
    scene = SCENES[name]
    assert render_svg(scene) == ref_render_svg(scene)


def test_int_fields_still_print_as_floats():
    svg = render_svg(SCENES["int_box_int_conic"])
    assert 'data-p="0.0" data-t="1.0"' in svg and 'viewBox="-2.0 -2.0 4.0 4.0"' in svg


@pytest.mark.parametrize("conic", [ELLIPSE, HYPERBOLA, FocalConic(0, 1)],
                         ids=["ellipse", "hyperbola", "int_fields"])
def test_sample_conic_gives_float_pairs_at_the_point_coordinates(conic):
    got = sample_conic(conic)
    want = ref_sample_conic(conic)
    assert [[(p.x, p.y) for p in branch] for branch in want] == got
    assert all(type(v) is float for branch in got for xy in branch for v in xy)
    assert all(type(xy) is tuple and len(xy) == 2 for branch in got for xy in branch)


def test_numpy_scalar_fields_sample_to_plain_floats():
    np = pytest.importorskip("numpy")
    conic = FocalConic(np.float64(0.75), np.float64(0.5))
    got = sample_conic(conic)
    assert got == sample_conic(ELLIPSE)
    assert all(type(v) is float for branch in got for xy in branch for v in xy)
    assert render_svg(Scene(conics=(conic,))) == render_svg(Scene(conics=(ELLIPSE,)))
