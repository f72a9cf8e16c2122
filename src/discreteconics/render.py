"""Deterministic SVG 1.1 emission for pencil conics, polygons and markers.

Output is plain text assembled with shortest round-trip float formatting:
the same scene always renders to byte-identical SVG.  Each scene item
becomes exactly one element (hyperbola branches live inside one group).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AsymptoticDirection, EmptyScene, MalformedInput
from .kernel import Line, Point
from .pencil import FocalConic, focal_radii
from .polygon import DiscreteConic
from .serialize import (_exact, conic_from_dict, conic_to_dict, polygon_from_dict,
                        polygon_to_dict, read_array, read_number)

_STROKES = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_WIDTH = 800  # SVG width attribute; the height follows the viewbox aspect


@dataclass(frozen=True)
class Scene:
    conics: tuple[FocalConic, ...] = ()
    polygons: tuple[DiscreteConic, ...] = ()
    points: tuple[tuple[str, Point], ...] = ()
    lines: tuple[Line, ...] = ()
    viewbox: tuple[float, float, float, float] | None = None


def scene_to_dict(s: Scene) -> dict:
    out = {
        "conics": [conic_to_dict(c) for c in s.conics],
        "polygons": [polygon_to_dict(p) for p in s.polygons],
        "points": [{"label": lab, "xy": [p.x, p.y]} for lab, p in s.points],
        "lines": [[l.a, l.b, l.c] for l in s.lines],
    }
    if s.viewbox is not None:
        out["viewbox"] = list(s.viewbox)
    return out


def _xml_char(c: str) -> bool:
    """The Char production of XML 1.0, which excludes the other C0 controls,
    the surrogates, U+FFFE and U+FFFF, even as character references."""
    return c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"


def _label(entry: dict) -> str:
    """The label of a scene point entry, which must be an object."""
    label = _exact(entry, "point", (dict,), "an object").get("label", "")
    if type(label) is not str or not all(map(_xml_char, label)):
        raise MalformedInput(f"label must be a string of XML 1.0 characters, got {label!r}")
    return label


def scene_from_dict(obj: dict) -> Scene:
    """A scene object, or a polygon object drawn with its carrier and focus F."""
    if "vertices" in _exact(obj, "scene", (dict,), "an object"):
        poly = polygon_from_dict(obj)
        return Scene(conics=(poly.carrier,), polygons=(poly,), points=(("F", poly.focus),))
    return Scene(
        conics=read_array(obj.get("conics", []), "conics", conic_from_dict),
        polygons=read_array(obj.get("polygons", []), "polygons", polygon_from_dict),
        points=read_array(obj.get("points", []), "points", lambda entry: (
            _label(entry), Point(*read_number(entry["xy"], "xy", 2)))),
        lines=read_array(obj.get("lines", []), "lines", lambda abc: Line.from_coefficients(
            *read_number(abc, "lines", 3))),
        viewbox=read_number(obj["viewbox"], "viewbox", 4) if "viewbox" in obj else None,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def sample_conic(c: FocalConic, count: int = 512,
                 r_clip: float = 1e3) -> list[list[tuple[float, float]]]:
    """Polyline samples as (x, y) float pairs, split into branches at
    asymptotic directions."""
    c = FocalConic(float(c.p), float(c.t))  # plain floats in, plain floats out
    alphas = [2.0 * math.pi * j / count for j in range(count + 1)]
    radii: list[float] = []
    while len(radii) < len(alphas):  # an asymptotic direction reads as an infinite radius
        try:
            for r in focal_radii(c, alphas[len(radii):]):
                radii.append(r)
        except AsymptoticDirection:
            radii.append(math.inf)
    branches: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    prev_r = None
    for alpha, r in zip(alphas, radii):
        if not math.isfinite(r) or abs(r) > r_clip or (prev_r is not None and r * prev_r < 0.0):
            if len(current) >= 2:
                branches.append(current)
            current = []
            prev_r = None
            if not math.isfinite(r) or abs(r) > r_clip:
                continue
        current.append((-c.p + r * math.cos(alpha), r * math.sin(alpha)))
        prev_r = r
    if len(current) >= 2:
        branches.append(current)
    return branches


def _auto_viewbox(s: Scene) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for poly in s.polygons:
        xs += [v.x for v in poly.vertices]
        ys += [v.y for v in poly.vertices]
    for _, p in s.points:
        xs.append(p.x)
        ys.append(p.y)
    for c in s.conics:
        for branch in sample_conic(c, count=64, r_clip=20.0):
            xs += [x for x, _ in branch]
            ys += [y for _, y in branch]
    if not xs:
        return (-2.0, -2.0, 4.0, 4.0)
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    pad = 0.1 * max(xmax - xmin, ymax - ymin, 1.0)
    return (xmin - pad, ymin - pad, (xmax - xmin) + 2 * pad, (ymax - ymin) + 2 * pad)


def _clip_line(line: Line, box) -> tuple[Point, Point] | None:
    xmin, ymin, w, h = box
    xmax, ymax = xmin + w, ymin + h
    hits = []
    # Intersections with the four box edges.
    if abs(line.b) > 1e-15:
        for x in (xmin, xmax):
            y = -(line.a * x + line.c) / line.b
            if ymin - 1e-12 <= y <= ymax + 1e-12:
                hits.append(Point(x, y))
    if abs(line.a) > 1e-15:
        for y in (ymin, ymax):
            x = -(line.b * y + line.c) / line.a
            if xmin - 1e-12 <= x <= xmax + 1e-12:
                hits.append(Point(x, y))
    best = None
    for i in range(len(hits)):
        for j in range(i + 1, len(hits)):
            d = math.hypot(hits[i].x - hits[j].x, hits[i].y - hits[j].y)
            if best is None or d > best[0]:
                best = (d, hits[i], hits[j])
    if best is None or best[0] < 1e-12:
        return None
    return best[1], best[2]


def _escape(text) -> str:
    """Text for a double-quoted XML attribute."""
    text = str(text).replace("&", "&amp;")
    return text.replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _points_attr(pairs) -> str:
    """(x, y) float pairs as 'x,y x,y ...': repr is _fmt on a float."""
    return " ".join([f"{x!r},{y!r}" for x, y in pairs])


def _vertices_attr(points) -> str:
    """_points_attr of the points' (x, y) pairs, without building the pairs."""
    return " ".join([f"{v.x!r},{v.y!r}" for v in points])


def render_svg(s: Scene) -> str:
    if not (s.conics or s.polygons or s.points or s.lines):
        raise EmptyScene("nothing to render")
    box = s.viewbox if s.viewbox is not None else _auto_viewbox(s)
    xmin, ymin, w, h = box
    if not (w > 0 and h > 0 and all(map(math.isfinite, (*box, _WIDTH * h / w)))):
        raise ValueError(f"degenerate or non-finite viewbox {box}")
    height = _WIDTH * h / w
    sw = _fmt(h / 400.0)  # stroke width in world units
    body = []
    color = 0
    for c in s.conics:
        stroke = _STROKES[color % len(_STROKES)]
        color += 1
        lines = "".join(
            f'<polyline points="{_points_attr(branch)}" fill="none" '
            f'stroke="{stroke}" stroke-width="{sw}"/>'
            for branch in sample_conic(c, r_clip=2.0 * (abs(xmin) + abs(ymin) + w + h))
        )
        body.append(f'<g class="conic" data-p="{_fmt(c.p)}" data-t="{_fmt(c.t)}">{lines}</g>')
    for poly in s.polygons:
        stroke = _STROKES[color % len(_STROKES)]
        color += 1
        tag = "polygon" if poly.closed else "polyline"
        body.append(
            f'<{tag} points="{_vertices_attr(poly.vertices)}" fill="none" '
            f'stroke="{stroke}" stroke-width="{sw}"/>'
        )
    for line in s.lines:
        seg = _clip_line(line, box)
        if seg is None:
            body.append('<g class="line-outside-view"/>')
            continue
        body.append(
            f'<line x1="{_fmt(seg[0].x)}" y1="{_fmt(seg[0].y)}" '
            f'x2="{_fmt(seg[1].x)}" y2="{_fmt(seg[1].y)}" '
            f'stroke="#444444" stroke-width="{sw}"/>'
        )
    for label, p in s.points:
        body.append(
            f'<circle cx="{_fmt(p.x)}" cy="{_fmt(p.y)}" r="{_fmt(h / 150.0)}" '
            f'fill="#000000" data-label="{_escape(label)}"/>'
        )
    view = f"{_fmt(xmin)} {_fmt(-(ymin + h))} {_fmt(w)} {_fmt(h)}"
    return (
        '<?xml version="1.0" encoding="UTF-8"?>'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_fmt(height)}" viewBox="{view}">'
        f'<g transform="scale(1,-1)">{"".join(body)}</g></svg>'
    )
