"""In-process workloads (`sweep`, `large_n`), their output gate, and the
per-layer probe that the traced run adds after each op.

An op is one polygon through the workload's whole pipeline.  Calls go
through a tracer, which in the untraced run is a pass-through.
"""

from __future__ import annotations

import json
import math

from discreteconics.duality import Reciprocator, dual_conic
from discreteconics.errors import FocusOutsideDual
from discreteconics.group import act_on_discrete, from_angle
from discreteconics.kernel import (
    Point,
    directed_angle,
    distance,
    intersect_lines,
    line_through,
    projective_from_correspondences,
)
from discreteconics.pencil import (
    classify,
    pedal_circle,
    pencil_member,
    point_at,
    tangency_residual,
    tangent_at,
)
from discreteconics.polygon import (
    closed_form_vertices,
    grid_layer,
    negative_pedal,
    synthesize,
    tangency_points,
)
from discreteconics.render import Scene, render_svg
from discreteconics.serialize import polygon_from_dict, polygon_to_dict
from discreteconics.verify import CHECK_NAMES, run_checks

import inputs
import refspeed
from spans import NullTracer

# Relative vertex distance allowed between the pedal polygon and the G image
# of the closed-form polygon: the 1e-9 of the construction-equivalence
# acceptance test, scaled by max(1, |V|) because star polygons with theta
# near pi put vertices far from the origin.
GATE_TOL = 1e-9


class GateMismatch(Exception):
    """An op returned an output that the benchmark's gate rejects."""


def _gate_vertices(got, want) -> None:
    if len(got.vertices) != len(want.vertices):
        raise GateMismatch("pedal and G image differ in vertex count")
    worst = max(
        distance(a, b) / max(1.0, math.hypot(b.x, b.y))
        for a, b in zip(got.vertices, want.vertices)
    )
    if worst > GATE_TOL:
        raise GateMismatch(f"pedal vs G image of closed form: {worst:.3e}")


def _act(tr, element, d):
    out = tr.call("group.act_on_discrete", act_on_discrete, element, d)
    if out.meta.get("vertex_correspondence") == "verified":
        tr.count("group.act_on_discrete.verified")
    return out


def _dual(tr, carrier) -> None:
    """FocusOutsideDual is documented for hyperbola members only."""
    try:
        tr.call("duality.dual_conic", dual_conic, Reciprocator(carrier.focus), carrier)
    except FocusOutsideDual:
        tr.count("duality.dual_conic.focus_outside")
        if classify(carrier) == "ellipse":
            raise


def _checks(tr, d) -> list:
    if tr.on:
        reports = []
        for name in CHECK_NAMES:
            reports += tr.call(f"verify.{name}", run_checks, d, names=[name])
        tr.count("verify.reports", len(reports))
        tr.count("verify.skipped", sum("skipped" in r.metadata for r in reports))
    else:
        reports = run_checks(d)
    return [(r.passed, r.max_residual, "skipped" in r.metadata) for r in reports]


def _render_twice(tr, scene) -> str:
    svg = tr.call("render.render_svg", render_svg, scene)
    if tr.call("render.render_svg", render_svg, scene) != svg:
        raise GateMismatch("render_svg is not byte-identical on the same scene")
    tr.count("render.svg_bytes", 2 * len(svg))
    return svg


def _round_trip(tr, d) -> None:
    text = tr.call("serialize.polygon_to_dict", lambda: json.dumps(polygon_to_dict(d)))
    back = tr.call("serialize.polygon_from_dict", lambda: polygon_from_dict(json.loads(text)))
    if back != d or json.dumps(polygon_to_dict(back)) != text:
        raise GateMismatch("JSON round trip is not the identity")


def _synthesize(tr, inp):
    return tr.call("polygon.synthesize", synthesize, inp.p, inp.t, inp.theta, inp.phi, inp.n)


def sweep_op(tr, inp) -> list:
    d = _synthesize(tr, inp)
    cf = tr.call("polygon.closed_form_vertices", closed_form_vertices,
                 inp.p, inp.theta, inp.phi + inp.theta, inp.n)
    _, pedal = tr.call("polygon.negative_pedal", negative_pedal, inp.p, inp.theta, inp.phi, inp.n)
    _gate_vertices(pedal, _act(tr, from_angle("G", inp.theta), cf))
    _act(tr, from_angle("H", inp.k * inp.theta), d)
    carrier = d.carrier
    tr.call("pencil.pedal_circle", pedal_circle, carrier)
    _dual(tr, carrier)
    reports = _checks(tr, d)
    _round_trip(tr, d)
    return reports


def large_n_op(tr, inp) -> list:
    d = _synthesize(tr, inp)
    reports = _checks(tr, d)
    layer = tr.call("polygon.grid_layer", grid_layer, d, 2)
    _render_twice(tr, Scene(conics=(d.carrier,), polygons=(d, layer)))
    return reports


OPS = {"sweep": sweep_op, "large_n": large_n_op}

# Layer calls each op already makes; the probe adds the others.
OP_COVERS = {
    "sweep": {"polygon.synthesize", "polygon.closed_form_vertices", "polygon.negative_pedal",
              "group.act_on_discrete", "pencil.pedal_circle", "duality.dual_conic",
              "verify", "serialize"},
    "large_n": {"polygon.synthesize", "verify", "polygon.grid_layer", "render.render_svg"},
}


def run_op(tr, fn, inp) -> inputs.OpResult:
    try:
        return inputs.OpResult(reports=fn(tr, inp))
    except GateMismatch as exc:
        return inputs.OpResult(failure=f"gate: {exc}", wrong=True)
    except Exception as exc:  # every other raise is a failed op
        return inputs.OpResult(failure=type(exc).__name__)


def probe(tr, d, covered=frozenset()) -> None:
    """Direct calls into every layer on polygon d, each in its own span,
    except the layers named in `covered`."""
    carrier = d.carrier
    calls = {
        "polygon.synthesize": (tr.call, "polygon.synthesize", synthesize,
                               d.p, d.t, d.theta, d.phi, d.n),
        "polygon.closed_form_vertices": (tr.call, "polygon.closed_form_vertices",
                                         closed_form_vertices, d.p, d.theta, d.phi + d.theta, d.n),
        "polygon.negative_pedal": (tr.call, "polygon.negative_pedal", negative_pedal,
                                   d.p, d.theta, d.phi, d.n),
        "polygon.grid_layer": (tr.call, "polygon.grid_layer", grid_layer, d, 2),
        "polygon.tangency_points": (tr.call, "polygon.tangency_points", tangency_points, d),
        "group.act_on_discrete": (_act, tr, from_angle("G", d.theta), d),
        "pencil.pedal_circle": (tr.call, "pencil.pedal_circle", pedal_circle, carrier),
        "duality.dual_conic": (_dual, tr, carrier),
        "verify": (_checks, tr, d),
        "serialize": (_round_trip, tr, d),
        "render.render_svg": (_render_twice, tr, Scene(conics=(carrier,), polygons=(d,))),
    }
    for key, (fn, *args) in calls.items():
        if key in covered:
            continue
        try:
            fn(*args)
        except GateMismatch:
            tr.count("gate_mismatch")
        except Exception:  # already counted against the layer by the tracer
            pass

    # Per-call costs of the primitives, over this polygon's vertices and sides.
    angles = [(carrier, d.phi + j * d.theta) for j in range(d.n)]
    tr.batch("pencil.point_at", point_at, angles)
    tr.batch("pencil.tangent_at", tangent_at, angles)
    verts = [d.vertex(i) for i in range(1, d.n + 2)]
    sides = [s for s in tr.batch("kernel.line_through", line_through, zip(verts, verts[1:])) if s]
    cos = math.cos(d.theta / 2.0)
    inner = pencil_member(d.p, d.t * cos * cos)
    tr.batch("pencil.tangency_residual", tangency_residual, [(inner, s) for s in sides])
    tr.batch("kernel.intersect_lines", intersect_lines,
             [(s, sides[(i + 2) % len(sides)]) for i, s in enumerate(sides)])
    tr.batch("kernel.directed_angle", directed_angle,
             [(d.focus, a, b) for a, b in zip(verts, verts[1:])])
    step = 2.0 * math.pi * d.winding / d.n
    square = [Point(math.cos(j * step), math.sin(j * step)) for j in range(4)]
    tr.batch("kernel.projective_from_correspondences", projective_from_correspondences,
             [(verts[j:j + 4], square) for j in range(min(8, d.n - 3))])


class Workload:
    def __init__(self, name: str, seed: int, small: bool):
        self.schedule = (inputs.sweep_schedule(seed) if name == "sweep"
                         else inputs.large_n_schedule(seed, small))
        self.op_fn = OPS[name]
        self.covered = frozenset(OP_COVERS[name])
        # Whole schedule passes alternate untraced / traced in a traced run,
        # so both halves see the same input mix.
        self.trace_block = self.pass_ops = len(self.schedule)
        self.ref_s = refspeed.REF_TASK_S

    def warm_up(self) -> None:
        """One op per (member, kind) on the smallest polygons, at most ten,
        on inputs no timed op uses."""
        slots = self.schedule.slots
        smallest = min(min(sizes) for _, _, sizes in slots)
        first = {}
        for i, (member, kind, sizes) in enumerate(slots):
            if min(sizes) == smallest:
                first.setdefault((member, kind), i)
        for i in list(first.values())[:10]:
            run_op(NullTracer(), self.op_fn, self.schedule.op_input(i, "warmup"))

    def op_input(self, i: int):
        return self.schedule.op_input(i)

    def reference(self, i: int, op_s: float) -> float:
        return refspeed.after_op(op_s)

    def op(self, tr, i: int, inp) -> inputs.OpResult:
        return run_op(tr, self.op_fn, inp)

    def probe(self, tr, i: int, inp) -> None:
        try:
            d = synthesize(inp.p, inp.t, inp.theta, inp.phi, inp.n)
        except Exception:
            return
        probe(tr, d, self.covered)
