"""Command-line surface.

Subcommands exchange polygon/report JSON on stdin/stdout and render SVG
figures to files.  Exit codes: 0 success / all checks pass, 1 verification
failure, 2 usage, malformed or degenerate input, or an unwritable output
file.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .errors import GeometryError, MalformedInput
from .group import act_on_discrete, from_angle
from .polygon import grid_layer, negative_pedal, synthesize
from .render import Scene, render_svg, scene_from_dict
from .serialize import polygon_from_dict, polygon_to_dict, report_to_dict
from .verify import CHECK_NAMES, DEFAULT_TOL, run_checks

_ANGLE_RE = re.compile(r"^([+-]?[0-9.]*)\s*\*?\s*pi\s*(?:/\s*([0-9.]+))?$")


def parse_angle(text: str) -> float:
    """Radians, or a pi fraction such as '2pi/12', 'pi/6', '-pi'.

    A zero denominator or a non-finite angle raises ValueError, which
    argparse reports as a usage error (exit 2).
    """
    text = text.strip()
    m = _ANGLE_RE.match(text)
    if not m:
        value = float(text)
    else:
        coef = m.group(1)
        if coef in ("", "+"):
            num = 1.0
        elif coef == "-":
            num = -1.0
        else:
            num = float(coef)
        value = num * math.pi
        if m.group(2):
            den = float(m.group(2))
            if den == 0.0:
                raise ValueError(f"zero denominator in angle {text!r}")
            value /= den
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """A finite positive float; anything else is a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text!r}")
    return value


def _read_object(stream) -> dict:
    obj = json.loads(stream.read())
    if not isinstance(obj, dict):
        raise MalformedInput(f"expected a JSON object on stdin, got {type(obj).__name__}")
    return obj


def _read_polygon(stream) -> "DiscreteConic":
    return polygon_from_dict(_read_object(stream))


def _emit(obj) -> None:
    json.dump(obj, sys.stdout)
    sys.stdout.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discreteconics",
        description="Construct, transform, verify and render discrete conics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="equal-focal-angle polygon on a pencil member")
    gen.add_argument("--p", type=float, required=True)
    gen.add_argument("--t", type=float, required=True)
    gen.add_argument("--theta", type=parse_angle, required=True)
    gen.add_argument("--phi", type=parse_angle, default=0.0)
    gen.add_argument("--n", type=int, required=True)

    ped = sub.add_parser("pedal", help="discrete negative-pedal construction")
    ped.add_argument("--p", type=float, required=True)
    ped.add_argument("--theta", type=parse_angle, required=True)
    ped.add_argument("--phi", type=parse_angle, default=0.0)
    ped.add_argument("--n", type=int, required=True)

    tra = sub.add_parser("transform", help="apply a group element to a polygon from stdin")
    tra.add_argument("--op", choices=("G", "H"), required=True)
    tra.add_argument("--angle", type=parse_angle, required=True)

    grd = sub.add_parser("grid", help="intersections of side lines k apart")
    grd.add_argument("--k", type=int, required=True)

    ver = sub.add_parser("verify", help="run residual checks on a polygon from stdin")
    ver.add_argument("--check", default="all",
                     help="'all' or one of: " + ", ".join(CHECK_NAMES))
    ver.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    ren = sub.add_parser("render", help="render a scene or polygon JSON to SVG")
    ren.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            poly = synthesize(args.p, args.t, args.theta, args.phi, args.n)
            _emit(polygon_to_dict(poly))
        elif args.command == "pedal":
            _, poly = negative_pedal(args.p, args.theta, args.phi, args.n)
            _emit(polygon_to_dict(poly))
        elif args.command == "transform":
            poly = _read_polygon(sys.stdin)
            _emit(polygon_to_dict(act_on_discrete(from_angle(args.op, args.angle), poly)))
        elif args.command == "grid":
            poly = _read_polygon(sys.stdin)
            _emit(polygon_to_dict(grid_layer(poly, args.k)))
        elif args.command == "verify":
            poly = _read_polygon(sys.stdin)
            names = None if args.check == "all" else [args.check]
            reports = run_checks(poly, names=names, tol=args.tol)
            _emit([report_to_dict(r) for r in reports])
            if not all(r.passed for r in reports):
                return 1
        elif args.command == "render":
            obj = _read_object(sys.stdin)
            if "vertices" in obj:
                poly = polygon_from_dict(obj)
                scene = Scene(
                    conics=(poly.carrier,),
                    polygons=(poly,),
                    points=(("F", poly.focus),),
                )
            else:
                scene = scene_from_dict(obj)
            svg = render_svg(scene)
            with open(args.out, "w") as fh:
                fh.write(svg)
        return 0
    except (GeometryError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
