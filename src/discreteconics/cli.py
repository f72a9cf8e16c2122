"""Command-line surface.

Subcommands exchange polygon/report JSON on stdin/stdout and render SVG
figures to files.  Exit codes: 0 success / all checks pass, 1 verification
failure, 2 usage, malformed or degenerate input, or an unwritable output
file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from .errors import GeometryError, MalformedInput
from .polygon import grid_layer, negative_pedal, synthesize
from .serialize import polygon_from_dict, polygon_to_dict, report_to_dict

# group, verify and render are imported by the handlers that run them, so a
# call loads only the modules its subcommand needs.

_ANGLE_RE = re.compile(r"^([+-]?[0-9.]*)\s*\*?\s*pi\s*(?:/\s*([0-9.]+))?$")
_ANGLE_OPTIONS = ("--theta", "--phi", "--angle")


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
        num = float(coef + "1" if coef in ("", "+", "-") else coef)  # a bare sign means 1
        den = float(m.group(2) or 1.0)
        if den == 0.0:
            raise ValueError(f"zero denominator in angle {text!r}")
        value = num * math.pi / den
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {text!r}")
    return value


def _attach_angles(argv) -> list:
    """'--phi -pi/3' -> '--phi=-pi/3': argparse takes a value that starts
    with '-' for an option unless it is attached."""
    out = []
    for arg in argv:
        if out and out[-1] in _ANGLE_OPTIONS and _ANGLE_RE.match(arg.strip()):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _tolerance(text: str) -> float:
    """A finite positive float; anything else is a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text!r}")
    return value


def _read_object() -> dict:
    obj = json.loads(sys.stdin.read())
    if not isinstance(obj, dict):
        raise MalformedInput(f"expected a JSON object on stdin, got {type(obj).__name__}")
    return obj


def _emit(obj) -> None:
    json.dump(obj, sys.stdout)
    sys.stdout.write("\n")


class _Parser(argparse.ArgumentParser):
    """Gives `verify --check` its help text when help is printed: the text
    lists verify.CHECK_NAMES, and parsing alone does not import verify."""

    def format_help(self) -> str:
        for action in self._actions:
            if action.dest == "check":
                from .verify import CHECK_NAMES

                action.help = "'all' or one of: " + ", ".join(CHECK_NAMES)
        return super().format_help()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="discreteconics",
        description="Construct, transform, verify and render discrete conics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)  # '--ph' is not '--phi'

    gen = add_parser("generate", help="equal-focal-angle polygon on a pencil member")
    gen.add_argument("--p", type=float, required=True)
    gen.add_argument("--t", type=float, required=True)
    gen.add_argument("--theta", type=parse_angle, required=True)
    gen.add_argument("--phi", type=parse_angle, default=0.0)
    gen.add_argument("--n", type=int, required=True)

    ped = add_parser("pedal", help="discrete negative-pedal construction")
    ped.add_argument("--p", type=float, required=True)
    ped.add_argument("--theta", type=parse_angle, required=True)
    ped.add_argument("--phi", type=parse_angle, default=0.0)
    ped.add_argument("--n", type=int, required=True)

    tra = add_parser("transform", help="apply a group element to a polygon from stdin")
    tra.add_argument("--op", choices=("G", "H"), required=True)
    tra.add_argument("--angle", type=parse_angle, required=True)

    grd = add_parser("grid", help="intersections of side lines k apart")
    grd.add_argument("--k", type=int, required=True)

    ver = add_parser("verify", help="run residual checks on a polygon from stdin")
    ver.add_argument("--check", default="all")
    ver.add_argument("--tol", type=_tolerance)  # verify.DEFAULT_TOL when absent

    ren = add_parser("render", help="render a scene or polygon JSON to SVG")
    ren.add_argument("--out", required=True)
    return parser


def _transform(args) -> "DiscreteConic":
    from .group import act_on_discrete, from_angle

    d = polygon_from_dict(_read_object())  # the input is read before the angle is checked
    return act_on_discrete(from_angle(args.op, args.angle), d)


# Subcommand -> the polygon it prints.
_POLYGON_OF = {
    "generate": lambda args: synthesize(args.p, args.t, args.theta, args.phi, args.n),
    "pedal": lambda args: negative_pedal(args.p, args.theta, args.phi, args.n)[1],
    "transform": _transform,
    "grid": lambda args: grid_layer(polygon_from_dict(_read_object()), args.k),
}


def _print_polygon(args) -> int:
    _emit(polygon_to_dict(_POLYGON_OF[args.command](args)))
    return 0


def _verify(args) -> int:
    from .verify import DEFAULT_TOL, run_checks

    names = None if args.check == "all" else [args.check]
    tol = DEFAULT_TOL if args.tol is None else args.tol
    reports = run_checks(polygon_from_dict(_read_object()), names=names, tol=tol)
    _emit([report_to_dict(r) for r in reports])
    return 0 if all(r.passed for r in reports) else 1


def _render(args) -> int:
    from .render import render_svg, scene_from_dict

    svg = render_svg(scene_from_dict(_read_object()))
    with open(args.out, "w") as fh:
        fh.write(svg)
    return 0


# Subcommand -> its handler, for those that do not print a polygon.
_HANDLERS = {"verify": _verify, "render": _render}


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_angles(sys.argv[1:] if argv is None else argv))
    try:
        return _HANDLERS.get(args.command, _print_polygon)(args)
    except (GeometryError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
