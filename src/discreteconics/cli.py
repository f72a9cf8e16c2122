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


# Option -> its argparse keywords, the same for every subcommand that takes it.
_OPTIONS = {
    "--p": dict(type=float, required=True),
    "--t": dict(type=float, required=True),
    "--theta": dict(type=parse_angle, required=True),
    "--phi": dict(type=parse_angle, default=0.0),
    "--n": dict(type=int, required=True),
    "--op": dict(choices=("G", "H"), required=True),
    "--angle": dict(type=parse_angle, required=True),
    "--k": dict(type=int, required=True),
    "--check": dict(default="all"),
    "--tol": dict(type=_tolerance),  # verify.DEFAULT_TOL when absent
    "--out": dict(required=True),
}


def _transform(args) -> "DiscreteConic":
    from .group import act_on_discrete, from_angle

    d = polygon_from_dict(_read_object())  # the input is read before the angle is checked
    return act_on_discrete(from_angle(args.op, args.angle), d)


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


# Subcommand -> (help, options, handler); a handler returns an exit code or a polygon to print.
_SUBCOMMANDS = {
    "generate": ("equal-focal-angle polygon on a pencil member", "--p --t --theta --phi --n",
                 lambda args: synthesize(args.p, args.t, args.theta, args.phi, args.n)),
    "pedal": ("discrete negative-pedal construction", "--p --theta --phi --n",
              lambda args: negative_pedal(args.p, args.theta, args.phi, args.n)[1]),
    "transform": ("apply a group element to a polygon from stdin", "--op --angle", _transform),
    "grid": ("intersections of side lines k apart", "--k",
             lambda args: grid_layer(polygon_from_dict(_read_object()), args.k)),
    "verify": ("run residual checks on a polygon from stdin", "--check --tol", _verify),
    "render": ("render a scene or polygon JSON to SVG", "--out", _render),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="discreteconics",
        description="Construct, transform, verify and render discrete conics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options, handler) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=text, allow_abbrev=False)  # '--ph' is not '--phi'
        for option in options.split():
            cmd.add_argument(option, **_OPTIONS[option])
        cmd.set_defaults(run=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_angles(sys.argv[1:] if argv is None else argv))
    try:
        out = args.run(args)
        if isinstance(out, int):
            return out
        _emit(polygon_to_dict(out))
        return 0
    except KeyError as exc:  # a required JSON key is absent
        print(f"error: missing key {exc}", file=sys.stderr)
        return 2
    except (GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
