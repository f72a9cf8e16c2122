#!/usr/bin/env python3
"""Check that the library's outputs are byte-identical to a base revision's.

    python3 scripts/same_outputs.py --base REV

Exports REV's src/ with `git archive` into a temporary directory, then runs
that tree and this checkout's src/ on fixed benchmark schedules from
perfbench/inputs.py (imported read-only): large_n seed 3, ops 0-89, and
sweep seed 3, ops 0-2999.  Each op builds what the benchmark op builds, and
every output is hashed by kind:

    reports.<check> run_checks(d, names=[check]) for each of the tree's
                    CHECK_NAMES, as reports.projective_regular and so on
                    (residuals as exact float reprs)
    polygon_json    the synthesized polygon's JSON
    grid_layers     grid_layer(d, 2), as polygon JSON
    images          G and H images (act_on_discrete), as polygon JSON
    negative_pedal  the pedal scaffold and polygon
    svg             render_svg of the carrier with the polygon (and layer)
    dual_conic      dual_conic of each op's pencil member, with
                    require_focus_inside on and off
    cli             the fixed cli.main pipelines of CLI_PIPELINES: each call's
                    stdout, stderr and exit code, and the files it writes
    tangency        tangency_points, as polygon JSON, and on even n the
                    opposite-side intersections with the directrix x = -1/p
    sides           DiscreteConic.sides after the checks ran, each side's
                    (a, b, c) as exact float reprs
    correspondence  the message of what the G and H actions of images raise
                    on sweep ops with group._CORRESPONDENCE_TOL = -1.0: every
                    verified action fails, naming its worst residual's repr

An op that raises records the exception type, not its message; a CLI call's
stderr is hashed as it is.  Prints one sha256 per kind for each tree and
exits 1 on any difference; a kind that only one tree has differs.  Run
from a source checkout; `--src DIR` prints the digests of the tree at DIR
alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The reports.<check> kinds come first, one per name in the tree's CHECK_NAMES.
KINDS = ("polygon_json", "grid_layers", "images", "negative_pedal", "svg", "dual_conic",
         "cli", "tangency", "sides", "correspondence")
# (workload, seed, number of ops from op 0)
SCHEDULES = (("large_n", 3, 90), ("sweep", 3, 3000))


def echo(text: str):
    """A pipeline stage that prints text, as `echo` does."""
    return lambda _: text + "\n"


def sed(pattern: str, repl: str):
    """A pipeline stage that edits its input as `sed 's/pattern/repl/'` does
    on one-line JSON: the first match only."""
    return lambda text: re.sub(pattern, repl, text, count=1)


GEN = "generate --p 0.75 --t 0.5 --theta pi/6 --n 12"
GEN8 = "generate --p 0.5 --t 1 --theta 2pi/8 --n 8"
BIG = "9" * 401  # a JSON integer beyond float range
# Each pipeline of scripts/cli_smoke.sh that runs the CLI, as the script stood
# when these kinds were added, then each subcommand's --help.  A str stage is
# a cli.main argv; its stdin is the previous stage's stdout.  The list is
# fixed, so a pipeline added to the smoke script later does not change the hash.
CLI_PIPELINES = (
    (GEN,),
    ("pedal --p 0.75 --theta pi/6 --n 12",),
    (GEN8, "transform --op G --angle 2pi/8"),
    (GEN, "grid --k 3"),
    (GEN, "verify --check all"),
    ("generate --p 0.75 --t 1 --theta 2pi/6 --n 6", "render --out figure.svg"),
    ("generate --p 0.3 --t 20 --theta 2pi/7 --n 7", "verify"),
    ("generate --p 0.5 --t 20 --theta 2pi/8 --n 8", "grid --k 2", "verify"),
    (GEN, "verify --tol 1e-300"),
    ("generate --p 1 --t 0.5 --theta pi/6 --n 12",),
    ("generate --p 0.5 --t 1 --theta pi/0 --n 8",),
    (echo('{"conics": 5}'), "render --out scene.svg"),
    ("generate --p 0.5 --t 1 --theta 2pi/8 --n 7", sed('"closed": false', '"closed": true'),
     "verify"),
    (echo('{"conics": [{"p": NaN, "t": 1}]}'), "render --out nan.svg"),
    (echo('{"p": 0.5, "t": 1, "theta": 1, "phi": 0, "n": 0, "closed": true, "vertices": []}'),
     "render --out e.svg"),
    (GEN8, sed('"theta": [^,]*', '"theta": 0.0'), "grid --k 2"),
    (GEN8, sed('"p": [^,]*', '"p": 1.0'), "verify --check projective_regular"),
    (echo('{"lines": [[NaN, 1, 0]]}'), "render --out line.svg"),
    (echo('{"p": 0.5, "t": 1.0, "theta": 0.7853981633974483, "phi": 0.0, "n": 4, '
          '"closed": false, "vertices": [[1e200, 1e200], [0.3, 0.2], [0.1, 0.5], [0.2, 0.1]]}'),
     "verify"),
    ("generate --p 0.5 --t 1 --theta 2pi/8 --phi -pi/3 --n 8",),
    (GEN8, sed('"closed": true', '"closed": "no"'), "verify"),
    (echo(r'{"points": [{"label": "a\"b&c", "xy": [0, 0]}]}'), "render --out label.svg"),
    (GEN8, sed('"p": [^,]*', '"p": "0.5"'), "verify"),
    (GEN8, sed('"p": [^,]*', f'"p": {BIG}'), "verify"),
    (echo(r'{"points": [{"label": "a\u0001b", "xy": [0, 0]}]}'), "render --out ctl.svg"),
    ("generate --p 0.5 --t 1 --theta 2pi/8 --ph -pi/3 --n 8",),
    (GEN8, sed(r'"vertices": .*\]\]', '"vertices": null'), "verify"),
    (echo('{"points": 5}'), "render --out points.svg"),
    (echo(f'{{"lines": [[1, {BIG}, 0]]}}'), "render --out big.svg"),
    ("generate --p 0.75 --t 2.716202746667414 --theta 2pi/5 --n 5", "verify"),
    ("generate --p 0.5 --t 1 --theta 1e-12 --n 5",),
    ("generate --p 0.5 --t 1 --theta 1e-320 --n 5", "transform --op G --angle 2pi/7"),
    ("generate --p 0.5 --t 1 --theta 5pi/6 --n 12", "verify"),
    ("--help",),
    *((f"{sub} --help",) for sub in ("generate", "pedal", "transform", "grid", "verify", "render")),
)


def digests(src: Path) -> dict[str, str]:
    """sha256 per kind of every output of the tree at src."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import inputs
    from discreteconics import group
    from discreteconics.cli import main
    from discreteconics.duality import Reciprocator, dual_conic
    from discreteconics.group import act_on_discrete, from_angle
    from discreteconics.polygon import (closed_form_vertices, grid_layer, negative_pedal,
                                        opposite_side_intersections, synthesize, tangency_points)
    from discreteconics.render import Scene, render_svg
    from discreteconics.serialize import polygon_to_dict
    from discreteconics.pencil import pencil_member
    from discreteconics.verify import CHECK_NAMES, run_checks

    checks = {name: f"reports.{name}" for name in CHECK_NAMES}
    hashes = {kind: hashlib.sha256() for kind in (*checks.values(), *KINDS)}

    def record(kind, key, fn, *args):
        """Hash fn(*args) under kind, or its exception type; return it or None."""
        try:
            out = fn(*args)
        except Exception as exc:  # the error type is an output too
            hashes[kind].update(f"{key} raised {type(exc).__name__}\n".encode())
            return None
        hashes[kind].update(f"{key} {text(out)}\n".encode())
        return out

    def failing_correspondence(key, fn, *args):
        """Hash the type and message of what fn(*args) raises with every
        correspondence failing, or that it returned."""
        saved, group._CORRESPONDENCE_TOL = group._CORRESPONDENCE_TOL, -1.0
        try:
            fn(*args)
        except Exception as exc:
            line = f"{key} raised {type(exc).__name__}: {exc}"
        else:
            line = f"{key} returned"
        finally:
            group._CORRESPONDENCE_TOL = saved
        hashes["correspondence"].update(f"{line}\n".encode())

    def dual_circle(p, t, inside) -> str:
        c = pencil_member(p, t)
        return repr(dual_conic(Reciprocator(c.focus), c, inside))

    def text(out) -> str:
        if isinstance(out, str):
            return out
        if isinstance(out, list):  # run_checks reports
            return repr([(r.check, r.residuals, r.tolerance, r.passed, r.metadata) for r in out])
        if isinstance(out, tuple):  # negative_pedal: (scaffold, polygon)
            return repr(out[0]) + json.dumps(polygon_to_dict(out[1]))
        return json.dumps(polygon_to_dict(out))

    for name, seed, count in SCHEDULES:
        schedule = (inputs.large_n_schedule(seed) if name == "large_n"
                    else inputs.sweep_schedule(seed))
        for i in range(count):
            inp = schedule.op_input(i)
            key = f"{name}:{seed}:{i}"
            for inside in (True, False):
                record("dual_conic", f"{key}:{inside}", dual_circle, inp.p, inp.t, inside)
            d = record("polygon_json", key, synthesize, inp.p, inp.t, inp.theta, inp.phi, inp.n)
            if d is None:
                continue
            for check, kind in checks.items():
                record(kind, key, run_checks, d, [check])
            record("sides", key, lambda: repr([(s.a, s.b, s.c) for s in d.sides]))
            record("tangency", key, tangency_points, d)
            if d.n % 2 == 0:
                record("tangency", f"{key}:opposite",
                       lambda: repr(opposite_side_intersections(d)))
            layer = record("grid_layers", key, grid_layer, d, 2)
            polygons = (d,) if layer is None else (d, layer)
            record("svg", key, lambda: render_svg(Scene(conics=(d.carrier,), polygons=polygons)))
            if name == "sweep":
                record("negative_pedal", key, negative_pedal, inp.p, inp.theta, inp.phi, inp.n)
                h = from_angle("H", inp.k * inp.theta)
                record("images", f"{key}:H", act_on_discrete, h, d)
                failing_correspondence(f"{key}:H", act_on_discrete, h, d)
                cf = record("images", f"{key}:cf", closed_form_vertices,
                            inp.p, inp.theta, inp.phi + inp.theta, inp.n)
                if cf is not None:
                    g = from_angle("G", inp.theta)
                    record("images", f"{key}:G", act_on_discrete, g, cf)
                    failing_correspondence(f"{key}:G", act_on_discrete, g, cf)
    for j, stages in enumerate(CLI_PIPELINES):
        hashes["cli"].update(f"pipeline {j}\n".encode())
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            text = ""
            for stage in stages:
                text = stage(text) if callable(stage) else cli_call(main, stage, text, hashes["cli"])
            for path in sorted(Path(tmp).iterdir()):
                hashes["cli"].update(f"wrote {path.name}\n".encode() + path.read_bytes())
    return {kind: h.hexdigest() for kind, h in hashes.items()}


def cli_call(main, argv: str, stdin: str, h) -> str:
    """Hash main's exit code, stdout and stderr on argv and stdin into h;
    return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(shlex.split(argv))
            except SystemExit as exc:  # --help, and argparse's usage errors
                code = exc.code
    finally:
        sys.stdin = saved
    h.update(f"{argv} exit {code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    return out.getvalue()


def run_tree(src: Path) -> dict[str, str]:
    """digests(src) in a child process, so each tree imports its own library."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, __file__, "--src", str(src)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def export_src(rev: str, dest: Path) -> Path:
    """REV's src/ under dest, by git archive."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--base", help="revision to compare this checkout's src/ with")
    group.add_argument("--src", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.src is not None:
        print(json.dumps(digests(args.src.resolve())))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        base = run_tree(export_src(args.base, Path(tmp)))
    head = run_tree(ROOT / "src")
    kinds = list(dict.fromkeys([*base, *head]))
    differ = [kind for kind in kinds if base.get(kind) != head.get(kind)]
    for kind in kinds:
        mark = "DIFFERS" if kind in differ else "same"
        print(f"{kind:26s} {mark:7s} base {base.get(kind, '-'):64s}  this {head.get(kind, '-')}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
