#!/usr/bin/env python3
"""Check that the library's outputs are byte-identical to a base revision's.

    python3 scripts/same_outputs.py --base REV

Exports REV's src/ with `git archive` into a temporary directory, then runs
that tree and this checkout's src/ on fixed benchmark schedules from
perfbench/inputs.py (imported read-only): large_n seed 3, ops 0-89, and
sweep seed 3, ops 0-2999.  Each op builds what the benchmark op builds, and
every output is hashed by kind:

    reports         run_checks reports (residuals as exact float reprs)
    polygon_json    the synthesized polygon's JSON
    grid_layers     grid_layer(d, 2), as polygon JSON
    images          G and H images (act_on_discrete), as polygon JSON
    negative_pedal  the pedal scaffold and polygon
    svg             render_svg of the carrier with the polygon (and layer)

An op that raises records the exception type, not its message.  Prints one
sha256 per kind for each tree and exits 1 on any difference.  Run from a
source checkout; `--src DIR` prints the digests of the tree at DIR alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("reports", "polygon_json", "grid_layers", "images", "negative_pedal", "svg")
# (workload, seed, number of ops from op 0)
SCHEDULES = (("large_n", 3, 90), ("sweep", 3, 3000))


def digests(src: Path) -> dict[str, str]:
    """sha256 per kind of every output of the tree at src."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import inputs
    from discreteconics.group import act_on_discrete, from_angle
    from discreteconics.polygon import closed_form_vertices, grid_layer, negative_pedal, synthesize
    from discreteconics.render import Scene, render_svg
    from discreteconics.serialize import polygon_to_dict
    from discreteconics.verify import run_checks

    hashes = {kind: hashlib.sha256() for kind in KINDS}

    def record(kind, key, fn, *args):
        """Hash fn(*args) under kind, or its exception type; return it or None."""
        try:
            out = fn(*args)
        except Exception as exc:  # the error type is an output too
            hashes[kind].update(f"{key} raised {type(exc).__name__}\n".encode())
            return None
        hashes[kind].update(f"{key} {text(out)}\n".encode())
        return out

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
            d = record("polygon_json", key, synthesize, inp.p, inp.t, inp.theta, inp.phi, inp.n)
            if d is None:
                continue
            record("reports", key, run_checks, d)
            layer = record("grid_layers", key, grid_layer, d, 2)
            polygons = (d,) if layer is None else (d, layer)
            record("svg", key, lambda: render_svg(Scene(conics=(d.carrier,), polygons=polygons)))
            if name == "sweep":
                record("negative_pedal", key, negative_pedal, inp.p, inp.theta, inp.phi, inp.n)
                record("images", f"{key}:H", act_on_discrete, from_angle("H", inp.k * inp.theta), d)
                cf = record("images", f"{key}:cf", closed_form_vertices,
                            inp.p, inp.theta, inp.phi + inp.theta, inp.n)
                if cf is not None:
                    record("images", f"{key}:G", act_on_discrete, from_angle("G", inp.theta), cf)
    return {kind: h.hexdigest() for kind, h in hashes.items()}


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
    differ = [kind for kind in KINDS if base[kind] != head[kind]]
    for kind in KINDS:
        mark = "DIFFERS" if kind in differ else "same"
        print(f"{kind:15s} {mark:7s} base {base[kind]}  this {head[kind]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
