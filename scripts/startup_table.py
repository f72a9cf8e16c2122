#!/usr/bin/env python3
"""Print what each CLI subcommand loads, compiles and defines at start-up.

    python3 scripts/startup_table.py [--src DIR] [--runs N]

DIR (default: this checkout's src/) is copied to a temporary directory
without any __pycache__, and every child runs with PYTHONDONTWRITEBYTECODE=1,
as the benchmark's `cli` workload does, so each child compiles the package
from source.  For each subcommand, one child runs the call through
`cli.main` and reports the discreteconics modules it loaded and the
dataclasses in their namespaces.  Then N children per subcommand, taken in
turn, each import the standard-library modules the package imports at
module level and then time, inside the child, the import of that
subcommand's module set: the package's own import on that path.

Prints one Markdown row per subcommand: its modules, the source lines they
hold (all compiled on every call), its dataclasses, and the minimum and
median import time in ms.  Timings depend on the machine; compare trees on
the same one.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GENERATE = ["generate", "--p", "0.75", "--t", "0.5", "--theta", "pi/6", "--n", "12"]
# Subcommand -> (argv, whether it reads a polygon on stdin).
CALLS = {
    "generate": (GENERATE, False),
    "pedal": (["pedal", "--p", "0.75", "--theta", "pi/6", "--n", "12"], False),
    "grid": (["grid", "--k", "2"], True),
    "transform": (["transform", "--op", "G", "--angle", "pi/6"], True),
    "verify": (["verify", "--check", "all"], True),
    "render": (["render", "--out", "figure.svg"], True),
}
# Runs a call and prints its loaded package modules and their dataclasses
# as the last line of stderr.
PROBE = """\
import atexit, dataclasses, json, sys
def report():
    ours = {k: m for k, m in list(sys.modules.items()) if k.startswith("discreteconics.")}
    classes = {v.__name__ for m in ours.values() for v in vars(m).values()
               if isinstance(v, type) and dataclasses.is_dataclass(v)}
    print(json.dumps([sorted(ours), sorted(classes)]), file=sys.stderr)
atexit.register(report)
from discreteconics.cli import main
sys.exit(main())
"""
# Imports the modules named in argv and prints the time it took, in ms.
TIMER = """\
import importlib, sys, time
{stdlib}
start = time.perf_counter()
for name in sys.argv[1:]:
    importlib.import_module(name)
print((time.perf_counter() - start) * 1e3)
"""


def stdlib_imports(package: Path) -> list[str]:
    """The absolute module-level imports of the package's modules."""
    names = set()
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    return sorted(names)


def child(code: str, argv, env, cwd, stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *argv], input=stdin, env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)


def table(src: Path, runs: int) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(tmp, "src", "discreteconics")
        shutil.copytree(src / "discreteconics", package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1")
        polygon = child("from discreteconics.cli import main; main()", GENERATE, env, tmp).stdout
        paths = {}
        for name, (argv, reads) in CALLS.items():
            err = child(PROBE, argv, env, tmp, polygon if reads else "").stderr
            paths[name] = json.loads(err.splitlines()[-1])
        timer = TIMER.format(stdlib="\n".join(f"import {m}" for m in stdlib_imports(package)))
        times = {name: [] for name in CALLS}
        for _ in range(runs):
            for name, (modules, _) in paths.items():
                out = child(timer, modules, env, tmp).stdout
                times[name].append(float(out))
        rows = ["| subcommand | modules | source lines | dataclasses | import ms, min | median |",
                "|---|---|---:|---|---:|---:|"]
        for name, (modules, classes) in paths.items():
            short = [m.removeprefix("discreteconics.") for m in modules]
            lines = sum(len((package / f"{m}.py").read_text().splitlines())
                        for m in ["__init__", *short])
            rows.append(f"| {name} | {' '.join(short)} | {lines} | {' '.join(classes)} | "
                        f"{min(times[name]):.1f} | {statistics.median(times[name]):.1f} |")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the source tree whose package is measured (default: src/)")
    ap.add_argument("--runs", type=int, default=41, help="timed imports per subcommand")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    print(f"Python {sys.version.split()[0]}, {args.runs} runs per subcommand, "
          f"src {args.src.resolve()}")
    print("\n".join(table(args.src.resolve(), args.runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
