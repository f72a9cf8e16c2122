"""The `cli` workload: sequential `python -m discreteconics.cli` calls.

One cycle is six calls on one pencil member: generate (n = 12) feeding
verify, transform and grid, then generate (n = 120) feeding render.  Each
call is one op.  Output of generate reaches the next call as bytes written
to its stdin, so only one child runs at a time.  Each child is reaped with
os.wait4, which gives its own peak RSS.

The reference for the machine's speed (see refspeed.py) is a child that
starts the interpreter and imports numpy, the start-up most of a call
spends, in code that does not belong to discreteconics.  It runs after
every second call, outside the calls' latency.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time

import inputs

CALL_TIMEOUT_S = 60.0
# (subcommand, size of the polygon it works on) for the six calls of a cycle.
CYCLE = (("generate", 12), ("verify", 12), ("transform", 12), ("grid", 12),
         ("generate", 120), ("render", 120))
TRACEBACK = b"Traceback (most recent call last)"
REF_CODE = "import numpy"
# The reference child's wall time on a 2-vCPU Intel Xeon VM with nothing
# else running.  It only fixes the unit of the normalised times.
REF_CHILD_S = 120e-3


class Child:
    """Result of one finished child process."""

    def __init__(self, code: int, out: bytes, err: bytes, rss_mb: float):
        self.code, self.out, self.err, self.rss_mb = code, out, err, rss_mb


def run_child(argv, stdin: bytes, env, workdir) -> Child:
    """Run one child to completion; kill it if it outlives CALL_TIMEOUT_S."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            try:
                proc.stdin.write(stdin)
                proc.stdin.close()
            except BrokenPipeError:  # the child exited without reading
                pass
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024.0)


def reference_s(workdir) -> float:
    """Wall time of one reference child."""
    start = time.perf_counter()
    child = run_child([sys.executable, "-c", REF_CODE], b"", None, workdir)
    elapsed = time.perf_counter() - start
    if child.code != 0:
        raise RuntimeError(f"reference child failed: {child.err.decode(errors='replace')}")
    return elapsed


class Workload:
    def __init__(self, seed: int, root, workdir):
        self.schedule = inputs.cli_schedule(seed)
        self.workdir = workdir
        self._figure = os.path.join(workdir, "figure.svg")
        self.python = sys.executable
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.trace_block = len(CYCLE)
        self.ref_s = REF_CHILD_S
        self.pass_ops = len(CYCLE) * len(self.schedule)
        self.polygons: dict[int, bytes] = {}  # n -> generate stdout of this cycle
        self.peak_rss_mb = 0.0
        self.inproc = None  # imported only for the traced run's probe

    def op_input(self, i: int):
        return self.schedule.op_input(i // len(CYCLE))

    def _argv(self, sub: str, n: int, inp) -> list[str]:
        base = [self.python, "-m", "discreteconics.cli", sub]
        if sub == "generate":
            theta = inp.theta if n == 12 else 2.0 * math.pi / n
            return base + ["--p", repr(inp.p), "--t", repr(inp.t), "--theta", repr(theta),
                           "--phi", repr(inp.phi), "--n", str(n)]
        if sub == "verify":
            return base + ["--check", "all"]
        if sub == "transform":
            return base + ["--op", "G", "--angle", repr(inp.theta)]
        if sub == "grid":
            return base + ["--k", "2"]
        return base + ["--out", self._figure]

    def call(self, tr, i: int, inp) -> tuple[Child, str, int]:
        sub, n = CYCLE[i % len(CYCLE)]
        if sub == "generate":
            self.polygons.pop(n, None)
        child = tr.call(f"cli.{sub}", run_child, self._argv(sub, n, inp),
                        self.polygons.get(n, b""), self.env, self.workdir)
        if sub == "generate" and child.code == 0:
            self.polygons[n] = child.out
        return child, sub, n

    def op(self, tr, i: int, inp) -> inputs.OpResult:
        child, sub, n = self.call(tr, i, inp)
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        result = self._gate(child, sub, n)
        if result.failure:
            tr.fail(f"cli.{sub}")
        return result

    def _gate(self, child: Child, sub: str, n: int) -> inputs.OpResult:
        """Every input is inside the paper's domain, so exit 2, an exit code
        outside {0, 1, 2} or a traceback is a failed call; exit 1 is allowed
        only from verify, where it must mean that a report failed."""
        if TRACEBACK in child.err:
            return inputs.OpResult(failure=f"{sub}: traceback")
        allowed = (0, 1) if sub == "verify" else (0,)
        if child.code not in allowed:
            return inputs.OpResult(failure=f"{sub}: exit {child.code}")
        if sub == "render":
            try:
                with open(self._figure, "rb") as fh:
                    svg = fh.read()
                os.remove(self._figure)
            except FileNotFoundError:
                svg = b""
            if not (svg.startswith(b"<?xml") and svg.endswith(b"</svg>")):
                return inputs.OpResult(failure="render: not an SVG document", wrong=True)
            return inputs.OpResult()
        try:
            out = json.loads(child.out)
        except ValueError:
            return inputs.OpResult(failure=f"{sub}: stdout is not JSON", wrong=True)
        if sub != "verify":
            if not (isinstance(out, dict) and len(out.get("vertices", ())) == n):
                return inputs.OpResult(failure=f"{sub}: not an n = {n} polygon", wrong=True)
            return inputs.OpResult()
        reports = [(r["pass"], r["max_residual"], "skipped" in r["metadata"]) for r in out]
        if (child.code == 1) == all(passed for passed, _, _ in reports):
            return inputs.OpResult(failure="verify: exit code disagrees with reports", wrong=True)
        return inputs.OpResult(reports=reports)

    def reference(self, i: int, op_s: float):
        """The reference child's time after every second call, else None."""
        return reference_s(self.workdir) if i % 2 == 1 else None

    def warm_up(self) -> None:
        """One generate call, which also compiles the package's bytecode."""
        run_child(self._argv("generate", 12, self.schedule.op_input(0, "warmup")),
                  b"", self.env, self.workdir)

    def startup_probe(self, tr, repeats: int) -> None:
        """Bare interpreter and `import discreteconics` start-up times."""
        for _ in range(repeats):
            tr.call("cli.interpreter", run_child, [self.python, "-c", "pass"],
                    b"", self.env, self.workdir)
            tr.call("cli.import", run_child, [self.python, "-c", "import discreteconics"],
                    b"", self.env, self.workdir)

    def probe(self, tr, i: int, inp) -> None:
        """After each cycle, the start-up probe and the in-process layer probe
        on the cycle's two polygons."""
        if i % len(CYCLE) != len(CYCLE) - 1:
            return
        self.startup_probe(tr, 1)
        if self.inproc is None:
            import inproc
            from discreteconics.serialize import polygon_from_dict

            self.inproc, self.from_dict = inproc, polygon_from_dict
        for text in self.polygons.values():
            self.inproc.probe(tr, self.from_dict(json.loads(text)))

    def cycle_probe(self, tr, seed_op: int) -> None:
        """One traced cycle of calls, for workloads that make no CLI calls."""
        for i in range(seed_op, seed_op + len(CYCLE)):
            self.op(tr, i, self.op_input(i))
        self.startup_probe(tr, 2)
