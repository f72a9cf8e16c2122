"""Benchmark command for discreteconics.

    python3 perfbench/run.py --workload {sweep,large_n,cli} --seed N \
        --seconds S --trace {0,1} [--small]

Run from the root of a source checkout; the library is imported from
./src.  Workloads are closed loops with one client: the next op starts when
the last one returns.  The command sets up (import, inputs, warm-up), runs
ops for S seconds (and until MIN_SAMPLES ops are done), checks every output,
and prints one detail line followed by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from spans around each call into the library, plus the
tracing overhead.  Times are at reference speed (see refspeed.py).  --small
runs a fixed, small number of ops on smaller inputs, for the self-tests.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import refspeed
from spans import NullTracer, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep", "large_n", "cli")
SETUP_REPEATS = 9
SETUP_TASK_REPS = 100  # reference tasks just before and just after a set-up
MIN_SAMPLES = 110  # at least 10 samples beyond p90
MIN_PASSES = 2  # whole schedule passes behind the outcome shares
MAX_LOOP_S = 140.0  # keeps every run well inside 180 s
EPS = 2.0 ** -52
# Failure shares below this read as this value.  A run of large_n or cli
# has 100 to 200 ops, where 1% is one or two ops, so shares this small are
# not resolved; and the metrics stay above 0, so a share of their median is
# defined once the known defects are fixed.
FRAC_FLOOR = 0.02

CHECK_NAMES = ("equal_angles", "poncelet", "diagonals", "projective_regular",
               "reflective", "isogonal", "grid", "pascal_line")
CLI_SUBCOMMANDS = ("generate", "verify", "transform", "grid", "render")
# Layer calls reported as mean self time per call, in ms or in us.
PER_CALL_MS = (
    tuple(f"verify.{c}" for c in CHECK_NAMES)
    + ("duality.dual_conic", "pencil.pedal_circle", "polygon.synthesize",
       "polygon.closed_form_vertices", "polygon.negative_pedal", "polygon.grid_layer",
       "polygon.tangency_points", "group.act_on_discrete", "serialize.polygon_to_dict",
       "serialize.polygon_from_dict", "render.render_svg")
    + tuple(f"cli.{s}" for s in CLI_SUBCOMMANDS)
)
PER_CALL_US = ("pencil.tangency_residual", "pencil.point_at", "pencil.tangent_at",
               "kernel.line_through", "kernel.intersect_lines", "kernel.directed_angle",
               "kernel.projective_from_correspondences")
STARTUP = ("cli.interpreter", "cli.import")


def end_to_end_units() -> dict[str, str]:
    return {"setup_s": "s", "ops_per_s": "1/s", "latency_ms_p50": "ms",
            "latency_ms_p90": "ms", "error_frac": "frac", "check_fail_frac": "frac",
            "residual_log10_max": "log10_eps", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.ms": "ms" for name in PER_CALL_MS}
    units.update({f"{name}.us_per_call": "us" for name in PER_CALL_US})
    units.update({"cli.interpreter_ms": "ms", "cli.import_ms": "ms"})
    for name in PER_CALL_MS + PER_CALL_US + STARTUP:
        units[f"{name}.calls"] = "count"
        units[f"{name}.errors"] = "count"
    units.update({"verify.skipped_frac": "frac",
                  "duality.dual_conic.focus_outside_frac": "frac",
                  "group.act_on_discrete.verified_frac": "frac",
                  "render.svg_bytes": "bytes",
                  "trace.untraced_ops_per_s": "1/s",
                  "trace.traced_ops_per_s": "1/s",
                  "trace.overhead_frac": "frac"})
    return units


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="fixed small op count and sizes, for the self-tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def require_checkout() -> None:
    """Fail unless this is a source checkout with the library under src/."""
    if not (ROOT / "src" / "discreteconics" / "__init__.py").is_file():
        sys.exit(f"error: no src/discreteconics under {ROOT}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))


def make_workload(args, workdir):
    """Set up a workload: import, inputs and warm-up.  Returns the workload
    and the set-up time at reference speed, from references just before
    and just after it."""
    if args.workload == "cli":
        import cliwork

        reference, unloaded_s = (lambda: cliwork.reference_s(workdir)), cliwork.REF_CHILD_S

        def build():
            return cliwork.Workload(args.seed, ROOT, workdir)
    else:
        def reference():
            return refspeed.measure(SETUP_TASK_REPS)

        def build():
            import inproc

            return inproc.Workload(args.workload, args.seed, args.small)

        unloaded_s = refspeed.REF_TASK_S
    before = reference()
    start = time.perf_counter()
    wl = build()
    wl.warm_up()
    elapsed = time.perf_counter() - start
    after = reference()
    return wl, elapsed * unloaded_s / (0.5 * (before + after))


def setup_samples(args, own: float) -> list[float]:
    """This process's set-up time plus fresh-process repeats of it."""
    samples = [own]
    repeats = 2 if args.small else SETUP_REPEATS
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--small"] if args.small else [])
    for _ in range(repeats - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            sys.exit(f"error: set-up repeat failed: {out.stderr.strip()}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_1m_start": os.getloadavg()[0],
    }


def percentile(values, q: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timed_loop(wl, tracer, args) -> dict:
    """Closed loop over ops.  In a traced run, whole blocks of trace_block ops
    alternate untraced and traced; the probe runs after each traced op,
    outside its latency.  The workload's speed reference (refspeed.py) runs
    after the op, outside its latency too."""
    null = NullTracer()
    small_ops = 2 * wl.trace_block
    min_ops = max(MIN_SAMPLES, MIN_PASSES * wl.pass_ops)
    latencies, traced_ops, refs, results, mix_inputs = [], [], [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while True:
        now = time.perf_counter()
        if args.small:
            if i >= small_ops:
                break
        elif now - start >= MAX_LOOP_S or (
                now >= deadline and (tracer.on or i >= min_ops)):
            break
        inp = wl.op_input(i)
        traced = tracer.on and (i // wl.trace_block) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            with tracer.span("op", i):
                result = wl.op(tracer, i, inp)
        else:
            result = wl.op(null, i, inp)
        dt = time.perf_counter() - t0
        if traced:
            wl.probe(tracer, i, inp)
        refs.append(wl.reference(i, dt))
        latencies.append(dt)
        traced_ops.append(traced)
        results.append(result)
        mix_inputs.append(inp)
        i += 1
    slowness = refspeed.slowness(refs, latencies, wl.ref_s)
    return {"wall": time.perf_counter() - start, "latencies": latencies,
            "slowness": slowness, "norm": [dt / s for dt, s in zip(latencies, slowness)],
            "traced": traced_ops, "results": results, "inputs": mix_inputs}


def quality(results, pass_ops: int) -> dict:
    """Outcome counts over the whole schedule passes a run completed, so the
    input mix behind each share is exact; all ops if not one pass ran."""
    whole = len(results) - len(results) % pass_ops
    results = results[:whole] if whole else results
    reports = [rep for r in results for rep in r.reports]
    op_max = []
    for r in results:
        passing = [res for passed, res, skipped in r.reports if passed and not skipped]
        if passing:
            op_max.append(max(passing))
    failures: dict[str, int] = {}
    for r in results:
        if r.failure:
            failures[r.failure] = failures.get(r.failure, 0) + 1
    return {
        "ops": len(results),
        "failed": sum(r.failure is not None for r in results),
        "wrong": sum(r.wrong for r in results),
        "reports": len(reports),
        "reports_failed": sum(not passed for passed, _, _ in reports),
        "reports_skipped": sum(skipped for _, _, skipped in reports),
        "op_max_passing_residuals": len(op_max),
        "mean_log10_eps": statistics.fmean(_log10_eps(x) for x in op_max) if op_max else 0.0,
        "max_passing_residual": max(op_max, default=0.0),
        "failures": dict(sorted(failures.items())),
    }


def _log10_eps(residual: float) -> float:
    """Digits lost to rounding: log10 of a residual in units of 2^-52."""
    return math.log10(max(residual, EPS) / EPS)


def end_to_end(loop, q, setup: list[float], peak_rss_mb: float) -> dict:
    lat_ms = [1e3 * x for x in loop["norm"]]
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat_ms) / sum(loop["norm"]),
        "latency_ms_p50": percentile(lat_ms, 0.5),
        "latency_ms_p90": percentile(lat_ms, 0.9),
        "error_frac": max(q["failed"] / q["ops"], FRAC_FLOOR),
        "check_fail_frac": max(q["reports_failed"] / q["reports"], FRAC_FLOOR) if q["reports"] else FRAC_FLOOR,
        "residual_log10_max": q["mean_log10_eps"],
        "peak_rss_mb": peak_rss_mb,
    }
    units = end_to_end_units()
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def per_layer(tracer, loop) -> dict:
    slow = statistics.median(loop["slowness"])
    self_s = {name: s / slow for name, s in tracer.self_times().items()}

    def mean_ms(name):
        return 1e3 * self_s.get(name, 0.0) / tracer.calls[name] if tracer.calls[name] else 0.0

    def share(count, calls):
        return tracer.counts[count] / tracer.calls[calls] if tracer.calls[calls] else 0.0

    values = {f"{n}.ms": mean_ms(n) for n in PER_CALL_MS}
    values.update({f"{n}.us_per_call": 1e3 * mean_ms(n) for n in PER_CALL_US})
    values["cli.interpreter_ms"] = mean_ms("cli.interpreter")
    values["cli.import_ms"] = mean_ms("cli.import") - mean_ms("cli.interpreter")
    for name in PER_CALL_MS + PER_CALL_US + STARTUP:
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.errors"] = tracer.errors[name]
    reports = tracer.counts["verify.reports"]
    values["verify.skipped_frac"] = tracer.counts["verify.skipped"] / reports if reports else 0.0
    values["duality.dual_conic.focus_outside_frac"] = share(
        "duality.dual_conic.focus_outside", "duality.dual_conic")
    values["group.act_on_discrete.verified_frac"] = share(
        "group.act_on_discrete.verified", "group.act_on_discrete")
    values["render.svg_bytes"] = share("render.svg_bytes", "render.render_svg")
    rate = {}
    for traced in (False, True):
        norm = [dt for dt, t in zip(loop["norm"], loop["traced"]) if t == traced]
        rate[traced] = len(norm) / sum(norm) if norm else 0.0
    values["trace.untraced_ops_per_s"] = rate[False]
    values["trace.traced_ops_per_s"] = rate[True]
    values["trace.overhead_frac"] = rate[False] / rate[True] - 1.0 if rate[True] else 0.0
    units = per_layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def self_time_table(tracer, loop) -> list:
    """Span names by total self time at reference speed, largest first, in ms."""
    slow = statistics.median(loop["slowness"])
    rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])
    return [[name, round(1e3 * s / slow, 3), tracer.calls[name]] for name, s in rows]


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR)
    try:
        if args.setup_only:
            _, own = make_workload(args, workdir)
            print(json.dumps({"setup_s": own}))
            return 0
        env = environment()
        wl, own = make_workload(args, workdir)
        setup = setup_samples(args, own)
        tracer = Tracer() if args.trace else NullTracer()
        if args.trace and args.workload != "cli":
            import cliwork

            cliwork.Workload(args.seed, ROOT, workdir).cycle_probe(tracer, 0)
        loop = timed_loop(wl, tracer, args)
        q = quality(loop["results"], wl.pass_ops)
        gate_mismatch = tracer.counts["gate_mismatch"] if args.trace else 0
        if args.trace:
            metrics = per_layer(tracer, loop)
            trace_dir = BENCH_DIR / "traces"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}.jsonl")
        else:
            peak = (wl.peak_rss_mb if args.workload == "cli"
                    else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            metrics = end_to_end(loop, q, setup, peak)
        env["loadavg_1m_end"] = os.getloadavg()[0]
        detail = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "small": args.small, "samples": len(loop["latencies"]),
            "timed_wall_s": loop["wall"], "setup_samples_s": setup,
            "wall_latency_ms_p50": 1e3 * percentile(loop["latencies"], 0.5),
            "slowness": {"p10": percentile(loop["slowness"], 0.1),
                         "p50": percentile(loop["slowness"], 0.5),
                         "p90": percentile(loop["slowness"], 0.9)},
            "inputs_sha256": wl.schedule.digest(min(len(loop["inputs"]), 60)),
            "input_mix": inputs.mix(loop["inputs"]),
            "quality": q, "probe_gate_mismatches": gate_mismatch, "environment": env,
        }
        if args.trace:
            detail["self_time_ms"] = self_time_table(tracer, loop)
        print(json.dumps({"detail": detail}))
        # `failed` counts wrong outputs; ops that end in an error the library
        # raises are measured by error_frac (see README, "Failed ops").
        wrong = sum(r.wrong for r in loop["results"])
        print(json.dumps({
            "correct": wrong == 0 and gate_mismatch == 0,
            "attempted": len(loop["results"]),
            "failed": wrong,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
