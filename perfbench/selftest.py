"""Self-tests of the benchmark, at small size.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json: two untraced runs with one seed, one
with another seed, and one traced run, all with --small.  Checks the result
line's shape, that every metric BENCHMARK.json names is emitted with its
unit, and that a seed fixes the inputs and the outcome metrics.  Finally
checks that the command fails, printing no result, without src/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED_DETERMINED = ("error_frac", "check_fail_frac", "residual_log10_max")


def run(cwd: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, detail["quality"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return detail, result


def check_metrics(result, spec, label):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    assert set(got) == set(want), f"{label}: {sorted(set(got) ^ set(want))}"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{label}: {name} unit {got[name]['unit']} != {unit}"
        value = got[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name}={value}"


def test_workload(spec: dict, workload: str) -> None:
    first = parse(run(ROOT, workload, 7, 0))
    again = parse(run(ROOT, workload, 7, 0))
    other = parse(run(ROOT, workload, 8, 0))
    traced = parse(run(ROOT, workload, 7, 1))
    for label, (_, result) in (("untraced", first), ("untraced", other)):
        check_metrics(result, spec["end_to_end"], f"{workload} {label}")
    check_metrics(traced[1], spec["per_layer"], f"{workload} traced")
    for name in ("setup_s", "ops_per_s", "latency_ms_p50", "latency_ms_p90", "peak_rss_mb"):
        assert first[1]["metrics"][name]["value"] > 0, f"{workload}: {name} is not positive"
    assert first[0]["inputs_sha256"] == again[0]["inputs_sha256"], f"{workload}: inputs differ"
    assert first[0]["inputs_sha256"] != other[0]["inputs_sha256"], f"{workload}: seed ignored"
    assert traced[0]["inputs_sha256"] == first[0]["inputs_sha256"], f"{workload}: traced inputs"
    for name in SEED_DETERMINED:
        a, b = first[1]["metrics"][name]["value"], again[1]["metrics"][name]["value"]
        assert a == b, f"{workload}: {name} {a} != {b} for the same seed"
    assert first[0]["quality"] == again[0]["quality"], f"{workload}: outcomes differ"
    print(f"ok  {workload}: {first[1]['attempted']} ops, "
          f"{len(traced[1]['metrics'])} per-layer metrics", flush=True)


def test_fails_without_source() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=BENCH_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, tmp / "perfbench",
                        ignore=shutil.ignore_patterns("selftest-*", "work-*", "traces", "__pycache__"))
        proc = run(tmp, "sweep", 1, 0)
        assert proc.returncode != 0, "succeeded without src/"
        assert '"correct"' not in proc.stdout, "printed a result without src/"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("ok  fails without src/", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        test_workload(spec, workload)
    test_fails_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
