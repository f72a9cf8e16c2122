"""The machine's speed, measured beside each op with a fixed reference task.

On a shared host the same code runs at speeds that differ by half from one
run to the next, and within a run from second to second.  The benchmark
runs a fixed reference task beside the ops and divides each timing by how
slow that task ran at the time.  Times are then in units of the reference
speed: what they would read on the machine unloaded, where the task takes
its reference time.  A change to the library moves them; a change in the
host's load moves the task and the ops alike and cancels out.

The in-process workloads use `task` here, which resembles the library's
work: float geometry on small objects, tuples and dict traffic.  It uses
neither numpy nor discreteconics, so the library cannot make it faster or
slower.  The cli workload uses a reference child process instead (see
cliwork.py): the start-up of a child tracks the host's load differently
from work inside one process.
"""

from __future__ import annotations

import math
import statistics
import time

# The reference task's time on a 2-vCPU Intel Xeon VM with Python 3.11 and
# nothing else running.  It only fixes the unit of the normalised times.
REF_TASK_S = 50e-6
# After each op, reference tasks run for this share of the op's time.
TASK_SHARE = 0.03
# Speed is taken as the median over the ops within this many seconds, or
# over five ops on either side if that is more.
WINDOW_S = 0.5


class _P:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x, self.y = x, y


def task() -> float:
    pts = [_P(math.cos(0.1 * i), math.sin(0.1 * i)) for i in range(60)]
    acc = 0.0
    sums: dict[int, float] = {}
    for i, a in enumerate(pts):
        b = pts[(i + 7) % len(pts)]
        line = (a.y - b.y, b.x - a.x, a.x * b.y - a.y * b.x)
        norm = math.hypot(line[0], line[1])
        acc += math.atan2(line[1] / norm, line[0] / norm)
        sums[i % 13] = sums.get(i % 13, 0.0) + line[2]
    return acc + sum(sums.values())


def measure(reps: int) -> float:
    """Mean time of one reference task over `reps` runs, in seconds."""
    t0 = time.perf_counter()
    for _ in range(reps):
        task()
    return (time.perf_counter() - t0) / reps


def after_op(op_s: float) -> float:
    """Reference tasks for TASK_SHARE of an op's time; their mean time."""
    return measure(max(1, math.ceil(TASK_SHARE * op_s / REF_TASK_S)))


def slowness(ref_s: list, op_s: list[float], unloaded_s: float) -> list[float]:
    """For each op, how much slower than unloaded the machine ran around
    it: the median reference time over the ops within WINDOW_S / 2 (or
    five ops) on either side, divided by the unloaded reference time.
    ref_s[j] is the reference time measured after op j, or None if none
    was; every window holds at least one."""
    half = max(5, round(0.5 * WINDOW_S / statistics.median(op_s)))
    out = []
    for j in range(len(op_s)):
        near = [r for r in ref_s[max(0, j - half):j + half + 1] if r is not None]
        out.append(statistics.median(near) / unloaded_s)
    return out
