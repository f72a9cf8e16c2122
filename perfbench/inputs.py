"""Seeded inputs for the benchmark workloads, and the outcome of one op.

Every op gets its own random stream, derived from the seed, the stream name
and the op index, so the same seed always gives the same inputs and no two
ops share a pencil member.  The member class and polygon kind of op i come
from a fixed round-robin schedule, so the input mix of a run depends only on
how many ops it completed, never on the seed.

This module does not import discreteconics: the cli workload builds its
inputs here without paying for the library import in the benchmark process.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

# Member classes of the pencil (p + x)^2 + y^2 = (1 + p x)^2 t.  The weights
# are set by repetition inside the schedules below.
ELLIPSE = "ellipse"
HYPERBOLA = "hyperbola"
# p^2 t = 1 -+ delta, delta log-uniform in [1e-6, 1e-2]: ellipse / hyperbola side.
NEAR_PARABOLA_IN = "near_parabola_in"
NEAR_PARABOLA_OUT = "near_parabola_out"
CIRCLE = "circle"  # p = 0
P_NEAR_1 = "p_near_1"  # |p| in [0.99, 0.9999]

# Polygon kinds: convex (winding 1), and closed star polygons with the
# vertex angle theta below or above pi/2.
CONVEX = "convex"
STAR_ACUTE = "star_acute"
STAR_OBTUSE = "star_obtuse"


@dataclass(frozen=True)
class OpInput:
    member: str
    kind: str
    p: float
    t: float
    theta: float
    phi: float
    n: int
    winding: int
    k: int  # H acts at k * theta, with k * theta < pi


@dataclass
class OpResult:
    """What one op did: failure is None or a short reason; wrong marks an
    output the gate rejected; reports holds (passed, max_residual, skipped)
    for each verification report the op produced."""

    failure: str | None = None
    wrong: bool = False
    reports: list = field(default_factory=list)


def _member(rng: random.Random, cls: str) -> tuple[float, float]:
    sign = rng.choice((-1.0, 1.0))
    if cls == CIRCLE:
        return 0.0, rng.uniform(0.1, 4.0)
    if cls == P_NEAR_1:
        return sign * rng.uniform(0.99, 0.9999), rng.uniform(0.25, 0.95)
    p = sign * rng.uniform(0.1, 0.95)
    if cls == ELLIPSE:
        e2 = rng.uniform(0.01, 0.9)
    elif cls == HYPERBOLA:
        e2 = rng.uniform(1.05, 4.0)
    elif cls in (NEAR_PARABOLA_IN, NEAR_PARABOLA_OUT):
        side = -1.0 if cls == NEAR_PARABOLA_IN else 1.0
        e2 = 1.0 + side * 10.0 ** rng.uniform(-6.0, -2.0)
    else:
        raise ValueError(f"unknown member class {cls!r}")
    return p, e2 / (p * p)  # e^2 = p^2 t


def _windings(n: int, kind: str) -> list[int]:
    if kind == CONVEX:
        return [1]
    # theta = 2 pi w / n lies below pi/2 iff 4 w < n.
    acute = kind == STAR_ACUTE
    return [
        w for w in range(2, (n + 1) // 2)
        if math.gcd(w, n) == 1 and (4 * w < n) == acute
    ]


def _draw(rng: random.Random, member: str, kind: str, sizes) -> OpInput:
    p, t = _member(rng, member)
    while True:
        n = rng.choice(sizes)
        ws = _windings(n, kind)
        if ws:
            break
    w = rng.choice(ws)
    theta = 2.0 * math.pi * w / n
    phi = rng.uniform(0.0, 2.0 * math.pi)
    k = rng.randint(1, max(1, math.ceil(math.pi / theta) - 1))
    return OpInput(member, kind, p, t, theta, phi, n, w, k)


class Schedule:
    """Round-robin (member, kind, sizes) slots; op i uses slot i mod len."""

    def __init__(self, name: str, seed: int, slots):
        self.name = name
        self.seed = seed
        self.slots = tuple(slots)

    def __len__(self) -> int:
        return len(self.slots)

    def op_input(self, i: int, stream: str = "timed") -> OpInput:
        member, kind, sizes = self.slots[i % len(self.slots)]
        rng = random.Random(f"{self.name}:{self.seed}:{stream}:{i}")
        return _draw(rng, member, kind, sizes)

    def digest(self, count: int) -> str:
        """Fingerprint of the first `count` timed inputs."""
        h = hashlib.sha256()
        for i in range(count):
            h.update(repr(self.op_input(i)).encode())
        return h.hexdigest()


SWEEP_MEMBERS = (ELLIPSE, HYPERBOLA, NEAR_PARABOLA_IN, ELLIPSE, P_NEAR_1,
                 HYPERBOLA, CIRCLE, ELLIPSE, NEAR_PARABOLA_OUT, P_NEAR_1)
SWEEP_KINDS = (CONVEX, STAR_ACUTE, CONVEX, STAR_OBTUSE, CONVEX, CONVEX)


def sweep_schedule(seed: int) -> Schedule:
    sizes = tuple(range(5, 41))
    return Schedule("sweep", seed, [
        (member, kind, sizes) for kind in SWEEP_KINDS for member in SWEEP_MEMBERS
    ])


def large_n_schedule(seed: int, small: bool = False) -> Schedule:
    # Weights 1:3:1 put the median op in the middle of the n = 480 ops and
    # the 90th percentile in the middle of the n = 960 ones, away from the
    # gaps in latency between sizes.
    sizes = (24, 48, 48, 48, 96) if small else (240, 480, 480, 480, 960)
    return Schedule("large_n", seed, [
        (member, CONVEX, (n,)) for member in (ELLIPSE, HYPERBOLA) for n in sizes
    ])


def cli_schedule(seed: int) -> Schedule:
    # One slot per cycle of calls, at n = 12; winding 5 (theta = 5 pi / 6) is
    # the star polygon that verify rejects.  The near-parabola side changes
    # with the kind, so one pass has both sides.  The hyperbola side goes
    # with winding 5: at n = 12 whether a vertex lands on its far branch
    # depends on phi, and the ten or so verify calls of a run could not
    # average that out; the far-branch failures stay visible on the
    # hyperbola members, which fail every time.
    return Schedule("cli", seed, [
        (member, kind, (12,))
        for kind, near in ((CONVEX, NEAR_PARABOLA_IN), (STAR_OBTUSE, NEAR_PARABOLA_OUT))
        for member in (ELLIPSE, HYPERBOLA, near, CIRCLE, P_NEAR_1)
    ])


def mix(inputs) -> dict:
    """Share of ops per member class, per polygon kind and per winding."""
    inputs = list(inputs)
    total = len(inputs) or 1
    out: dict = {"member": {}, "kind": {}, "winding": {}}
    for inp in inputs:
        for key, value in (("member", inp.member), ("kind", inp.kind), ("winding", str(inp.winding))):
            out[key][value] = out[key].get(value, 0) + 1
    return {key: {v: round(c / total, 4) for v, c in sorted(counts.items())}
            for key, counts in out.items()}
