"""A seeded fuzzer of the CLI's JSON input.

Each case mutates a generated polygon or scene: it drops a key, swaps a value
for null, a bool, a string, an array, an object, a huge int, NaN or a
subnormal, or nests a value up to four deep.  cli.main then runs in-process
on it as verify, verify --check grid, grid, transform (G and H) or render.

Whatever the input, main returns 0, 1 or 2 and raises nothing.  Exit 1 comes
only from verify, with a failing report on stdout.  Exit 2 prints one
`error: ...` line, nothing on stdout, and writes no file.  The seed and the
budget are fixed, so a failure names a case that reruns as it failed.
"""

import contextlib
import copy
import io
import json
import math
import random
import sys

from discreteconics.cli import main
from discreteconics.polygon import synthesize
from discreteconics.serialize import polygon_to_dict

SEED = 19
CASES = 1500

POLYGONS = [
    polygon_to_dict(synthesize(0.75, 0.5, math.pi / 6, 0.0, 12)),  # closed, ellipse
    {**polygon_to_dict(synthesize(0.3, 20.0, 2 * math.pi / 7, 0.2, 7)),  # far hyperbola branch
     "meta": {"source": "fuzz", "k": [1, 2]}},
    polygon_to_dict(synthesize(0.5, 1.0, 0.4, 0.1, 5)),  # open chain
]
SCENE = {
    "conics": [{"p": 0.75, "t": 0.5}, {"p": 0.3, "t": 20.0}],
    "polygons": [POLYGONS[0]],
    "points": [{"label": "F", "xy": [-0.75, 0.0]}],
    "lines": [[1.0, 0.0, 0.5]],
    "viewbox": [-3.0, -2.0, 6.0, 4.0],
}
POLYGON_COMMANDS = [
    ["verify"],
    ["verify", "--check", "grid"],
    ["grid", "--k", "2"],
    ["transform", "--op", "G", "--angle", "pi/6"],
    ["transform", "--op", "H", "--angle", "2pi/7"],
    ["render"],
]
HUGE = int("9" * 401)  # beyond float range


def _replacement(rng: random.Random, value):
    kind = rng.randrange(9)
    if kind == 8:  # nest the value one to four deep
        for _ in range(rng.randint(1, 4)):
            value = [value] if rng.random() < 0.5 else {"v": value}
        return value
    return [None, rng.random() < 0.5, "0.5", [], {}, HUGE * rng.choice((1, -1)), math.nan,
            5e-324][kind]


def _slots(node, path=()):
    """The path of every value inside node, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _slots(value, path + (key,))


def mutate(rng: random.Random, obj):
    obj = copy.deepcopy(obj)
    for _ in range(rng.randint(1, 3)):
        slots = list(_slots(obj))
        if not slots:
            break
        *head, key = rng.choice(slots)
        parent = obj
        for k in head:
            parent = parent[k]
        if rng.random() < 0.25:
            del parent[key]  # drop a key, or an array entry
        else:
            parent[key] = _replacement(rng, parent[key])
    return obj


def call(argv, text):
    """main(argv) on stdin text: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def cases():
    rng = random.Random(SEED)
    for i in range(CASES):
        if rng.random() < 0.2:
            yield i, ["render"], json.dumps(mutate(rng, SCENE))
        else:
            argv = rng.choice(POLYGON_COMMANDS)
            yield i, argv, json.dumps(mutate(rng, rng.choice(POLYGONS)))


def test_mutated_json_exits_0_1_or_2_and_says_why(tmp_path):
    figure = tmp_path / "figure.svg"
    codes = set()
    for i, argv, text in cases():
        if argv[0] == "render":
            argv = [*argv, "--out", str(figure)]
        where = f"case {i}: {argv} on {text[:300]}"
        code, out, err = call(argv, text)
        codes.add(code)
        assert code in (0, 1, 2), where
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, where
            assert not figure.exists(), where
        elif code == 1:
            assert argv[0] == "verify", where
            assert not all(r["pass"] for r in json.loads(out)), where
        else:
            assert err == "", where
            if argv[0] == "render":
                assert figure.exists(), where
            elif argv[0] == "verify":
                assert all(r["pass"] for r in json.loads(out)), where
            else:
                assert "vertices" in json.loads(out), where
        figure.unlink(missing_ok=True)
    assert codes >= {0, 2}  # the mutations reach both accepted and rejected inputs
