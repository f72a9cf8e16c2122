"""The input contract: polygon JSON obeys the constructors' own rules.

A polygon header that names no pencil member (p = +-1 or non-finite, t <= 0
or non-finite) is rejected by every command that reads a polygon, with exit
2, no output and an error naming the field, whichever check runs.  JSON
loading and the constructors raise the same error for the same bad value,
and values beyond float range give typed errors, not tracebacks.
"""

import dataclasses
import io
import json
import math
import re

import pytest

from discreteconics.cli import main
from discreteconics.errors import GeometryError, NonFiniteParameter
from discreteconics.kernel import Line, Point
from discreteconics.pencil import parameter_of
from discreteconics.polygon import synthesize
from discreteconics.serialize import polygon_from_dict, polygon_to_dict
from discreteconics.verify import CHECK_NAMES

BASE = (0.5, 1.0, 2.0 * math.pi / 8, 0.0, 8)  # generate --p 0.5 --t 1 --theta 2pi/8 --n 8

BAD_HEADERS = [("p", v) for v in (1.0, -1.0, math.nan, math.inf)] + [
    ("t", v) for v in (0.0, -1.0, math.nan, math.inf)
]

COMMANDS = {f"verify_{name}": ["verify", "--check", name] for name in (*CHECK_NAMES, "all")}
COMMANDS.update(
    grid=["grid", "--k", "2"],
    transform=["transform", "--op", "G", "--angle", "2pi/8"],
    render=["render", "--out"],
)


def run(argv, obj, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    figure = tmp_path / "figure.svg"
    if argv[0] == "render":
        argv = [*argv, str(figure)]
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err, figure.exists()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key, value", BAD_HEADERS, ids=[f"{k}={v}" for k, v in BAD_HEADERS])
def test_bad_pencil_member_exits_2_on_every_command(key, value, command, tmp_path, capsys,
                                                    monkeypatch):
    obj = polygon_to_dict(synthesize(*BASE))
    obj[key] = value
    code, out, err, wrote = run(COMMANDS[command], obj, tmp_path, capsys, monkeypatch)
    assert (code, out, wrote) == (2, "", False)
    assert re.search(rf"\b{key}\b", err) and repr(value) in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, value",
    [("p", 1.0), ("p", math.nan), ("t", 0.0), ("t", math.inf), ("theta", 0.0),
     ("theta", math.pi), ("phi", math.inf), ("phi", math.nan), ("n", 2)],
)
def test_json_and_synthesize_raise_the_same_error(field, value):
    args = dict(zip(("p", "t", "theta", "phi", "n"), BASE))
    args[field] = value
    with pytest.raises((GeometryError, ValueError)) as direct:
        synthesize(**args)
    good = synthesize(*BASE)
    if field == "n":
        bad = dataclasses.replace(good, vertices=good.vertices[:value])
    else:  # replace derives n and closed again, so the JSON states them consistently
        bad = dataclasses.replace(good, **{field: value})
    with pytest.raises((GeometryError, ValueError)) as loaded:
        polygon_from_dict(json.loads(json.dumps(polygon_to_dict(bad))))
    assert type(loaded.value) is type(direct.value)
    assert str(loaded.value) == str(direct.value)


def test_synthesize_names_an_infinite_phi():
    with pytest.raises(ValueError, match="phi must be finite"):
        synthesize(0.5, 1.0, 2.0 * math.pi / 8, math.inf, 8)


@pytest.mark.parametrize("xy", [1e200, 1.2e154])  # ** overflows; the sum overflows
def test_parameter_of_beyond_float_range_is_typed(xy):
    with pytest.raises(NonFiniteParameter):
        parameter_of(0.5, Point(xy, xy))


def test_overflowing_vertex_exits_2(tmp_path, capsys, monkeypatch):
    obj = {"p": 0.5, "t": 1.0, "theta": 0.7853981633974483, "phi": 0.0, "n": 4,
           "closed": False, "vertices": [[1e200, 1e200], [0.3, 0.2], [0.1, 0.5], [0.2, 0.1]]}
    code, out, err, _ = run(["verify"], obj, tmp_path, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("coefficients", [(math.nan, 1.0, 0.0), (1.0, 0.0, math.inf)])
def test_line_rejects_non_finite_coefficients(coefficients, tmp_path, capsys, monkeypatch):
    with pytest.raises(ValueError, match="non-finite"):
        Line.from_coefficients(*coefficients)
    with pytest.raises(ValueError, match="non-finite"):
        Line(*coefficients)
    code, out, err, wrote = run(["render", "--out"], {"lines": [list(coefficients)]},
                                tmp_path, capsys, monkeypatch)
    assert (code, out, wrote) == (2, "", False)
    assert "Traceback" not in err
