"""One rule for every number in polygon, scene, conic and report JSON.

serialize.read_number reads them all: an exact JSON number (int or float,
never a bool, nor a string holding a number) or an array of exactly k of
them.  An integer beyond float range reads as +-inf, as json reads the
literal 1e400, so the field's own finiteness rule rejects it.  Every bad
value exits 2 with no output, no file, no traceback and an error naming the
field, on every command that reads it.
"""

import io
import json
import math
import re

import pytest

from discreteconics.cli import main
from discreteconics.errors import MalformedInput
from discreteconics.polygon import synthesize
from discreteconics.serialize import (
    polygon_to_dict,
    read_number,
    report_from_dict,
    report_to_dict,
)
from discreteconics.verify import run_checks

BIG = int("9" * 401)  # a JSON integer far beyond float range
BASE = (0.5, 1.0, 2.0 * math.pi / 8, 0.0, 8)  # generate --p 0.5 --t 1 --theta 2pi/8 --n 8

# Forms that are no JSON number, and the array of one number in a number's place.
NOT_NUMBERS = ["0.5", True, False, None, [0.5]]

COMMANDS = {
    "verify": ["verify"],
    "grid": ["grid", "--k", "2"],
    "transform": ["transform", "--op", "G", "--angle", "2pi/8"],
    "render": ["render", "--out"],
}


def run(argv, obj, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    figure = tmp_path / "figure.svg"
    if argv[0] == "render":
        argv = [*argv, str(figure)]
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err, figure.exists()


def assert_rejected(result, name):
    """Exit 2, nothing on stdout, no file, and an error naming the field."""
    code, out, err, wrote = result
    assert (code, out, wrote) == (2, "", False), err
    assert err.startswith("error: ") and "Traceback" not in err
    assert re.search(rf"\b{name}\b", err), err


# ---------------------------------------------------------------------------
# The reader itself

@pytest.mark.parametrize("value, expected", [
    (0, 0.0), (-3, -3.0), (0.25, 0.25), (2**1023, 2.0**1023),
    (2**1024, math.inf), (-(2**1024), -math.inf), (BIG, math.inf), (-BIG, -math.inf),
])
def test_a_number_reads_as_its_float(value, expected):
    got = read_number(value, "x")
    assert type(got) is float and got == expected


@pytest.mark.parametrize("value", [*NOT_NUMBERS, {"x": 1}, "inf"])
def test_anything_else_is_malformed_input_naming_the_field(value):
    with pytest.raises(MalformedInput, match=r"^x must be a number, got "):
        read_number(value, "x")


@pytest.mark.parametrize("value", [[1, 2], (1, 2), [1.5, -BIG]])
def test_an_array_of_k_numbers_reads_as_a_tuple(value):
    got = read_number(value, "xy", 2)
    assert type(got) is tuple and all(type(x) is float for x in got)
    assert got[0] == float(value[0])


@pytest.mark.parametrize("value", [[1], [1, 2, 3], "12", 12, None, [1, "2"], [True, 2],
                                   [None, 2], {"0": 1, "1": 2}])
def test_a_bad_array_names_the_field(value):
    with pytest.raises(MalformedInput, match=r"^xy must be (an array of 2 numbers|a number), got "):
        read_number(value, "xy", 2)


# ---------------------------------------------------------------------------
# Polygon header and vertices, over every command that reads a polygon

def _polygon_json():
    return polygon_to_dict(synthesize(*BASE))


HEADER_CASES = [(key, value) for key in ("p", "t", "theta", "phi") for value in
                [*NOT_NUMBERS, BIG, -BIG]] + [
    ("n", "8"), ("n", None), ("n", [8]), ("n", BIG),
    ("closed", None), ("closed", "true"), ("closed", 0),
]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key, value", HEADER_CASES,
                         ids=[f"{k}={str(v)[:8]}" for k, v in HEADER_CASES])
def test_bad_header_value_exits_2_naming_it(key, value, command, tmp_path, capsys,
                                             monkeypatch):
    obj = _polygon_json()
    obj[key] = value
    assert_rejected(run(COMMANDS[command], obj, tmp_path, capsys, monkeypatch), key)


VERTEX_CASES = [["0.1", 0.2], [True, 0.2], None, [0.1], [0.1, 0.2, 0.3], "0.1 0.2"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("vertex", VERTEX_CASES, ids=repr)
def test_bad_vertex_exits_2_naming_vertices(vertex, command, tmp_path, capsys, monkeypatch):
    obj = _polygon_json()
    obj["vertices"][3] = vertex
    assert_rejected(run(COMMANDS[command], obj, tmp_path, capsys, monkeypatch), "vertices")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("sign", [1, -1])
def test_overflowing_vertex_coordinate_is_a_non_finite_point(sign, command, tmp_path, capsys,
                                                             monkeypatch):
    obj = _polygon_json()
    obj["vertices"][3][1] = sign * BIG
    code, out, err, wrote = run(COMMANDS[command], obj, tmp_path, capsys, monkeypatch)
    assert (code, out, wrote) == (2, "", False)
    assert "non-finite coordinates" in err and "inf" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# Scene points, lines, viewbox and conics, through render

SCENE_CASES = {
    "xy_string": ({"points": [{"xy": "0 0"}]}, "xy"),
    "xy_null": ({"points": [{"xy": None}]}, "xy"),
    "xy_short": ({"points": [{"xy": [0]}]}, "xy"),
    "xy_long": ({"points": [{"xy": [0, 0, 0]}]}, "xy"),
    "xy_string_entry": ({"points": [{"xy": ["0", 0]}]}, "xy"),
    "xy_bool_entry": ({"points": [{"xy": [True, 0]}]}, "xy"),
    "xy_null_entry": ({"points": [{"xy": [None, 0]}]}, "xy"),
    "line_short": ({"lines": [[1, 0]]}, "lines"),
    "line_long": ({"lines": [[1, 0, 0, 0]]}, "lines"),
    "line_string": ({"lines": ["1 0 0"]}, "lines"),
    "line_string_entry": ({"lines": [["1", 0, 0]]}, "lines"),
    "line_bool_entry": ({"lines": [[1, False, 0]]}, "lines"),
    "line_null": ({"lines": [None]}, "lines"),
    "viewbox_short": ({"lines": [[1, 0, 0]], "viewbox": [0, 0, 1]}, "viewbox"),
    "viewbox_long": ({"lines": [[1, 0, 0]], "viewbox": [0, 0, 1, 1, 1]}, "viewbox"),
    "viewbox_empty": ({"lines": [[1, 0, 0]], "viewbox": []}, "viewbox"),
    "viewbox_string": ({"lines": [[1, 0, 0]], "viewbox": "0 0 1 1"}, "viewbox"),
    "viewbox_string_entry": ({"lines": [[1, 0, 0]], "viewbox": [0, 0, "1", 1]}, "viewbox"),
    "viewbox_bool": ({"lines": [[1, 0, 0]], "viewbox": True}, "viewbox"),
    "viewbox_null": ({"lines": [[1, 0, 0]], "viewbox": None}, "viewbox"),
    "conic_p_string": ({"conics": [{"p": "0.5", "t": 1}]}, "p"),
    "conic_t_bool": ({"conics": [{"p": 0.5, "t": True}]}, "t"),
    "conic_t_null": ({"conics": [{"p": 0.5, "t": None}]}, "t"),
    "conic_p_array": ({"conics": [{"p": [0.5], "t": 1}]}, "p"),
    "conic_p_big": ({"conics": [{"p": BIG, "t": 1}]}, "p"),
    "conic_t_big": ({"conics": [{"p": 0.5, "t": BIG}]}, "t"),
    "polygon_p_string": ({"polygons": [{**polygon_to_dict(synthesize(*BASE)), "p": "0.5"}]}, "p"),
}


@pytest.mark.parametrize("case", SCENE_CASES)
def test_bad_scene_value_exits_2_naming_it(case, tmp_path, capsys, monkeypatch):
    scene, name = SCENE_CASES[case]
    assert_rejected(run(["render", "--out"], scene, tmp_path, capsys, monkeypatch), name)


@pytest.mark.parametrize("scene, message", [
    ({"points": [{"xy": [0, BIG]}]}, "non-finite coordinates"),
    ({"lines": [[1, BIG, 0]]}, "non-finite coefficients"),
    ({"lines": [[-BIG, 1, 0]]}, "non-finite coefficients"),
    ({"lines": [[1, 0, 0]], "viewbox": [0, 0, BIG, 1]}, "non-finite viewbox"),
    ({"lines": [[1, 0, 0]], "viewbox": [-BIG, 0, 1, 1]}, "non-finite viewbox"),
], ids=["xy", "line_b", "line_a", "viewbox_width", "viewbox_xmin"])
def test_overflowing_scene_number_meets_its_finiteness_rule(scene, message, tmp_path, capsys,
                                                            monkeypatch):
    code, out, err, wrote = run(["render", "--out"], scene, tmp_path, capsys, monkeypatch)
    assert (code, out, wrote) == (2, "", False)
    assert message in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# Reports

def _report_json():
    return report_to_dict(run_checks(synthesize(*BASE), names=["poncelet"])[0])


@pytest.mark.parametrize("key, value", [
    ("residuals", "0.1"), ("residuals", 0.1), ("residuals", None), ("residuals", ["0.1"]),
    ("residuals", [True]), ("residuals", [[0.1]]),
    ("tolerance", "1e-8"), ("tolerance", None), ("tolerance", True), ("tolerance", [1e-8]),
    ("max_residual", "0"), ("max_residual", None), ("max_residual", False),
    ("pass", "no"), ("pass", "true"), ("pass", 1), ("pass", 0), ("pass", None),
])
def test_bad_report_value_is_malformed_input_naming_it(key, value):
    obj = _report_json()
    obj[key] = value
    with pytest.raises(MalformedInput, match=rf"^{key} must be "):
        report_from_dict(obj)


def test_a_report_round_trips_and_an_overflowing_residual_reads_as_inf():
    obj = _report_json()
    assert report_to_dict(report_from_dict(json.loads(json.dumps(obj)))) == obj
    obj.update(residuals=[0.0, BIG], max_residual=math.inf, **{"pass": False})
    r = report_from_dict(obj)
    assert r.residuals == (0.0, math.inf) and not r.passed
