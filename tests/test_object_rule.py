"""Every JSON object is read through the one exact-type object rule.

- A scene, a scene's conic and point entries, a conic and a report that are
  not JSON objects raise MalformedInput naming what they should be, as a
  polygon, its meta and a report's metadata already did
  (tests/test_said_once.py).
- scene_from_dict converts no error of its own, and report_from_dict turns
  only a missing key or an empty residual list into "malformed report".
- On the CLI a missing required key says which key is missing.

Every rejection through the CLI exits 2 with nothing on stdout, no file and
no traceback.
"""

import ast
import inspect
import json
import math

import pytest

from discreteconics.errors import MalformedInput
from discreteconics.polygon import synthesize
from discreteconics.render import scene_from_dict
from discreteconics.serialize import (conic_from_dict, polygon_to_dict, report_from_dict,
                                      report_to_dict)
from discreteconics.verify import run_checks
from test_said_once import run  # main on argv and stdin, with render's --out in tmp_path

BASE = (0.5, 1.0, 2.0 * math.pi / 8, 0.0, 8)
NOT_OBJECTS = [(5, "5"), ("x", "'x'"), (None, "None"), (True, "True"),
               ([["p", 0.5]], "[['p', 0.5]]")]
NO_THETA = {k: v for k, v in polygon_to_dict(synthesize(*BASE)).items() if k != "theta"}


@pytest.mark.parametrize("value, shown", NOT_OBJECTS)
def test_library_readers_name_a_value_that_is_no_object(value, shown):
    for read, what in ((scene_from_dict, "scene"), (conic_from_dict, "conic"),
                       (report_from_dict, "report")):
        with pytest.raises(MalformedInput) as exc:
            read(value)
        assert str(exc.value) == f"{what} must be an object, got {shown}"


@pytest.mark.parametrize("value, shown", NOT_OBJECTS)
@pytest.mark.parametrize("field, what", [("conics", "conic"), ("points", "point")])
def test_a_scene_entry_that_is_no_object_exits_2_naming_it(field, what, value, shown, tmp_path,
                                                          capsys, monkeypatch):
    text = json.dumps({field: [value]})
    code, out, err, wrote = run(["render"], text, tmp_path, capsys, monkeypatch)
    assert (code, out, wrote) == (2, "", False)
    assert err == f"error: {what} must be an object, got {shown}\n"


@pytest.mark.parametrize("text, key", [
    ('{"conics": [{"p": 0.5}]}', "'t'"),
    ('{"conics": [{"t": 1}]}', "'p'"),
    ('{"points": [{"label": "F"}]}', "'xy'"),
    pytest.param(json.dumps({"polygons": [NO_THETA]}), "'theta'", id="polygon-theta"),
])
def test_a_missing_scene_key_is_named(text, key, tmp_path, capsys, monkeypatch):
    code, out, err, wrote = run(["render"], text, tmp_path, capsys, monkeypatch)
    assert (code, out, wrote) == (2, "", False)
    assert err == f"error: missing key {key}\n"


COMMANDS = [["verify"], ["grid", "--k", "2"], ["render"],
            ["transform", "--op", "G", "--angle", "pi/4"]]
KEYS = ["p", "t", "theta", "phi", "n", "closed", "vertices"]


# render reads an object without vertices as a scene, so that pair is left out.
@pytest.mark.parametrize("argv, key", [
    pytest.param(argv, key, id=f"{argv[0]}-{key}") for argv in COMMANDS for key in KEYS
    if (argv[0], key) != ("render", "vertices")])
def test_a_polygon_without_a_key_exits_2_naming_it(argv, key, tmp_path, capsys, monkeypatch):
    obj = polygon_to_dict(synthesize(*BASE))
    del obj[key]
    code, out, err, wrote = run(argv, json.dumps(obj), tmp_path, capsys, monkeypatch)
    assert (code, out, wrote) == (2, "", False)
    assert err == f"error: missing key '{key}'\n"


def test_a_report_without_residuals_is_malformed():
    obj = report_to_dict(run_checks(synthesize(*BASE), names=["poncelet"])[0])
    obj["residuals"] = []
    with pytest.raises(MalformedInput, match="^malformed report: ValueError"):
        report_from_dict(obj)


def _handlers(fn) -> list[str]:
    tree = ast.parse(inspect.getsource(fn))
    return [ast.unparse(h.type) for node in ast.walk(tree) if isinstance(node, ast.Try)
            for h in node.handlers]


def test_no_catch_all_converter_is_left():
    assert _handlers(scene_from_dict) == []
    assert _handlers(report_from_dict) == ["(KeyError, ValueError)"]
