"""Errors name the field they come from.

- A container field that is not an array (vertices, conics, polygons,
  points, lines) is rejected by serialize.read_array, naming the field.
- A plain ValueError raised reading one entry (an overflowing vertex or
  point coordinate, a line coefficient) is reported under the field.
- Line.from_coefficients tests its inputs for finiteness before dividing,
  so the message shows the values it was given, never a NaN they lacked.
- A report's check is a JSON string and its metadata a JSON object.

Every rejection through the CLI exits 2 with nothing on stdout, no file and
no traceback.
"""

import io
import json
import math

import pytest

from discreteconics.cli import main
from discreteconics.errors import DegenerateConfiguration, MalformedInput, NotClosed
from discreteconics.kernel import Line
from discreteconics.polygon import synthesize
from discreteconics.render import scene_from_dict
from discreteconics.serialize import (polygon_from_dict, polygon_to_dict, read_array,
                                      report_from_dict, report_to_dict)
from discreteconics.verify import run_checks

BIG = int("9" * 401)  # a JSON integer far beyond float range
BASE = (0.5, 1.0, 2.0 * math.pi / 8, 0.0, 8)


def run(argv, text, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    figure = tmp_path / "figure.svg"
    if argv[0] == "render":
        argv = [*argv, str(figure)]
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err, figure.exists()


def _polygon(**changes):
    return json.dumps({**polygon_to_dict(synthesize(*BASE)), **changes})


# (command, stdin, the error's start)
CASES = {
    "vertices_null": (["verify"], _polygon(vertices=None), "vertices must be an array, got None"),
    "vertices_number": (["grid", "--k", "2"], _polygon(vertices=5), "vertices must be an array"),
    "vertices_object": (["render", "--out"], _polygon(vertices={"0": [1, 0]}),
                        "vertices must be an array"),
    "vertex_overflow": (["verify"], _polygon(vertices=[[BIG, 0]] + [[0.1, 0.5]] * 7),
                        "vertices: non-finite coordinates (inf, 0.0)"),
    "points_number": (["render", "--out"], '{"points": 5}', "points must be an array, got 5"),
    "conics_null": (["render", "--out"], '{"conics": null}', "conics must be an array, got None"),
    "polygons_string": (["render", "--out"], '{"polygons": "none"}', "polygons must be an array"),
    "lines_null": (["render", "--out"], '{"lines": null}', "lines must be an array, got None"),
    "point_overflow": (["render", "--out"], json.dumps({"points": [{"xy": [0, -BIG]}]}),
                       "points: non-finite coordinates (0.0, -inf)"),
    "line_overflow": (["render", "--out"], json.dumps({"lines": [[1, BIG, 0]]}),
                      "lines: non-finite coefficients (1.0, inf, 0.0)"),
    "line_nan": (["render", "--out"], '{"lines": [[NaN, 1, 0]]}',
                 "lines: non-finite coefficients (nan, 1.0, 0.0)"),
}


@pytest.mark.parametrize("case", CASES)
def test_the_error_starts_with_the_field_name(case, tmp_path, capsys, monkeypatch):
    argv, text, start = CASES[case]
    code, out, err, wrote = run(argv, text, tmp_path, capsys, monkeypatch)
    assert (code, out, wrote) == (2, "", False), err
    assert err.startswith(f"error: {start}") and "Traceback" not in err


def test_an_overflowing_coefficient_is_reported_as_given():
    with pytest.raises(ValueError) as exc:
        Line.from_coefficients(1.0, math.inf, 0.0)
    assert str(exc.value) == "non-finite coefficients (1.0, inf, 0.0)"
    with pytest.raises(ValueError, match=r"\(-inf, inf, 0\.0\)"):
        Line.from_coefficients(-math.inf, math.inf, 0.0)
    with pytest.raises(ValueError, match=r"\(0\.6, 0\.8, inf\)"):
        Line.from_coefficients(0.6, 0.8, math.inf)
    with pytest.raises(DegenerateConfiguration):
        Line.from_coefficients(0.0, 0.0, 1.0)
    # Finite inputs whose quotient overflows meet Line's own rule.
    with pytest.raises(ValueError, match="non-finite coefficients"):
        Line.from_coefficients(1e-11, 0.0, 1e300)


def test_the_line_message_from_the_cli_has_no_nan(tmp_path, capsys, monkeypatch):
    text = json.dumps({"lines": [[1, BIG, 0]]})
    code, _, err, _ = run(["render", "--out"], text, tmp_path, capsys, monkeypatch)
    assert code == 2 and "inf" in err and "nan" not in err


def test_read_array_keeps_geometry_errors_and_reads_tuples():
    assert read_array([1, 2], "xs", float) == (1.0, 2.0)
    assert read_array((1, 2), "xs", float) == (1.0, 2.0)
    assert read_array([], "xs", float) == ()

    def closed_only(x):
        raise NotClosed("not closed")

    with pytest.raises(NotClosed, match="^not closed$"):
        read_array([1], "xs", closed_only)
    for bad in (None, 5, "ab", {"a": 1}, True):
        with pytest.raises(MalformedInput, match=f"^xs must be an array, got {bad!r}$"):
            read_array(bad, "xs", float)


def test_library_callers_get_malformed_input():
    obj = json.loads(_polygon(vertices=None))
    with pytest.raises(MalformedInput, match="^vertices must be an array"):
        polygon_from_dict(obj)
    with pytest.raises(MalformedInput, match="^points must be an array"):
        scene_from_dict({"points": 5})
    with pytest.raises(MalformedInput, match="^vertices: non-finite coordinates"):
        polygon_from_dict(json.loads(_polygon(vertices=[[0.1, math.inf]] * 8)))


def test_well_formed_containers_still_load():
    d = synthesize(*BASE)
    assert polygon_from_dict(json.loads(_polygon())) == d
    scene = scene_from_dict({"conics": [{"p": 0.5, "t": 1}], "polygons": [polygon_to_dict(d)],
                             "points": [{"xy": [0, 0]}], "lines": [[1, 0, 0]]})
    assert (len(scene.conics), len(scene.polygons), len(scene.points), len(scene.lines)) == (1,) * 4


def _report():
    return report_to_dict(run_checks(synthesize(*BASE), names=["poncelet"])[0])


@pytest.mark.parametrize("key, value, message", [
    ("check", 5, "check must be a string, got 5"),
    ("check", None, "check must be a string, got None"),
    ("check", ["poncelet"], "check must be a string"),
    ("metadata", [["a", 1]], "metadata must be an object, got [['a', 1]]"),
    ("metadata", None, "metadata must be an object, got None"),
    ("metadata", "inner_t", "metadata must be an object"),
])
def test_report_check_and_metadata_have_types(key, value, message):
    obj = {**_report(), key: value}
    with pytest.raises(MalformedInput) as exc:
        report_from_dict(json.loads(json.dumps(obj)))
    assert str(exc.value).startswith(message)


def test_a_well_typed_report_still_loads_and_copies_its_metadata():
    obj = _report()
    r = report_from_dict(obj)
    assert r.check == "poncelet" and r.metadata == obj["metadata"]
    assert r.metadata is not obj["metadata"]
    del obj["metadata"]
    assert report_from_dict(obj).metadata == {}
