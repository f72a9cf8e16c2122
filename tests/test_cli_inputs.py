"""The command line reads what it documents: negative pi fractions as option
values, strictly typed derived keys in polygon JSON, scene labels escaped in
SVG, and `render` drawing a polygon through the library's own scene."""

import io
import json
import math
import xml.dom.minidom

import pytest

from discreteconics.cli import main
from discreteconics.errors import MalformedInput
from discreteconics.polygon import synthesize
from discreteconics.render import render_svg, scene_from_dict
from discreteconics.serialize import polygon_from_dict, polygon_to_dict

GEN8 = ["generate", "--p", "0.5", "--t", "1", "--theta", "2pi/8", "--n", "8"]


def run(argv, capsys, monkeypatch, stdin_text=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# Negative pi fractions after --theta, --phi and --angle

@pytest.mark.parametrize(
    "head, option, value, tail",
    [
        (GEN8[:-2], "--phi", "-pi/3", GEN8[-2:]),
        (GEN8[:-2], "--phi", "-2pi/7", GEN8[-2:]),
        (["pedal", "--p", "0.75", "--theta", "pi/6"], "--phi", "-pi", ["--n", "12"]),
        (["generate", "--p", "0.5", "--t", "1"], "--theta", "+pi/4", ["--n", "8"]),
    ],
)
def test_detached_angle_value_equals_attached(head, option, value, tail, capsys, monkeypatch):
    detached = run([*head, option, value, *tail], capsys, monkeypatch)
    attached = run([*head, f"{option}={value}", *tail], capsys, monkeypatch)
    assert detached == attached
    assert detached[0] == 0 and json.loads(detached[1])["n"] in (8, 12)


def test_detached_negative_phi_moves_the_polygon(capsys, monkeypatch):
    _, zero, _ = run(GEN8, capsys, monkeypatch)
    _, turned, _ = run([*GEN8, "--phi", "-pi/3"], capsys, monkeypatch)
    assert json.loads(turned)["phi"] == -math.pi / 3
    assert turned != zero


def test_detached_negative_theta_is_a_geometry_error(capsys, monkeypatch):
    code, out, err = run(["generate", "--p", "0.5", "--t", "1", "--theta", "-pi", "--n", "8"],
                         capsys, monkeypatch)
    assert code == 2 and out == ""
    assert "theta must" in err and "expected one argument" not in err


def test_detached_negative_angle_reaches_transform(capsys, monkeypatch):
    _, poly, _ = run(GEN8, capsys, monkeypatch)
    detached = run(["transform", "--op", "G", "--angle", "-pi/4"], capsys, monkeypatch, poly)
    attached = run(["transform", "--op", "G", "--angle=-pi/4"], capsys, monkeypatch, poly)
    assert detached == attached
    assert detached[0] == 2 and "theta must" in detached[2]


@pytest.mark.parametrize("argv", [
    [*GEN8[:-2], "--phi", "--n", "8"],
    [*GEN8[:-2], "--phi", "-n", "8"],
    ["transform", "--op", "G", "--angle", "--op", "H"],
])
def test_option_with_no_angle_is_still_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr()[1]


# ---------------------------------------------------------------------------
# Derived keys of polygon JSON are strictly typed

def _bad(case: str) -> dict:
    obj = polygon_to_dict(synthesize(0.5, 1.0, 2.0 * math.pi / 8, 0.0, 8))
    key, value = BAD_KEYS[case]
    if key == "vertices":
        obj["vertices"][3] = value
    else:
        obj[key] = value
    return obj


BAD_KEYS = {
    "closed_string": ("closed", "no"),
    "closed_one": ("closed", 1),
    "n_fraction": ("n", 8.9),
    "n_float": ("n", 8.0),
    "n_bool": ("n", True),
    "vertex_three_numbers": ("vertices", [0.1, 0.2, 0.3]),
    "vertex_one_number": ("vertices", [0.1]),
    "vertex_string": ("vertices", ["0.1", 0.2]),
    "vertex_bool": ("vertices", [True, 0.2]),
}

COMMANDS = {
    "verify": ["verify"],
    "verify_poncelet": ["verify", "--check", "poncelet"],
    "grid": ["grid", "--k", "2"],
    "transform": ["transform", "--op", "G", "--angle", "2pi/8"],
    "render": ["render", "--out"],
}


@pytest.mark.parametrize("case", BAD_KEYS)
def test_bad_derived_key_raises_malformed_input_naming_it(case):
    with pytest.raises(MalformedInput, match=BAD_KEYS[case][0]):
        polygon_from_dict(json.loads(json.dumps(_bad(case))))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", BAD_KEYS)
def test_bad_derived_key_exits_2_naming_it(case, command, tmp_path, capsys, monkeypatch):
    target = tmp_path / "figure.svg"
    argv = COMMANDS[command] + ([str(target)] if command == "render" else [])
    code, out, err = run(argv, capsys, monkeypatch, json.dumps(_bad(case)))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {BAD_KEYS[case][0]} must") and "Traceback" not in err
    assert not target.exists()


def test_well_typed_keys_still_load():
    d = synthesize(0.5, 1.0, 2.0 * math.pi / 8, 0.0, 8)
    obj = polygon_to_dict(d)
    obj["vertices"] = [tuple(v) for v in obj["vertices"]]  # tuples, as a library caller may pass
    assert polygon_from_dict(obj) == d
    chain = {"p": 0.5, "t": 1, "theta": 1, "phi": 0, "n": 3, "closed": False,
             "vertices": [[1, 0], [0, 1], [0, 2]]}
    assert polygon_from_dict(chain).vertices[0].x == 1.0


# ---------------------------------------------------------------------------
# SVG labels

LABELS = ['a"b&c', "<F>", "x & y", 'say "F"', "&amp;"]


@pytest.mark.parametrize("label", LABELS)
def test_label_is_escaped_and_parses(label, tmp_path, capsys, monkeypatch):
    target = tmp_path / "l.svg"
    scene = {"points": [{"label": label, "xy": [0, 0]}]}
    code, _, err = run(["render", "--out", str(target)], capsys, monkeypatch, json.dumps(scene))
    assert code == 0, err
    circle = xml.dom.minidom.parse(str(target)).getElementsByTagName("circle")[0]
    assert circle.getAttribute("data-label") == label


def test_plain_label_is_written_as_is():
    svg = render_svg(scene_from_dict({"points": [{"label": "F_1 (focus)", "xy": [0, 0]}]}))
    assert 'data-label="F_1 (focus)"' in svg


# ---------------------------------------------------------------------------
# render draws a polygon through scene_from_dict

@pytest.mark.parametrize("p, t, theta, n", [
    (0.75, 1.0, 2.0 * math.pi / 6, 6),
    (0.3, 20.0, 2.0 * math.pi / 7, 7),
    (0.5, 1.0, 0.7, 5),
])
def test_render_writes_the_library_scene_of_a_polygon(p, t, theta, n, tmp_path, capsys,
                                                      monkeypatch):
    d = synthesize(p, t, theta, 0.0, n)
    target = tmp_path / "figure.svg"
    code, _, err = run(["render", "--out", str(target)], capsys, monkeypatch,
                       json.dumps(polygon_to_dict(d)))
    assert code == 0, err
    assert target.read_text() == render_svg(scene_from_dict(polygon_to_dict(d)))


def test_polygon_scene_is_carrier_polygon_and_focus():
    d = synthesize(0.5, 1.0, 2.0 * math.pi / 8, 0.0, 8)
    scene = scene_from_dict(polygon_to_dict(d))
    assert scene.conics == (d.carrier,) and scene.polygons == (d,)
    assert scene.points == (("F", d.focus),) and scene.lines == () and scene.viewbox is None
