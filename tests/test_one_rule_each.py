"""Each input value has one rule: scene labels, option names, p, and the
focal angle measured without building a member.

- A scene label is a JSON string of XML 1.0 characters, checked in
  scene_from_dict before render opens its file.
- Options go by their full names; '--ph' is no '--phi'.
- check_p rejects a non-finite p by name, and every constructor and polygon
  JSON report a bad p before a bad theta.
- focal_parameter validates through parameter_of and builds no FocalConic.
"""

import io
import json
import math
import xml.dom.minidom

import pytest

from discreteconics.cli import main
from discreteconics.errors import (
    AngleOutOfRange,
    DegenerateP,
    MalformedInput,
    NonFiniteParameter,
)
from discreteconics.pencil import FocalConic
from discreteconics.polygon import closed_form_vertices, negative_pedal, synthesize
from discreteconics.render import render_svg, scene_from_dict
from discreteconics.serialize import polygon_from_dict, polygon_to_dict
from discreteconics.verify import _parameter_step_residuals

GEN8 = ["generate", "--p", "0.5", "--t", "1", "--theta", "2pi/8", "--n", "8"]


def run(argv, capsys, monkeypatch, stdin_text=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# Scene labels

BAD_LABELS = ["a\u0001b", "a\ud800b", "\udfff", "a\ufffeb", "\uffff", "\x00", "\x7f\x0b",
              5, 0.5, True, None, ["F"], {"F": 1}]


@pytest.mark.parametrize("label", BAD_LABELS, ids=repr)
def test_bad_label_is_malformed_input_naming_label(label):
    with pytest.raises(MalformedInput, match=r"^label must be a string"):
        scene_from_dict({"points": [{"label": label, "xy": [0, 0]}]})


@pytest.mark.parametrize("label", BAD_LABELS, ids=repr)
def test_bad_label_exits_2_before_the_file_is_opened(label, tmp_path, capsys, monkeypatch):
    target = tmp_path / "l.svg"
    scene = {"points": [{"label": label, "xy": [0, 0]}]}
    code, out, err = run(["render", "--out", str(target)], capsys, monkeypatch,
                         json.dumps(scene))
    assert (code, out) == (2, "") and err.startswith("error: label must")
    assert "Traceback" not in err and not target.exists()


@pytest.mark.parametrize("label", ["", "F", "a\tb", "a\nb", "caf\u00e9", "\U0001f600",
                                   "\ud7ff", "\ue000", "\ufffd", "\U0010ffff", "\x7f"],
                         ids=repr)
def test_xml_label_renders_to_a_file_that_parses(label, tmp_path, capsys, monkeypatch):
    target = tmp_path / "l.svg"
    scene = {"points": [{"label": label, "xy": [0, 0]}]}
    code, _, err = run(["render", "--out", str(target)], capsys, monkeypatch, json.dumps(scene))
    assert code == 0, err
    circle = xml.dom.minidom.parse(str(target)).getElementsByTagName("circle")[0]
    # An XML parser normalizes tab and newline in an attribute to a space.
    assert circle.getAttribute("data-label") == label.replace("\t", " ").replace("\n", " ")


def test_an_absent_label_is_empty():
    assert scene_from_dict({"points": [{"xy": [1, 2]}]}).points[0][0] == ""


# ---------------------------------------------------------------------------
# Options go by their full names

ABBREVIATED = [
    [*GEN8[:-2], "--ph", "-pi/3", GEN8[-2], GEN8[-1]],
    [*GEN8[:-2], "--ph=-pi/3", GEN8[-2], GEN8[-1]],
    [*GEN8[:-2], "--ph", "0.3", GEN8[-2], GEN8[-1]],
    ["generate", "--p", "0.5", "--t", "1", "--the", "2pi/8", "--n", "8"],
    ["pedal", "--p", "0.75", "--thet", "pi/6", "--n", "12"],
    ["transform", "--op", "G", "--ang", "2pi/8"],
    ["verify", "--che", "all"],
    ["verify", "--to", "1e-6"],
    ["render", "--ou", "x.svg"],
]


@pytest.mark.parametrize("argv", ABBREVIATED, ids=" ".join)
def test_an_abbreviated_option_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "unrecognized arguments" in err or "the following arguments are required" in err
    assert "expected one argument" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", ["--ph -pi/3", "--ph=-pi/3"])
def test_the_detached_and_attached_abbreviation_fail_alike(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*GEN8, *option.split()])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr()[1]


# ---------------------------------------------------------------------------
# p: finite by name, and before theta

@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("construct", [
    lambda p: synthesize(p, 1.0, 2.0 * math.pi / 8, 0.0, 8),
    lambda p: closed_form_vertices(p, 2.0 * math.pi / 8, 0.0, 8),
    lambda p: negative_pedal(p, 2.0 * math.pi / 8, 0.0, 8),
], ids=["synthesize", "closed_form_vertices", "negative_pedal"])
def test_a_non_finite_p_is_named(construct, p):
    with pytest.raises(NonFiniteParameter, match=r"^p must be finite, got ") as exc:
        construct(p)
    assert repr(p) in str(exc.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_pedal_names_a_non_finite_p(value, capsys, monkeypatch):
    code, out, err = run(["pedal", f"--p={value}", "--theta", "pi/6", "--n", "12"], capsys,
                         monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"error: p must be finite, got {float(value)!r}\n"


@pytest.mark.parametrize("p, error", [(1.0, DegenerateP), (math.nan, NonFiniteParameter)])
def test_a_bad_p_is_reported_before_a_bad_theta(p, error):
    with pytest.raises(error):
        synthesize(p, 1.0, 0.0, 0.0, 8)
    with pytest.raises(error):
        closed_form_vertices(p, 0.0, 0.0, 8)
    with pytest.raises(error):
        negative_pedal(p, math.pi, 0.0, 8)
    obj = polygon_to_dict(synthesize(0.5, 1.0, 2.0 * math.pi / 8, 0.0, 8))
    obj.update(p=p, theta=0.0)
    with pytest.raises(error):
        polygon_from_dict(obj)
    obj["p"] = 0.5
    with pytest.raises(AngleOutOfRange):
        polygon_from_dict(obj)


# ---------------------------------------------------------------------------
# focal_parameter builds no member

def test_parameter_steps_build_no_focal_conic(monkeypatch):
    d = synthesize(0.3, 20.0, 2.0 * math.pi / 240, 0.3, 240)
    expected = _parameter_step_residuals(d.p, d.vertices, d.theta, closed=True)
    built = []
    init = FocalConic.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FocalConic, "__init__", counting_init)
    assert _parameter_step_residuals(d.p, d.vertices, d.theta, closed=True) == expected
    assert built == []
    synthesize(0.3, 20.0, 2.0 * math.pi / 240, 0.3, 240)  # the guard does see a member built
    assert len(built) == 1
