"""Command-line surface: pipelines, exit codes, angle parsing, SVG output."""

import io
import json
import math

import pytest

from discreteconics.cli import main, parse_angle


def run_cli(argv, stdin_text="", capsys=None, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_angle():
    assert math.isclose(parse_angle("2pi/12"), math.pi / 6)
    assert math.isclose(parse_angle("pi/6"), math.pi / 6)
    assert math.isclose(parse_angle("-pi"), -math.pi)
    assert math.isclose(parse_angle("0.5"), 0.5)
    assert math.isclose(parse_angle("1.5 * pi"), 1.5 * math.pi)
    with pytest.raises(ValueError):
        parse_angle("pie")


def test_generate(capsys):
    code = main(["generate", "--p", "0", "--t", "1", "--theta", "2pi/4", "--n", "4"])
    out, _ = capsys.readouterr()
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 4 and obj["closed"] is True
    assert abs(obj["vertices"][0][0] - 1.0) < 1e-12


def test_generate_bad_input(capsys):
    code = main(["generate", "--p", "0.5", "--t", "-1", "--theta", "pi/4", "--n", "8"])
    _, err = capsys.readouterr()
    assert code == 2 and "error" in err


def test_pedal_and_verify_pipeline(capsys, monkeypatch):
    code = main(["pedal", "--p", "0.75", "--theta", "pi/6", "--n", "12"])
    out, _ = capsys.readouterr()
    assert code == 0
    code, out, _ = run_cli(
        ["verify", "--check", "all"], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    reports = json.loads(out)
    assert all(r["pass"] for r in reports)


def test_transform_updates_parameter(capsys, monkeypatch):
    code = main(["generate", "--p", "0.5", "--t", "1", "--theta", "2pi/8", "--n", "8"])
    out, _ = capsys.readouterr()
    assert code == 0
    code, out, _ = run_cli(
        ["transform", "--op", "G", "--angle", "2pi/8"],
        stdin_text=out,
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    obj = json.loads(out)
    assert math.isclose(obj["t"], 1.0 / math.cos(math.pi / 8) ** 2)
    assert obj["meta"]["vertex_correspondence"] == "verified"


def test_grid_subcommand(capsys, monkeypatch):
    code = main(["generate", "--p", "0.75", "--t", "0.5", "--theta", "pi/6", "--n", "12"])
    out, _ = capsys.readouterr()
    code, out, _ = run_cli(["grid", "--k", "3"], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    obj = json.loads(out)
    expect = 0.5 * math.cos(math.pi / 12) ** 2 / math.cos(math.pi / 4) ** 2
    assert math.isclose(obj["t"], expect)


def test_verify_failure_exit_code(capsys, monkeypatch):
    # phi != 0 keeps vertex 1 off the focal axis, where a radial x-shift
    # would leave its direction from the focus unchanged.
    code = main(
        ["generate", "--p", "0.6", "--t", "0.8", "--theta", "2pi/8", "--phi", "0.3", "--n", "8"]
    )
    out, _ = capsys.readouterr()
    obj = json.loads(out)
    obj["vertices"][0][0] += 1e-3
    code, out, _ = run_cli(
        ["verify", "--check", "equal_angles"],
        stdin_text=json.dumps(obj),
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 1
    assert not json.loads(out)[0]["pass"]


def test_verify_garbage_input(capsys, monkeypatch):
    code, _, err = run_cli(
        ["verify"], stdin_text="{not json", capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 2 and "error" in err


def test_render_polygon_to_file(tmp_path, capsys, monkeypatch):
    code = main(["generate", "--p", "0.75", "--t", "1", "--theta", "2pi/6", "--n", "6"])
    out, _ = capsys.readouterr()
    target = tmp_path / "figure.svg"
    code, _, _ = run_cli(
        ["render", "--out", str(target)], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("<?xml") and "<svg" in text
    # Byte-stable across runs.
    target2 = tmp_path / "figure2.svg"
    run_cli(["render", "--out", str(target2)], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch)
    assert target2.read_text() == text


def test_render_scene_json(tmp_path, capsys, monkeypatch):
    scene = {
        "conics": [{"p": 0.75, "t": t} for t in (0.5, 1.0, 2.0, 4.0)],
        "points": [{"label": "F", "xy": [-0.75, 0.0]}],
    }
    target = tmp_path / "pencil.svg"
    code, _, _ = run_cli(
        ["render", "--out", str(target)],
        stdin_text=json.dumps(scene),
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert target.read_text().count('class="conic"') == 4


def _generated(capsys):
    main(["generate", "--p", "0.5", "--t", "1", "--theta", "2pi/8", "--n", "8"])
    out, _ = capsys.readouterr()
    return json.loads(out)


def test_vertex_count_mismatch_exits_2(capsys, monkeypatch):
    obj = _generated(capsys)
    obj["n"] = 9
    code, _, err = run_cli(
        ["verify"], stdin_text=json.dumps(obj), capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 2 and "error" in err and "Traceback" not in err


def test_json_array_on_stdin_exits_2(capsys, monkeypatch):
    code, _, err = run_cli(["verify"], stdin_text="[1, 2]", capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2 and "error" in err and "Traceback" not in err


def test_render_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    obj = _generated(capsys)
    target = tmp_path / "missing" / "figure.svg"
    code, _, err = run_cli(
        ["render", "--out", str(target)],
        stdin_text=json.dumps(obj),
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 2 and "error" in err and "Traceback" not in err
    assert not target.exists()


MALFORMED_POLYGONS = {
    "vertices_flat": ("vertices", [1, 2]),
    "vertices_scalar": ("vertices", 5),
    "p_null": ("p", None),
}

SUBCOMMANDS = {
    "verify": ["verify"],
    "grid": ["grid", "--k", "2"],
    "transform": ["transform", "--op", "G", "--angle", "pi/8"],
    "render": ["render", "--out"],
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("case", MALFORMED_POLYGONS)
def test_malformed_polygon_json_exits_2(case, command, tmp_path, capsys, monkeypatch):
    obj = _generated(capsys)
    key, value = MALFORMED_POLYGONS[case]
    obj[key] = value
    argv = list(SUBCOMMANDS[command])
    if command == "render":
        argv.append(str(tmp_path / "figure.svg"))
    code, out, err = run_cli(
        argv, stdin_text=json.dumps(obj), capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 2 and out == ""
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "abc"])
def test_verify_tol_must_be_finite_and_positive(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--tol", tol])
    _, err = capsys.readouterr()
    assert exc.value.code == 2 and "--tol" in err


def test_verify_tol_accepts_positive(capsys, monkeypatch):
    obj = _generated(capsys)
    code, out, _ = run_cli(
        ["verify", "--check", "poncelet", "--tol", "1e-6"],
        stdin_text=json.dumps(obj),
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0 and json.loads(out)[0]["tolerance"] == 1e-6


MALFORMED_SCENES = {
    "conics_scalar": {"conics": 5},
    "conic_p_null": {"conics": [{"p": None, "t": 1}]},
    "conic_not_object": {"conics": [5]},
    "conic_t_negative": {"conics": [{"p": 0.5, "t": -1}]},
    "conic_p_one": {"conics": [{"p": 1.0, "t": 1}]},
    "point_xy_scalar": {"points": [{"label": "F", "xy": 3}]},
    "point_xy_short": {"points": [{"label": "F", "xy": [1]}]},
    "point_not_object": {"points": [[1, 2]]},
    "line_scalar": {"lines": [5]},
    "viewbox_scalar": {"conics": [{"p": 0.5, "t": 1}], "viewbox": 5},
    "viewbox_short": {"conics": [{"p": 0.5, "t": 1}], "viewbox": [1, 2]},
}


@pytest.mark.parametrize("case", MALFORMED_SCENES)
def test_malformed_scene_json_exits_2(case, tmp_path, capsys, monkeypatch):
    target = tmp_path / "figure.svg"
    code, out, err = run_cli(
        ["render", "--out", str(target)],
        stdin_text=json.dumps(MALFORMED_SCENES[case]),
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 2 and out == ""
    assert "error" in err and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("text", ["pi/0", "2pi/0.0", "-pi/00", "inf", "-inf", "nan", "1e400pi"])
def test_parse_angle_rejects_zero_denominator_and_non_finite(text):
    with pytest.raises(ValueError):
        parse_angle(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--p", "0.5", "--t", "1", "--theta", "pi/0", "--n", "5"],
        ["generate", "--p", "0.5", "--t", "1", "--theta", "pi/5", "--phi", "pi/0", "--n", "5"],
        ["transform", "--op", "G", "--angle", "pi/0"],
    ],
)
def test_zero_denominator_angle_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    _, err = capsys.readouterr()
    assert exc.value.code == 2 and "invalid parse_angle value" in err


NON_FINITE_SCENES = {
    "conic_p_nan": {"conics": [{"p": math.nan, "t": 1}]},
    "conic_t_inf": {"conics": [{"p": 0.5, "t": math.inf}]},
    "viewbox_height_inf": {"conics": [{"p": 0.5, "t": 1}], "viewbox": [0, 0, 1e-320, 1]},
    "viewbox_nan": {"conics": [{"p": 0.5, "t": 1}], "viewbox": [0, 0, math.nan, 1]},
    "viewbox_xmin_inf": {"conics": [{"p": 0.5, "t": 1}], "viewbox": [-math.inf, 0, 1, 1]},
}


@pytest.mark.parametrize("case", NON_FINITE_SCENES)
def test_non_finite_scene_exits_2_without_a_file(case, tmp_path, capsys, monkeypatch):
    target = tmp_path / "figure.svg"
    code, out, err = run_cli(
        ["render", "--out", str(target)],
        stdin_text=json.dumps(NON_FINITE_SCENES[case]),
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 2 and out == ""
    assert "error" in err and "Traceback" not in err
    assert not target.exists()


def _contradictory(capsys, case):
    """Polygon JSON whose stated n or closed disagrees with its vertices and
    theta.  n = 7 at theta = 2pi/8 is an open chain."""
    n = 8 if case == "closed_false_on_closed" else 7
    main(["generate", "--p", "0.5", "--t", "1", "--theta", "2pi/8", "--n", str(n)])
    obj = json.loads(capsys.readouterr()[0])
    if case == "closed_true_on_open_chain":
        obj["closed"] = True
    elif case == "closed_false_on_closed":
        obj["closed"] = False
    else:
        obj["n"] = 6
    return obj


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("case", ["closed_true_on_open_chain", "closed_false_on_closed", "n_too_small"])
def test_contradictory_polygon_json_exits_2(case, command, tmp_path, capsys, monkeypatch):
    obj = _contradictory(capsys, case)
    argv = list(SUBCOMMANDS[command])
    if command == "render":
        argv.append(str(tmp_path / "figure.svg"))
    code, out, err = run_cli(
        argv, stdin_text=json.dumps(obj), capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 2 and out == ""
    assert "error" in err and "Traceback" not in err
    assert not (tmp_path / "figure.svg").exists()


# Vertex counts below three, with n and closed stated consistently
# (theta = 1: zero vertices make a closed polygon, one or two an open chain).
SHORT_POLYGONS = {0: True, 1: False, 2: False}


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("count", SHORT_POLYGONS)
def test_polygon_with_fewer_than_three_vertices_exits_2(count, command, tmp_path, capsys, monkeypatch):
    obj = {"p": 0.5, "t": 1, "theta": 1, "phi": 0, "n": count, "closed": SHORT_POLYGONS[count],
           "vertices": [[0.5 + j, 0.25] for j in range(count)]}
    argv = list(SUBCOMMANDS[command])
    if command == "render":
        argv.append(str(tmp_path / "figure.svg"))
    code, out, err = run_cli(
        argv, stdin_text=json.dumps(obj), capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 2 and out == ""
    assert "three vertices" in err and "Traceback" not in err
    assert not (tmp_path / "figure.svg").exists()


# Polygon JSON with theta outside (0, pi) or a non-finite phi, with n and
# closed stated consistently; generate and transform reject such a theta, so
# no command may accept it.  (key, value, closed) on the 8-vertex polygon.
BAD_ANGLES = {
    "theta_zero": ("theta", 0.0, True),
    "theta_pi": ("theta", math.pi, True),
    "theta_above_2pi": ("theta", 2.0 * math.pi + math.pi / 4, True),
    "theta_negative": ("theta", -math.pi / 4, True),
    "theta_nan": ("theta", math.nan, False),
    "phi_inf": ("phi", math.inf, True),
    "phi_nan": ("phi", math.nan, True),
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("case", BAD_ANGLES)
def test_polygon_angle_out_of_range_exits_2(case, command, tmp_path, capsys, monkeypatch):
    obj = _generated(capsys)
    key, value, closed = BAD_ANGLES[case]
    obj[key] = value
    obj["closed"] = closed
    argv = list(SUBCOMMANDS[command])
    if command == "render":
        argv.append(str(tmp_path / "figure.svg"))
    code, out, err = run_cli(
        argv, stdin_text=json.dumps(obj), capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 2 and out == ""
    assert f"{key} must" in err and "Traceback" not in err
    assert not (tmp_path / "figure.svg").exists()
