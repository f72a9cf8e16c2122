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
