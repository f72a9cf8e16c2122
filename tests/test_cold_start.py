"""Cold start: each CLI subcommand loads only the package modules it runs,
and the package's public names resolve on first use (PEP 562).

Each call runs in a child interpreter that lists sys.modules as it exits,
through both launches: as `python -m discreteconics.cli` does (runpy) and
as the `discreteconics` entry point does (`cli.main`).
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import discreteconics
from discreteconics import verify
from discreteconics.cli import main

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

BASE = {"errors", "kernel", "pencil", "polygon", "serialize", "cli"}
GENERATE = ["generate", "--p", "0.75", "--t", "0.5", "--theta", "pi/6", "--n", "12"]

# Subcommand argv -> (reads a polygon on stdin, the modules it loads).
CALLS = {
    "generate": (GENERATE, False, BASE),
    "pedal": (["pedal", "--p", "0.75", "--theta", "pi/6", "--n", "12"], False, BASE),
    "grid": (["grid", "--k", "2"], True, BASE),
    "transform": (["transform", "--op", "G", "--angle", "pi/6"], True, BASE | {"group"}),
    "verify": (["verify", "--check", "all"], True, BASE | {"verify"}),
    "render": (["render", "--out", "figure.svg"], True, BASE | {"render"}),
    "help": (["--help"], False, BASE),
    "generate_help": (["generate", "--help"], False, BASE),
    "verify_help": (["verify", "--help"], False, BASE | {"verify"}),
}

# How a call is launched.
LAUNCHES = {
    "module": "import runpy; runpy.run_module('discreteconics.cli', run_name='__main__', "
              "alter_sys=True)",
    "entry_point": "from discreteconics.cli import main; sys.exit(main())",
}
# Prints the loaded modules as the child's last line of stderr.
_HOOK = ("import atexit, json, sys; "
         "atexit.register(lambda: print(json.dumps(list(sys.modules)), file=sys.stderr)); ")


def imported(code, argv=(), stdin="", cwd=None):
    """The exit code of a child interpreter running code and the modules it loaded."""
    run = subprocess.run([sys.executable, "-c", _HOOK + code, *argv], input=stdin,
                         capture_output=True, text=True, env=ENV, cwd=cwd)
    return run.returncode, set(json.loads(run.stderr.splitlines()[-1]))


@pytest.fixture(scope="module")
def polygon():
    done = subprocess.run([sys.executable, "-m", "discreteconics.cli", *GENERATE],
                          capture_output=True, text=True, env=ENV, check=True)
    return done.stdout


@pytest.mark.parametrize("launch", LAUNCHES)
@pytest.mark.parametrize("call", CALLS)
def test_subcommand_loads_only_what_it_runs(call, launch, polygon, tmp_path):
    argv, reads, expected = CALLS[call]
    code, modules = imported(LAUNCHES[launch], argv, polygon if reads else "", tmp_path)
    assert code == 0
    ours = {m.removeprefix("discreteconics.") for m in modules if m.startswith("discreteconics.")}
    # runpy runs cli as __main__, not as discreteconics.cli.
    assert ours == (expected if launch == "entry_point" else expected - {"cli"})
    assert "numpy" not in modules


def test_importing_the_package_loads_no_module():
    code, modules = imported("import discreteconics")
    assert code == 0 and "discreteconics" in modules
    assert not any(m.startswith("discreteconics.") for m in modules)


def test_a_name_loads_only_its_own_module():
    code, modules = imported("from discreteconics import DiscreteConic")
    assert code == 0
    assert {m for m in modules if m.startswith("discreteconics.")} == {
        "discreteconics.errors", "discreteconics.kernel", "discreteconics.pencil",
        "discreteconics.polygon"}


@pytest.mark.parametrize("name", discreteconics.__all__)
def test_every_public_name_imports_from_its_module(name):
    obj = getattr(discreteconics, name)
    assert obj.__module__.startswith("discreteconics.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from discreteconics import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(discreteconics.__all__)
    assert set(discreteconics.__all__) <= set(dir(discreteconics))
    assert len(set(discreteconics.__all__)) == len(discreteconics.__all__) == 28


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'run_check'"):
        discreteconics.run_check
    with pytest.raises(ImportError):
        exec("from discreteconics import run_check", {})


def test_verify_help_lists_the_checks_in_order(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--check CHECK 'all' or one of: " + ", ".join(verify.CHECK_NAMES) + " " in text


def test_verify_without_tol_uses_the_default_tolerance(polygon, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(polygon))
    assert main(["verify"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert {r["tolerance"] for r in reports if r["check"] != "projective_regular"} == {
        verify.DEFAULT_TOL}
