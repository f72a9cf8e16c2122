"""Start-up path: each CLI call defines only the dataclasses of the modules
it runs, and the names that moved off that path still import from their old
homes.

The circle side of a member (Circle, pedal_circle, fit_circle) lives in
duality, the lemma suite in lemmas, and the oracles that tests and the
benchmark compare the library with (QuadraticForm, closed_form_vertices,
the four-point fit) in reference.  No CLI call loads those modules
(test_cold_start.py), so none defines Circle, QuadraticForm or Reciprocator.
Each old home forwards its moved names through a PEP 562 __getattr__.
"""

import importlib
import json
import subprocess
import sys

import pytest
from test_cold_start import CALLS, ENV, GENERATE, LAUNCHES

# The dataclasses the modules on every path define.  Line, ProjectiveMap and
# PedalScaffold are defined there even on a call that builds none of them.
BASE = {"Point", "Line", "ProjectiveMap", "FocalConic", "DiscreteConic", "PedalScaffold"}
DATACLASSES = {
    "generate": BASE,
    "pedal": BASE,
    "grid": BASE,
    "transform": BASE | {"GroupElement"},
    "verify": BASE | {"Report"},
    "render": BASE | {"Scene"},
    "help": BASE,
    "generate_help": BASE,
    "verify_help": BASE | {"Report"},
}
OFF_PATH = {"Circle", "QuadraticForm", "Reciprocator"}

# Prints, as the child's last line of stderr, the dataclasses in the
# namespaces of its loaded discreteconics modules.
_HOOK = ("import atexit, dataclasses, json, sys; "
         "atexit.register(lambda: print(json.dumps(sorted({v.__name__ "
         "for k, m in list(sys.modules.items()) if k.startswith('discreteconics.') "
         "for v in vars(m).values() if isinstance(v, type) and dataclasses.is_dataclass(v)})), "
         "file=sys.stderr)); ")

# Old home -> {moved name: new home}, for the names that the tests and the
# benchmark import from the old home.
FORWARDED = {
    "pencil": {"Circle": "duality", "fit_circle": "duality", "_sampled_tangents": "duality",
               "pedal_circle": "duality", "QuadraticForm": "reference",
               "quadratic_form": "reference"},
    "kernel": {"projective_from_correspondences": "reference", "_matmul3": "reference",
               "_projective_basis": "reference"},
    "polygon": {"closed_form_vertices": "reference"},
    "verify": {"check_lemma": "lemmas"},
}


@pytest.fixture(scope="module")
def polygon():
    done = subprocess.run([sys.executable, "-m", "discreteconics.cli", *GENERATE],
                          capture_output=True, text=True, env=ENV, check=True)
    return done.stdout


@pytest.mark.parametrize("launch", LAUNCHES)
@pytest.mark.parametrize("call", CALLS)
def test_a_call_defines_only_the_dataclasses_of_its_path(call, launch, polygon, tmp_path):
    argv, reads, _ = CALLS[call]
    run = subprocess.run([sys.executable, "-c", _HOOK + LAUNCHES[launch], *argv],
                         input=polygon if reads else "", capture_output=True, text=True,
                         env=ENV, cwd=tmp_path)
    assert run.returncode == 0
    defined = set(json.loads(run.stderr.splitlines()[-1]))
    assert defined == DATACLASSES[call]
    assert not defined & OFF_PATH


def _forwarded():
    return [(old, name, new) for old, names in FORWARDED.items() for name, new in names.items()]


@pytest.mark.parametrize("old, name, new", _forwarded())
def test_a_moved_name_is_one_object_from_its_old_and_new_home(old, name, new):
    old_home = importlib.import_module(f"discreteconics.{old}")
    new_home = importlib.import_module(f"discreteconics.{new}")
    assert getattr(old_home, name) is getattr(new_home, name)
    namespace = {}
    exec(f"from discreteconics.{old} import {name}", namespace)
    assert namespace[name] is getattr(new_home, name)
    assert getattr(new_home, name).__module__ == f"discreteconics.{new}"


@pytest.mark.parametrize("old", FORWARDED)
def test_an_unknown_name_on_a_forwarding_module_is_an_attribute_error(old):
    module = importlib.import_module(f"discreteconics.{old}")
    with pytest.raises(AttributeError, match=f"module 'discreteconics.{old}' has no attribute "
                                             "'no_such_name'"):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from discreteconics.{old} import no_such_name", {})
    assert not hasattr(module, "no_such_name")
