"""One angle convention at the shared focus: the signed focal parameter.

On a hyperbola member, synthesize puts vertices on the far branch, where the
focal radius is negative and the ray angle from the focus is off by pi.  The
angle checks and grid_layer read angles from pencil.focal_parameter, so they
hold on the whole pencil, not only on ellipses.
"""

import io
import math
from dataclasses import replace

import pytest

from discreteconics import group
from discreteconics.cli import main
from discreteconics.errors import AsymptoticDirection
from discreteconics.kernel import Point, distance, wrapped_diff
from discreteconics.pencil import focal_parameter, focal_radius, pencil_member, point_at
from discreteconics.polygon import grid_layer, synthesize
from discreteconics.verify import (
    check_equal_angles,
    check_grid,
    check_isogonal,
    run_checks,
)
from test_fast_paths import CASES, POLYGONS, _polygon

# Hyperbola members of both signs of p, and the near-parabola and |p| near 1
# ones whose far branch is far away or close to the focus.
HYPERBOLA_MEMBERS = [
    (0.3, 20.0),
    (0.75, 2.6667),
    (0.6, (1.0 + 1e-4) / 0.36),
    (-0.5, 10.0),
    (0.999, 1.5),
    (-0.9999, 1.2),
]

# Worst |focal_parameter(point_at(alpha)) - alpha| measured over 720
# directions on HYPERBOLA_MEMBERS is 3.3e-13 (p = -0.9999, where the near
# branch comes within 1e-4 of the focus).
INVERSE_TOL = 1e-11

# Worst relative vertex distance between a grid layer and synthesize of its
# own (p, t, theta, phi, n) is 1.7e-12 over the CASES below (p = 0.999).
LAYER_TOL = 1e-10


@pytest.mark.parametrize("p, t, n, w", CASES)
def test_run_checks_pass_on_the_whole_pencil(p, t, n, w):
    reports = run_checks(_polygon(p, t, n, w))
    assert [r.check for r in reports if not r.passed] == []


def _shifted(d, j, dx, dy):
    vs = list(d.vertices)
    vs[j] = Point(vs[j].x + dx, vs[j].y + dy)
    return replace(d, vertices=tuple(vs))


PERTURBED_MEMBERS = {
    "hyperbola": (0.3, 20.0),
    "near_parabola_hyperbola_side": (0.6, (1.0 + 1e-4) / 0.36),
}


@pytest.mark.parametrize("member", PERTURBED_MEMBERS)
@pytest.mark.parametrize("n, w", POLYGONS)
@pytest.mark.parametrize("dx, dy", [(1e-3, 0.0), (0.0, 1e-3)])
def test_perturbed_vertex_fails_equal_angles_and_isogonal(member, n, w, dx, dy):
    p, t = PERTURBED_MEMBERS[member]
    d = _polygon(p, t, n, w)
    bad = _shifted(d, 0, dx, dy)
    assert check_equal_angles(d).passed and check_isogonal(d, 1, 3).passed
    assert not check_equal_angles(bad).passed
    assert not check_isogonal(bad, 1, 3).passed


def test_perturbed_far_branch_vertex_fails_equal_angles():
    p, t = PERTURBED_MEMBERS["hyperbola"]
    d = synthesize(p, t, 2.0 * math.pi / 7, 0.3, 7)
    far = [j for j in range(d.n) if focal_radius(d.carrier, d.phi + j * d.theta) < 0.0]
    assert far, "the polygon must have a far-branch vertex"
    for j in far:
        assert not check_equal_angles(_shifted(d, j, 1e-3, 0.0)).passed


def test_explicit_pencil_focus_is_the_default():
    d = _polygon(0.3, 20.0, 7, 1)
    assert check_equal_angles(d, f=d.focus) == check_equal_angles(d)


@pytest.mark.parametrize("p, t", HYPERBOLA_MEMBERS)
def test_focal_parameter_inverts_point_at_on_both_branches(p, t):
    c = pencil_member(p, t)
    branches = set()
    for j in range(720):
        alpha = -math.pi + 2.0 * math.pi * (j + 0.5) / 720
        try:
            r = focal_radius(c, alpha)
            z = point_at(c, alpha)
        except (AsymptoticDirection, ValueError):
            continue  # no point, or one too far out for a finite Point
        branches.add(r < 0.0)
        assert abs(wrapped_diff(focal_parameter(p, z), alpha)) <= INVERSE_TOL
    assert branches == {True, False}


GRID_CASES = CASES + [pytest.param(0.5, 20.0, 8, 1, id="p0.5-t20-n8-w1")]


@pytest.mark.parametrize("p, t, n, w", GRID_CASES)
def test_grid_layer_is_synthesize_of_its_own_parameters(p, t, n, w):
    layer = grid_layer(_polygon(p, t, n, w), 2)
    again = synthesize(layer.p, layer.t, layer.theta, layer.phi, layer.n)
    for a, b in zip(again.vertices, layer.vertices):
        assert distance(a, b) <= LAYER_TOL * max(1.0, math.hypot(b.x, b.y))


def test_check_grid_does_not_recheck_the_g_image(monkeypatch):
    """check_grid compares the layer with the G image itself; act_on_discrete's
    own correspondence test would repeat that comparison."""

    def fail(*args):
        raise AssertionError("check_grid must not run act_on_discrete's re-check")

    monkeypatch.setattr(group, "_verify_correspondence", fail)
    assert check_grid(_polygon(0.3, 20.0, 12, 1), 2).passed


@pytest.mark.parametrize(
    "generate, middle",
    [
        (["--p", "0.3", "--t", "20", "--theta", "2pi/7", "--n", "7"], None),
        (["--p", "0.5", "--t", "20", "--theta", "2pi/8", "--n", "8"], ["grid", "--k", "2"]),
    ],
    ids=["hyperbola-verify", "hyperbola-grid-verify"],
)
def test_far_branch_pipelines_verify(generate, middle, capsys, monkeypatch):
    assert main(["generate", *generate]) == 0
    out, _ = capsys.readouterr()
    if middle is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        assert main(middle) == 0
        out, _ = capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code = main(["verify"])
    out, _ = capsys.readouterr()
    assert code == 0, out
