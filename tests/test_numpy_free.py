"""The library runs without numpy: the homography, the projective-map check
and the circle fit are plain Python, and the Pascal line is the directrix
x = -1/p, which needs no fit.

The numpy versions they replaced (the 8x9 DLT null vector by SVD, the numpy
norm/determinant map check and the lstsq circle fit) are kept here as
oracles.  numpy is needed only by these oracles and by the tests' random
inputs.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from discreteconics.duality import Reciprocator, dual_conic, pole_of
from discreteconics.errors import (AllOppositeSidesParallel, DegenerateConfiguration,
                                   FocusOutsideDual)
from discreteconics.kernel import (
    DEGENERACY_EPS,
    Line,
    Point,
    ProjectiveMap,
    _adjugate3,
    _matmul3,
    _projective_basis,
    map_xy,
    projective_from_correspondences,
)
from discreteconics.pencil import (
    Circle,
    _sampled_tangents,
    classify,
    fit_circle,
    pencil_member,
)
from discreteconics.polygon import opposite_side_intersections, synthesize
from discreteconics.verify import DEFAULT_TOL, check_projective_regular, make_report
from test_fast_paths import MEMBERS, POLYGONS, _outcome, _polygon

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def reference_projective_from_correspondences(src, dst):
    """The earlier homography: null vector of the 8x9 direct linear system."""
    rows = []
    for s, d in zip(src, dst):
        x, y = s.x, s.y
        u, v = d.x, d.y
        rows.append([x, y, 1, 0, 0, 0, -u * x, -u * y, -u])
        rows.append([0, 0, 0, x, y, 1, -v * x, -v * y, -v])
    _, _, vt = np.linalg.svd(np.array(rows, dtype=float))
    return ProjectiveMap(vt[-1].reshape(3, 3))


def unnormalized_projective_from_correspondences(src, dst):
    """The shipped construction B * adj(A) without Hartley normalization."""
    a = _projective_basis([(p.x, p.y) for p in src])
    b = _projective_basis([(p.x, p.y) for p in dst])
    return ProjectiveMap(_matmul3(b, _adjugate3(a)))


LARGE = [(label, p, t) for label, p, t in MEMBERS if label in ("ellipse", "hyperbola")]

PROJECTIVE_CASES = [
    pytest.param(p, t, n, w, id=f"{label}-n{n}-w{w}")
    for label, p, t in MEMBERS
    for n, w in POLYGONS
] + [
    pytest.param(p, t, n, 1, id=f"{label}-n{n}-w1")
    for label, p, t in LARGE
    for n in (240, 480, 960)
]

PASCAL_CASES = [
    pytest.param(p, t, n, w, id=f"{label}-n{n}-w{w}")
    for label, p, t in MEMBERS
    for n, w in [(n, w) for n, w in POLYGONS if n % 2 == 0] + [(10, 3), (16, 1)]
] + [
    pytest.param(p, t, n, 1, id=f"{label}-n{n}-w1")
    for label, p, t in LARGE
    for n in (240, 480, 960)
]


def _regular(n, w, count):
    return [
        Point(math.cos(2.0 * math.pi * w * j / n), math.sin(2.0 * math.pi * w * j / n))
        for j in range(count)
    ]


# ---------------------------------------------------------------------------
# Homography against the DLT-SVD


def first_four_fit(d, fit=projective_from_correspondences):
    """The earlier check_projective_regular, at its 1e-6 floor: fit the
    homography taking the first four vertices onto the regular polygon of
    the same winding, then map the other n - 4 through it."""
    target = _regular(d.n, d.winding, d.n)
    m = fit(list(d.vertices[:4]), target[:4])
    residuals = []
    for v, q in zip(d.vertices[4:], target[4:]):
        x, y = map_xy(m, v.x, v.y)
        residuals.append(math.hypot(x - q.x, y - q.y))
    return make_report("projective_regular", residuals, 1e-6, winding=d.winding)


@pytest.mark.parametrize("p, t, n, w", PROJECTIVE_CASES)
def test_first_four_fit_matches_svd_oracle(p, t, n, w):
    d = _polygon(p, t, n, w)
    new = _outcome(first_four_fit, d)
    ref = _outcome(first_four_fit, d, reference_projective_from_correspondences)
    if isinstance(ref, type):
        assert new is ref
        return
    assert new.passed == ref.passed and new.metadata == ref.metadata
    # Within a small factor of the SVD's rounding wherever it is above 1e-10.
    assert new.max_residual <= max(4.0 * ref.max_residual, 1e-10)


@pytest.mark.parametrize("p, t, n, w", PROJECTIVE_CASES)
def test_homography_matches_svd_map(p, t, n, w):
    src = list(_polygon(p, t, n, w).vertices[:4])
    dst = _regular(n, w, 4)
    new = np.array(projective_from_correspondences(src, dst).m)
    ref = np.array(reference_projective_from_correspondences(src, dst).m)
    # Both have unit Frobenius norm; the sign of the SVD null vector is arbitrary.
    # Largest difference on these cases: 1.0e-9.
    assert min(np.max(np.abs(new - s * ref)) for s in (1.0, -1.0)) <= 1e-8


@pytest.mark.parametrize("p, t, phi", [(0.85, 0.5, 4.0), (-0.8, 0.6, 5.4)])
def test_normalization_keeps_the_n960_fit_accurate(p, t, phi):
    d = synthesize(p, t, 2.0 * math.pi / 960, phi, 960)
    normalized = first_four_fit(d)
    unnormalized = first_four_fit(d, unnormalized_projective_from_correspondences)
    assert normalized.passed and normalized.max_residual < 1e-7
    assert not unnormalized.passed and unnormalized.max_residual > 1e-5
    shipped = check_projective_regular(d)
    assert shipped.tolerance == DEFAULT_TOL and shipped.passed
    assert max(shipped.residuals) < 1e-11


def test_homography_keeps_collinear_guard():
    src = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
    with pytest.raises(DegenerateConfiguration):
        projective_from_correspondences(src, [Point(0, 0), Point(1, 1), Point(2, 2), Point(0, 1)])
    with pytest.raises(ValueError):
        projective_from_correspondences(src[:3], src[:3])


# ---------------------------------------------------------------------------
# The Pascal line is the directrix, not a fit


@pytest.mark.parametrize("p, t, n, w", PASCAL_CASES)
def test_opposite_sides_meet_on_the_directrix(p, t, n, w):
    outcome = _outcome(opposite_side_intersections, _polygon(p, t, n, w))
    if isinstance(outcome, type):  # the circle member: every opposite pair is parallel
        assert outcome is AllOppositeSidesParallel and p == 0.0
        return
    points, line = outcome
    assert line == Line(1.0, 0.0, 1.0 / p)
    # Largest |K_x + 1/p| / max(1, |K|) on these cases: 1.4e-13.
    assert max(abs(k.x + 1.0 / p) / max(1.0, math.hypot(k.x, k.y)) for k in points) <= 1e-12


# ---------------------------------------------------------------------------
# The projective-map check without numpy


def reference_map_check(m):
    m = np.asarray(m, dtype=float)
    norm = np.linalg.norm(m)
    if norm == 0.0 or abs(np.linalg.det(m / norm)) < DEGENERACY_EPS:
        raise DegenerateConfiguration("singular projective map")
    return m / norm


@pytest.mark.parametrize(
    "raw",
    [
        [[1.0, 0, 0], [0, 1, 0], [1, 0, 1]],
        np.array([[2.0, -1, 0.5], [0.25, 3, 1], [1e-3, 0, 7]]),
        ((1e150, 0, 0), (0, 1e150, 0), (0, 0, 1e150)),
        [[1e-150, 2e-150, 0], [0, 1e-150, 0], [0, 0, 3e-150]],
        [[1.0, 2, 3], [2, 4, 6], [0, 0, 1]],
        [[1.0, 0, 0], [0, 1e-13, 0], [0, 0, 1]],
        [[0.0, 0, 0], [0, 0, 0], [0, 0, 0]],
    ],
)
def test_projective_map_check_matches_numpy(raw):
    try:
        want = reference_map_check(raw)
    except DegenerateConfiguration:
        with pytest.raises(DegenerateConfiguration):
            ProjectiveMap(raw)
        return
    got = ProjectiveMap(raw).m
    assert all(type(v) is float for row in got for v in row)
    assert np.max(np.abs(np.array(got) - want)) <= 4 * 2.0**-52


# ---------------------------------------------------------------------------
# The circle fit without numpy


def reference_fit_circle(points):
    """The earlier fit_circle: numpy lstsq on uncentred coordinates."""
    xy = np.array([[pt.x, pt.y] for pt in points])
    a = np.column_stack([xy[:, 0], xy[:, 1], np.ones(len(points))])
    b = -(xy[:, 0] ** 2 + xy[:, 1] ** 2)
    (d, e, g), *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy = -d / 2.0, -e / 2.0
    return Circle(Point(cx, cy), math.sqrt(cx * cx + cy * cy - g))


def _poles(c):
    r = Reciprocator(c.focus)
    return [pole_of(r, line) for _, line in _sampled_tangents(c, 32)]


def _deviation(points, circ):
    return max(abs(math.hypot(q.x - circ.center.x, q.y - circ.center.y) - circ.radius)
               for q in points) / max(1.0, circ.radius)


@pytest.mark.parametrize("label, p, t", MEMBERS)
def test_fit_circle_matches_lstsq_oracle(label, p, t):
    """On the tangent poles that dual_conic fits, the centred normal
    equations agree with lstsq to 1e-12 (largest gap measured: 2.8e-14, at
    p = 0.999), fit the poles as closely, and put the focus on the same
    side of the circle."""
    c = pencil_member(p, t)
    poles = _poles(c)
    got, want = fit_circle(poles), reference_fit_circle(poles)
    assert abs(got.radius - want.radius) <= 1e-12 * want.radius
    assert math.dist((got.center.x, got.center.y), (want.center.x, want.center.y)) \
        <= 1e-12 * want.radius
    assert _deviation(poles, got) <= max(2.0 * _deviation(poles, want), 1e-14)
    inside = math.dist((c.focus.x, c.focus.y), (got.center.x, got.center.y)) < got.radius
    assert inside == (classify(c) != "hyperbola")


def test_fit_circle_rejects_collinear_points():
    with pytest.raises(ValueError):
        fit_circle([Point(float(k), 2.0 * k - 1.0) for k in range(5)])


_DUAL_CHILD = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from discreteconics import Reciprocator, dual_conic, pencil_member
from discreteconics.errors import FocusOutsideDual
for p, t in ((0.5, 0.7), (0.75, 0.5), (0.0, 0.7), (0.3, 20.0)):
    c = pencil_member(p, t)
    try:
        circ = dual_conic(Reciprocator(c.focus), c)
        print(repr(circ.center.x), repr(circ.center.y), repr(circ.radius))
    except FocusOutsideDual:
        print("FocusOutsideDual")
assert sys.argv[1] != "block" or sys.modules["numpy"] is None
"""


def test_dual_conic_runs_without_numpy():
    runs = {
        mode: subprocess.run([sys.executable, "-c", _DUAL_CHILD, mode],
                             capture_output=True, text=True, env=ENV)
        for mode in ("plain", "block")
    }
    for run in runs.values():
        assert run.returncode == 0, run.stderr
    assert runs["block"].stdout == runs["plain"].stdout
    lines = runs["block"].stdout.splitlines()
    assert lines[-1] == "FocusOutsideDual"
    c = pencil_member(0.5, 0.7)
    circ = dual_conic(Reciprocator(c.focus), c)
    assert lines[0] == f"{circ.center.x!r} {circ.center.y!r} {circ.radius!r}"
    with pytest.raises(FocusOutsideDual):
        dual_conic(Reciprocator(pencil_member(0.3, 20.0).focus), pencil_member(0.3, 20.0))


# ---------------------------------------------------------------------------
# The command line with numpy blocked

# Runs the CLI in a child interpreter; "block" makes `import numpy` fail there.
_CHILD = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from discreteconics.cli import main
code = main(sys.argv[2:])
assert sys.argv[1] != "block" or sys.modules["numpy"] is None
sys.exit(code)
"""


def _run(mode, argv, stdin):
    return subprocess.run(
        [sys.executable, "-c", _CHILD, mode, *argv],
        input=stdin, capture_output=True, text=True, env=ENV,
    )


def _generate(*args):
    return ["generate", "--p", args[0], "--t", args[1], "--theta", args[2], "--n", args[3]]


PIPELINES = {
    "verify_ellipse": (_generate("0.75", "0.5", "pi/6", "12"), ["verify", "--check", "all"], 0),
    "verify_star_obtuse": (_generate("0.75", "0.5", "5pi/6", "12"), ["verify", "--check", "all"], 0),
    "verify_hyperbola": (_generate("0.5", "20", "2pi/8", "8"), ["verify", "--check", "all"], 0),
    "verify_tiny_tol": (_generate("0.75", "0.5", "pi/6", "12"), ["verify", "--tol", "1e-300"], 1),
    "transform": (_generate("0.5", "1", "2pi/8", "8"), ["transform", "--op", "G", "--angle", "2pi/8"], 0),
    "grid": (_generate("0.75", "0.5", "pi/6", "12"), ["grid", "--k", "2"], 0),
    "render": (_generate("0.75", "1", "2pi/6", "6"), ["render", "--out", "figure.svg"], 0),
    "render_bad_scene": (None, ["render", "--out", "figure.svg"], 2),
}


@pytest.mark.parametrize("case", PIPELINES)
def test_cli_without_numpy_matches_unblocked(case, tmp_path):
    first, second, code = PIPELINES[case]
    outputs = {}
    for mode in ("plain", "block"):
        if first is None:
            stdin = json.dumps({"conics": 5})
        else:
            gen = _run(mode, first, "")
            assert gen.returncode == 0, gen.stderr
            stdin = gen.stdout
        argv = [str(tmp_path / f"{mode}.svg") if a == "figure.svg" else a for a in second]
        run = _run(mode, argv, stdin)
        assert run.returncode == code and "Traceback" not in run.stderr, run.stderr
        svg = tmp_path / f"{mode}.svg"
        outputs[mode] = (stdin, run.stdout, svg.read_text() if svg.exists() else None)
    assert outputs["block"] == outputs["plain"]
    if case == "render":
        assert "<svg" in outputs["block"][2]


def test_importing_the_library_loads_no_numpy():
    probe = ("import sys, discreteconics, discreteconics.cli; "
             "assert 'numpy' not in sys.modules, 'numpy was imported'")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=ENV)
    assert done.returncode == 0, done.stderr
