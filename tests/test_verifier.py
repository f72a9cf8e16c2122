"""Residual checks: pass on constructions, fail on perturbations, skip cleanly."""

import math
from dataclasses import replace

import numpy as np
import pytest

from discreteconics.kernel import Point
from discreteconics.polygon import synthesize
from discreteconics.verify import (
    CHECK_NAMES,
    check_diagonals,
    check_equal_angles,
    check_grid,
    check_isogonal,
    check_lemma,
    check_pascal_line,
    check_poncelet,
    check_projective_regular,
    check_reflective,
    make_report,
    run_checks,
)


def _perturb(d, dx=1e-3):
    vs = list(d.vertices)
    vs[0] = Point(vs[0].x + dx, vs[0].y)
    return replace(d, vertices=tuple(vs))


SAMPLE = synthesize(0.6, 0.8, 2.0 * math.pi / 8, 0.3, 8)
SAMPLE_ODD = synthesize(0.5, 1.1, 2.0 * math.pi / 7, 0.9, 7)


def test_make_report_pass_fail():
    r = make_report("demo", [1e-10, 5e-10], 1e-9, note="x")
    assert r.passed and r.max_residual == 5e-10 and r.metadata == {"note": "x"}
    assert not make_report("demo", [1e-8], 1e-9).passed
    with pytest.raises(ValueError):
        make_report("demo", [], 1e-9)


def test_equal_angles_pass_and_fail():
    assert check_equal_angles(SAMPLE).passed
    assert not check_equal_angles(_perturb(SAMPLE)).passed


def test_equal_angles_explicit_focus():
    d = synthesize(0.0, 1.0, 2.0 * math.pi / 5, 0.0, 5)
    assert check_equal_angles(d, f=Point(0, 0)).passed
    assert not check_equal_angles(d, f=Point(0.3, 0)).passed


def test_poncelet():
    assert check_poncelet(SAMPLE).passed
    assert not check_poncelet(_perturb(SAMPLE)).passed


def test_diagonals_even_odd():
    r = check_diagonals(SAMPLE)
    assert r.passed and r.metadata["pairing"] == "vertex-vertex"
    r = check_diagonals(SAMPLE_ODD)
    assert r.passed and r.metadata["pairing"] == "vertex-tangency"
    assert not check_diagonals(_perturb(SAMPLE)).passed


def test_projective_regular():
    assert check_projective_regular(SAMPLE).passed
    assert not check_projective_regular(_perturb(SAMPLE)).passed


def test_projective_regular_generic_polygon_fails():
    rng = np.random.default_rng(59)
    vs = tuple(Point(math.cos(a), math.sin(a)) for a in sorted(rng.uniform(0, 2 * math.pi, 6)))
    generic = replace(synthesize(0.0, 1.0, 2 * math.pi / 6, 0.0, 6), vertices=vs)
    assert not check_projective_regular(generic).passed


def test_reflective_even_odd():
    r = check_reflective(SAMPLE, j=2)
    assert r.passed and r.metadata["parity"] == "even"
    r = check_reflective(SAMPLE_ODD, j=1)
    assert r.passed and r.metadata["parity"] == "odd"
    assert not check_reflective(_perturb(SAMPLE), j=1).passed


def test_isogonal():
    assert check_isogonal(SAMPLE, 1, 4).passed
    assert check_isogonal(SAMPLE_ODD, 2, 5).passed
    assert not check_isogonal(_perturb(SAMPLE), 1, 4).passed


def test_grid():
    r = check_grid(SAMPLE, 2)
    assert r.passed
    assert math.isclose(
        r.metadata["layer_t"],
        SAMPLE.t * math.cos(SAMPLE.theta / 2) ** 2 / math.cos(SAMPLE.theta) ** 2,
    )
    assert not check_grid(_perturb(SAMPLE), 2).passed


# synthesize(p, t, theta, phi, n) of valid polygons whose grid layer reaches
# |z| of 1.5e3 to 8.4e4, where the float error of a layer vertex passes an
# absolute 1e-8 (up to 3.5e-6) but stays below 1.6e-10 relative:
# large_n seed 3 ops 15, 16, 17 and 39, and sweep seed 3 op 873.
FAR_LAYERS = [
    (0.5921504071002615, 9.879022744158695, 0.02617993877991494, 1.155516273101446, 240),
    (0.7955209549822155, 4.092177865566334, 0.01308996938995747, 2.7390794429818563, 480),
    (0.7889867428920024, 5.125599413563672, 0.01308996938995747, 2.5150534360446275, 480),
    (0.4640664484949766, 12.472210047272656, 0.006544984694978735, 4.43891968134118, 960),
    (0.21463620647122073, 4.811245331264329, 1.663196110724008, 2.476872268092276, 34),
]


@pytest.mark.parametrize("args", FAR_LAYERS, ids=["large_n-op15", "large_n-op16", "large_n-op17",
                                                   "large_n-op39", "sweep-op873"])
def test_grid_is_relative_on_far_layers(args):
    d = synthesize(*args)
    r = check_grid(d, 2)
    assert r.passed and len(r.residuals) == d.n
    assert not check_grid(_perturb(d), 2).passed


def test_pascal_line():
    r = check_pascal_line(SAMPLE)
    assert r.passed
    assert math.isclose(r.metadata["line_x"], -1.0 / SAMPLE.p, abs_tol=1e-8)
    assert not check_pascal_line(_perturb(SAMPLE)).passed


def test_run_checks_all_pass():
    reports = run_checks(SAMPLE, tol=1e-8)
    assert [r.check for r in reports] == list(CHECK_NAMES)
    assert all(r.passed for r in reports)


def test_run_checks_skips():
    square = synthesize(0.0, 1.0, math.pi / 2, 0.0, 4)
    by_name = {r.check: r for r in run_checks(square, tol=1e-8)}
    # Opposite sides of the regular square are parallel: skipped, not failed.
    assert by_name["pascal_line"].metadata.get("skipped")
    assert by_name["projective_regular"].passed
    assert "skipped" not in by_name["projective_regular"].metadata
    assert by_name["grid"].metadata.get("skipped")
    assert by_name["equal_angles"].passed


def test_run_checks_open_chain():
    open_chain = synthesize(0.3, 1.0, math.pi / 2, 0.1, 3)
    by_name = {r.check: r for r in run_checks(open_chain, tol=1e-8)}
    assert by_name["equal_angles"].passed and by_name["poncelet"].passed
    for name in ("diagonals", "reflective", "isogonal", "grid", "pascal_line"):
        assert by_name[name].metadata.get("skipped")


def test_reports_deterministic():
    a = run_checks(SAMPLE, tol=1e-8)
    b = run_checks(SAMPLE, tol=1e-8)
    assert [r.residuals for r in a] == [r.residuals for r in b]


def test_lemma_equal_distances():
    rng = np.random.default_rng(61)
    for _ in range(30):
        c = Point(*rng.uniform(-2, 2, 2))
        b1, b2 = rng.uniform(0, 2 * math.pi, 2)
        if abs(math.sin((b1 - b2) / 2)) < 1e-2:
            continue
        r = check_lemma(
            "equal_distances",
            center=c,
            radius=rng.uniform(0.5, 3.0),
            beta1=b1,
            beta2=b2,
            line_angle=rng.uniform(0, math.pi),
            tol=1e-9,
        )
        assert r.passed


def test_lemma_equal_distances_parallel_branch():
    # Line through the center parallel to the chord: both distances equal the
    # chord half-gap projection, residual at rounding level.
    b1, b2 = 0.3, 1.1
    r = check_lemma(
        "equal_distances",
        center=Point(0, 0),
        radius=1.0,
        beta1=b1,
        beta2=b2,
        line_angle=(b1 + b2) / 2 + math.pi / 2,
        tol=1e-12,
    )
    assert r.passed


def test_lemma_rectangle_billiard():
    r = check_lemma(
        "rectangle_billiard",
        center=Point(1, -2),
        half_w=1.5,
        half_h=0.8,
        tilt=0.4,
        e_frac=0.3,
        tol=1e-9,
    )
    assert r.passed
    # Full symmetry: square with E at the midpoint.
    r = check_lemma(
        "rectangle_billiard",
        center=Point(0, 0),
        half_w=1.0,
        half_h=1.0,
        tilt=0.0,
        e_frac=0.5,
        tol=1e-12,
    )
    assert r.passed


def test_lemma_parallelism():
    r = check_lemma("parallelism", p=0.75, t=1.0, alpha=math.pi / 3, tol=1e-9)
    assert r.passed


def test_lemma_unknown():
    with pytest.raises(ValueError):
        check_lemma("nope")
