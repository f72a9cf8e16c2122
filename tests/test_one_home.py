"""Each derived fact in one place: the closed-form pedal circle against the
sampled fit it replaced, the inner member, the shared argument checks, the
run_checks and check_lemma tables, and report validation.
"""

import math

import pytest

from discreteconics import verify
from discreteconics.errors import (
    AngleOutOfRange,
    DegenerateP,
    MalformedInput,
    NonpositiveT,
    ParabolaMember,
)
from discreteconics.kernel import distance, foot_perpendicular
from discreteconics.pencil import (
    _sampled_tangents,
    classify,
    fit_circle,
    pedal_circle,
    pencil_member,
)
from discreteconics.polygon import (
    closed_form_vertices,
    grid_layer,
    negative_pedal,
    synthesize,
    tangency_points,
)
from discreteconics.serialize import deserialize, report_from_dict
from discreteconics.verify import CHECK_NAMES, check_lemma, run_checks
from test_fast_paths import MEMBERS


def reference_pedal_circle(c, samples=32, tol=1e-9):
    """The earlier pedal_circle: a least-squares circle through the feet of
    perpendiculars from the focus to sampled tangents."""
    if classify(c) == "parabola":
        raise ParabolaMember("pedal of a parabola about its focus is a line")
    feet = [foot_perpendicular(c.focus, line) for _, line in _sampled_tangents(c, samples)]
    circ = fit_circle(feet)
    dev = max(abs(distance(p, circ.center) - circ.radius) for p in feet)
    if dev > tol * max(1.0, circ.radius):
        raise ValueError(f"pedal locus deviates from a circle by {dev}")
    return circ


# Relative gap allowed between the closed form and the fit, about four
# times the largest gap measured on each member: at most 1.1e-15 on the
# well-conditioned members, 3.4e-13 on the near-parabolas (|1 - t p^2| =
# 1e-4), 2.4e-12 at p = 0.999 and 6.9e-11 at p = -0.9999.  Against a
# 50-digit reference the gap is the fit's error: the closed form is within
# 2.5e-13 on all nine members except the near-parabolas (1.4e-12).
PEDAL_GAP_TOL = {
    "ellipse": 1e-14,
    "ellipse_neg_p": 1e-14,
    "hyperbola": 1e-14,
    "hyperbola_near_limit": 1e-14,
    "circle": 1e-14,
    "near_parabola_ellipse_side": 2e-12,
    "near_parabola_hyperbola_side": 2e-12,
    "p_near_1": 1e-11,
    "p_near_minus_1": 3e-10,
}


@pytest.mark.parametrize("label, p, t", MEMBERS)
def test_pedal_circle_matches_sampled_fit(label, p, t):
    c = pencil_member(p, t)
    got = pedal_circle(c)
    want = reference_pedal_circle(c)
    tol = PEDAL_GAP_TOL[label]
    assert abs(got.radius - want.radius) <= tol * want.radius
    assert distance(got.center, want.center) <= tol * want.radius
    # The closed form puts the circle at the conic's center.
    assert got.center == c.center


@pytest.mark.parametrize(
    "p, t",
    [(0.75, 16.0 / 9.0), (0.5, 4.0), (-0.6, 1.0 / 0.36), (0.3, (1.0 + 1e-13) / 0.09)]
    + [(p, t) for _, p, t in MEMBERS],
)
def test_pedal_circle_raises_where_the_fit_raises(p, t):
    c = pencil_member(p, t)
    try:
        reference_pedal_circle(c)
    except ParabolaMember:
        with pytest.raises(ParabolaMember):
            pedal_circle(c)
    else:
        assert pedal_circle(c).radius > 0.0


def test_inner_member_is_one_formula():
    d = synthesize(0.75, 0.5, 2.0 * math.pi / 9, 0.3, 9)
    cos = math.cos(d.theta / 2.0)
    assert d.inner == pencil_member(d.p, d.t * cos * cos)
    assert verify._inner_member(d) == d.inner
    assert tangency_points(d).t == d.inner.t
    assert verify.check_poncelet(d).metadata["inner_t"] == d.inner.t
    for k in (1, 2, 3):
        sec_k = 1.0 / math.cos(k * d.theta / 2.0)
        assert grid_layer(d, k).t == d.t * cos * cos * sec_k * sec_k


GOOD = {"p": 0.5, "t": 0.8, "theta": 2.0 * math.pi / 8, "phi": 0.3, "n": 8}

# (argument, bad value, error type), for each construction taking it.
BAD_ARGUMENTS = [
    ("p", 1.0, DegenerateP),
    ("p", -1.0, DegenerateP),
    ("p", 1.0 + 1e-10, DegenerateP),
    ("theta", 0.0, AngleOutOfRange),
    ("theta", math.pi, AngleOutOfRange),
    ("theta", -0.5, AngleOutOfRange),
    ("t", 0.0, NonpositiveT),
    ("t", -1.0, NonpositiveT),
    ("n", 2, ValueError),
]

CONSTRUCTIONS = {
    "synthesize": (synthesize, ("p", "t", "theta", "phi", "n")),
    "closed_form_vertices": (closed_form_vertices, ("p", "theta", "phi", "n")),
    "negative_pedal": (negative_pedal, ("p", "theta", "phi", "n")),
}


@pytest.mark.parametrize(
    "name, arg, value, error",
    [
        (name, arg, value, error)
        for name, (_, params) in CONSTRUCTIONS.items()
        for arg, value, error in BAD_ARGUMENTS
        if arg in params
    ],
)
def test_construction_error_per_bad_argument(name, arg, value, error):
    fn, params = CONSTRUCTIONS[name]
    fn(*(GOOD[k] for k in params))  # the good arguments construct
    args = dict(GOOD, **{arg: value})
    with pytest.raises(error):
        fn(*(args[k] for k in params))


def test_check_names_order():
    assert CHECK_NAMES == (
        "equal_angles",
        "poncelet",
        "diagonals",
        "projective_regular",
        "reflective",
        "isogonal",
        "grid",
        "pascal_line",
    )


def _by_name(reports):
    return {r.check: r for r in reports}


def test_run_checks_table_arguments():
    hexagon = _by_name(run_checks(synthesize(0.5, 0.8, 2.0 * math.pi / 6, 0.3, 6)))
    assert (hexagon["isogonal"].metadata["i"], hexagon["isogonal"].metadata["j"]) == (1, 3)
    assert hexagon["grid"].metadata["k"] == 2
    assert hexagon["reflective"].metadata["side"] == 1
    square = _by_name(run_checks(synthesize(0.5, 0.8, 2.0 * math.pi / 4, 0.3, 4)))
    assert (square["isogonal"].metadata["i"], square["isogonal"].metadata["j"]) == (1, 2)
    assert list(hexagon) == list(CHECK_NAMES)


def test_run_checks_projective_regular_tolerance_floor():
    d = synthesize(0.5, 0.8, 2.0 * math.pi / 7, 0.3, 7)
    for tol, used in ((1e-10, 1e-6), (1e-6, 1e-6), (1e-3, 1e-3)):
        reports = _by_name(run_checks(d, tol=tol))
        assert reports["projective_regular"].tolerance == used
        assert reports["poncelet"].tolerance == tol


def _skips(d):
    reports = run_checks(d)
    return {r.check: r.metadata["skipped"] for r in reports if "skipped" in r.metadata}


def test_run_checks_skip_reasons():
    open_chain = synthesize(0.5, 0.8, 0.5, 0.3, 5)
    assert not open_chain.closed
    n_ge_5 = "needs a closed polygon with n >= 5"
    assert _skips(open_chain) == {
        "diagonals": "open chain",
        "projective_regular": n_ge_5,
        "reflective": "open chain",
        "isogonal": "open chain",
        "grid": n_ge_5,
        "pascal_line": "needs a closed even-sided polygon",
    }
    assert _skips(synthesize(0.5, 0.8, 2.0 * math.pi / 4, 0.3, 4)) == {
        "projective_regular": n_ge_5,
        "grid": n_ge_5,
    }
    assert _skips(synthesize(0.5, 0.8, 2.0 * math.pi / 5, 0.3, 5)) == {
        "pascal_line": "needs a closed even-sided polygon",
    }
    # A skipped report passes with one zero residual at the given tolerance.
    skipped = _by_name(run_checks(open_chain, names=["grid"], tol=1e-5))["grid"]
    assert (skipped.residuals, skipped.passed, skipped.tolerance) == ((0.0,), True, 1e-5)


def test_run_checks_skips_parallel_opposite_sides():
    # On the circle member every pair of opposite sides is parallel.
    d = synthesize(0.0, 1.0, 2.0 * math.pi / 6, 0.3, 6)
    assert "parallel" in _skips(d)["pascal_line"]


def test_run_checks_unknown_name():
    d = synthesize(0.5, 0.8, 2.0 * math.pi / 6, 0.3, 6)
    with pytest.raises(ValueError):
        run_checks(d, names=["equal_angles", "no_such_check"])


def test_check_lemma_table():
    report = check_lemma("parallelism", p=0.75, t=0.5, alpha=0.7)
    assert report.check == "lemma_parallelism" and report.passed
    with pytest.raises(ValueError):
        check_lemma("no_such_lemma")


@pytest.mark.parametrize(
    "text",
    [
        '{"check": 1}',
        '{"check": "poncelet", "residuals": 5}',
        '{"check": "poncelet", "residuals": "12"}',
        '{"check": "poncelet", "residuals": [1e-9]}',
        '{"check": "poncelet", "residuals": [null], "max_residual": 0,'
        ' "tolerance": 1e-8, "pass": true}',
    ],
)
def test_report_from_dict_malformed(text):
    with pytest.raises(MalformedInput):
        deserialize(text)


def test_report_from_dict_accepts_well_formed():
    obj = {"check": "poncelet", "residuals": [1e-10], "max_residual": 1e-10,
           "tolerance": 1e-8, "pass": True}
    assert report_from_dict(obj).residuals == (1e-10,)
