"""check_pascal_line over the pencil the contract accepts.

Opposite sides of an even discrete conic meet on the shared directrix
x = -1/p, the focal homology's image of the line at infinity.  The check
tests each opposite pair's incidence with that line from the side
coefficients, so a pair that is nearly parallel, whose intersection lies far
out, costs it no accuracy: tiny |p| and small t pass at the default
tolerance.  The band 1 - |p| < 1e-3 is left out; there every check loses
about log10(1/(1 - |p|)) digits inside synthesize itself.
"""

import io
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discreteconics import kernel, polygon, verify
from discreteconics.cli import main
from discreteconics.errors import AllOppositeSidesParallel, GeometryError
from discreteconics.kernel import Line
from discreteconics.polygon import opposite_side_intersections, synthesize
from discreteconics.verify import DEFAULT_TOL, check_pascal_line


def _pipeline(capsys, monkeypatch, generate_args):
    """`generate ARGS | verify`: verify's exit code and its reports by name."""
    assert main(["generate", *generate_args]) == 0
    out, _ = capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code = main(["verify"])
    out, _ = capsys.readouterr()
    return code, {r["check"]: r for r in json.loads(out)}


@pytest.mark.parametrize("p", ["0.001", "0.0023", "0.0005"])
def test_verify_passes_tiny_p_repros(p, capsys, monkeypatch):
    """These exited 1 when the check measured absolute distances to a fitted
    line: pascal_line read 1.6e-7, 3.1e-8 and 6.6e-7 with the sides meeting
    about 1/p from the focus."""
    code, reports = _pipeline(capsys, monkeypatch, ["--p", p, "--t", "0.0128", "--theta",
                                                    "5pi/6", "--n", "12", "--phi", "-2.322"])
    assert code == 0
    pascal = reports["pascal_line"]
    assert pascal["pass"] and pascal["max_residual"] < 1e-13
    assert pascal["metadata"]["line_x"] == -1.0 / float(p)


@pytest.mark.parametrize("p", [0.0, -0.0])
@pytest.mark.parametrize("n", [4, 8, 12, 240])
def test_circle_member_raises_before_dividing_by_p(p, n):
    d = synthesize(p, 0.7, 2.0 * math.pi / n, 0.3, n)
    with pytest.raises(AllOppositeSidesParallel):
        opposite_side_intersections(d)
    with pytest.raises(AllOppositeSidesParallel):
        check_pascal_line(d)


def _signed(magnitude):
    return st.tuples(st.sampled_from((1.0, -1.0)), magnitude).map(lambda sm: sm[0] * sm[1])


# Ellipse and hyperbola members away from |p| = 1, tiny |p| and |p| > 1.
P = st.one_of(
    st.floats(-0.999, 0.999),
    _signed(st.floats(-12.0, -3.0).map(lambda e: 10.0**e)),
    _signed(st.floats(1.001, 3.0)),
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    p=P,
    log10_t=st.floats(-6.0, 6.0),
    phi=st.floats(-math.pi, math.pi),
    half_n=st.integers(2, 120),
    data=st.data(),
)
def test_pascal_line_passes_on_the_contract(p, log10_t, phi, half_n, data):
    n = 2 * half_n
    w = data.draw(st.sampled_from([w for w in range(1, half_n) if math.gcd(w, n) == 1]),
                  label="winding")
    try:
        d = synthesize(p, 10.0**log10_t, 2.0 * math.pi * w / n, phi, n)
    except GeometryError:
        assume(False)
    try:
        report = check_pascal_line(d)
    except AllOppositeSidesParallel:
        return
    assert report.tolerance == DEFAULT_TOL
    assert report.passed, (report.max_residual, report.residuals.index(report.max_residual))
    assert len(report.residuals) == 2 * report.metadata["count"] - 1


def test_nothing_fits_the_pascal_line():
    for module in (kernel, polygon, verify):
        assert not hasattr(module, "total_least_squares_line")
    points, line = opposite_side_intersections(synthesize(0.75, 0.5, math.pi / 4, 0.3, 8))
    assert len(points) == 4 and line == Line(1.0, 0.0, 1.0 / 0.75)
