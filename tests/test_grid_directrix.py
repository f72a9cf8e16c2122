"""grid_layer on the directrix: decided from the closed form, for every p.

Side lines k apart meet on the member with signed sqrt(t) proportional to
1/cos(k*theta/2), so where cos(k*theta/2) = 0 the layer lies on the
excluded line x = -1/p (at infinity for p = 0).  On a closed polygon,
theta = 2*pi*w/n up to the closure tolerance, and cos(k*theta/2) is 0 up to
rounding exactly when 2*k*w/n is an odd integer; otherwise it is at least
sin(pi/(2n)).  grid_layer raises OnExcludedLine there for every p != 0 and
keeps ParallelLines for p = 0.  Before, a small |p| put the intersections
so far out that 1 + p*x missed the absolute 1e-12 test, and grid_layer
returned a layer of t ~ 1e33 with coincident vertex pairs.
"""

import io
import math

import pytest

from discreteconics.cli import main
from discreteconics.errors import GeometryError, OnExcludedLine, ParallelLines
from discreteconics.polygon import grid_layer, synthesize

# The closure test accepts |n*theta - 2*pi*w| < 1e-9.
_SLACK = 0.999e-9


def _on_directrix(n, w, k):
    return (2 * k * w) % n == 0 and (2 * k * w // n) % 2 == 1


def test_the_cli_repro_exits_2_for_small_and_moderate_p(capsys, monkeypatch):
    for p in ("1e-6", "0.3"):
        assert main(["generate", "--p", p, "--t", "10", "--theta", "2pi/12", "--n", "12"]) == 0
        out, _ = capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        assert main(["grid", "--k", "6"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: side lines 6 apart meet on the excluded line x = {-1.0 / float(p)}\n")


def test_a_tiny_p_square_has_no_layer():
    d = synthesize(1e-6, 10.0, math.pi / 2, 0.0, 4)
    with pytest.raises(OnExcludedLine):
        grid_layer(d, 2)
    assert 2 not in d.layers


@pytest.mark.parametrize("p", [1e-300, -1e-13, 1e-6, 0.3, -0.75, 2.5])
@pytest.mark.parametrize("n, w, k", [(4, 1, 2), (12, 1, 6), (12, 5, 6), (8, 3, 4), (10, 1, 5),
                                     (6, 1, 3), (12, 3, 2)])
def test_every_nonzero_p_raises_on_excluded_line(p, n, w, k):
    assert _on_directrix(n, w, k)
    for slack in (0.0, -_SLACK, _SLACK):
        d = synthesize(p, 1.5, (2.0 * math.pi * w + slack) / n, 0.3, n)
        assert d.closed
        with pytest.raises(OnExcludedLine, match=f"side lines {k} apart meet on the excluded"):
            grid_layer(d, k)


@pytest.mark.parametrize("n, w, k", [(4, 1, 2), (12, 5, 6), (12, 3, 2)])
def test_p_zero_keeps_parallel_lines(n, w, k):
    for slack in (0.0, -_SLACK, _SLACK):
        d = synthesize(0.0, 1.5, (2.0 * math.pi * w + slack) / n, 0.3, n)
        with pytest.raises(ParallelLines, match=f"side lines {k} apart are parallel"):
            grid_layer(d, k)


def test_the_gap_separates_the_two_cases():
    """|cos(k*theta/2)| against half of sin(pi/(2n)), over every closed
    polygon with n <= 120, at theta = 2*pi*w/n and at the closure slack."""
    worst_zero, worst_other = 0.0, math.inf
    for n in range(3, 121):
        gap = math.sin(math.pi / (2 * n))
        for w in range(1, (n + 1) // 2):
            for slack in (0.0, -_SLACK, _SLACK):
                theta = (2.0 * math.pi * w + slack) / n
                for k in range(1, n - 1):
                    c = abs(math.cos(k * theta / 2.0))
                    if _on_directrix(n, w, k):
                        worst_zero = max(worst_zero, c)
                    else:
                        worst_other = min(worst_other, c / gap)
    assert worst_zero < 1e-9  # rounding and the closure slack
    assert worst_other > 0.999  # sin(pi/(2n)) less rounding and the slack
    assert worst_zero < 0.5 * math.sin(math.pi / (2 * 120))


@pytest.mark.parametrize("p", [1e-6, 0.6, -0.3])
def test_grid_layer_raises_on_excluded_line_exactly_on_the_directrix(p):
    for n in range(3, 25):
        for w in range(1, (n + 1) // 2):
            d = synthesize(p, 1.5, 2.0 * math.pi * w / n, 0.3, n)
            for k in range(1, n - 1):
                try:
                    grid_layer(d, k)
                    raised = None
                except GeometryError as exc:
                    raised = type(exc)
                assert (raised is OnExcludedLine) == _on_directrix(n, w, k), (n, w, k, raised)
