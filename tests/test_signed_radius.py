"""focal_parameter picks the branch by the sign of 1 + p*x.

On the pencil equation the signed focal radius of z is sqrt(t) * (1 + p*x),
so a point's focal parameter is its ray angle from the focus, plus pi where
1 + p*x < 0.  The two-branch search that focal_parameter used before is kept
here as the oracle: on the points the checks read it must give the same bits
and the same errors, and near an asymptotic direction it was off by pi.
"""

import math

import pytest

from discreteconics.errors import (
    AsymptoticDirection,
    DegenerateP,
    NonFiniteParameter,
    NonpositiveT,
    OnExcludedLine,
)
from discreteconics.kernel import Point, wrapped_diff
from discreteconics.pencil import focal_parameter, focal_radius, parameter_of, pencil_member
from discreteconics.polygon import grid_layer, tangency_points
from discreteconics.verify import check_isogonal
from test_fast_paths import CASES, _polygon
from test_focal_angle import INVERSE_TOL


def oracle_focal_parameter(p, z):
    """The ray angle, or the ray angle plus pi, whichever focal_radius fits."""
    c = pencil_member(p, parameter_of(p, z))
    f = c.focus
    d = math.hypot(z.x - f.x, z.y - f.y)
    beta = math.atan2(z.y - f.y, z.x - f.x)
    try:
        err_pos = abs(focal_radius(c, beta) - d)
    except AsymptoticDirection:
        err_pos = math.inf
    try:
        err_neg = abs(focal_radius(c, beta + math.pi) + d)
    except AsymptoticDirection:
        err_neg = math.inf
    return beta if err_pos <= err_neg else beta + math.pi


def _checked_points(d):
    """Vertices, tangency points, grid-layer vertices and the isogonal z."""
    j = 2 if d.n == 4 else 3
    z = check_isogonal(d, 1, j).metadata["z"]
    return [*d.vertices, *tangency_points(d).vertices, *grid_layer(d, 2).vertices, Point(*z)]


@pytest.mark.parametrize("p, t, n, w", CASES)
def test_sign_test_matches_the_two_branch_search_bit_for_bit(p, t, n, w):
    for z in _checked_points(_polygon(p, t, n, w)):
        assert focal_parameter(p, z).hex() == oracle_focal_parameter(p, z).hex()


@pytest.mark.parametrize(
    "p, z, error",
    [
        (0.5, Point(-0.5, 0.0), NonpositiveT),
        (-0.4, Point(0.4, 0.0), NonpositiveT),
        (0.5, Point(-2.0, 0.7), OnExcludedLine),
        (-0.25, Point(4.0, -1.0), OnExcludedLine),
        (1.0, Point(0.3, 0.2), DegenerateP),
        (-1.0, Point(0.3, 0.2), DegenerateP),
        (math.inf, Point(0.3, 0.2), NonFiniteParameter),
        (math.nan, Point(0.3, 0.2), NonFiniteParameter),
    ],
)
def test_same_errors_as_the_two_branch_search(p, z, error):
    with pytest.raises(error):
        oracle_focal_parameter(p, z)
    with pytest.raises(error):
        focal_parameter(p, z)


# p = 0.5, t = 16: the asymptotic directions are alpha = +-pi/3.  Points this
# close to them lie 1e12 to 1e15 from the focus, inside the 1e-12 guard of
# focal_radius, so point_at refuses them and they are built from the polar
# form directly.
NEAR_ASYMPTOTE = [
    pytest.param(sa * math.pi / 3.0 + sd * delta, id=f"{sa:+d}pi/3{sd:+d}*{delta:g}")
    for sa in (1, -1)
    for sd in (1, -1)
    for delta in (1e-13, 1e-14, 1e-15)
]


@pytest.mark.parametrize("alpha", NEAR_ASYMPTOTE)
def test_near_an_asymptote_the_sign_test_returns_alpha(alpha):
    p, t = 0.5, 16.0
    rt = math.sqrt(t)
    r = rt * (1.0 - p * p) / (1.0 - rt * p * math.cos(alpha))
    z = Point(-p + r * math.cos(alpha), r * math.sin(alpha))
    assert abs(wrapped_diff(focal_parameter(p, z), alpha)) <= INVERSE_TOL
    # The search found the ray direction inside the guard and took the
    # other branch.
    assert abs(wrapped_diff(oracle_focal_parameter(p, z), alpha)) == pytest.approx(math.pi)
