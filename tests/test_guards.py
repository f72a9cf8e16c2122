"""Each error guard that no other test reaches, called directly.

One test per raise (or corrective branch) in src/ that a line trace of the
rest of the suite never ran.  dual_conic's pole-deviation raise is the one
guard left out: no known input reaches it.
"""

import math

import pytest

from discreteconics.duality import Reciprocator, invert_circle, invert_point
from discreteconics.errors import (CenterHasNoPolar, FormulaPole, LineThroughCenter, NonpositiveT,
                                   NotClosed)
from discreteconics.group import (GroupElement, _verify_correspondence, act_on_parameter,
                                  from_angle, image)
from discreteconics.kernel import Point, normalize_angle
from discreteconics.pencil import Circle, _sampled_tangents, fit_circle, pencil_member
from discreteconics.polygon import (DiscreteConic, closed_form_vertices,
                                    opposite_side_intersections, synthesize)
from discreteconics.verify import (check_diagonals, check_equal_angles, check_projective_regular,
                                   check_reflective)

OPEN = synthesize(0.5, 1.0, 0.5, 0.0, 6)  # n*theta = 3 < 2*pi: an open chain
SQUARE = synthesize(0.5, 1.0, math.pi / 2, 0.0, 4)


def test_a_tiny_negative_angle_reduces_to_zero():
    assert -1e-17 % (2.0 * math.pi) == 2.0 * math.pi  # the case the guard is for
    assert normalize_angle(-1e-17) == 0.0


def test_closed_form_vertices_names_the_vertex_at_its_pole():
    # p cos(psi) = 1 at psi = pi/3 when p = 2, the second vertex.
    with pytest.raises(FormulaPole, match="^denominator vanishes at vertex 2$"):
        closed_form_vertices(2.0, math.pi / 3, 0.0, 6)


def test_sampled_tangents_step_off_the_asymptote_twice():
    # On (p, t) = (0.5, 4) the focal direction 0 is asymptotic, and so is 1e-6.
    tangents = _sampled_tangents(pencil_member(0.5, 4.0), 32)
    assert len(tangents) == 32 and tangents[0][0] == 2e-6


def test_fit_circle_needs_three_points_off_a_line():
    with pytest.raises(ValueError, match="^need at least three points"):
        fit_circle([Point(0.0, 0.0), Point(1.0, 1.0)])
    # Symmetric about the origin, so every sum in the fit is exact: the normal
    # matrix comes out singular by rounding alone, and the radius squared <= 0.
    with pytest.raises(ValueError, match="^degenerate circle fit$"):
        fit_circle([Point(-0.3, -0.7), Point(0.0, 0.0), Point(0.3, 0.7)])


def test_group_guards():
    with pytest.raises(ValueError, match="^group scale must be positive$"):
        GroupElement(0.0)
    with pytest.raises(NonpositiveT):
        act_on_parameter(GroupElement(2.0), 0.0)
    d = synthesize(0.5, 1.0, 2.0 * math.pi / 8, 0.0, 8)
    for kind in ("G", "H"):
        wrong = image(from_angle(kind, 2.0 * d.theta), d)  # the image for k = 2, checked at k = 1
        with pytest.raises(ValueError, match="^vertex correspondence failed"):
            _verify_correspondence(d, wrong, kind, 1)


def test_reciprocation_guards():
    r = Reciprocator(Point(0.0, 0.0))
    with pytest.raises(ValueError, match="^inversion radius must be positive$"):
        Reciprocator(Point(0.0, 0.0), 0.0)
    with pytest.raises(CenterHasNoPolar):
        invert_point(r, Point(0.0, 0.0))
    with pytest.raises(LineThroughCenter):
        invert_circle(r, Circle(Point(1.0, 0.0), 1.0))


@pytest.mark.parametrize("check", [opposite_side_intersections, check_diagonals,
                                   check_reflective, check_projective_regular])
def test_closed_polygon_checks_reject_an_open_chain(check):
    assert not OPEN.closed
    with pytest.raises(NotClosed):
        check(OPEN)


def test_vertex_count_guards():
    assert SQUARE.closed
    report = check_projective_regular(SQUARE)
    assert report.passed and len(report.residuals) == 4
    two = DiscreteConic(0.5, 1.0, 0.5, 0.0, OPEN.vertices[:2])
    with pytest.raises(ValueError, match="^need at least three vertices$"):
        check_equal_angles(two)
