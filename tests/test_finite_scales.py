"""A group scale and an inversion radius must be finite: NaN and +-inf are
rejected where the value is stored, with a ValueError that names it, and a
composition or inverse that overflows to inf raises instead of returning an
element outside the [0, pi) chart.  Finite values <= 0 keep the texts that
tests/test_guards.py pins."""

import math

import pytest

from discreteconics.duality import Reciprocator
from discreteconics.group import GroupElement, compose, inverse
from discreteconics.kernel import Point

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("s", NON_FINITE)
def test_a_non_finite_group_scale_is_rejected(s):
    with pytest.raises(ValueError, match=f"^group scale must be finite, got {s!r}$"):
        GroupElement(s)


@pytest.mark.parametrize("k", NON_FINITE)
def test_a_non_finite_inversion_radius_is_rejected(k):
    with pytest.raises(ValueError, match=f"^inversion radius must be finite, got {k!r}$"):
        Reciprocator(Point(0.5, 0.0), k)


def test_a_composition_that_overflows_is_rejected():
    with pytest.raises(ValueError, match="^group scale must be finite, got inf$"):
        compose(GroupElement(1e200), GroupElement(1e200))


def test_an_inverse_that_overflows_is_rejected():
    with pytest.raises(ValueError, match="^group scale must be finite, got inf$"):
        inverse(GroupElement(1e-320))


@pytest.mark.parametrize("s", [0.0, -0.0, -1.0, -1e308])
def test_a_finite_nonpositive_scale_keeps_its_text(s):
    with pytest.raises(ValueError, match="^group scale must be positive$"):
        GroupElement(s)


@pytest.mark.parametrize("k", [0.0, -2.0])
def test_a_finite_nonpositive_radius_keeps_its_text(k):
    with pytest.raises(ValueError, match="^inversion radius must be positive$"):
        Reciprocator(Point(0.0, 0.0), k)


@pytest.mark.parametrize("s", [5e-324, 1e-300, 1e300, 1.7976931348623157e308])
def test_a_finite_positive_scale_still_builds(s):
    assert GroupElement(s).s == s
