"""normalized_adjugate forms A, D/2 and G from (p, t) itself, without a
QuadraticForm.  It is held here to a frozen copy of the quadratic form's body
and of the adjugate as it read that form, bit for bit and error for error,
on test_batched_kernels.py's members, the benchmark's sweep and large_n
pencils (test_batch_parity.py), and members far out where 2*p*(1 - t)
overflows or p is subnormal.
"""

import math
import sys

import pytest
from hypothesis import given
from test_batch_parity import LARGE_N_MEMBERS, SETTINGS, SWEEP_MEMBERS, call_outcome
from test_batched_kernels import MEMBER_PARAMS

from discreteconics.pencil import normalized_adjugate, pencil_member
from discreteconics.reference import quadratic_form

TOP = sys.float_info.max

# 2*p*(1 - t) overflows while p*(1 - t) does not; both overflow; p subnormal.
FAR_MEMBERS = [(0.9, 1.5e308), (-0.9, 1.5e308), (0.6, 0.9 * TOP), (1e154, 1e154),
               (5e-324, 0.3), (-3e-310, 7.0), (2.0, 1e-300)]


def reference_quadratic_form(p, t):
    """quadratic_form's (A, B, C, D, E, G) as it was written when
    normalized_adjugate read it."""
    return (1.0 - t * p * p, 0.0, 1.0, 2.0 * p * (1.0 - t), 0.0, p * p - t)


def reference_normalized_adjugate(c):
    """normalized_adjugate as it was written over quadratic_form."""
    a, _, _, d, _, g = reference_quadratic_form(c.p, c.t)
    h = d / 2.0
    adj = ((g, 0.0, -h), (0.0, a * g - h * h, 0.0), (-h, 0.0, a))
    scale = max(abs(v) for row in adj for v in row)
    return tuple(tuple(v / scale for v in row) for row in adj)


def bits(outcome):
    value, error = outcome
    if value is None:
        return None, error
    return [[v.hex() for v in row] for row in value], error


@pytest.mark.parametrize("p, t", MEMBER_PARAMS + FAR_MEMBERS)
def test_normalized_adjugate_is_the_quadratic_form_adjugate_as_written(p, t):
    c = pencil_member(p, t)
    assert bits(call_outcome(normalized_adjugate, c)) == bits(
        call_outcome(reference_normalized_adjugate, c))


@SETTINGS
@given(member=SWEEP_MEMBERS | LARGE_N_MEMBERS)
def test_normalized_adjugate_on_the_benchmark_pencils(member):
    c = pencil_member(*member)
    assert bits(call_outcome(normalized_adjugate, c)) == bits(
        call_outcome(reference_normalized_adjugate, c))


@pytest.mark.parametrize("p, t", MEMBER_PARAMS + FAR_MEMBERS)
def test_quadratic_form_is_its_body_as_written(p, t):
    q = quadratic_form(pencil_member(p, t))
    got = (q.A, q.B, q.C, q.D, q.E, q.G)
    assert [v.hex() for v in got] == [v.hex() for v in reference_quadratic_form(p, t)]


def test_the_far_members_reach_the_overflow_and_the_subnormal_range():
    # Written as p*(1 - t), the half of D would be finite on the first member
    # and rounded once more on the fifth, and the adjugates would differ.
    p, t = FAR_MEMBERS[0]
    assert 2.0 * p * (1.0 - t) == -math.inf and abs(p * (1.0 - t)) < TOP
    p, t = FAR_MEMBERS[4]
    assert 0.0 < abs(p) < sys.float_info.min
