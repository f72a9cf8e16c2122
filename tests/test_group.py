"""The abelian group acting on the pencil and on its polygons."""

import math

import numpy as np
import pytest

from discreteconics import group, pencil
from discreteconics.errors import AngleOutOfRange
from discreteconics.group import (
    IDENTITY,
    GroupElement,
    act_on_circle,
    act_on_discrete,
    act_on_parameter,
    as_angle,
    compose,
    from_angle,
    inverse,
)
from discreteconics.kernel import Point, distance
from discreteconics.pencil import Circle
from discreteconics.polygon import synthesize, tangency_points


def test_from_angle_examples():
    assert math.isclose(from_angle("G", math.pi / 2).s, math.sqrt(2.0))
    assert math.isclose(from_angle("H", math.pi / 2).s, math.sqrt(2.0) / 2.0)
    assert from_angle("G", 0.0).s == 1.0


def test_from_angle_range():
    with pytest.raises(AngleOutOfRange):
        from_angle("G", math.pi)
    with pytest.raises(AngleOutOfRange):
        from_angle("H", -0.1)
    with pytest.raises(ValueError):
        from_angle("X", 0.5)


def test_compose_angle_formula():
    g = from_angle("G", math.pi / 2)
    kind, theta = as_angle(compose(g, g))
    assert kind == "G"
    assert abs(theta - 2.0 * math.pi / 3.0) < 1e-12


def test_inverse_pair():
    theta = 0.8
    e = compose(from_angle("G", theta), from_angle("H", theta))
    assert abs(e.s - 1.0) < 1e-15


def test_as_angle_examples():
    kind, theta = as_angle(GroupElement(math.sqrt(2.0)))
    assert kind == "G" and abs(theta - math.pi / 2) < 1e-12
    assert as_angle(GroupElement(1.0)) == ("G", 0.0)
    kind, theta = as_angle(GroupElement(0.5))
    assert kind == "H" and abs(theta - 2.0 * math.pi / 3.0) < 1e-12


def test_as_angle_roundtrip():
    rng = np.random.default_rng(43)
    for _ in range(100):
        kind = "G" if rng.random() < 0.5 else "H"
        theta = rng.uniform(0.0, math.pi - 1e-6)
        k2, t2 = as_angle(from_angle(kind, theta))
        if theta == 0.0 or abs(from_angle(kind, theta).s - 1.0) < 1e-15:
            assert t2 < 1e-7
        else:
            assert k2 == kind and abs(t2 - theta) < 1e-9


def test_group_axioms():
    rng = np.random.default_rng(47)
    for _ in range(100):
        a, b, c = (GroupElement(s) for s in rng.uniform(0.2, 5.0, 3))
        lhs = compose(compose(a, b), c).s
        rhs = compose(a, compose(b, c)).s
        assert abs(lhs - rhs) <= 1e-15 * abs(lhs)
        assert abs(compose(a, b).s - compose(b, a).s) <= 1e-15 * abs(compose(a, b).s)
        assert abs(compose(a, inverse(a)).s - 1.0) <= 1e-15
        assert compose(a, IDENTITY).s == a.s


def test_act_on_parameter_examples():
    assert math.isclose(act_on_parameter(from_angle("G", math.pi / 3), 1.0), 4.0 / 3.0)
    assert act_on_parameter(IDENTITY, 5.0) == 5.0
    t = 2.7
    round_trip = act_on_parameter(from_angle("G", 0.9), act_on_parameter(from_angle("H", 0.9), t))
    assert abs(round_trip - t) < 1e-14


def test_act_on_circle():
    c = act_on_circle(from_angle("G", math.pi / 2), Circle(Point(1, 2), 3.0))
    assert c.center == Point(1, 2)
    assert math.isclose(c.radius, 3.0 * math.sqrt(2.0))


def test_act_on_regular_polygon():
    """Circle case: G at the polygon's own angle scales the radius to
    sec(theta/2) and rotates by theta/2."""
    n = 6
    theta = 2.0 * math.pi / n
    d = synthesize(0.0, 1.0, theta, 0.0, n)
    img = act_on_discrete(from_angle("G", theta), d)
    sec = 1.0 / math.cos(theta / 2.0)
    assert img.meta["vertex_correspondence"] == "verified"
    for j, v in enumerate(img.vertices):
        expect = Point(sec * math.cos(j * theta + theta / 2.0), sec * math.sin(j * theta + theta / 2.0))
        assert distance(v, expect) < 1e-12


def test_g_of_h_restores_polygon():
    d = synthesize(0.6, 0.9, 2.0 * math.pi / 7, 0.3, 7)
    back = act_on_discrete(from_angle("G", d.theta), act_on_discrete(from_angle("H", d.theta), d))
    assert abs(back.t - d.t) < 1e-12
    # Net phase shift is theta, so vertices come back shifted by one index.
    for j in range(d.n):
        assert distance(back.vertices[j], d.vertex(j + 2)) < 1e-9


def test_act_identity_meta():
    d = synthesize(0.4, 1.2, 2.0 * math.pi / 5, 0.1, 5)
    img = act_on_discrete(IDENTITY, d)
    assert img.meta["vertex_correspondence"] == "identity"
    for a, b in zip(img.vertices, d.vertices):
        assert distance(a, b) < 1e-12


def test_act_nonmultiple_angle_not_asserted():
    d = synthesize(0.4, 1.2, 2.0 * math.pi / 5, 0.1, 5)
    img = act_on_discrete(from_angle("G", 0.37), d)
    assert img.meta["vertex_correspondence"] == "not_asserted"
    assert math.isclose(img.t, d.t / math.cos(0.185) ** 2)


def test_h_action_is_tangency_points():
    d = synthesize(0.5, 1.4, 2.0 * math.pi / 8, 0.7, 8)
    img = act_on_discrete(from_angle("H", d.theta), d)
    m = tangency_points(d)
    assert img.meta["vertex_correspondence"] == "verified"
    for a, b in zip(img.vertices, m.vertices):
        assert distance(a, b) < 1e-10


# A closed polygon and an open chain, with k * theta < pi.
CORRESPONDENCE_CASES = [
    pytest.param(n, theta, k, id=f"{label}-k{k}")
    for label, n, theta in (("closed", 8, 2.0 * math.pi / 8), ("open", 6, 0.7))
    for k in (1, 2)
]


@pytest.mark.parametrize("n, theta, k", CORRESPONDENCE_CASES)
@pytest.mark.parametrize("kind", ["G", "H"])
def test_correspondence_reads_the_carrier_points_once(n, theta, k, kind, monkeypatch):
    """The check reads the n + k carrier points in one points_at_xy call, in
    angle order, forms the tangents (G) or the chords (H) in one batch call,
    and forms the image member's adjugate once (H) or not at all (G)."""
    counts = {"tangent_coefficients": 0, "line_coefficients_xy": 0, "normalized_adjugate": 0}
    reads = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    def read(c, alphas):
        reads.append(list(alphas))
        return real_points_at_xy(c, alphas)

    counted(group, "tangent_coefficients")
    counted(group, "line_coefficients_xy")
    counted(pencil, "normalized_adjugate")
    real_points_at_xy = group.points_at_xy
    monkeypatch.setattr(group, "points_at_xy", read)
    d = synthesize(0.3, 20.0, theta, 0.3, n)
    assert d.closed == (n == 8)
    out = act_on_discrete(from_angle(kind, k * theta), d)
    assert out.meta == {"vertex_correspondence": "verified", "k": k}
    assert reads == [[d.phi + j * d.theta for j in range(n + k)]]
    g, h = int(kind == "G"), int(kind == "H")
    assert counts == {"tangent_coefficients": g, "line_coefficients_xy": h, "normalized_adjugate": h}
