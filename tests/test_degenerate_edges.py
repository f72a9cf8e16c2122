"""Degenerate edges of the pencil: an inscribed member that is a parabola,
and a theta so small that n steps add up to almost nothing."""

import io
import json
import math

import pytest

from discreteconics import group
from discreteconics.cli import main
from discreteconics.errors import MalformedInput, ParabolaMember
from discreteconics.group import act_on_discrete, as_angle, from_angle
from discreteconics.pencil import classify, pencil_member
from discreteconics.polygon import synthesize
from discreteconics.serialize import polygon_from_dict, polygon_to_dict
from discreteconics.verify import run_checks

PARABOLA_SKIP = "inscribed member is a parabola"


def run_cli(argv, stdin, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# A parabolic inscribed member: t = 1/(p^2 cos^2(pi/n)) makes the inner
# member t*cos^2(theta/2) at theta = 2pi/n the parabola p^2 t = 1.

PARABOLA_CASES = [(p, n) for p in (0.3, 0.5, 0.75) for n in (3, 4, 5, 6, 8, 12)]


def parabola_inner_polygon(p, n):
    return synthesize(p, 1.0 / (p * p * math.cos(math.pi / n) ** 2), 2.0 * math.pi / n, 0.0, n)


@pytest.mark.parametrize("p, n", PARABOLA_CASES)
def test_parabolic_inner_member_skips_reflective_and_isogonal(p, n):
    d = parabola_inner_polygon(p, n)
    assert d.closed and classify(d.inner) == "parabola"
    reports = {r.check: r for r in run_checks(d)}
    for name in ("reflective", "isogonal"):
        assert reports[name].metadata == {"skipped": PARABOLA_SKIP}
    assert all(r.passed for r in reports.values())
    assert all("skipped" not in reports[name].metadata
               for name in ("equal_angles", "poncelet", "diagonals"))


@pytest.mark.parametrize("p, n", PARABOLA_CASES)
def test_parabola_member_has_no_center_or_second_focus(p, n):
    inner = parabola_inner_polygon(p, n).inner
    with pytest.raises(ParabolaMember):
        inner.center
    with pytest.raises(ParabolaMember):
        inner.second_focus


def test_central_members_keep_their_center():
    c = pencil_member(0.5, 1.0)
    assert (c.center.x, c.center.y) == (0.0, 0.0)
    assert (c.second_focus.x, c.second_focus.y) == (0.5, 0.0)
    with pytest.raises(ParabolaMember):
        pencil_member(0.5, 4.0).center


def test_verify_on_a_parabolic_inner_member_exits_0(monkeypatch, capsys):
    gen = ["generate", "--p", "0.75", "--t", "2.716202746667414", "--theta", "2pi/5", "--n", "5"]
    code, polygon, _ = run_cli(gen, "", monkeypatch, capsys)
    assert code == 0
    code, out, err = run_cli(["verify"], polygon, monkeypatch, capsys)
    assert (code, err) == (0, "")
    skipped = {r["check"]: r["metadata"].get("skipped") for r in json.loads(out)}
    assert skipped["reflective"] == skipped["isogonal"] == PARABOLA_SKIP


def test_open_chain_rule_comes_before_the_parabola_rule():
    p, n = 0.5, 5
    d = synthesize(p, 1.0 / (p * p * math.cos(math.pi / n) ** 2), 2.0 * math.pi / n, 0.0, n - 1)
    assert not d.closed
    reports = {r.check: r for r in run_checks(d, names=["reflective", "isogonal"])}
    assert {r.metadata["skipped"] for r in reports.values()} == {"open chain"}


# ---------------------------------------------------------------------------
# Tiny theta: closure needs at least one whole turn, and the group action
# asserts its vertex correspondence only for 1 <= k <= n.


@pytest.mark.parametrize("theta", [1e-12, 1e-320, 2e-11])
def test_n_tiny_steps_do_not_close(theta):
    d = synthesize(0.5, 1.0, theta, 0.0, 5)
    assert not d.closed and d.winding == 0


def test_polygon_json_claiming_a_tiny_theta_closes_is_rejected():
    obj = polygon_to_dict(synthesize(0.5, 1.0, 1e-12, 0.0, 5))
    assert obj["closed"] is False
    obj["closed"] = True
    with pytest.raises(MalformedInput, match="closed = True"):
        polygon_from_dict(obj)


def test_one_whole_turn_still_closes():
    assert synthesize(0.5, 1.0, 2.0 * math.pi / 5, 0.0, 5).closed
    assert synthesize(0.5, 1.0, 2.0 * math.pi / 3, 0.0, 3).winding == 1


def count_carrier_lines(monkeypatch):
    calls = []
    for name in ("tangent_at", "point_at"):
        real = getattr(group, name)
        monkeypatch.setattr(group, name, lambda *a, real=real: calls.append(1) or real(*a))
    return calls


@pytest.mark.parametrize("kind", ["G", "H"])
def test_correspondence_is_asserted_up_to_k_equal_n(kind, monkeypatch):
    n, theta = 3, 0.2
    d = synthesize(0.5, 1.0, theta, 0.0, n)
    calls = count_carrier_lines(monkeypatch)
    out = act_on_discrete(from_angle(kind, n * theta), d)
    assert out.meta == {"vertex_correspondence": "verified", "k": n}
    assert len(calls) == 2 * n
    calls.clear()
    out = act_on_discrete(from_angle(kind, (n + 1) * theta), d)
    assert out.meta == {"vertex_correspondence": "not_asserted"}
    assert calls == []


def test_a_ratio_near_a_large_integer_builds_no_lines(monkeypatch):
    e = from_angle("G", 0.5)
    d = synthesize(0.5, 1.0, as_angle(e)[1] / 10**4, 0.0, 5)  # k = 10**4 > n
    calls = count_carrier_lines(monkeypatch)
    out = act_on_discrete(e, d)
    assert out.meta == {"vertex_correspondence": "not_asserted"}
    assert calls == []


def test_subnormal_theta_transform_is_not_asserted(monkeypatch, capsys):
    d = synthesize(0.5, 1.0, 1e-320, 0.0, 5)
    assert act_on_discrete(from_angle("G", 2.0 * math.pi / 7), d).meta == {
        "vertex_correspondence": "not_asserted"}
    code, polygon, _ = run_cli(["generate", "--p", "0.5", "--t", "1", "--theta", "1e-320",
                                "--n", "5"], "", monkeypatch, capsys)
    assert code == 0
    code, out, err = run_cli(["transform", "--op", "G", "--angle", "2pi/7"], polygon,
                             monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["meta"] == {"vertex_correspondence": "not_asserted"}
