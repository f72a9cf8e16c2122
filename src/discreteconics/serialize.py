"""JSON interchange for polygons, pencil members and verification reports.

Numbers are emitted with Python's shortest round-trip float text, so
serialize followed by deserialize is the identity on every numeric field
and goldens are stable across platforms.
"""

from __future__ import annotations

import json

from .errors import MalformedInput
from .kernel import Point
from .pencil import FocalConic, pencil_member
from .polygon import DiscreteConic, _check_theta_n
from .verify import Report


def polygon_to_dict(d: DiscreteConic) -> dict:
    out = {
        "p": d.p,
        "t": d.t,
        "theta": d.theta,
        "phi": d.phi,
        "n": d.n,
        "closed": d.closed,
        "vertices": [[v.x, v.y] for v in d.vertices],
    }
    if d.meta:
        out["meta"] = d.meta
    return out


# Exact JSON types: a bool is not a number here, nor a string holding one.
_NUMBER = (int, float)


def _vertex(v) -> Point:
    if type(v) in (list, tuple) and len(v) == 2 and type(v[0]) in _NUMBER and type(v[1]) in _NUMBER:
        return Point(v[0], v[1])
    raise MalformedInput(f"vertices must be pairs of numbers, got {v!r}")


def polygon_from_dict(obj: dict) -> DiscreteConic:
    """The constructors' own rules hold (_check_theta_n, pencil_member), and
    the stated n (an integer) and closed (a boolean) must agree with the
    vertices and theta."""
    try:
        d = DiscreteConic(
            p=float(obj["p"]),
            t=float(obj["t"]),
            theta=float(obj["theta"]),
            phi=float(obj["phi"]),
            vertices=tuple(map(_vertex, obj["vertices"])),
            meta=dict(obj.get("meta", {})),
        )
    except TypeError as exc:  # a null or a wrongly nested value
        raise MalformedInput(f"malformed polygon: {exc}") from exc
    n, closed = obj["n"], obj["closed"]
    if type(n) is not int:
        raise MalformedInput(f"n must be an integer, got {n!r}")
    if type(closed) is not bool:
        raise MalformedInput(f"closed must be a boolean, got {closed!r}")
    _check_theta_n(d.theta, d.n, d.phi)
    pencil_member(d.p, d.t)
    if (n, closed) != (d.n, d.closed):
        raise MalformedInput(f"n = {n}, closed = {closed} but the vertices and theta "
                             f"give n = {d.n}, closed = {d.closed}")
    return d


def report_to_dict(r: Report) -> dict:
    return {
        "check": r.check,
        "residuals": list(r.residuals),
        "max_residual": r.max_residual,
        "tolerance": r.tolerance,
        "pass": r.passed,
        "metadata": r.metadata,
    }


def report_from_dict(obj: dict) -> Report:
    """The stated max_residual and pass must agree with the residuals."""
    try:
        if not isinstance(obj["residuals"], list):
            raise TypeError("residuals must be a list")
        r = Report(
            check=obj["check"],
            residuals=tuple(float(r) for r in obj["residuals"]),
            tolerance=float(obj["tolerance"]),
            metadata=dict(obj.get("metadata", {})),
        )
        worst, passed = float(obj["max_residual"]), bool(obj["pass"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"malformed report: {exc!r}") from exc
    if (repr(worst), passed) != (repr(r.max_residual), r.passed):  # repr: NaN matches NaN
        raise MalformedInput(f"max_residual = {worst}, pass = {passed} but the residuals "
                             f"give {r.max_residual}, {r.passed}")
    return r


def conic_to_dict(c: FocalConic) -> dict:
    return {"p": c.p, "t": c.t}


def conic_from_dict(obj: dict) -> FocalConic:
    return pencil_member(float(obj["p"]), float(obj["t"]))


def serialize(obj) -> str:
    if isinstance(obj, DiscreteConic):
        return json.dumps(polygon_to_dict(obj))
    if isinstance(obj, Report):
        return json.dumps(report_to_dict(obj))
    if isinstance(obj, FocalConic):
        return json.dumps(conic_to_dict(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def deserialize(text: str):
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    if "vertices" in obj:
        return polygon_from_dict(obj)
    if "check" in obj:
        return report_from_dict(obj)
    if set(obj) >= {"p", "t"}:
        return conic_from_dict(obj)
    raise ValueError(f"unrecognized object with keys {sorted(obj)}")
