"""JSON interchange for polygons, pencil members and verification reports.

Numbers are emitted with Python's shortest round-trip float text, so
serialize followed by deserialize is the identity on every numeric field
and goldens are stable across platforms.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

from .errors import MalformedInput
from .kernel import Point
from .pencil import FocalConic, pencil_member
from .polygon import DiscreteConic, _check_theta_n

if TYPE_CHECKING:  # the report functions import verify when they run
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


def _exact(value, field: str, kinds: tuple, what: str):
    """value, if its JSON type is one of kinds exactly: a bool is no int here."""
    if type(value) not in kinds:
        raise MalformedInput(f"{field} must be {what}, got {value!r}")
    return value


def read_number(value, field: str, k: int | None = None):
    """value, a JSON number, as a float; or with k given, value, an array of
    exactly k numbers, as a tuple of floats."""
    if k is None:
        try:
            return float(_exact(value, field, (int, float), "a number"))
        except OverflowError:  # an int beyond float range reads as json reads 1e400
            return math.inf if value > 0 else -math.inf
    if type(value) in (list, tuple) and len(value) == k:
        return tuple(read_number(x, field) for x in value)
    raise MalformedInput(f"{field} must be an array of {k} numbers, got {value!r}")


def read_array(value, field: str, read) -> tuple:
    """value, a JSON array, as a tuple of read(x) for each entry x.  A plain
    ValueError from read (a non-finite coordinate, say) is reported under
    field; read's GeometryErrors pass through as they are."""
    if type(value) not in (list, tuple):
        raise MalformedInput(f"{field} must be an array, got {value!r}")
    try:
        return tuple(map(read, value))
    except ValueError as exc:
        raise MalformedInput(f"{field}: {exc}") from exc


def polygon_from_dict(obj: dict) -> DiscreteConic:
    """The constructors' own rules hold (_check_theta_n, pencil_member), and
    the stated n (an integer) and closed (a boolean) must agree with the
    vertices and theta."""
    try:
        d = DiscreteConic(
            p=read_number(obj["p"], "p"),
            t=read_number(obj["t"], "t"),
            theta=read_number(obj["theta"], "theta"),
            phi=read_number(obj["phi"], "phi"),
            vertices=read_array(obj["vertices"], "vertices",
                                lambda v: Point(*read_number(v, "vertices", 2))),
            meta=dict(obj.get("meta", {})),
        )
    except TypeError as exc:  # a null or a wrongly nested value
        raise MalformedInput(f"malformed polygon: {exc}") from exc
    n = _exact(obj["n"], "n", (int,), "an integer")
    closed = _exact(obj["closed"], "closed", (bool,), "a boolean")
    _check_theta_n(d.p, d.theta, d.n, d.phi)
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
    from .verify import Report

    try:
        r = Report(
            check=_exact(obj["check"], "check", (str,), "a string"),
            residuals=tuple(read_number(r, "residuals") for r in
                            _exact(obj["residuals"], "residuals", (list,), "an array of numbers")),
            tolerance=read_number(obj["tolerance"], "tolerance"),
            metadata=dict(_exact(obj.get("metadata", {}), "metadata", (dict,), "an object")),
        )
        worst = read_number(obj["max_residual"], "max_residual")
        passed = _exact(obj["pass"], "pass", (bool,), "a boolean")
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"malformed report: {exc!r}") from exc
    if (repr(worst), passed) != (repr(r.max_residual), r.passed):  # repr: NaN matches NaN
        raise MalformedInput(f"max_residual = {worst}, pass = {passed} but the residuals "
                             f"give {r.max_residual}, {r.passed}")
    return r


def conic_to_dict(c: FocalConic) -> dict:
    return {"p": c.p, "t": c.t}


def conic_from_dict(obj: dict) -> FocalConic:
    return pencil_member(read_number(obj["p"], "p"), read_number(obj["t"], "t"))


def serialize(obj) -> str:
    from .verify import Report

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
