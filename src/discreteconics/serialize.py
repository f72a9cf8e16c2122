"""JSON interchange for polygons, pencil members and verification reports.

Numbers are emitted with Python's shortest round-trip float text, so
serialize followed by deserialize is the identity on every numeric field
and goldens are stable across platforms.
"""

from __future__ import annotations

import json

from .errors import MalformedInput
from .kernel import Point
from .pencil import FocalConic
from .polygon import DiscreteConic
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


def polygon_from_dict(obj: dict) -> DiscreteConic:
    try:
        d = DiscreteConic(
            p=float(obj["p"]),
            t=float(obj["t"]),
            theta=float(obj["theta"]),
            phi=float(obj["phi"]),
            n=int(obj["n"]),
            closed=bool(obj["closed"]),
            vertices=tuple(Point(float(x), float(y)) for x, y in obj["vertices"]),
            meta=dict(obj.get("meta", {})),
        )
    except TypeError as exc:  # a null or a wrongly nested value
        raise MalformedInput(f"malformed polygon: {exc}") from exc
    if d.n != len(d.vertices):
        raise MalformedInput(f"n = {d.n} but {len(d.vertices)} vertices given")
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
    try:
        if not isinstance(obj["residuals"], list):
            raise TypeError("residuals must be a list")
        return Report(
            check=obj["check"],
            residuals=tuple(float(r) for r in obj["residuals"]),
            max_residual=float(obj["max_residual"]),
            tolerance=float(obj["tolerance"]),
            passed=bool(obj["pass"]),
            metadata=dict(obj.get("metadata", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"malformed report: {exc!r}") from exc


def conic_to_dict(c: FocalConic) -> dict:
    return {"p": c.p, "t": c.t}


def conic_from_dict(obj: dict) -> FocalConic:
    return FocalConic(float(obj["p"]), float(obj["t"]))


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
