"""Discrete conics: equal-focal-angle polygons on a focus-sharing pencil,
the group acting on that pencil, polar duality about the focus, the discrete
negative-pedal construction, and numerical verification of their properties.

Each public name is imported from its module on first use (PEP 562), so
importing the package, or one of its modules, loads no module it does not
need.
"""

import importlib

# Module -> the public names it defines; _HOMES maps each name to its module.
_EXPORTS = {
    "kernel": "Line Point ProjectiveMap",
    "pencil": "Circle FocalConic QuadraticForm limiting_conic pencil_member",
    "duality": "Reciprocator dual_conic polar_of pole_of",
    "group": "GroupElement act_on_discrete act_on_parameter as_angle compose from_angle",
    "polygon": "DiscreteConic PedalScaffold closed_form_vertices grid_layer negative_pedal "
               "opposite_side_intersections synthesize tangency_points",
    "verify": "Report run_checks",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
