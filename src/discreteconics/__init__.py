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
    "pencil": "FocalConic limiting_conic pencil_member",
    "duality": "Circle Reciprocator dual_conic polar_of pole_of",
    "group": "GroupElement act_on_discrete act_on_parameter as_angle compose from_angle",
    "polygon": "DiscreteConic PedalScaffold grid_layer negative_pedal "
               "opposite_side_intersections synthesize tangency_points",
    "reference": "QuadraticForm closed_form_vertices",
    "verify": "Report run_checks",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOMES)


def _forwarder(namespace: dict, homes: dict):
    """A module __getattr__ (PEP 562) for the module whose globals are
    namespace: each name in homes is imported from its home module on first
    use and kept in namespace, so later lookups skip the hook."""

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        home = importlib.import_module(f".{homes[name]}", __name__)
        namespace[name] = value = getattr(home, name)
        return value

    return __getattr__


__getattr__ = _forwarder(globals(), _HOMES)


def __dir__():
    return sorted(set(globals()) | set(__all__))
