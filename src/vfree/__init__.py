"""Exact-arithmetic toolkit for finite graphs of finite groups.

Builds order-labelled half-edge graphs, normalizes them by contracting
trivial spanning-tree edges, computes the invariants that determine
free-subgroup counts (m, Euler characteristic, type, free rank), produces
the exact counting series with their holonomic recurrences, and classifies
the presented virtually free groups of free rank at most 2. Brute-force
oracles validate the formulas at small scale.

Each exported name is loaded from its submodule on first use (PEP 562),
so a program pays only for the submodules it touches.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# submodule -> the names it exports: exactly those the README documents;
# every other public name is imported from its submodule
_EXPORTS = {
    "classify": ("ClassificationReport", "Label", "classify"),
    "counting": ("f_series", "g_series", "ode_check", "theta_coeffs"),
    "gog": ("GraphOfGroups", "build_gog", "parse_gog"),
    "graph": (
        "Graph", "build_graph", "is_connected", "orient_from_root", "spanning_tree",
    ),
    "invariants": ("free_rank", "m_gamma"),
    "normalize": ("normalize",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # importing a submodule binds it on the package; `normalize` and
        # `classify` must stay the functions of those names
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
