"""Exact-arithmetic toolkit for finite graphs of finite groups.

Builds order-labelled half-edge graphs, normalizes them by contracting
trivial spanning-tree edges, computes the invariants that determine
free-subgroup counts (m, Euler characteristic, type, free rank), produces
the exact counting series with their holonomic recurrences, and classifies
the presented virtually free groups of free rank at most 2. Brute-force
oracles validate the formulas at small scale.
"""

from .classify import (
    ClassificationReport,
    Label,
    LargenessReport,
    classify,
    largeness_report,
)
from .counting import (
    f_series,
    f_series_rank2,
    g_series,
    growth_check,
    ode_check,
    theta_coeffs,
)
from .errors import VfreeError
from .gog import (
    GraphOfGroups,
    NormalizedGog,
    build_gog,
    parse_gog,
    serialize_gog,
)
from .graph import (
    Graph,
    SpanningTree,
    build_graph,
    is_connected,
    orient_from_root,
    spanning_tree,
)
from .invariants import (
    TypeVector,
    check_edge_bound,
    divisors,
    euler_char,
    euler_from_type,
    free_rank,
    m_gamma,
    totient,
    type_vector,
)
from .normalize import ContractionStep, contract_edge, find_trivial_edge, normalize
from .oracle import (
    exhaustive_rank2_shapes,
    free_group_subgroup_counts,
    orientation_uniqueness,
    random_gog,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "ContractionStep",
    "Graph",
    "GraphOfGroups",
    "Label",
    "LargenessReport",
    "NormalizedGog",
    "SpanningTree",
    "TypeVector",
    "VfreeError",
    "build_gog",
    "build_graph",
    "check_edge_bound",
    "classify",
    "contract_edge",
    "divisors",
    "euler_char",
    "euler_from_type",
    "exhaustive_rank2_shapes",
    "f_series",
    "f_series_rank2",
    "find_trivial_edge",
    "free_group_subgroup_counts",
    "free_rank",
    "g_series",
    "growth_check",
    "is_connected",
    "largeness_report",
    "m_gamma",
    "normalize",
    "ode_check",
    "orient_from_root",
    "orientation_uniqueness",
    "parse_gog",
    "random_gog",
    "serialize_gog",
    "spanning_tree",
    "theta_coeffs",
    "totient",
    "type_vector",
]
