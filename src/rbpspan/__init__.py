"""Minimum red-blue-purple spanning graphs of colored planar point sets.

A red-blue-purple (RBP) spanning graph is an edge set whose red+purple edges
connect the red and purple points and whose blue+purple edges connect the blue
and purple points. This package computes minimum-weight RBP spanning graphs
exactly (matroid intersection, and dedicated linear/cubic algorithms for
collinear and concyclic inputs), approximately (two fast heuristics with
proven factors), and by brute force (two independent oracles), plus seeded
generators for the known adversarial constructions.
"""

from .approx import (
    GUARANTEE,
    RHO_CONJECTURED,
    RHO_UPPER,
    UNION_GUARANTEE,
    RatioReport,
    approx_a,
    approx_union,
    ratio_report,
)
from .circle import CONCYCLIC_TOL, NotConcyclicError, fit_circle, solve_circle
from .exact import solve_exact
from .generators import (
    Martini,
    MartiniParams,
    SteinerFamily,
    gen_hexagon,
    gen_martini,
    gen_random,
    gen_steiner_family,
    hexagon_star,
)
from .graphops import (
    InfeasibleGraphError,
    constrained_mst,
    is_rbp_spanning,
    kruskal_mst,
    solution_stats,
    stats_block,
)
from .line import COLLINEAR_TOL, NotCollinearError, collinearity_residual, solve_line
from .model import (
    Color,
    EdgeSet,
    Instance,
    InstanceFormatError,
    PreconditionError,
    Solution,
    allowed_edge_count,
    allowed_edges,
    edge_color,
    make_edge_set,
    parse_instance,
    segments_properly_cross,
    serialize_instance,
)
from .oracle import OracleSizeError, oracle_forest, oracle_subsets
from .svg import render_svg

__version__ = "1.0.0"

__all__ = [
    "COLLINEAR_TOL",
    "CONCYCLIC_TOL",
    "Color",
    "EdgeSet",
    "GUARANTEE",
    "InfeasibleGraphError",
    "Instance",
    "InstanceFormatError",
    "Martini",
    "MartiniParams",
    "NotCollinearError",
    "NotConcyclicError",
    "OracleSizeError",
    "PreconditionError",
    "RHO_CONJECTURED",
    "RHO_UPPER",
    "RatioReport",
    "Solution",
    "SteinerFamily",
    "UNION_GUARANTEE",
    "allowed_edge_count",
    "allowed_edges",
    "approx_a",
    "approx_union",
    "collinearity_residual",
    "constrained_mst",
    "edge_color",
    "fit_circle",
    "gen_hexagon",
    "gen_martini",
    "gen_random",
    "gen_steiner_family",
    "hexagon_star",
    "is_rbp_spanning",
    "kruskal_mst",
    "make_edge_set",
    "oracle_forest",
    "oracle_subsets",
    "parse_instance",
    "ratio_report",
    "render_svg",
    "segments_properly_cross",
    "serialize_instance",
    "solution_stats",
    "solve_circle",
    "solve_exact",
    "solve_line",
    "stats_block",
]
