"""Biquandle colorings, coloring quivers, and bridge bounds for virtual links."""

from .algebra import (
    AxiomError,
    FiniteBiquandle,
    biquandle_z,
    column_permutation,
    enumerate_endos,
    enumerate_homs,
    from_tables,
    group_order,
    make_conjugation_quandle,
    make_dihedral,
    make_linear_biquandle,
    make_module_biquandle,
    subquandle_closure,
    validate_axioms,
)
from .bridge import b1_lower, b2_lower, min_seed_size, wirtinger_saturate
from .coloring import (
    brute_force_colorings,
    coloring_matrix,
    count_colorings,
    count_solutions_snf,
    enumerate_colorings,
)
from .diagram import (
    Crossing,
    DiagramError,
    SemiarcDiagram,
    apply_r1,
    apply_r2,
    chain,
    connected_sum,
    parse_pd,
    pretzel,
    serialize_pd,
    strands,
    torus_2n,
    unknot,
)
from .enhance import column_group_polynomial
from .knots import KnotRecord, builtin_knot, builtin_table
from .polynomial import ExponentPolynomial
from .quiver import ColoringQuiver, build_quiver, in_degree_polynomial, quivers_isomorphic

__all__ = [
    "AxiomError", "FiniteBiquandle", "biquandle_z",
    "column_permutation", "enumerate_endos", "enumerate_homs", "from_tables",
    "group_order", "make_conjugation_quandle", "make_dihedral", "make_linear_biquandle",
    "make_module_biquandle", "subquandle_closure", "validate_axioms",
    "b1_lower", "b2_lower", "min_seed_size", "wirtinger_saturate",
    "brute_force_colorings", "coloring_matrix", "count_colorings",
    "count_solutions_snf", "enumerate_colorings",
    "Crossing", "DiagramError", "SemiarcDiagram", "apply_r1", "apply_r2",
    "chain", "connected_sum", "parse_pd", "pretzel", "serialize_pd",
    "strands", "torus_2n", "unknot",
    "column_group_polynomial",
    "KnotRecord", "builtin_knot", "builtin_table",
    "ExponentPolynomial",
    "ColoringQuiver", "build_quiver", "in_degree_polynomial", "quivers_isomorphic",
]
