"""Biquandle colorings, coloring quivers, and bridge bounds for virtual links.

``import biqknot`` loads no submodule. A public name, or a submodule
name, imports its home module on first use (PEP 562) and is then cached
here, so ``from biqknot import X`` works as an eager import would.
"""

import importlib

# public name -> home module
_HOMES = {name: module for module, names in {
    "algebra": "AxiomError FiniteBiquandle biquandle_z column_permutation enumerate_endos "
               "enumerate_homs from_tables group_order make_conjugation_quandle make_dihedral "
               "make_linear_biquandle make_module_biquandle subquandle_closure validate_axioms",
    "bridge": "b1_lower b2_lower min_seed_size wirtinger_saturate",
    "coloring": "coloring_matrix count_colorings count_solutions_snf enumerate_colorings",
    "diagram": "Crossing DiagramError SemiarcDiagram apply_r1 apply_r2 chain connected_sum "
               "parse_pd pretzel serialize_pd strands torus_2n unknot",
    "enhance": "column_group_polynomial",
    "knots": "KnotRecord builtin_knot builtin_table",
    "polynomial": "ExponentPolynomial",
    "quiver": "ColoringQuiver build_quiver in_degree_polynomial quivers_isomorphic",
}.items() for name in names.split()}
_SUBMODULES = {*_HOMES.values(), "cli", "repro"}

__all__ = list(_HOMES)


def __getattr__(name):
    if name in _HOMES:
        value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
