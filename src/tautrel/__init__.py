"""Exact symbolic calculus for psi-decorated boundary classes on moduli of curves."""

from .graphs import (
    EXTRA,
    DecoratedGraph,
    DualGraph,
    GraphBuilder,
    automorphism_order,
    canonical_key,
    graph_from_key,
    leg_kind,
    validate,
)
from .expressions import (
    Ambient,
    Expression,
    expression_from_json,
    expression_to_json,
    from_terms,
    make_ambient,
    parse_bracket,
    render_bracket,
    render_latex,
    zero,
)
from .pushforward import d_set, forget_extra_legs, forget_frozen_legs, string_table
from .treeclass import (
    TreeShape,
    acceptable_assignments,
    enumerate_shapes,
    extra_count_bounds,
    weighted_tree_class,
)
from .reduce import (
    RelationBasis,
    ZeroCertificate,
    choose_partner_pair,
    eliminate_all_psi,
    generate_wdvv_relations,
    integrate,
    pair_with_psi_monomials,
    psi_reduce_genus0,
    psi_reduce_genus1,
    span_zero_test,
    vertex_integral,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
