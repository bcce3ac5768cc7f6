"""Exact computations in the descent algebra of the symmetric group.

The pieces fit together like this: generator subsets correspond to
compositions of n (``combinatorics``); each composition indexes a set of
minimal coset representatives cut out by an ascent test (``cosets``) and a
basis element of the descent algebra (``algebra``).  Basis products expand
over margin matrices, and everything can be cross-checked against a
brute-force product in the integer group algebra (``perms``).
"""

from .algebra import (
    DescentElement,
    basis_element,
    counting_identity_holds,
    element_multiply,
    identity_element,
    left_rep_count,
    oracle_agrees,
    oracle_mismatch,
    oracle_multiply,
    reading_multinomial_sum,
    solomon_multiply,
    structure_constants,
    structure_records,
    to_group_algebra,
    write_structure_csv,
)
from .backend import backend_name
from .combinatorics import (
    Composition,
    GeneratorSubset,
    MarginMatrix,
    OrderedPresentation,
    SubsetGraph,
    all_compositions,
    all_generator_subsets,
    composition_to_subset,
    contingency_tables,
    graph_of_subset,
    ordered_presentation,
    subset_to_composition,
    to_dot,
)
from .cosets import (
    LEMMA_DEGREE_DEFAULT,
    PARABOLIC_DEGREE_DEFAULT,
    PairReport,
    enumerate_double_set,
    enumerate_left_reps,
    intersection_table,
    is_left_rep,
    predicted_presentation,
    verify_subset_pair,
)
from .perms import (
    BASIS_DEGREE_MAX,
    ORACLE_DEGREE_DEFAULT,
    GroupAlgebraElement,
    Permutation,
    algebra_multiply,
    enumerate_group,
)

__version__ = "0.1.0"

__all__ = [
    "BASIS_DEGREE_MAX",
    "Composition",
    "DescentElement",
    "GeneratorSubset",
    "GroupAlgebraElement",
    "LEMMA_DEGREE_DEFAULT",
    "MarginMatrix",
    "ORACLE_DEGREE_DEFAULT",
    "OrderedPresentation",
    "PARABOLIC_DEGREE_DEFAULT",
    "PairReport",
    "Permutation",
    "SubsetGraph",
    "algebra_multiply",
    "all_compositions",
    "all_generator_subsets",
    "backend_name",
    "basis_element",
    "composition_to_subset",
    "contingency_tables",
    "counting_identity_holds",
    "element_multiply",
    "enumerate_double_set",
    "enumerate_group",
    "enumerate_left_reps",
    "graph_of_subset",
    "identity_element",
    "intersection_table",
    "is_left_rep",
    "left_rep_count",
    "oracle_agrees",
    "oracle_mismatch",
    "oracle_multiply",
    "ordered_presentation",
    "predicted_presentation",
    "reading_multinomial_sum",
    "solomon_multiply",
    "structure_constants",
    "structure_records",
    "subset_to_composition",
    "to_dot",
    "to_group_algebra",
    "verify_subset_pair",
    "write_structure_csv",
]
