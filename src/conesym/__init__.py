"""Combinatorial certification of the symmetry groups of cut and metric cones."""

__version__ = "0.1.0"

from .core import (
    CutVector,
    Permutation,
    TriangleFacet,
    apply_permutation,
    cut_vector,
    enumerate_cuts,
    enumerate_triangle_facets,
    num_pairs,
    pair_index,
    pair_unindex,
)

__all__ = [
    "__version__",
    "CutVector",
    "Permutation",
    "TriangleFacet",
    "apply_permutation",
    "cut_vector",
    "enumerate_cuts",
    "enumerate_triangle_facets",
    "num_pairs",
    "pair_index",
    "pair_unindex",
]
