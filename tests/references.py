"""Reference implementations shared by the tests: cut vectors from the
definition, a point permutation's action on vectors over pairs, rational
row reduction, the rational image of a vector under a (den, entries)
matrix, the ridge graph built pair by pair, the switching map, and the
per-vertex claims checked at every vertex instead of once per orbit.  The
package computes none of these; the tests use them as oracles."""

import itertools
from fractions import Fraction
from math import isqrt

from conesym.core import cut_members, enumerate_triangle_facets, num_pairs
from conesym.ridge import Graph, StructureError, intersection_array


def cut_bits_reference(members, n) -> tuple[int, ...]:
    """The cut vector of a point set: 1 at each pair (i, j), i < j, with
    exactly one endpoint in the set, pairs in lexicographic order."""
    members = set(members)
    return tuple(
        int((i in members) != (j in members))
        for i, j in itertools.combinations(range(1, n + 1), 2)
    )


def permute_pairs_reference(sigma, v) -> tuple:
    """The vector over pairs whose entry at (sigma(i), sigma(j)) is the
    entry of v at (i, j), sigma being a permutation of the points given as
    an image tuple on 0..n-1: point p goes to sigma[p - 1] + 1."""
    pairs = list(itertools.combinations(range(1, len(sigma) + 1), 2))
    moved = {frozenset((sigma[i - 1] + 1, sigma[j - 1] + 1)): x for (i, j), x in zip(pairs, v)}
    return tuple(moved[frozenset(p)] for p in pairs)


def cut_order_reference(n: int) -> list[tuple[int, ...]]:
    """The cut vector of every cut, in the order of `cut_members(n)`."""
    return [cut_bits_reference(members, n) for members in cut_members(n)]


def kernel_basis_reference(rows) -> list[tuple[Fraction, ...]]:
    """Basis of the rational null space of a matrix, via reduced row echelon."""
    m = [[Fraction(v) for v in r] for r in rows]
    if not m:
        return []
    n_cols = len(m[0])
    if any(len(r) != n_cols for r in m):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        piv_row = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv_row is None:
            continue
        m[row], m[piv_row] = m[piv_row], m[row]
        piv = m[row][col]
        m[row] = [v / piv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r, piv_col in enumerate(pivots):
            vec[piv_col] = -m[r][free]
        basis.append(tuple(vec))
    return basis


def mat_vec_reference(m, v) -> tuple[Fraction, ...]:
    """The image of the vector v under the matrix m = (den, entries), as
    exact Fractions."""
    den, entries = m
    dim = isqrt(len(entries))
    return tuple(
        Fraction(sum(a * b for a, b in zip(entries[k:k + dim], v)), den)
        for k in range(0, dim * dim, dim)
    )


def build_ridge_graph_reference(n: int) -> Graph:
    """Graph on the triangle facets, adjacent iff non-conflicting: no
    coordinate carries entries of opposite sign, tested pair by pair."""
    facets = enumerate_triangle_facets(n)
    signs = [dict(f.entries()) for f in facets]
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(len(facets)), 2)
        if all(signs[b].get(idx, sign) == sign for idx, sign in signs[a].items())
    ]
    return Graph(len(facets), edges, facets)


def switching_reflection_reference(members, x) -> tuple:
    """Replace x_ij by 1 - x_ij on the coordinates cut by the point set.

    An involution; coordinates off the cut are unchanged.  Exact for integer
    and rational entries alike.
    """
    n = (1 + isqrt(1 + 8 * len(x))) // 2
    if num_pairs(n) != len(x):
        raise ValueError(f"length {len(x)} is not C(n, 2) for any n")
    cut = cut_bits_reference(members, n)
    return tuple(1 - val if c else val for c, val in zip(cut, x))


def every_vertex_census_reference(graph: Graph):
    """The distance census from every vertex of the graph."""
    return intersection_array(graph, range(graph.n))


def johnson_isomorphism_reference(gamma: Graph, n: int) -> bool:
    """Every pair of vertices compared with the 2-intersection rule on their
    labels, which must be the 3-subsets of 1..n."""
    labels = gamma.labels
    if labels is None:
        return False
    if set(labels) != {frozenset(c) for c in itertools.combinations(range(1, n + 1), 3)}:
        return False
    return all(
        gamma.has_edge(a, b) == (len(labels[a] & labels[b]) == 2)
        for a, b in itertools.combinations(range(gamma.n), 2)
    )


def first_failure_reference(graph: Graph, claim, vertices=None):
    """The first vertex v at which `claim(graph, v)` is false, with None, or
    raises StructureError, with its message; None when the claim holds at
    every vertex.  `vertices` replaces the vertices scanned, in order."""
    for v in range(graph.n) if vertices is None else vertices:
        try:
            if not claim(graph, v):
                return v, None
        except StructureError as exc:
            return v, str(exc)
    return None
