"""Reference implementations shared by the tests: a graph from its edge
list and a graph's edge list, cut vectors from the definition, a point's
star over the cut order from its binary string, a triangle facet's value and dense
coefficient vector, a point permutation's action on vectors over pairs, rational row reduction, reflection matrices over
Fractions with their products, images and determinants, the ridge graph
built pair by pair, simple adjacency rows checked condition by condition,
a hypermetric sweep's verdict from its failure fields, the switching map,
a vertex permutation's image of an edge set, and the per-vertex claims
checked at every vertex instead of once per orbit.  The package computes
none of these; the tests use them as oracles."""

import itertools
from fractions import Fraction
from math import isqrt

from conesym.core import cut_members, enumerate_triangle_facets, num_pairs
from conesym.ridge import (
    Graph,
    StructureError,
    build_triangle_graph,
    find_triangles,
    intersection_array,
)


def graph_from_edges(n: int, edges=(), labels=None) -> Graph:
    """The graph on n vertices with the given edges: each edge (u, v) is
    ORed into rows u and v, and `Graph` checks the rows."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(adj, labels)


def edges_reference(graph: Graph) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, in ascending order, read off each row's
    bits above the diagonal one vertex at a time."""
    n = graph.n
    return [(u, v) for u, row in enumerate(graph.adj) for v in range(u + 1, n) if row >> v & 1]


def cut_order_star_reference(n: int, p: int) -> int:
    """The star of point p < n over the cut order, from its binary string:
    over m = c + 1, from the top bit down, 2**(p-1) ones then as many zeros,
    repeated, and shifted down by one for c = m - 1."""
    return int(("1" * 2 ** (p - 1) + "0" * 2 ** (p - 1)) * 2 ** (n - 1 - p), 2) >> 1


def cut_bits_reference(members, n) -> tuple[int, ...]:
    """The cut vector of a point set: 1 at each pair (i, j), i < j, with
    exactly one endpoint in the set, pairs in lexicographic order."""
    members = set(members)
    return tuple(
        int((i in members) != (j in members))
        for i, j in itertools.combinations(range(1, n + 1), 2)
    )


def facet_value_reference(facet, x):
    """x_ij - x_ik - x_jk for the facet with apex (i, j) and third point k."""
    if len(x) != num_pairs(facet.n):
        raise ValueError(f"vector length {len(x)} does not match n={facet.n}")
    (a, sa), (b, sb), (c, sc) = facet.entries()
    return sa * x[a] + sb * x[b] + sc * x[c]


def facet_coeffs_reference(facet) -> tuple[int, ...]:
    """The facet's dense coefficient vector over all pairs."""
    out = [0] * num_pairs(facet.n)
    for idx, sign in facet.entries():
        out[idx] = sign
    return tuple(out)


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


def _dot_reference(u, v) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def reflection_reference(alpha) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of the reflection through the hyperplane orthogonal to the
    nonzero vector alpha, v - 2 <v, alpha> / <alpha, alpha> * alpha."""
    norm = _dot_reference(alpha, alpha)
    return tuple(
        tuple(Fraction(int(r == c)) - 2 * Fraction(ar) * ac / norm for c, ac in enumerate(alpha))
        for r, ar in enumerate(alpha)
    )


def mat_vec_reference(m, v) -> tuple[Fraction, ...]:
    """The image of the vector v under the matrix with rows m."""
    return tuple(_dot_reference(row, v) for row in m)


def mat_mul_reference(a, b) -> tuple[tuple[Fraction, ...], ...]:
    """The product of the matrices with rows a and b."""
    cols = list(zip(*b))
    return tuple(tuple(_dot_reference(row, col) for col in cols) for row in a)


def det_reference(m) -> Fraction:
    """The determinant of the square matrix with rows m, by elimination."""
    rows = [list(map(Fraction, r)) for r in m]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


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
    return graph_from_edges(len(facets), edges, facets)


def simple_rows_reference(adj) -> bool:
    """True when bitmask rows describe a simple undirected graph on
    len(adj) vertices, one condition at a time: every row is non-negative
    and below 2**n, no row holds its own bit, and bit v of row u equals bit
    u of row v."""
    n = len(adj)
    return (
        all(row >= 0 for row in adj)
        and all(row < 1 << n for row in adj)
        and not any(adj[u] >> u & 1 for u in range(n))
        and all(adj[u] >> v & 1 == adj[v] >> u & 1 for u in range(n) for v in range(n))
    )


def sweep_ok_reference(sweep) -> bool:
    """A `cones.HypermetricSweep` with none of its failure fields set."""
    return not any(
        (sweep.mismatch, sweep.positive, sweep.over_bound, sweep.triangle_failure, sweep.rogue_maximizer)
    )


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


def preserves_edges_reference(graph: Graph, perm) -> bool:
    """The edge set, read pair by pair as a set of frozensets, mapped
    through the vertex permutation perm and compared with itself."""
    edges = {
        frozenset((u, v))
        for u, v in itertools.combinations(range(graph.n), 2)
        if graph.has_edge(u, v)
    }
    return {frozenset(perm[v] for v in e) for e in edges} == edges


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


def quotient_at_every_vertex(gbar: Graph) -> Graph:
    """Gamma of a complement, with the census and the quotient certified at
    every vertex, the form that needs no automorphism."""
    every = range(gbar.n)
    return build_triangle_graph(gbar, find_triangles(gbar, every), every)
