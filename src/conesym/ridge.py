"""The ridge graph of the triangle-facet cone, its complement, and the
quotient graph on Triangles, together with the structural checks on them.

Vertices of the ridge graph are the 3*C(n, 3) triangle facets; two facets are
adjacent when non-conflicting (no coordinate carries oppositely signed
entries).  The complement graph is where the structure lives: neighborhoods
decompose into hexagons, same-support facets form 3-cliques (Triangles), and
the quotient on Triangles is the 2-intersection graph on 3-subsets.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Sequence

from .core import TriangleFacet, enumerate_triangle_facets

__all__ = [
    "Graph",
    "StructureError",
    "conflicting",
    "build_complement",
    "verify_hexagon_neighborhood",
    "Triangle",
    "find_triangles",
    "group_facets_by_support",
    "build_triangle_graph",
    "verify_johnson_isomorphism",
    "verify_rook_neighborhood",
    "verify_distance2_property",
    "IntersectionArray",
    "intersection_array",
    "to_graph6",
    "edge_list_lines",
    "label_lines",
]


class StructureError(ValueError):
    """A structural claim failed; the message carries the witness, and
    `cli.run_verify` records it as the check's `fail`."""


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits(m: int):
    while m:
        lsb = m & -m
        yield lsb.bit_length() - 1
        m ^= lsb


class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitset adjacency rows.

    The rows are a tuple, so they never change after the constructor has
    checked them, and `autgrp.is_graph_automorphism` keeps its verdicts
    with the graph; labels optionally attach a facet or 3-set to each
    vertex.
    """

    __slots__ = ("n", "adj", "labels", "__weakref__")

    def __init__(self, adj: Sequence[int], labels=None):
        """The graph whose row v is the bitmask of v's neighbours.

        The rows must describe a simple undirected graph, which they do
        exactly when they equal the symmetric closure of their bits above
        the diagonal among the n vertices: a self-loop, a bit past the last
        vertex, a negative row or an edge missing from the other endpoint's
        row each make some row differ, and ValueError names the first.
        """
        adj = tuple(adj)
        n = len(adj)
        full = (1 << n) - 1
        # Each row's bits above the diagonal, to which the mirror of every
        # earlier row's is added; a row's own bits above it never change.
        closure = [row & full >> u + 1 << u + 1 for u, row in enumerate(adj)]
        for u in range(n):
            for w in _bits(closure[u] >> u + 1):
                closure[u + 1 + w] |= 1 << u
        for u, (row, mirrored) in enumerate(zip(adj, closure)):
            if row != mirrored:
                raise ValueError(
                    f"row {u} differs from the symmetric closure of the bits above the diagonal"
                )
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count does not match vertex count")
        self.n = n
        self.adj = adj
        self.labels = labels

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int):
        return _bits(self.adj[v])

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def reach(self, mask: int) -> int:
        """The union of the neighbourhood rows of the vertices in mask."""
        adj = self.adj
        out = 0
        while mask:
            lsb = mask & -mask
            out |= adj[lsb.bit_length() - 1]
            mask ^= lsb
        return out

    def layers(self, v: int) -> list[int]:
        """The vertices at distance 0, 1, ... from v, as masks, up to the
        eccentricity of v; a vertex v cannot reach is in no layer."""
        out = []
        frontier = seen = 1 << v
        while frontier:
            out.append(frontier)
            frontier = self.reach(frontier) & ~seen
            seen |= frontier
        return out

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        adj = [full & ~self.adj[v] & ~(1 << v) for v in range(self.n)]
        return Graph(adj, self.labels)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def conflicting(f: TriangleFacet, g: TriangleFacet) -> bool:
    """True when some coordinate carries nonzero entries of opposite sign.

    A facet's only +1 sits on its apex pair {i, j} and its only -1s on its
    two side pairs {i, k} and {j, k}.  So f and g conflict exactly when one
    facet's apex pair is a side pair of the other: a pair holding the
    other's third point k whose remaining point lies in the other's apex.
    """
    if f.n != g.n:
        raise ValueError("facet dimensions differ")
    fa, ga = (f.i, f.j), (g.i, g.j)
    return (g.k in fa and f.i + f.j - g.k in ga) or (f.k in ga and g.i + g.j - f.k in fa)


def build_complement(n: int) -> Graph:
    """Complement of the ridge graph: adjacent iff conflicting.

    A facet's row is the OR, over its three coordinates, of the facets
    carrying the opposite sign there; a facet has one sign per coordinate,
    so it never meets its own row."""
    if n < 4:
        raise ValueError("need n >= 4")
    facets = enumerate_triangle_facets(n)
    entries = [f.entries() for f in facets]
    # opposed[idx, sign]: the facets carrying -sign at coordinate idx
    opposed: dict[tuple[int, int], int] = {}
    for v, ent in enumerate(entries):
        for idx, sign in ent:
            opposed[idx, -sign] = opposed.get((idx, -sign), 0) | (1 << v)
    conflict = []
    for ent in entries:
        row = 0
        for e in ent:
            row |= opposed.get(e, 0)
        conflict.append(row)
    return Graph(conflict, facets)


def verify_hexagon_neighborhood(gbar: Graph, u: int) -> None:
    """Check that the neighborhood of u decomposes as n-3 hexagons sharing
    one edge whose endpoints carry the same support 3-set as u.

    The shared edge is read off the labels: u's two same-support
    neighbours u1 < u2 must be adjacent.  The other 4(n-3) neighbours must
    fall into 4-vertex paths, one end adjacent to u1 alone, the other to u2
    alone, and no interior vertex adjacent to either; so there are n-3
    paths.  Then u1 and u2 have n-2 neighbours inside N(u) and every other
    neighbour has 2, so for n >= 5 the shared edge is also the unique edge
    of top induced degree, the one a census of N(u) would pick out.

    Raises StructureError with a witness when the decomposition fails.
    """
    if gbar.labels is None:
        raise ValueError("complement graph must carry facet labels")
    n = gbar.labels[0].n
    adj = gbar.adj
    nb = adj[u]
    expected = 2 + 4 * (n - 3)
    if nb.bit_count() != expected:
        raise StructureError(f"vertex {u}: neighborhood size {nb.bit_count()} != {expected}")

    support = gbar.labels[u].support
    pair = [v for v in _bits(nb) if gbar.labels[v].support == support]
    if len(pair) != 2 or not gbar.has_edge(*pair):
        raise StructureError(f"vertex {u}: same-support neighbours {pair} are not an edge")
    u1, u2 = pair

    rest = nb & ~(1 << u1) & ~(1 << u2)
    while rest:
        # The component of the lowest vertex left.
        comp = 0
        frontier = rest & -rest
        while frontier:
            comp |= frontier
            frontier = gbar.reach(frontier) & rest & ~comp
        rest &= ~comp
        verts = list(_bits(comp))
        degs = [(adj[v] & comp).bit_count() for v in verts]
        if sorted(degs) != [1, 1, 2, 2]:
            raise StructureError(f"vertex {u}: component {verts} is not a 4-path")
        ends = [v for v, deg in zip(verts, degs) if deg == 1]
        a_end = [v for v in ends if gbar.has_edge(v, u1) and not gbar.has_edge(v, u2)]
        d_end = [v for v in ends if gbar.has_edge(v, u2) and not gbar.has_edge(v, u1)]
        if len(a_end) != 1 or len(d_end) != 1:
            raise StructureError(
                f"vertex {u}: path endpoints {ends} do not close a hexagon over ({u1}, {u2})"
            )
        a, d = a_end[0], d_end[0]
        if comp & ~(1 << a) & ~(1 << d) & (adj[u1] | adj[u2]):
            raise StructureError(f"vertex {u}: chord from path interior to ({u1}, {u2})")


class Triangle(NamedTuple):
    """The 3-clique of same-support facets in the complement graph."""

    vertices: tuple[int, int, int]
    support: frozenset[int]


def group_facets_by_support(gbar: Graph) -> list[Triangle]:
    """Triangles read off the facet labels (the algebraic grouping)."""
    groups: dict[frozenset, list[int]] = {}
    for v, f in enumerate(gbar.labels):
        groups.setdefault(f.support, []).append(v)
    out = []
    for support, verts in groups.items():
        if len(verts) != 3:
            raise StructureError(f"support {sorted(support)} has {len(verts)} facets")
        out.append(Triangle(tuple(sorted(verts)), support))
    out.sort(key=lambda t: sorted(t.support))
    return out


def find_triangles(gbar: Graph, vertices: Sequence[int]) -> list[Triangle]:
    """The Triangles read off the facet labels (`group_facets_by_support`),
    certified by the common-neighbour census at each vertex in `vertices`.

    For n >= 5 a Triangle edge has n - 2 common neighbours and every other
    edge 2.  At a given vertex an edge with another count is refused, naming
    it, and the (n - 2)-count edges must join the vertex to exactly its two
    same-support facets.  The claim reads adjacency and supports, so an
    automorphism that moves labels by a point permutation carries it from a
    vertex to its image: at the orbit representatives of such automorphisms
    (`autgrp.orbit_representatives`) it holds at every vertex, and
    `range(gbar.n)` checks every vertex.  At n = 4 both counts are 2 and the
    grouping is returned as is.  Raises ValueError for empty `vertices`.
    """
    if gbar.labels is None:
        raise ValueError("complement graph must carry facet labels")
    if not vertices:
        raise ValueError("find_triangles needs at least one vertex")
    triangles = group_facets_by_support(gbar)
    n = gbar.labels[0].n
    if n == 4:
        return triangles
    adj = gbar.adj
    partner = {}
    for a in vertices:
        row, partner[a] = adj[a], 0
        for b in _bits(row):
            count = (row & adj[b]).bit_count()
            if count == n - 2:
                partner[a] |= 1 << b
            elif count != 2:
                raise StructureError(
                    f"edge {tuple(sorted((a, b)))} has {count} common neighbors,"
                    f" expected {n - 2} or 2"
                )
    cells = {t.support: _mask_of(t.vertices) for t in triangles}
    for a in vertices:
        if partner[a] != cells[gbar.labels[a].support] & ~(1 << a):
            raise StructureError(
                f"{n - 2}-count edges at vertex {a} do not join it to its two same-support facets"
            )
    return triangles


def _label_cliques(keys: Sequence[int]) -> dict[int, int]:
    """For each key less one point, the mask of the indices whose keys hold
    it, in order of first occurrence: over 3-set keys the lines of Gamma,
    keyed by their 2-sets, and over the lines' 2-set keys the stars, keyed
    by their points."""
    cliques: dict[int, int] = {}
    for i, key in enumerate(keys):
        for p in _bits(key):
            cliques[key ^ 1 << p] = cliques.get(key ^ 1 << p, 0) | 1 << i
    return cliques


def _quotient_row(gbar: Graph, masks: Sequence[int], owner: Sequence[int], a: int) -> int:
    """The Triangles that complement edges join to Triangle a, as a mask,
    each pair checked by the quotient rule.

    `masks[i]` is Triangle i's vertex mask and `owner[v]` the Triangle
    holding v, or -1.  Two joined Triangles must be joined by exactly 4
    cross edges forming two disjoint 2-paths.  The cross edges of A and B
    are read off popcounts: u in A has |adj[u] & B| of them.  Two disjoint
    2-paths on the 3 + 3 vertices of a bipartite graph have one centre on
    each side, so each side's popcounts are {2, 1, 1} and the centres are
    not adjacent.  Conversely, with those popcounts and non-adjacent
    centres, each centre reaches the other side's two degree-1 vertices,
    which uses all 4 edges.  The popcounts alone also admit a 3-edge path
    through both centres plus one disjoint edge.  A pair is named with its
    lower Triangle first, whichever of the two is a.
    """
    adj = gbar.adj
    # One step per Triangle reached: the lowest reached vertex names it, and
    # its whole mask is cleared.  A vertex in no Triangle clears its own bit.
    reach, row = gbar.reach(masks[a]) & ~masks[a], 0
    while reach:
        w = (reach & -reach).bit_length() - 1
        b = owner[w]
        if b < 0:
            reach ^= 1 << w
            continue
        reach &= ~masks[b]
        row |= 1 << b
    for b in _bits(row):
        x, y = sorted((a, b))
        vx, vy = list(_bits(masks[x])), list(_bits(masks[y]))
        deg_x = [(adj[u] & masks[y]).bit_count() for u in vx]
        if sum(deg_x) != 4:
            raise StructureError(
                f"Triangles {x} and {y} joined by {sum(deg_x)} edges, expected 0 or 4"
            )
        deg_y = [(adj[w] & masks[x]).bit_count() for w in vy]
        if sorted(deg_x) != [1, 1, 2] or sorted(deg_y) != [1, 1, 2]:
            raise StructureError(
                f"Triangles {x} and {y}: cross degrees {deg_x} and {deg_y}"
                " are not those of two disjoint 2-paths"
            )
        centre_x, centre_y = vx[deg_x.index(2)], vy[deg_y.index(2)]
        if adj[centre_x] >> centre_y & 1:
            raise StructureError(
                f"Triangles {x} and {y}: centres {centre_x} and {centre_y} are adjacent,"
                " so the cross edges are a 3-path and an edge"
            )
    return row


def build_triangle_graph(
    gbar: Graph, triangles: Sequence[Triangle], vertices: Sequence[int]
) -> Graph:
    """The quotient graph on Triangles, labelled by their supports: two are
    adjacent when their supports meet in 2 points.  The row of the Triangle
    holding each vertex in `vertices` must be the Triangles that cross edges
    join to it (`_quotient_row`).  The Triangles must be the support classes
    `find_triangles` returns, so an automorphism that moves labels by a point
    permutation maps Triangles to Triangles and keeps cross edges and
    meetings: at its orbit representatives every row is certified, and
    `range(gbar.n)` checks every Triangle.  Raises ValueError for empty
    `vertices`.
    """
    if not vertices:
        raise ValueError("build_triangle_graph needs at least one vertex")
    masks = [_mask_of(t.vertices) for t in triangles]
    owner = [-1] * gbar.n
    for i, t in enumerate(triangles):
        for v in t.vertices:
            owner[v] = i
    # A row is the union of the lines through its Triangle, less itself.
    keys = [_mask_of(t.support) for t in triangles]
    lines = _label_cliques(keys)
    rows = []
    for i, key in enumerate(keys):
        row = 0
        for p in _bits(key):
            row |= lines[key ^ 1 << p]
        rows.append(row & ~(1 << i))
    for a in sorted({owner[v] for v in vertices} - {-1}):
        row = _quotient_row(gbar, masks, owner, a)
        if row != rows[a]:
            raise StructureError(
                f"Triangle {a}: cross edges join it to Triangles {list(_bits(row))},"
                f" not to the {rows[a].bit_count()} whose supports meet its own in 2 points"
            )
    return Graph(rows, [t.support for t in triangles])


def verify_johnson_isomorphism(gamma: Graph, n: int, vertices: Sequence[int]) -> bool:
    """The support labeling is an isomorphism onto the graph on 3-subsets
    with adjacency 'intersect in a 2-subset'.

    Once the labels are the 3-subsets, the adjacency row of each vertex in
    `vertices` must be the set of vertices whose labels meet its own in 2
    points; `range(gamma.n)` checks every pair.  An automorphism that maps
    the vertex labelled L to the one labelled pi(L), pi a point
    permutation, carries one such row onto another, since pi keeps
    intersection sizes, so the orbit representatives of such automorphisms
    (`autgrp.orbit_representatives`) decide every row.  Raises ValueError
    when `vertices` is empty, which would pass vacuously."""
    if not vertices:
        raise ValueError("verify_johnson_isomorphism needs at least one vertex")
    labels = gamma.labels
    if labels is None:
        return False
    if set(labels) != {frozenset(c) for c in itertools.combinations(range(1, n + 1), 3)}:
        return False
    for a in vertices:
        row = _mask_of(b for b, label in enumerate(labels) if len(labels[a] & label) == 2)
        if gamma.adj[a] != row:
            return False
    return True


def verify_rook_neighborhood(gamma: Graph, v: int) -> bool:
    """The neighborhood of v is the 3 x (n-3) rook graph under the coordinate
    map w -> (dropped point of v, added point).

    A neighbour's row within N(v) must be the neighbours sharing exactly
    one coordinate with it: the symmetric difference of its row and its
    column."""
    base = gamma.labels[v]
    coords = {}
    same_dropped: dict[int, int] = {}
    same_added: dict[int, int] = {}
    for w in gamma.neighbors(v):
        dropped = base - gamma.labels[w]
        added = gamma.labels[w] - base
        if len(dropped) != 1 or len(added) != 1:
            return False
        p, q = coords[w] = (next(iter(dropped)), next(iter(added)))
        same_dropped[p] = same_dropped.get(p, 0) | (1 << w)
        same_added[q] = same_added.get(q, 0) | (1 << w)
    nb = gamma.adj[v]
    return all(
        gamma.adj[w] & nb == same_dropped[p] ^ same_added[q] for w, (p, q) in coords.items()
    )


def verify_distance2_property(gamma: Graph, v: int) -> bool:
    """Each vertex at distance 2 from v meets the neighborhood of v in
    exactly 4 vertices, and those 4-sets are pairwise distinct.  The vertices
    at distance 2 are those the neighbours reach, less v and its neighbours."""
    adj = gamma.adj
    foursets = []
    for w in _bits(gamma.reach(adj[v]) & ~adj[v] & ~(1 << v)):
        common = adj[w] & adj[v]
        if common.bit_count() != 4:
            return False
        foursets.append(common)
    return len(set(foursets)) == len(foursets)


class IntersectionArray(NamedTuple):
    bs: tuple[int, ...]
    cs: tuple[int, ...]

    def __str__(self) -> str:
        return "{%s; %s}" % (",".join(map(str, self.bs)), ",".join(map(str, self.cs)))


def intersection_array(gamma: Graph, vertices: Sequence[int]) -> IntersectionArray:
    """Verify distance-regularity by a distance census from each vertex in
    `vertices` and return the parameters; raises StructureError when the
    census is inconsistent.  `range(gamma.n)` gives the exhaustive census.

    An automorphism g keeps distances and the counts b and c the census
    reads, so the pair (v, w) reads what (g v, g w) reads, and the census
    from the orbit representatives of a group of automorphisms
    (`autgrp.orbit_representatives`) checks every pair.  It also returns
    what the exhaustive census returns or raises the same error: the first
    pair at each distance and the first inconsistent pair of the
    exhaustive census start at the least vertex of their orbit, which is a
    representative, and eccentricities, hence the diameter, are kept.
    Raises ValueError when `vertices` is empty.
    """
    if not gamma.n:
        raise StructureError("the empty graph has no intersection array")
    if not vertices:
        raise ValueError("intersection_array needs at least one vertex")
    all_layers = [gamma.layers(v) for v in vertices]
    # The layers are disjoint, so their sum is the set the first vertex reaches.
    if sum(all_layers[0]) != (1 << gamma.n) - 1:
        raise StructureError("graph is not connected")
    diameter = max(map(len, all_layers)) - 1
    bs: list[int | None] = [None] * diameter
    cs: list[int | None] = [None] * diameter
    adj = gamma.adj
    for v, layer in zip(vertices, all_layers):
        # layer[d] is the set of vertices at distance d from v.  The empty layer
        # appended is read where the eccentricity of v is below the diameter.
        dist = {w: d for d, mask in enumerate(layer) for w in _bits(mask)}
        layer.append(0)
        for w in range(gamma.n):
            d = dist[w]
            if w == v:
                continue
            nearer = (adj[w] & layer[d - 1]).bit_count()
            if cs[d - 1] is None:
                cs[d - 1] = nearer
            elif cs[d - 1] != nearer:
                raise StructureError(
                    f"not distance-regular: c_{d} differs at pair ({v}, {w})"
                )
            if d < diameter:
                farther = (adj[w] & layer[d + 1]).bit_count()
                if bs[d] is None:
                    bs[d] = farther
                elif bs[d] != farther:
                    raise StructureError(
                        f"not distance-regular: b_{d} differs at pair ({v}, {w})"
                    )
    # A graph that passes the census is regular.  At diameter 1 it is
    # complete.  At diameter 2 or more, an edge vw gives
    # deg w = 1 + |N(v) & N(w)| + b_1 = deg v, and the graph is connected.
    return IntersectionArray((gamma.degree(0), *bs[1:]), tuple(cs))


def to_graph6(graph: Graph) -> str:
    """Standard graph6 encoding (header-free), for up to 258047 vertices."""
    n = graph.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for this encoder")
    # Column j holds the bits of row j below the diagonal, vertex 0 first.
    adj = graph.adj
    bits = "".join(format(adj[j] & ~(-1 << j), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(int(bits[k : k + 6], 2) + 63) for k in range(0, len(bits), 6))


def edge_list_lines(graph: Graph) -> Iterator[str]:
    """One 'u v' line per edge, 0-based, ascending, newline-terminated, and
    yielded row by row: one string per vertex u, holding its edges to higher
    vertices, so that a writer holds one row at a time."""
    for u, row in enumerate(graph.adj):
        row >>= u + 1
        if row:
            yield "".join(f"{u} {u + 1 + w}\n" for w in _bits(row))


def label_lines(graph: Graph) -> list[str]:
    """Sidecar vertex labels: facets as 'v i j k a b' (support then apex
    pair), 3-sets as 'v i j k'."""
    if graph.labels is None:
        return []
    lines = []
    for v, lab in enumerate(graph.labels):
        if isinstance(lab, TriangleFacet):
            i, j, k = sorted(lab.support)
            a, b = lab.apex
            lines.append(f"{v} {i} {j} {k} {a} {b}")
        else:
            i, j, k = sorted(lab)
            lines.append(f"{v} {i} {j} {k}")
    return lines
