"""Graph automorphism groups by partition refinement with individualization,
and exact permutation-group orders via a stabilizer chain.

The search serves the Theorem 1 graphs at n <= 6 and any graph the caller
brings.  From n = 7 on, `clique_chain_groups` certifies Aut(Gbar_n) and
Aut(Gamma_n) without it: the Triangles and their 2-path centres embed
Aut(Gbar_n) in Aut(Gamma_n), the lines and stars of Gamma_n (the maximal
cliques of J(n, 3) and of the triangular graph T(n)) bound that by n!, and
the point seeds, checked edge by edge, reach n! on the n stars.  Aut J(n, 3)
is Sym(n) for n != 6 (Brouwer, Cohen and Neumaier, *Distance-Regular
Graphs*, 1989, section 9.1); the chain derives the bound again at each n.

The search keeps the leftmost root-to-leaf path of the individualization tree
as the reference: a leaf discretizes the partition, and the positional map
from the reference leaf to another leaf is an automorphism candidate that is
verified edge-by-edge before use.  Pruning is fourfold and sound:

* nodes whose refined cell-size trace differs from the reference path cannot
  lead to a matching leaf (refinement is equivariant);
* siblings along the reference path are skipped when a known automorphism
  fixing the individualized prefix maps an explored sibling onto them;
* once a subtree has produced an automorphism the search returns to the
  deepest ancestor on the reference path;
* automorphisms known in advance, each checked edge by edge, are sifted into
  the chain at the reference leaf, so the sibling pruning above uses them
  from the start and the search only looks for what they do not generate
  (McKay & Piperno, *Practical graph isomorphism II*, 2014).

Orders are never counted by element enumeration: every discovered generator
is sifted into a stabilizer chain whose base is the reference path, and the
group order is the product of the orbit sizes.  Each level of the chain stores
the inverse coset representatives u_x^-1, the only form sifting divides by
(Seress, *Permutation Group Algorithms*, 2003, section 4.1); a sift through a
level whose base point the permutation already fixes composes nothing, since
that representative is the identity.
"""

from __future__ import annotations

import weakref
from collections import deque
from itertools import combinations
from math import factorial
from operator import itemgetter
from typing import NamedTuple, Sequence

from .core import TriangleFacet, _points
from .ridge import (
    Graph,
    StructureError,
    Triangle,
    _bits,
    _label_cliques,
    _mask_of,
    build_complement,
    build_triangle_graph,
    find_triangles,
)

__all__ = [
    "AUT_VERTEX_CAP",
    "PermGroup",
    "ResourceLimitError",
    "group_order",
    "automorphism_group",
    "is_graph_automorphism",
    "orbit_representatives",
    "symn_point_generators",
    "induced_point_generators",
    "CLIQUE_CHAIN_MIN_N",
    "clique_chain_groups",
    "Theorem1Report",
    "certify_theorem1",
    "verify_theorem1",
]


# `automorphism_group` refuses graphs above this many vertices, by default in
# the library and on the command line.  From n = CLIQUE_CHAIN_MIN_N on, the
# Theorem 1 groups come from `clique_chain_groups`, which needs no search and
# no cap, so the cap bounds only the searches at n <= 6 (60 vertices at most).
AUT_VERTEX_CAP = 500
CLIQUE_CHAIN_MIN_N = 7


class ResourceLimitError(RuntimeError):
    """The graph exceeds the configured vertex cap."""


def _mult(p, q) -> tuple[int, ...]:
    """Apply p, then q.  Both have degree at least 2: only chains holding a
    non-identity permutation compose."""
    return itemgetter(*p)(q)


def _inverse(p) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, img in enumerate(p):
        inv[img] = i
    return tuple(inv)


class _StabilizerChain:
    """One level of a base-and-strong-generating-set: the base point, the
    generators tagged at this level, the inverse coset representatives for
    the orbit of the base point, and the chain stabilizing it.

    `transversal[x]` is the inverse of the coset representative u_x that
    maps the base point to x; sifting only ever needs the inverse.  `_done`
    maps each generator acting at this level to its inverse and the points
    whose Schreier generator has been pushed down."""

    __slots__ = ("degree", "identity", "base_point", "gens", "transversal", "sub", "_done")

    def __init__(self, degree: int, base_hint: Sequence[int] = ()):
        self.degree = degree
        self.identity = tuple(range(degree))
        self.base_point = None
        self.gens: list[tuple[int, ...]] = []
        self.transversal: dict[int, tuple[int, ...]] | None = None
        self.sub: _StabilizerChain | None = None
        self._done: dict[tuple[int, ...], tuple[tuple[int, ...], bytearray]] = {}
        if base_hint:
            self.base_point = base_hint[0]
            self.transversal = {base_hint[0]: self.identity}
            self.sub = _StabilizerChain(degree, base_hint[1:])

    def order(self) -> int:
        if self.base_point is None:
            return 1
        return len(self.transversal) * self.sub.order()

    def generators(self) -> list[tuple[int, ...]]:
        if self.base_point is None:
            return list(self.gens)
        return self.sub.generators() + self.gens

    def subchain(self, depth: int) -> "_StabilizerChain":
        chain = self
        for _ in range(depth):
            if chain.base_point is None:
                break
            chain = chain.sub
        return chain

    def sift(self, p):
        chain = self
        while chain.base_point is not None:
            x = p[chain.base_point]
            # u_x is the identity at the base point itself: nothing to divide.
            if x != chain.base_point:
                inv = chain.transversal.get(x)
                if inv is None:
                    return p
                p = _mult(p, inv)
            chain = chain.sub
        return p

    def add(self, p) -> bool:
        """Sift p in; returns True when the group grew."""
        residue = self.sift(p)
        if residue == self.identity:
            return False
        self._insert(residue)
        return True

    def _insert(self, gen):
        # gen is a non-member fixing every base point above this level
        if self.base_point is None:
            self.base_point = next(i for i, img in enumerate(gen) if img != i)
            self.transversal = {self.base_point: self.identity}
            self.sub = _StabilizerChain(self.degree)
        if gen[self.base_point] == self.base_point:
            self.sub._insert(gen)
        else:
            self.gens.append(gen)
        self._close()

    def _close(self):
        """Re-close the orbit with the enlarged generator set and push the
        new Schreier generators u_x g u_{xg}^-1 down the chain.

        Existing transversal entries are kept, so a (point, generator) pair
        yields the same Schreier generator on every pass and processed pairs
        can be skipped: the subchain only ever grows.  A generator is hashed
        once per pass, not once per pair, and inverted once per level.  The
        pair that defines u_{xg} = u_x g is marked processed at once, its
        Schreier generator being the identity.
        """
        done = self._done
        pairs = []
        for g in self.generators():
            entry = done.get(g)
            if entry is None:
                entry = done[g] = (_inverse(g), bytearray(self.degree))
            pairs.append((g, *entry))
        inv = self.transversal
        queue = deque(sorted(inv))
        while queue:
            x = queue.popleft()
            for g, g_inv, seen in pairs:
                y = g[x]
                if y not in inv:
                    # (u_x g)^-1 = g^-1 u_x^-1
                    inv[y] = _mult(g_inv, inv[x])
                    seen[x] = 1
                    queue.append(y)
        for x in sorted(inv):
            ux = None
            for g, _, seen in pairs:
                if seen[x]:
                    continue
                seen[x] = 1
                if ux is None:
                    ux = _inverse(inv[x])
                schreier = _mult(_mult(ux, g), inv[g[x]])
                if schreier != self.identity:
                    self.sub.add(schreier)


class PermGroup(NamedTuple):
    """A permutation group given by generators, with its exact order.

    The first `seeds` generators are automorphisms the search was given in
    advance, and `seed_order` is the exact order of the group they generate
    (1 for an unseeded search)."""

    degree: int
    generators: tuple[tuple[int, ...], ...]
    order: int
    seeds: int = 0
    seed_order: int = 1


def _is_permutation(p: Sequence[int], degree: int) -> bool:
    """p is an image tuple on 0..degree-1 whose images are ints, not bools."""
    ints = all(isinstance(x, int) and not isinstance(x, bool) for x in p)
    return ints and len(p) == degree and set(p) == set(range(degree))


def group_order(gens: Sequence[Sequence[int]], degree: int | None = None) -> int:
    """Exact order of the group generated by the given permutations."""
    gens = [tuple(g) for g in gens]
    if degree is None:
        if not gens:
            return 1
        degree = len(gens[0])
    if not all(_is_permutation(g, degree) for g in gens):
        raise ValueError("generators must be permutations of 0..degree-1")
    chain = _StabilizerChain(degree)
    for g in gens:
        chain.add(g)
    return chain.order()


def _moved(perm: Sequence[int], mask: int) -> int:
    """The image under perm of the set of points in mask."""
    out = 0
    while mask:
        lsb = mask & -mask
        out |= 1 << perm[lsb.bit_length() - 1]
        mask ^= lsb
    return out


def _preserves_adjacency(adj: Sequence[int], perm: Sequence[int]) -> bool:
    """Every edge uv, u < v, visited once, maps to an edge.  For a bijection
    perm that is the whole check: it maps distinct edges to distinct vertex
    pairs, so the images are as many edges as there are, which makes them
    the edge set, and non-edges go to non-edges.  An edge whose endpoints
    perm both fixes maps to itself, so only edges with a moved endpoint are
    walked."""
    moved = _mask_of(v for v, w in enumerate(perm) if v != w)
    for u, row in enumerate(adj):
        pu = perm[u]
        image = adj[pu]
        if pu == u:
            row &= moved
        row >>= u + 1
        v = u
        while row:
            lsb = row & -row
            step = lsb.bit_length()
            v += step
            row >>= step
            if not image >> perm[v] & 1:
                return False
    return True


# Per graph, the verdict of `_preserves_adjacency` on each permutation walked.
# A graph's rows are a tuple, so a verdict stays true while the graph lives.
_verdicts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def is_graph_automorphism(graph: Graph, perm: Sequence[int]) -> bool:
    """True when perm is a bijection of the vertices, with int images, that
    preserves adjacency, checked edge by edge (`_preserves_adjacency`).

    The edges are walked once per graph and permutation: the verdict is
    kept with the graph and read on every later call.  The images are
    checked on every call first, since a float image hashes and compares
    equal to its int twin."""
    perm = tuple(perm)
    if not _is_permutation(perm, graph.n):
        return False
    verdicts = _verdicts.setdefault(graph, {})
    ok = verdicts.get(perm)
    if ok is None:
        ok = verdicts[perm] = _preserves_adjacency(graph.adj, perm)
    return ok


def orbit_representatives(graph: Graph, generators: Sequence[Sequence[int]]) -> list[int]:
    """The least vertex of each orbit of the group the automorphisms among
    `generators` generate, ascending.

    A generator that fails `is_graph_automorphism` is dropped, so with none
    left every vertex is its own representative.  A claim at a vertex that
    every automorphism carries to the same claim at its image holds at every
    vertex once it holds at these.  Scanning them in ascending order finds
    the same first failing vertex as scanning every vertex: the least
    failing vertex is the least of its orbit, which fails with it.
    """
    gens = [tuple(g) for g in generators if is_graph_automorphism(graph, g)]
    return [(orbit & -orbit).bit_length() - 1 for orbit in _orbits(gens, graph.n)]


def _orbit(gens: Sequence[Sequence[int]], seeds: Sequence[int]) -> int:
    """Bitmask of the union of the orbits of `seeds` under the group that
    `gens` generate: the seeds' closure under the generators, by breadth-first
    search (Seress, *Permutation Group Algorithms*, 2003, section 4.1)."""
    mask = _mask_of(seeds)
    queue = list(seeds)
    for x in queue:
        for g in gens:
            y = g[x]
            if not mask >> y & 1:
                mask |= 1 << y
                queue.append(y)
    return mask


def _orbits(gens: Sequence[Sequence[int]], degree: int) -> list[int]:
    """Bitmasks of the orbits of the group that `gens` generate on the points
    0..degree-1, in order of least element."""
    orbits, seen = [], 0
    for v in range(degree):
        if not seen >> v & 1:
            orbits.append(_orbit(gens, [v]))
            seen |= orbits[-1]
    return orbits


class _AutomorphismSearch:
    def __init__(self, graph: Graph, known: Sequence[tuple[int, ...]] = ()):
        self.graph = graph
        self.n = graph.n
        self.known = known
        self.generators: list[tuple[int, ...]] = []
        self.seeds = 0
        self.seed_order = 1
        self.first_shapes: list[tuple[int, ...]] = []
        self.first_branch: list[int] = []
        self.first_leaf: tuple[int, ...] | None = None
        self.chain: _StabilizerChain | None = None
        self.branch: list[int] = []

    def run(self) -> PermGroup:
        # The empty vertex set is partitioned into no cells.
        cells = self._refine([list(range(self.n))] if self.n else [], [(1 << self.n) - 1])
        self._explore(cells, 0, True)
        # The reference path always ends at a leaf, so the chain exists.
        order = self.chain.order()
        return PermGroup(self.n, tuple(self.generators), order, self.seeds, self.seed_order)

    # partition machinery ---------------------------------------------------

    def _refine(self, cells, splitters):
        """Equitable refinement: split cells by neighbor counts into queued
        splitter sets until stable.  Fragments are ordered by count, so the
        procedure commutes with graph automorphisms.

        Only a non-singleton cell meeting the splitter's neighborhood can
        split: every other cell keeps one count and stays whole uncounted."""
        adj = self.graph.adj
        cells = list(cells)
        masks = [_mask_of(cell) for cell in cells]
        live = 0
        for cell, cmask in zip(cells, masks):
            if len(cell) > 1:
                live |= cmask
        queue = deque(splitters)
        while queue and live:
            smask = queue.popleft()
            reach = self.graph.reach(smask) & live
            if not reach:
                continue
            splits = []
            for i in [i for i, cmask in enumerate(masks) if cmask & reach]:
                cell = cells[i]
                counts = [(adj[v] & smask).bit_count() for v in cell]
                if counts.count(counts[0]) == len(counts):
                    continue
                buckets: dict[int, list[int]] = {}
                for v, c in zip(cell, counts):
                    buckets.setdefault(c, []).append(v)
                frags = [buckets[key] for key in sorted(buckets)]
                frag_masks = [_mask_of(frag) for frag in frags]
                for frag, fmask in zip(frags, frag_masks):
                    if len(frag) == 1:
                        live ^= fmask
                queue.extend(frag_masks)
                splits.append((i, frags, frag_masks))
            for i, frags, frag_masks in reversed(splits):
                cells[i : i + 1] = frags
                masks[i : i + 1] = frag_masks
        return cells

    def _individualize(self, cells, pos, v):
        cell = cells[pos]
        rest = [w for w in cell if w != v]
        new = cells[:pos] + [[v], rest] + cells[pos + 1 :]
        return self._refine(new, [1 << v, _mask_of(rest)])

    # search ----------------------------------------------------------------

    def _explore(self, cells, depth, on_first) -> int:
        """Returns the depth whose sibling loop should resume."""
        shape = tuple(map(len, cells))
        if on_first:
            self.first_shapes.append(shape)
        elif depth >= len(self.first_shapes) or shape != self.first_shapes[depth]:
            return depth
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            return self._leaf(cells, depth, on_first)

        covered = 0
        covered_state = None
        explored = []
        for v in sorted(cells[target]):
            if on_first and explored:
                state = (len(explored), len(self.generators))
                if state != covered_state:
                    # Skip the explored siblings' orbit under the known subgroup fixing
                    # the prefix; the first sibling's subtree built the chain at its leaf.
                    covered = _orbit(self.chain.subchain(depth).generators(), explored)
                    covered_state = state
                if (covered >> v) & 1:
                    continue
            child_on_first = on_first and not explored
            if child_on_first:
                self.first_branch.append(v)
            self.branch.append(v)
            resume = self._explore(self._individualize(cells, target, v), depth + 1, child_on_first)
            self.branch.pop()
            explored.append(v)
            if resume < depth:
                return resume
        return depth

    def _leaf(self, cells, depth, on_first) -> int:
        leaf = tuple(c[0] for c in cells)
        if on_first:
            self.first_leaf = leaf
            self.chain = _StabilizerChain(self.n, tuple(self.first_branch))
            for g in self.known:
                self._add(g)
            self.seeds = len(self.generators)
            self.seed_order = self.chain.order()
            return depth
        g = [0] * self.n
        for a, b in zip(self.first_leaf, leaf):
            g[a] = b
        g = tuple(g)
        if g != self.chain.identity and is_graph_automorphism(self.graph, g):
            self._add(g)
            common = 0
            for a, b in zip(self.first_branch, self.branch):
                if a != b:
                    break
                common += 1
            return common
        return depth

    def _add(self, g):
        """Keep g as a generator when it enlarges the known group."""
        if self.chain.add(g):
            self.generators.append(g)


def automorphism_group(
    graph: Graph,
    vertex_cap: int = AUT_VERTEX_CAP,
    known: Sequence[Sequence[int]] = (),
) -> PermGroup:
    """Generators and exact order of the full automorphism group.

    `known` lists automorphisms known in advance; they seed the search and
    come first among the generators, less any that the ones before them
    already generate.  The group records how many came first and the order
    they generate.  Raises StructureError, a ValueError, when one of them
    fails `is_graph_automorphism`, which walks no edge for a seed already
    checked on this graph.  The search emits a leaf only when it passes the
    same check, so checking what it emits reads the kept verdicts and walks
    no edge again.  Raises ResourceLimitError above the vertex cap.
    """
    if graph.n > vertex_cap:
        raise ResourceLimitError(
            f"graph has {graph.n} vertices, above the cap of {vertex_cap}"
        )
    known = [tuple(g) for g in known]
    for i, g in enumerate(known):
        if not is_graph_automorphism(graph, g):
            raise StructureError(f"known[{i}] is not an automorphism of the graph")
    group = _AutomorphismSearch(graph, known).run()
    for g in group.generators[group.seeds :]:
        if not is_graph_automorphism(graph, g):
            raise RuntimeError(f"internal error: emitted non-automorphism {g}")
    return group


def symn_point_generators(n: int) -> list[tuple[int, ...]]:
    """The transposition (0 1) and the n-cycle (0 1 ... n-1) generating the
    point permutations, as image tuples: point p + 1 goes to sigma[p] + 1."""
    if n < 2:
        raise ValueError("need n >= 2")
    return [(1, 0, *range(2, n)), (*range(1, n), 0)]


def induced_point_generators(graph: Graph, n: int) -> list[tuple[int, ...]]:
    """`symn_point_generators(n)` as permutations of the vertices of a graph
    labelled by triangle facets (the ridge graph and its complement) or by
    3-sets (the Triangle quotient): each maps the vertex labelled L to the
    vertex labelled sigma(L).

    Every label is keyed before any move, a facet for n points as the mask
    of its 0-based apex and its 0-based third point, a 3-set as the mask of
    its 0-based points and -1.  So a facet of another n, or a 3-set with a
    point outside 1..n, raises ValueError before any image is looked up;
    StructureError when some sigma(L) labels no vertex."""
    labels = graph.labels
    if labels is None:
        raise ValueError("graph must carry vertex labels")
    keys = []
    for label in labels:
        if isinstance(label, TriangleFacet):
            if label.n != n:
                raise ValueError(f"{label!r} is a facet for n={label.n}, not n={n}")
            keys.append((1 << label.i - 1 | 1 << label.j - 1, label.k - 1))
        else:
            points = _points(label, n, f"{set(label)} is not a set of points inside 1..{n}")
            keys.append((_mask_of(p - 1 for p in points), -1))
    index = {key: v for v, key in enumerate(keys)}
    gens = []
    for sigma in symn_point_generators(n):
        third = (*sigma, -1)  # third[-1] keeps a 3-set's -1
        perm = []
        for label, (mask, k) in zip(labels, keys):
            moved = _moved(sigma, mask)
            v = index.get((moved, third[k]))
            if v is None:
                points = [p + 1 for p in _bits(moved)]
                image = frozenset(points) if k < 0 else TriangleFacet(*points, third[k] + 1, n)
                images = tuple(p + 1 for p in sigma)
                raise StructureError(
                    f"point permutation {images} maps {label!r} to {image!r}, not a label"
                )
            perm.append(v)
        gens.append(tuple(perm))
    return gens


def _clique_span(adj: Sequence[int], u: int, v: int, threshold: int, size: int, what: str) -> int:
    """The span of edge uv, as a mask: u, v and every common neighbour of u
    and v that has at least `threshold` neighbours among those common
    neighbours.  That reads adjacency alone, so every automorphism carries
    the span of uv to the span of its image.  Raises StructureError naming
    the edge, between two `what`, when the span is not a clique of `size`."""
    common = adj[u] & adj[v]
    span = 1 << u | 1 << v
    for x in _bits(common):
        if (adj[x] & common).bit_count() >= threshold:
            span |= 1 << x
    if span.bit_count() != size or any(span & ~(adj[x] | 1 << x) for x in _bits(span)):
        raise StructureError(
            f"step (c): the edge between {what} {u} and {v} spans {what}"
            f" {list(_bits(span))}, not a clique of {size}"
        )
    return span


# For each graph the span check runs on, named by its vertices: their plural and
# the cliques its edges span.
_SPAN_NAMES = {"vertex": ("vertices", "lines"), "line": ("lines", "stars")}


def _check_spans(adj, at, keys, cliques, threshold: int, size: int, noun: str) -> None:
    """At each vertex u in `at`, the span of every edge uv (`_clique_span`)
    must be the clique that `cliques` keys by keys[u] & keys[v], and those
    must be all k cliques through u, k the size of u's key.  Raises
    StructureError naming the first failing edge or vertex."""
    what, clique = _SPAN_NAMES[noun]
    for u in at:
        hit = set()
        for v in _bits(adj[u]):
            span = _clique_span(adj, u, v, threshold, size, what)
            key = keys[u] & keys[v]
            if span != cliques.get(key):
                raise StructureError(
                    f"step (c): the edge between {what} {u} and {v} spans {what}"
                    f" {list(_bits(span))}, not the {clique[:-1]} of their labels"
                )
            hit.add(key)
        if len(hit) != keys[u].bit_count():
            raise StructureError(
                f"step (c): {noun} {u} lies on {len(hit)} {clique}, not {keys[u].bit_count()}"
            )


def clique_chain_groups(
    gbar: Graph,
    triangles: Sequence[Triangle],
    gamma: Graph,
    seeds: Sequence[Sequence[int]],
    n: int,
    vertices: Sequence[int],
) -> tuple[PermGroup, PermGroup]:
    """Aut(Gbar_n) and Aut(Gamma_n) for n >= 7, certified to be the group the
    seeds generate, of order n!, by a chain of graph invariants instead of a
    search:

    (a) `triangles` and `gamma` are `find_triangles(gbar, reps)` and
        `build_triangle_graph(gbar, triangles, reps)`, reps the orbit
        representatives of the edge-checked seeds, which certify from
        adjacency alone that the Triangles are the cliques of the
        (n - 2)-count edges and Gamma's rows the quotient's, so every
        automorphism of Gbar permutes the Triangles and induces an
        automorphism of Gamma.  Here the Triangles must partition Gbar's
        vertices into Gamma's.
    (b) An automorphism that fixes Triangles A and B fixes the one vertex of
        A with two neighbours in B, the centre of A's 2-path towards B.
        These centres cover two vertices of every Triangle, so only the
        identity fixes every Triangle: Aut(Gbar) embeds in Aut(Gamma).
    (c) Gamma's labels must be the 3-sets of 1..n, each once.  The lines are
        the vertex sets whose labels hold a 2-set, and the stars the line
        sets whose 2-sets hold a point (`_label_cliques`); lines are joined
        when they meet.  At each vertex in `vertices` each edge must span,
        at threshold n - 5, a clique of n - 2 that is the line of the two
        labels, and its three lines must all be spans; at each line through
        those vertices the same holds for the stars, at threshold n - 4,
        with n - 1 lines.  `vertices` are orbit representatives of
        automorphisms of Gamma that move labels by point permutations
        (`range(gamma.n)` checks all), which carry spans, lines and stars
        along, so the lines are exactly the edges' spans and the stars the
        spans on the line graph, which every automorphism permutes.  A
        vertex meets the 3 stars of its label's points and no two meet the
        same 3, so Aut(Gamma) acts faithfully on the n stars: it has at most
        n! elements.  On J(n, 3) these are the maximal cliques of J(n, 3)
        and of the triangular graph T(n); at n <= 6 the lines are no cliques.
    (d) Each seed is checked edge by edge on Gbar and carried through the
        Triangles, the lines and the stars; `is_graph_automorphism` walks
        no edge for a seed an earlier check on Gbar, such as
        `orbit_representatives` makes, has walked.  A Triangle permutation
        that maps lines to lines keeps Gamma's edges, which the lines
        partition.  By (b) and (c) the star action is faithful, so when
        the seeds act on the stars with order n! they generate Aut(Gbar) and,
        on the Triangles, Aut(Gamma).

    Both groups list the seeds, less any the ones before them generate, as
    `automorphism_group` does; on Gamma a seed is its Triangle permutation.
    Raises StructureError naming the failing step and the first offending
    edge, vertex, Triangle, line or seed, and ValueError when `vertices` is
    empty, which would pass step (c) vacuously.
    """
    if not vertices:
        raise ValueError("clique_chain_groups needs at least one vertex")
    tmasks = [_mask_of(t.vertices) for t in triangles]
    owner = [-1] * gbar.n
    for i, t in enumerate(triangles):
        for v in t.vertices:
            owner[v] = i
    if len(triangles) != gamma.n or 3 * len(triangles) != gbar.n or -1 in owner:
        raise StructureError("step (a): the Triangles do not partition Gbar's vertices into Gamma's")

    adj = gbar.adj
    for i, t in enumerate(triangles):
        centres = 0
        for j in _bits(gamma.adj[i]):
            hit = [u for u in t.vertices if (adj[u] & tmasks[j]).bit_count() == 2]
            if len(hit) == 1:
                centres |= 1 << hit[0]
                if centres.bit_count() == 2:
                    break
        else:
            raise StructureError(
                f"step (b): the centres of Triangle {i} cover only {list(_bits(centres))}"
            )

    labels = gamma.labels
    three_sets = {frozenset(c) for c in combinations(range(1, n + 1), 3)}
    if labels is None or len(set(labels)) != gamma.n or set(labels) != three_sets:
        raise StructureError(f"step (c): Gamma's labels are not the 3-sets of 1..{n}, each once")
    keys = [_mask_of(label) for label in labels]
    line_cliques = _label_cliques(keys)
    _check_spans(gamma.adj, vertices, keys, line_cliques, n - 5, n - 2, "vertex")
    pairs, lines = list(line_cliques), list(line_cliques.values())
    pair_index = {pair: k for k, pair in enumerate(pairs)}
    on_lines = [_mask_of(pair_index[key ^ 1 << p] for p in _bits(key)) for key in keys]
    line_adj = [0] * len(lines)
    for mask in on_lines:
        for k in _bits(mask):
            line_adj[k] |= mask
    line_adj = [row & ~(1 << k) for k, row in enumerate(line_adj)]
    star_cliques = _label_cliques(pairs)
    at = sorted(set().union(*(_bits(on_lines[u]) for u in vertices)))
    _check_spans(line_adj, at, pairs, star_cliques, n - 4, n - 1, "line")
    stars = list(star_cliques.values())

    line_index = {line: k for k, line in enumerate(lines)}
    star_index = {star: s for s, star in enumerate(stars)}
    chain = _StabilizerChain(n)
    gbar_gens, gamma_gens = [], []
    for i, seed in enumerate(seeds):
        seed = tuple(seed)
        if not is_graph_automorphism(gbar, seed):
            where = ""
            if _is_permutation(seed, gbar.n):
                v = next(v for v in range(gbar.n) if _moved(seed, adj[v]) != adj[seed[v]])
                where = f" at vertex {v}"
            raise StructureError(f"step (d): seed {i} does not keep Gbar's edges{where}")
        tri = tuple(owner[seed[t.vertices[0]]] for t in triangles)
        for j, mask in enumerate(tmasks):
            if _moved(seed, mask) != tmasks[tri[j]]:
                raise StructureError(f"step (d): seed {i} maps Triangle {j} onto no Triangle")
        line_perm = []
        for k, line in enumerate(lines):
            image = line_index.get(_moved(tri, line))
            if image is None:
                raise StructureError(f"step (d): seed {i} maps line {k} onto no line")
            line_perm.append(image)
        star_perm = tuple(star_index[_moved(line_perm, star)] for star in stars)
        if chain.add(star_perm):
            gbar_gens.append(seed)
            gamma_gens.append(tri)
    order = chain.order()
    if order != factorial(n):
        raise StructureError(f"step (d): the seeds act on the stars with order {order}, not {n}!")
    return (
        PermGroup(gbar.n, tuple(gbar_gens), order, len(gbar_gens), order),
        PermGroup(gamma.n, tuple(gamma_gens), order, len(gamma_gens), order),
    )


class Theorem1Report(NamedTuple):
    """`group.order` is |Aut(gbar)| and `group.seed_order` the induced image's."""

    expected_order: int
    passed: bool
    witness: tuple[int, ...] | None
    group: PermGroup


def certify_theorem1(aut: PermGroup, n: int) -> Theorem1Report:
    """Judge the symmetry-group identification on the group `aut` of the
    complement ridge graph for n points, as `automorphism_group` returns it
    when seeded with `induced_point_generators(gbar, n)`, or
    `clique_chain_groups` with the same seeds: either checked the seeds edge
    by edge and recorded the exact order of the induced image as
    `seed_order`.

    The induced point-permutation image must have order n!, the points
    acting faithfully on the facets.  For n >= 5 the automorphism group must
    have that order too, so it coincides with the image; for n = 4 its order
    must be 144 (realized geometrically by the reflection construction,
    checked elsewhere).  On failure the witness is an automorphism generator
    outside the induced image: the first one after the seeds, since each of
    those enlarged the group.  Raises ValueError for n < 4.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    expected = factorial(n) if n >= 5 else 144
    passed = aut.order == expected and aut.seed_order == factorial(n)
    witness = aut.generators[aut.seeds] if n >= 5 and aut.order > aut.seed_order else None
    return Theorem1Report(expected, passed, witness, aut)


def verify_theorem1(n: int, vertex_cap: int = AUT_VERTEX_CAP) -> Theorem1Report:
    """`certify_theorem1` on the seeded group of the complement ridge graph
    for n points: by the clique chain from n = CLIQUE_CHAIN_MIN_N on, by the
    seeded search below it.  The chain's Triangles and quotient are
    certified at the orbit representatives of the point seeds that pass the
    edge check, whose verdicts the chain's step (d) reads again, and its
    lines at those of the quotient's point seeds.  Raises StructureError
    when a point permutation is not an automorphism of the graph or a step
    of the chain fails, and ResourceLimitError when a search is above the
    vertex cap."""
    if n < 4:
        raise ValueError("need n >= 4")
    gbar = build_complement(n)
    seeds = induced_point_generators(gbar, n)
    if n >= CLIQUE_CHAIN_MIN_N:
        reps = orbit_representatives(gbar, seeds)
        triangles = find_triangles(gbar, reps)
        gamma = build_triangle_graph(gbar, triangles, reps)
        gamma_reps = orbit_representatives(gamma, induced_point_generators(gamma, n))
        aut = clique_chain_groups(gbar, triangles, gamma, seeds, n, gamma_reps)[0]
    else:
        aut = automorphism_group(gbar, vertex_cap, seeds)
    return certify_theorem1(aut, n)
