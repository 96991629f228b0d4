"""Graph automorphism groups by partition refinement with individualization,
and exact permutation-group orders via a stabilizer chain.

The search keeps the leftmost root-to-leaf path of the individualization tree
as the reference: a leaf discretizes the partition, and the positional map
from the reference leaf to another leaf is an automorphism candidate that is
verified edge-by-edge before use.  Pruning is threefold and sound:

* nodes whose refined cell-size trace differs from the reference path cannot
  lead to a matching leaf (refinement is equivariant);
* siblings along the reference path are skipped when a known automorphism
  fixing the individualized prefix maps an explored sibling onto them;
* once a subtree has produced an automorphism the search returns to the
  deepest ancestor on the reference path.

Orders are never counted by element enumeration: every discovered generator
is sifted into a stabilizer chain whose base is the reference path, and the
group order is the product of the orbit sizes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import factorial
from typing import Sequence

from .core import Permutation, TriangleFacet, permute_facet
from .ridge import Graph, _mask_of, build_complement

__all__ = [
    "PermGroup",
    "ResourceLimitError",
    "group_order",
    "automorphism_group",
    "is_graph_automorphism",
    "symn_point_generators",
    "induced_facet_permutation",
    "is_faithful_symn_action",
    "Theorem1Report",
    "certify_theorem1",
    "verify_theorem1",
]


class ResourceLimitError(RuntimeError):
    """The graph exceeds the configured vertex cap."""


def _identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _mult(p, q) -> tuple[int, ...]:
    """Apply p, then q."""
    return tuple(q[v] for v in p)


def _inverse(p) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, img in enumerate(p):
        inv[img] = i
    return tuple(inv)


class _StabilizerChain:
    """One level of a base-and-strong-generating-set: the base point, the
    generators tagged at this level, a coset transversal for the orbit of the
    base point, and the chain stabilizing it."""

    __slots__ = ("degree", "base_point", "gens", "transversal", "sub", "_done")

    def __init__(self, degree: int, base_hint: Sequence[int] = ()):
        self.degree = degree
        self.base_point = None
        self.gens: list[tuple[int, ...]] = []
        self.transversal: dict[int, tuple[int, ...]] | None = None
        self.sub: _StabilizerChain | None = None
        self._done: set = set()
        if base_hint:
            self.base_point = base_hint[0]
            self.transversal = {base_hint[0]: _identity(degree)}
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
        if self.base_point is None:
            return p
        x = p[self.base_point]
        if x not in self.transversal:
            return p
        return self.sub.sift(_mult(p, _inverse(self.transversal[x])))

    def contains(self, p) -> bool:
        return self.sift(p) == _identity(self.degree)

    def add(self, p) -> bool:
        """Sift p in; returns True when the group grew."""
        residue = self.sift(p)
        if residue == _identity(self.degree):
            return False
        self._insert(residue)
        return True

    def _insert(self, gen):
        # gen is a non-member fixing every base point above this level
        if self.base_point is None:
            self.base_point = next(i for i, img in enumerate(gen) if img != i)
            self.transversal = {self.base_point: _identity(self.degree)}
            self.sub = _StabilizerChain(self.degree)
        if gen[self.base_point] == self.base_point:
            self.sub._insert(gen)
        else:
            self.gens.append(gen)
        self._close()

    def _close(self):
        """Re-close the orbit with the enlarged generator set and push the
        new Schreier generators down the chain.

        Existing transversal entries are kept, so a (point, generator) pair
        yields the same Schreier generator on every pass and processed pairs
        can be skipped: the subchain only ever grows.
        """
        gens = self.generators()
        trans = self.transversal
        queue = deque(sorted(trans))
        while queue:
            x = queue.popleft()
            for g in gens:
                y = g[x]
                if y not in trans:
                    trans[y] = _mult(trans[x], g)
                    queue.append(y)
        ident = _identity(self.degree)
        for x in sorted(trans):
            ux = trans[x]
            for g in gens:
                key = (x, g)
                if key in self._done:
                    continue
                self._done.add(key)
                schreier = _mult(_mult(ux, g), _inverse(trans[g[x]]))
                if schreier != ident:
                    self.sub.add(schreier)


@dataclass(frozen=True)
class PermGroup:
    """A permutation group given by generators, with its exact order."""

    degree: int
    generators: tuple[tuple[int, ...], ...]
    order: int


def group_order(gens: Sequence[Sequence[int]], degree: int | None = None) -> int:
    """Exact order of the group generated by the given permutations."""
    gens = [tuple(g) for g in gens]
    if degree is None:
        if not gens:
            return 1
        degree = len(gens[0])
    if any(len(g) != degree or sorted(g) != list(range(degree)) for g in gens):
        raise ValueError("generators must be permutations of 0..degree-1")
    chain = _StabilizerChain(degree)
    for g in gens:
        chain.add(g)
    return chain.order()


def _preserves_adjacency(adj: Sequence[int], perm: Sequence[int]) -> bool:
    for v in range(len(adj)):
        m = adj[v]
        mapped = 0
        while m:
            lsb = m & -m
            mapped |= 1 << perm[lsb.bit_length() - 1]
            m ^= lsb
        if mapped != adj[perm[v]]:
            return False
    return True


def is_graph_automorphism(graph: Graph, perm: Sequence[int]) -> bool:
    """Direct edge-set check that perm preserves adjacency."""
    return _preserves_adjacency(graph.adj, perm)


class _AutomorphismSearch:
    def __init__(self, graph: Graph):
        self.adj = graph.adj
        self.n = graph.n
        self.generators: list[tuple[int, ...]] = []
        self.first_shapes: list[tuple[int, ...]] = []
        self.first_branch: list[int] = []
        self.first_leaf: tuple[int, ...] | None = None
        self.chain: _StabilizerChain | None = None
        self.branch: list[int] = []

    def run(self):
        cells = self._refine([list(range(self.n))], [(1 << self.n) - 1])
        self._explore(cells, 0, True)
        order = self.chain.order() if self.chain is not None else 1
        return self.generators, order

    # partition machinery ---------------------------------------------------

    def _refine(self, cells, splitters):
        """Equitable refinement: split cells by neighbor counts into queued
        splitter sets until stable.  Fragments are ordered by count, so the
        procedure commutes with graph automorphisms."""
        adj = self.adj
        queue = deque(splitters)
        while queue:
            smask = queue.popleft()
            out = []
            for cell in cells:
                if len(cell) == 1:
                    out.append(cell)
                    continue
                buckets: dict[int, list[int]] = {}
                for v in cell:
                    buckets.setdefault((adj[v] & smask).bit_count(), []).append(v)
                if len(buckets) == 1:
                    out.append(cell)
                else:
                    for key in sorted(buckets):
                        frag = buckets[key]
                        out.append(frag)
                        queue.append(_mask_of(frag))
            cells = out
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
                    covered = self._orbit_closure(explored, depth)
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
            return depth
        g = [0] * self.n
        for a, b in zip(self.first_leaf, leaf):
            g[a] = b
        g = tuple(g)
        if g != _identity(self.n) and _preserves_adjacency(self.adj, g):
            if self.chain.add(g):
                self.generators.append(g)
            common = 0
            for a, b in zip(self.first_branch, self.branch):
                if a != b:
                    break
                common += 1
            return common
        return depth

    def _orbit_closure(self, seeds, depth) -> int:
        """Bitmask of the orbit of the explored siblings under the known
        subgroup fixing the first `depth` reference base points."""
        if self.chain is None:
            return 0
        gens = self.chain.subchain(depth).generators()
        if not gens:
            return _mask_of(seeds)
        mask = _mask_of(seeds)
        queue = deque(seeds)
        while queue:
            x = queue.popleft()
            for g in gens:
                y = g[x]
                if not (mask >> y) & 1:
                    mask |= 1 << y
                    queue.append(y)
        return mask


def automorphism_group(graph: Graph, vertex_cap: int = 500) -> PermGroup:
    """Generators and exact order of the full automorphism group.

    Every emitted generator is re-verified by a direct edge-set check.
    Raises ResourceLimitError above the vertex cap.
    """
    if graph.n > vertex_cap:
        raise ResourceLimitError(
            f"graph has {graph.n} vertices, above the cap of {vertex_cap}"
        )
    search = _AutomorphismSearch(graph)
    gens, order = search.run()
    for g in gens:
        if not is_graph_automorphism(graph, g):
            raise RuntimeError(f"internal error: emitted non-automorphism {g}")
    return PermGroup(graph.n, tuple(gens), order)


def symn_point_generators(n: int) -> list[Permutation]:
    """A transposition and an n-cycle generating the point permutations."""
    return [
        Permutation.from_cycles(n, [(1, 2)]),
        Permutation.from_cycles(n, [tuple(range(1, n + 1))]),
    ]


def induced_facet_permutation(
    sigma: Permutation, facets: Sequence[TriangleFacet]
) -> tuple[int, ...]:
    """The permutation of facet indices induced by a point permutation."""
    index = {f: i for i, f in enumerate(facets)}
    return tuple(index[permute_facet(sigma, f)] for f in facets)


def _induced_action(graph: Graph, n: int):
    """The point-permutation generators induced on the facet vertices and the
    exact order they generate, or None when one of them is not an
    automorphism (checked edge by edge)."""
    if graph.labels is None:
        raise ValueError("graph must carry facet labels")
    induced = [
        induced_facet_permutation(sigma, graph.labels)
        for sigma in symn_point_generators(n)
    ]
    if not all(is_graph_automorphism(graph, p) for p in induced):
        return None
    return induced, group_order(induced, graph.n)


def is_faithful_symn_action(graph: Graph, n: int) -> bool:
    """True when the induced point-permutation action on the facet vertices
    consists of automorphisms and has full order n! (hence is injective)."""
    action = _induced_action(graph, n)
    return action is not None and action[1] == factorial(n)


@dataclass
class Theorem1Report:
    n: int
    vertices: int
    aut_order: int
    induced_order: int
    expected_order: int
    passed: bool
    witness: tuple[int, ...] | None = None


def certify_theorem1(gbar: Graph, aut: PermGroup) -> Theorem1Report:
    """Certify the symmetry-group identification on the complement ridge
    graph `gbar`, given its automorphism group `aut`.

    For n >= 5 the automorphism group must have order n! and coincide with
    the induced point-permutation image; for n = 4 the order must be 144
    (realized geometrically by the reflection construction, checked
    elsewhere) while the induced image has order 24.  On failure the witness
    is an automorphism generator outside the induced image.
    """
    n = gbar.labels[0].n
    action = _induced_action(gbar, n)
    if action is None:
        raise RuntimeError("induced point permutations failed the automorphism check")
    induced_gens, induced_order = action

    if n >= 5:
        expected = factorial(n)
        passed = aut.order == expected and induced_order == expected
    else:
        expected = 144
        passed = aut.order == 144 and induced_order == 24

    witness = None
    if n >= 5 and aut.order > induced_order:
        chain = _StabilizerChain(gbar.n)
        for g in induced_gens:
            chain.add(g)
        for g in aut.generators:
            if not chain.contains(g):
                witness = g
                break
    return Theorem1Report(n, gbar.n, aut.order, induced_order, expected, passed, witness)


def verify_theorem1(n: int, vertex_cap: int = 500) -> Theorem1Report:
    """`certify_theorem1` on the complement ridge graph for n points."""
    if n < 4:
        raise ValueError("need n >= 4")
    gbar = build_complement(n)
    return certify_theorem1(gbar, automorphism_group(gbar, vertex_cap))
