"""Tests for the automorphism engine and the stabilizer-chain order oracle."""

import gc
import hashlib
import itertools
import json
import random
import re
import weakref
from collections import deque
from math import factorial
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from conesym import autgrp
from conesym.autgrp import (
    CLIQUE_CHAIN_MIN_N,
    PermGroup,
    ResourceLimitError,
    Theorem1Report,
    _AutomorphismSearch,
    _StabilizerChain,
    automorphism_group,
    certify_theorem1,
    clique_chain_groups,
    group_order,
    induced_point_generators,
    is_graph_automorphism,
    orbit_representatives,
    symn_point_generators,
    verify_theorem1,
)
from conesym.core import TriangleFacet
from conesym.ridge import (
    Graph,
    StructureError,
    Triangle,
    _bits,
    _mask_of,
    build_complement,
    build_triangle_graph,
    find_triangles,
    group_facets_by_support,
    intersection_array,
    verify_distance2_property,
    verify_hexagon_neighborhood,
    verify_johnson_isomorphism,
    verify_rook_neighborhood,
)

from graph_strategies import random_graphs
from test_ridge import build_triangle_graph_reference
from references import (
    build_ridge_graph_reference,
    edges_reference,
    every_vertex_census_reference,
    first_failure_reference,
    graph_from_edges,
    johnson_isomorphism_reference,
    preserves_edges_reference,
    quotient_at_every_vertex,
)

DATA = Path(__file__).parent / "data"


def relabeled_reference(graph: Graph, perm) -> Graph:
    """Image under a vertex permutation (perm[v] is the new name of v)."""
    adj = [0] * graph.n
    for v in range(graph.n):
        adj[perm[v]] = _mask_of(perm[w] for w in graph.neighbors(v))
    return Graph(adj)


def induced_facet_permutation_reference(sigma, facets):
    """The facet-index permutation induced by one point permutation, an
    image tuple on 0..n-1, from its own facet index: apex and third point
    are moved one by one.  The oracle for `induced_point_generators`."""
    index = {f: i for i, f in enumerate(facets)}
    return tuple(
        index[TriangleFacet(sigma[f.i - 1] + 1, sigma[f.j - 1] + 1, sigma[f.k - 1] + 1, f.n)]
        for f in facets
    )


def induced_set_permutation_reference(sigma, sets):
    """The 3-set-index permutation induced by one point permutation, an
    image tuple on 0..n-1, moving each set point by point.  The oracle for
    `induced_point_generators` on the Triangle quotient."""
    index = {s: i for i, s in enumerate(sets)}
    return tuple(index[frozenset(sigma[p - 1] + 1 for p in s)] for s in sets)


def orbit_of_pair(perm, u, v) -> list[tuple[int, int]]:
    """The pairs (u, v), (perm u, perm v), ... up to the first repeat, each
    listed in both orders."""
    out = []
    while (u, v) not in out:
        out += [(u, v), (v, u)]
        u, v = perm[u], perm[v]
    return out


def kneser_petersen() -> Graph:
    pairs = list(itertools.combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [
        (idx[a], idx[b]) for a in pairs for b in pairs if a < b and not set(a) & set(b)
    ]
    return graph_from_edges(10, edges)


class TestGroupOrder:
    def test_empty_generators(self):
        assert group_order([]) == 1
        assert group_order([], degree=7) == 1

    def test_single_transposition(self):
        assert group_order([(1, 0, 2, 3)]) == 2

    def test_symmetric_group_natural(self):
        gens = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
        assert group_order(gens) == 120

    def test_induced_action_on_met5_facets(self):
        gbar = build_complement(5)
        gens = [
            induced_facet_permutation_reference(sigma, gbar.labels)
            for sigma in symn_point_generators(5)
        ]
        assert group_order(gens, gbar.n) == 120

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            group_order([(0, 0, 1)])

    def test_rejects_float_images(self):
        with pytest.raises(ValueError, match="permutations of 0..degree-1"):
            group_order([(1.0, 0, 2)])

    def test_rejects_bool_images(self):
        with pytest.raises(ValueError, match="permutations of 0..degree-1"):
            group_order([(True, False, 2)])


class TestAutomorphismGroupKnownGraphs:
    # Orders below are classical facts, independent of this implementation.
    def test_cycle(self):
        c5 = graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert automorphism_group(c5).order == 10

    def test_complete(self):
        k4 = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert automorphism_group(k4).order == 24

    def test_empty(self):
        assert automorphism_group(graph_from_edges(5)).order == 120

    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_graphs(self, n):
        assert automorphism_group(graph_from_edges(n)) == PermGroup(n, (), 1)

    def test_path(self):
        assert automorphism_group(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])).order == 2

    def test_two_triangles(self):
        g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert automorphism_group(g).order == 72

    def test_complete_bipartite_33(self):
        g = graph_from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)])
        assert automorphism_group(g).order == 72

    def test_petersen(self):
        assert automorphism_group(kneser_petersen()).order == 120

    def test_generators_are_automorphisms(self):
        g = kneser_petersen()
        aut = automorphism_group(g)
        assert all(is_graph_automorphism(g, p) for p in aut.generators)
        assert group_order(aut.generators, aut.degree) == aut.order

    def test_vertex_cap(self):
        with pytest.raises(ResourceLimitError):
            automorphism_group(graph_from_edges(20), vertex_cap=10)


class TestIsGraphAutomorphism:
    @pytest.mark.parametrize(
        "graph, perm",
        [
            (graph_from_edges(3), (0, 0, 0)),
            (graph_from_edges(4, [(0, 1), (2, 3)]), (1, 0, 1, 0)),
            (graph_from_edges(4, [(0, 1), (2, 3)]), (1, 0)),
            (graph_from_edges(3), (0, 1, 2, 3)),
            (graph_from_edges(3), (0, 1, 3)),
            (graph_from_edges(3), ()),
        ],
    )
    def test_non_bijections_are_refused(self, graph, perm):
        assert is_graph_automorphism(graph, perm) is False

    @pytest.mark.parametrize("perm", [(2.0, 1, 0), (2, True, False), (2, 1, 0.0)])
    def test_non_int_images_are_refused(self, perm):
        # perm hashes and compares equal to its int twin, whose verdict is
        # kept, so the images are checked before a kept verdict is read.
        path = graph_from_edges(3, [(0, 1), (1, 2)])
        assert is_graph_automorphism(path, (2, 1, 0)) is True
        assert is_graph_automorphism(path, perm) is False

    def test_non_int_known_seed_is_refused(self):
        path = graph_from_edges(3, [(0, 1), (1, 2)])
        assert automorphism_group(path, known=[(2, 1, 0)]).order == 2
        with pytest.raises(StructureError, match=r"known\[0\] is not an automorphism"):
            automorphism_group(path, known=[(2.0, 1, 0)])

    def test_verdicts_are_kept_per_graph(self, monkeypatch):
        # A second check of a seed on one graph walks no edge, a refused one
        # included; a new graph with the same rows is walked again.
        gbar = build_complement(5)
        seed, swap = induced_point_generators(gbar, 5)[0], (1, 0, *range(2, gbar.n))
        walks = count_walks(monkeypatch)
        assert [is_graph_automorphism(gbar, p) for p in (seed, swap)] == [True, False]
        assert len(walks) == 2
        assert [is_graph_automorphism(gbar, list(p)) for p in (seed, swap)] == [True, False]
        with pytest.raises(StructureError, match=r"^known\[0\] is not an automorphism"):
            automorphism_group(gbar, known=[swap])
        assert len(walks) == 2
        assert is_graph_automorphism(Graph(gbar.adj, gbar.labels), seed) is True
        assert len(walks) == 3

    def test_verdicts_do_not_keep_a_graph_alive(self):
        gbar = build_complement(4)
        assert is_graph_automorphism(gbar, induced_point_generators(gbar, 4)[0])
        dead = weakref.ref(gbar)
        del gbar
        gc.collect()
        assert dead() is None

    def test_permutations_are_checked_edge_by_edge(self):
        graph = graph_from_edges(4, [(0, 1), (2, 3)])
        assert is_graph_automorphism(graph, (1, 0, 3, 2)) is True
        assert is_graph_automorphism(graph, (0, 2, 1, 3)) is False

    def test_an_edge_count_kept_is_not_enough(self):
        # (2 3) maps the path 0-1-2 and the isolated vertex 3 to two edges
        # again, but 1-2 goes to the non-edge 1-3, the last edge visited.
        graph = graph_from_edges(4, [(0, 1), (1, 2)])
        perm = (0, 1, 3, 2)
        assert is_graph_automorphism(graph, perm) is preserves_edges_reference(graph, perm) is False

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_edge_set_reference(self, data):
        graph = data.draw(random_graphs(max_vertices=16))
        perm = tuple(data.draw(st.permutations(range(graph.n))))
        assert is_graph_automorphism(graph, perm) is preserves_edges_reference(graph, perm)
        # The union of the orbits of the edges under perm is a graph that
        # perm keeps, so the check is also met where it must pass.
        closed = graph_from_edges(graph.n, [
            (a, b) for u, v in edges_reference(graph) for a, b in orbit_of_pair(perm, u, v) if a < b
        ])
        assert preserves_edges_reference(closed, perm)
        assert is_graph_automorphism(closed, perm) is True


class TestRidgeGraphOrders:
    def test_g4_order_144(self):
        assert automorphism_group(build_ridge_graph_reference(4)).order == 144

    def test_complement_has_same_group(self):
        assert automorphism_group(build_complement(4)).order == 144
        assert automorphism_group(build_complement(5)).order == 120
        assert automorphism_group(build_ridge_graph_reference(5)).order == 120

    def test_gbar6_and_gamma6(self):
        gbar6 = build_complement(6)
        assert automorphism_group(gbar6).order == 720
        gamma6 = quotient_at_every_vertex(gbar6)
        assert automorphism_group(gamma6).order == 1440

    def test_index_two_situation_at_n6(self):
        gbar6 = build_complement(6)
        quotient = automorphism_group(quotient_at_every_vertex(gbar6)).order
        full = automorphism_group(gbar6).order
        assert quotient // full == 2 and quotient % full == 0

    def test_relabeling_invariance_ten_trials(self):
        rng = random.Random(20240817)
        cases = [
            (build_ridge_graph_reference(4), 144),
            (build_complement(5), 120),
            (quotient_at_every_vertex(build_complement(6)), 1440),
        ]
        for graph, expected in cases:
            for _ in range(10):
                perm = list(range(graph.n))
                rng.shuffle(perm)
                assert automorphism_group(relabeled_reference(graph, perm)).order == expected


def induced_action_reference(graph: Graph, n: int):
    """The point-permutation generators induced on the facet vertices and the
    exact order they generate, or None when one of them is not an
    automorphism (checked edge by edge)."""
    induced = induced_point_generators(graph, n)
    if not all(is_graph_automorphism(graph, p) for p in induced):
        return None
    return induced, group_order(induced, graph.n)


def is_faithful_symn_action_reference(graph: Graph, n: int) -> bool:
    """True when the induced point-permutation action on the facet vertices
    consists of automorphisms and has full order n! (hence is injective)."""
    action = induced_action_reference(graph, n)
    return action is not None and action[1] == factorial(n)


def seeded_group(graph: Graph, n: int) -> PermGroup:
    """The automorphism group of a facet-labelled graph, its search seeded
    with the point permutations as `certify_theorem1` expects."""
    return automorphism_group(graph, known=induced_point_generators(graph, n))


def certify_theorem1_reference(gbar: Graph, aut: PermGroup) -> tuple[Theorem1Report, int]:
    """`certify_theorem1` with the induced image rebuilt, edge-checked and
    ordered by a chain of its own, kept as the oracle for the certificate
    that reads the seeded search; returns the report and the induced order."""
    n = gbar.labels[0].n
    action = induced_action_reference(gbar, n)
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
            if chain.sift(g) != chain.identity:
                witness = g
                break
    return Theorem1Report(expected, passed, witness, aut), induced_order


class TestSymnAction:
    def test_faithful_for_small_n(self):
        for n in (5, 6, 7):
            assert is_faithful_symn_action_reference(build_complement(n), n) is True

    def test_induced_permutations_are_automorphisms_up_to_n9(self):
        for n in range(4, 10):
            gbar = build_complement(n)
            expected = [
                induced_facet_permutation_reference(sigma, gbar.labels)
                for sigma in symn_point_generators(n)
            ]
            assert induced_point_generators(gbar, n) == expected
            assert all(is_graph_automorphism(gbar, perm) for perm in expected)
            if n >= 5:
                gamma = quotient_at_every_vertex(gbar)
                expected = [
                    induced_set_permutation_reference(sigma, gamma.labels)
                    for sigma in symn_point_generators(n)
                ]
                assert induced_point_generators(gamma, n) == expected
                assert all(is_graph_automorphism(gamma, perm) for perm in expected)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_point_generators_generate_sym_n(self, n):
        gens = symn_point_generators(n)
        assert gens == [(1, 0, *range(2, n)), (*range(1, n), 0)]
        assert group_order(gens, n) == factorial(n)

    def test_point_generators_refuse_one_point(self):
        with pytest.raises(ValueError, match=r"need n >= 2"):
            symn_point_generators(1)

    def test_facet_label_of_another_n_refused(self):
        with pytest.raises(ValueError, match=r"^TriangleFacet\(1,2;3\) is a facet for n=5, not n=4$"):
            induced_point_generators(build_complement(5), 4)
        # Also where one facet alone is of another n, after labels that move.
        gbar = build_complement(5)
        labels = [*gbar.labels[:-1], TriangleFacet(1, 2, 3, 6)]
        with pytest.raises(ValueError, match=r"^TriangleFacet\(1,2;3\) is a facet for n=6, not n=5$"):
            induced_point_generators(Graph(gbar.adj, labels), 5)

    def test_label_of_another_n_refused_before_a_missing_image(self):
        # Every label is keyed before any move.  Moved label by label, the
        # first point generator would find no vertex for the image of
        # TriangleFacet(2,5;1) before it reached the facet of another n at
        # the end; keyed first, that facet is what is refused.
        gbar = build_complement(5)
        labels = list(gbar.labels)
        labels[7] = labels[0]
        labels[-1] = TriangleFacet(1, 2, 3, 6)
        with pytest.raises(ValueError, match=r"^TriangleFacet\(1,2;3\) is a facet for n=6, not n=5$"):
            induced_point_generators(Graph(gbar.adj, labels), 5)

    @pytest.mark.parametrize(
        "pos, message",
        [
            (0, "(2, 3, 4, 5, 1) maps TriangleFacet(1,5;2) to TriangleFacet(1,2;3)"),
            (7, "(2, 1, 3, 4, 5) maps TriangleFacet(2,5;1) to TriangleFacet(1,5;2)"),
            (29, "(2, 3, 4, 5, 1) maps TriangleFacet(3,4;2) to TriangleFacet(4,5;3)"),
        ],
    )
    def test_facet_image_that_labels_no_vertex(self, pos, message):
        # Label pos is overwritten by a copy of another, so no vertex
        # carries it; the first label that moves onto it is named.
        gbar = build_complement(5)
        labels = list(gbar.labels)
        labels[pos] = labels[29 if pos == 0 else 0]
        with pytest.raises(StructureError) as raised:
            induced_point_generators(Graph(gbar.adj, labels), 5)
        assert str(raised.value) == f"point permutation {message}, not a label"

    def test_three_set_image_that_labels_no_vertex(self):
        gamma = quotient_at_every_vertex(build_complement(5))
        labels = list(gamma.labels)
        labels[3] = labels[0]
        with pytest.raises(StructureError) as raised:
            induced_point_generators(Graph(gamma.adj, labels), 5)
        assert str(raised.value) == (
            "point permutation (2, 1, 3, 4, 5) maps frozenset({2, 3, 4})"
            " to frozenset({1, 3, 4}), not a label"
        )

    def test_three_set_label_above_n_refused(self):
        gamma5 = quotient_at_every_vertex(build_complement(5))
        with pytest.raises(ValueError, match=r"not a set of points inside 1\.\.4"):
            induced_point_generators(gamma5, 4)


class TestTheorem1:
    def test_n4(self):
        report = verify_theorem1(4)
        assert report.passed
        assert report.group.order == 144
        assert report.group.seed_order == 24

    @pytest.mark.parametrize("n", [5, 6])
    def test_small_n(self, n):
        report = verify_theorem1(n)
        assert report.passed
        assert report.group.order == factorial(n) == report.group.seed_order
        assert report.witness is None

    def test_witness_on_excess_symmetry(self):
        # The quotient graph at n=6 has twice the induced order, so the
        # excess generator must surface as a witness when treated as if it
        # were a complement ridge graph certificate.
        gamma6 = quotient_at_every_vertex(build_complement(6))
        aut = automorphism_group(gamma6)
        induced = [
            induced_set_permutation_reference(sigma, gamma6.labels)
            for sigma in symn_point_generators(6)
        ]
        assert group_order(induced, gamma6.n) == 720
        chain = _StabilizerChain(gamma6.n)
        for g in induced:
            chain.add(g)
        outside = [g for g in aut.generators if chain.sift(g) != chain.identity]
        assert outside, "expected an automorphism outside the induced image"
        assert all(is_graph_automorphism(gamma6, g) for g in outside)

    def test_seeded_gamma6_records_the_induced_image(self):
        gamma6 = quotient_at_every_vertex(build_complement(6))
        induced = induced_point_generators(gamma6, 6)
        aut = automorphism_group(gamma6, known=induced)
        assert (aut.order, aut.seeds, aut.seed_order) == (1440, 2, 720)
        assert aut.generators[: aut.seeds] == tuple(induced)
        first_other = aut.generators[aut.seeds]
        assert is_graph_automorphism(gamma6, first_other)
        chain = _StabilizerChain(gamma6.n)
        for g in induced:
            chain.add(g)
        assert chain.sift(first_other) != chain.identity

    @pytest.mark.parametrize("n", range(4, 10))
    def test_same_report_as_the_reference(self, n):
        gbar = build_complement(n)
        report = certify_theorem1(seeded_group(gbar, n), n)
        reference, induced_order = certify_theorem1_reference(gbar, report.group)
        assert report == reference and report.group.seed_order == induced_order
        assert report.passed and induced_order == (24 if n == 4 else factorial(n))
        assert report.group.degree == gbar.n

    @pytest.mark.parametrize("n", [5, 6])
    def test_same_witness_as_the_reference_on_a_larger_group(self, n):
        # Only the edges inside the Triangles kept: a facet-labelled graph
        # whose group, S3 wr Sym(C(n, 3)), is far larger than the image.
        gbar = build_complement(n)
        labels = gbar.labels
        inside = [(u, w) for u, w in edges_reference(gbar) if labels[u].support == labels[w].support]
        graph = graph_from_edges(gbar.n, inside, labels)
        report = certify_theorem1(seeded_group(graph, n), n)
        assert not report.passed and report.witness is not None
        reference, induced_order = certify_theorem1_reference(graph, report.group)
        assert report == reference and report.group.seed_order == induced_order

    @pytest.mark.parametrize("n", range(4, 8))
    def test_search_seeded_with_the_induced_generators(self, n):
        gbar = build_complement(n)
        group = verify_theorem1(n).group
        assert group.generators[: group.seeds] == tuple(induced_point_generators(gbar, n))

    def test_judges_the_group_it_is_given(self):
        # No search: the verdict reads the order, seed order and seeds alone.
        gens = ((1, 0, 2), (0, 2, 1), (2, 1, 0))
        group = PermGroup(3, gens, 120, 2, 120)
        assert certify_theorem1(group, 5) == Theorem1Report(120, True, None, group)
        report = certify_theorem1(PermGroup(3, gens, 240, 2, 120), 5)
        assert (report.passed, report.witness) == (False, (2, 1, 0))
        assert certify_theorem1(PermGroup(3, gens, 144, 2, 24), 4).passed
        assert not certify_theorem1(PermGroup(3, gens, 144, 2, 144), 4).passed
        with pytest.raises(ValueError, match=r"need n >= 4"):
            certify_theorem1(PermGroup(3, gens, 6, 2, 6), 3)

def graph_by_key(key: str) -> Graph:
    """`gbarN` is the complement ridge graph, `gammaN` its Triangle quotient."""
    kind, n = re.fullmatch(r"(gbar|gamma)(\d+)", key).groups()
    gbar = build_complement(int(n))
    return gbar if kind == "gbar" else quotient_at_every_vertex(gbar)


class TestPinnedSearchTree:
    # The recorded generators pin the search tree itself: the same graph
    # must give the same generators in the same order, not only the same
    # group.
    PINNED = json.loads((DATA / "aut_generators.json").read_text())

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_generators_match_recorded(self, key):
        graph = graph_by_key(key)
        aut = automorphism_group(graph)
        expected = self.PINNED[key]
        assert graph.n == expected["vertices"]
        assert aut.order == expected["order"]
        assert len(aut.generators) == expected["generators"]
        digest = hashlib.sha256(repr(aut.generators).encode()).hexdigest()
        assert digest == expected["sha256"]


def refine_reference(adj, cells, splitters):
    """Per-cell bucket refinement, kept as the oracle for `_refine`: every
    vertex of every non-singleton cell is counted against every splitter."""
    queue = deque(splitters)
    while queue:
        smask = queue.popleft()
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets = {}
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


@st.composite
def ordered_partitions(draw, n):
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0, *cuts, n]
    return [list(order[a:b]) for a, b in zip(bounds, bounds[1:])]


class TestRefinementAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_same_ordered_cells(self, data):
        graph = data.draw(random_graphs())
        cells = data.draw(ordered_partitions(graph.n))
        splitters = data.draw(
            st.lists(st.integers(0, (1 << graph.n) - 1), min_size=1, max_size=4)
        )
        expected = refine_reference(graph.adj, [list(c) for c in cells], splitters)
        assert _AutomorphismSearch(graph)._refine(cells, splitters) == expected


def closure(gens, degree):
    """Every element of the group, by breadth-first multiplication."""
    identity = tuple(range(degree))
    seen = {identity}
    queue = deque([identity])
    while queue:
        p = queue.popleft()
        for g in gens:
            q = tuple(g[i] for i in p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


@st.composite
def generator_sets(draw, max_degree=7):
    degree = draw(st.integers(1, max_degree))
    perms = st.permutations(range(degree)).map(tuple)
    return degree, draw(st.lists(perms, max_size=4))


class TestChainAgainstClosure:
    @settings(max_examples=80, deadline=None)
    @given(generator_sets())
    def test_order_is_closure_size(self, case):
        degree, gens = case
        assert group_order(gens, degree) == len(closure(gens, degree))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_membership_matches_closure(self, data):
        degree, gens = data.draw(generator_sets())
        hint_order = data.draw(st.permutations(range(degree)))
        hint = tuple(hint_order[: data.draw(st.integers(0, degree))])
        members = closure(gens, degree)
        probes = data.draw(
            st.lists(st.permutations(range(degree)).map(tuple), min_size=1, max_size=10)
        )
        probes += sorted(members)[:: max(1, len(members) // 50)]
        for base_hint in ((), hint):
            chain = _StabilizerChain(degree, base_hint)
            for g in gens:
                chain.add(g)
            assert chain.order() == len(members)
            for p in probes:
                assert (chain.sift(p) == chain.identity) == (p in members)


def point_seeds(key: str, graph: Graph):
    return induced_point_generators(graph, int(re.search(r"\d+", key).group()))


class TestSeededSearch:
    # The seeds are automorphisms, so they may prune the search but never
    # change the group it finds.
    @pytest.mark.parametrize(
        "key", [f"gbar{n}" for n in range(4, 11)] + [f"gamma{n}" for n in range(5, 11)]
    )
    def test_seeded_order_is_the_unseeded_order(self, key):
        graph = graph_by_key(key)
        seeds = point_seeds(key, graph)
        seeded = automorphism_group(graph, known=seeds)
        assert seeded.order == automorphism_group(graph).order
        assert list(seeded.generators[:2]) == seeds
        assert group_order(seeded.generators, graph.n) == seeded.order
        assert seeded.seeds == 2
        assert seeded.seed_order == group_order(seeds, graph.n)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_products_of_generators_as_seeds(self, data):
        graph = data.draw(random_graphs(max_vertices=12))
        unseeded = automorphism_group(graph)
        identity = tuple(range(graph.n))
        letters = st.sampled_from(unseeded.generators or (identity,))
        seeds = []
        for word in data.draw(st.lists(st.lists(letters, max_size=4), max_size=3)):
            g = identity
            for h in word:
                g = tuple(h[i] for i in g)
            seeds.append(g)
        seeded = automorphism_group(graph, known=seeds)
        assert seeded.order == unseeded.order
        assert all(is_graph_automorphism(graph, g) for g in seeded.generators)
        assert (unseeded.seeds, unseeded.seed_order) == (0, 1)
        assert set(seeded.generators[: seeded.seeds]) <= set(seeds)
        assert seeded.seed_order == group_order(seeds, graph.n)

    def test_non_automorphism_seed_rejected(self):
        # A StructureError, and so the ValueError the docstring promises.
        for graph, seed in [
            (graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]), (1, 0, 2, 3)),
            (graph_from_edges(3), (0, 0, 0)),
            (graph_from_edges(4, [(0, 1), (2, 3)]), (1, 0, 1, 0)),
            (graph_from_edges(3), (1, 0)),
        ]:
            with pytest.raises(ValueError) as raised:
                automorphism_group(graph, known=[seed])
            assert raised.type is StructureError


def chain_inputs(n: int):
    """The complement at n, its Triangles and their quotient, certified at
    the point-orbit representatives, and the point seeds on the complement:
    what `clique_chain_groups` reads besides Gamma's representatives."""
    gbar = build_complement(n)
    seeds = induced_point_generators(gbar, n)
    reps = orbit_representatives(gbar, seeds)
    triangles = find_triangles(gbar, reps)
    return gbar, triangles, build_triangle_graph(gbar, triangles, reps), seeds


def run_chain(gbar: Graph, triangles, gamma: Graph, seeds, n: int):
    """`clique_chain_groups` at Gamma's point-orbit representatives, as
    `verify` runs it: every vertex when Gamma's seeds fail their check."""
    return clique_chain_groups(gbar, triangles, gamma, seeds, n, point_orbits(gamma, n))


def first_cross_edge(gbar: Graph) -> tuple[int, int]:
    """The first edge of Gbar between two Triangles."""
    labels = gbar.labels
    return next((u, w) for u, w in edges_reference(gbar) if labels[u].support != labels[w].support)


def with_centres_on_one_vertex(gbar: Graph, triangles, gamma: Graph) -> Graph:
    """Gbar with the cross edges of Triangle 0 rewired: towards each
    neighbour, the centre trades its cross edges with the Triangle's first
    vertex, so that vertex becomes every centre and the cross edges stay two
    disjoint 2-paths."""
    adj = list(gbar.adj)
    first, masks = triangles[0].vertices[0], [_mask_of(t.vertices) for t in triangles]
    for j in _bits(gamma.adj[0]):
        centre = next(u for u in triangles[0].vertices if (gbar.adj[u] & masks[j]).bit_count() == 2)
        for b in triangles[j].vertices:
            if centre != first and (adj[b] >> centre & 1) != (adj[b] >> first & 1):
                for u in (centre, first):
                    adj[b] ^= 1 << u
                    adj[u] ^= 1 << b
    return Graph(adj, gbar.labels)


class TestCliqueChain:
    # The seeded search stays as the oracle: the chain must return the
    # groups it finds, generators and seed counts included.
    @pytest.mark.parametrize("n", range(CLIQUE_CHAIN_MIN_N, 13))
    def test_same_groups_as_the_seeded_search(self, n):
        gbar, triangles, gamma, seeds = chain_inputs(n)
        aut_gbar, aut_gamma = run_chain(gbar, triangles, gamma, seeds, n)
        gamma_seeds = induced_point_generators(gamma, n)
        assert aut_gbar == automorphism_group(gbar, gbar.n, seeds)
        assert aut_gamma == automorphism_group(gamma, gamma.n, gamma_seeds)
        assert aut_gamma.generators == tuple(gamma_seeds)
        assert (aut_gbar.order, aut_gbar.seeds, aut_gbar.seed_order) == (factorial(n), 2, factorial(n))

    def test_verify_theorem1_past_the_vertex_cap(self):
        # 165 triangle facets at n = 11 lie above a cap of 100, which binds only the search.
        report = verify_theorem1(11, vertex_cap=100)
        assert report.passed and report.group.order == factorial(11)

    def test_toggled_gamma7_edge_breaks_a_line(self):
        gbar, triangles, gamma, seeds = chain_inputs(7)
        for w in (next(_bits(gamma.adj[0])), next(w for w in range(1, 35) if not gamma.has_edge(0, w))):
            with pytest.raises(StructureError, match=r"^step \(c\): the edge between vertices 0 and "):
                run_chain(gbar, triangles, toggled(gamma, 0, w), seeds, 7)

    def test_line_threshold_n_minus_6_admits_the_four_set_vertices(self, monkeypatch):
        # At n = 7 the two common neighbours off the line score 1 = n - 6.
        span = autgrp._clique_span
        monkeypatch.setattr(
            autgrp, "_clique_span",
            lambda adj, u, v, threshold, size, what: span(adj, u, v, threshold - (size == 5), size, what),
        )
        with pytest.raises(StructureError, match=r"^step \(c\): .* spans vertices \[0, 1, 2, 3, 4, 5, 15\], not a clique of 5$"):
            run_chain(*chain_inputs(7), 7)

    @pytest.mark.parametrize("which, order", [(0, 7), (1, 2)])
    def test_identity_seed_leaves_the_lower_bound_short(self, which, order):
        gbar, triangles, gamma, seeds = chain_inputs(7)
        seeds[which] = tuple(range(gbar.n))
        with pytest.raises(StructureError, match=rf"^step \(d\): the seeds act on the stars with order {order}, not 7!$"):
            run_chain(gbar, triangles, gamma, seeds, 7)

    def test_rewired_cross_edges_move_the_centres(self):
        gbar, triangles, gamma, seeds = chain_inputs(7)
        rewired = with_centres_on_one_vertex(gbar, triangles, gamma)
        first = triangles[0].vertices[0]
        with pytest.raises(StructureError, match=rf"^step \(b\): the centres of Triangle 0 cover only \[{first}\]$"):
            run_chain(rewired, triangles, gamma, seeds, 7)

    @pytest.mark.parametrize("n", [5, 6])
    def test_lines_are_no_cliques_below_n7(self, n):
        # Gamma6 has 1440 automorphisms, twice 6!, so the chain must refuse it.
        with pytest.raises(StructureError, match=r"^step \(c\): the edge between vertices 0 and 1 spans"):
            run_chain(*chain_inputs(n), n)

    def test_triangles_must_partition_gbar(self):
        gbar, triangles, gamma, seeds = chain_inputs(7)
        with pytest.raises(StructureError, match=r"^step \(a\): the Triangles do not partition"):
            run_chain(gbar, triangles[:-1], gamma, seeds, 7)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda gbar, seeds: (toggled(gbar, *first_cross_edge(gbar)), seeds),
             "seed 0 does not keep Gbar's edges at vertex 0"),
            (lambda gbar, seeds: (gbar, [(0,) * gbar.n, seeds[1]]), "seed 0 does not keep Gbar's edges"),
        ],
    )
    def test_seeds_are_checked_edge_by_edge(self, mutate, message):
        gbar, triangles, gamma, seeds = chain_inputs(7)
        gbar, seeds = mutate(gbar, seeds)
        with pytest.raises(StructureError, match=rf"^step \(d\): {message}$"):
            run_chain(gbar, triangles, gamma, seeds, 7)

    def test_seeds_must_carry_triangles_and_lines(self):
        gbar, triangles, gamma, seeds = chain_inputs(7)
        # A vertex traded between Triangles {1, 2, 3} and {5, 6, 7}, 34 apart.
        a, b = triangles[0], triangles[34]
        regrouped = list(triangles)
        regrouped[0] = Triangle((*a.vertices[:2], b.vertices[0]), a.support)
        regrouped[34] = Triangle((a.vertices[2], *b.vertices[1:]), b.support)
        with pytest.raises(StructureError, match=r"^step \(d\): seed 0 maps Triangle 0 onto no Triangle$"):
            run_chain(gbar, regrouped, gamma, seeds, 7)
        # Gamma with its vertices 0 and 1 swapped is still J(7, 3), but no
        # longer the quotient the seeds act on.
        swap = (1, 0, *range(2, 35))
        swapped = Graph(relabeled_reference(gamma, swap).adj, [gamma.labels[v] for v in swap])
        with pytest.raises(StructureError, match=r"^step \(d\): seed 1 maps line 0 onto no line$"):
            run_chain(gbar, triangles, swapped, seeds, 7)

    def test_vertex_off_one_of_its_lines(self):
        # Vertex 0, {1, 2, 3}, loses its edges to 5..8, the rest of its line
        # {1, 3}.  Its other edges still span their lines {1, 2} and {2, 3},
        # so only the count of the lines they reach tells it apart.  Gamma's
        # seeds fail on the cut edges, so every vertex is checked.
        gbar, triangles, gamma, seeds = chain_inputs(7)
        assert [gamma.labels[v] for v in (0, 5, 8)] == [{1, 2, 3}, {1, 3, 4}, {1, 3, 7}]
        cut = Graph([row & ~(0b111100000 if v == 0 else 1 if 5 <= v <= 8 else 0)
                     for v, row in enumerate(gamma.adj)], gamma.labels)
        assert point_orbits(cut, 7) == list(range(35))
        with pytest.raises(StructureError, match=r"^step \(c\): vertex 0 lies on 2 lines, not 3$"):
            run_chain(gbar, triangles, cut, seeds, 7)

    @pytest.mark.parametrize(
        "pair, swap, message",
        [
            # Line {1, 2} holds vertices 0..4; vertex 4, {1, 2, 7}, traded
            # for 5, {1, 3, 4}: the edge (0, 1) at vertex 0 spans the true line.
            ({1, 2}, (4, 5), r"step \(c\): the edge between vertices 0 and 1 spans vertices"
                             r" \[0, 1, 2, 3, 4\], not the line of their labels"),
            # Line {6, 7}, far from vertex 0, with vertex 34, {5, 6, 7}, traded
            # for 32, {4, 5, 7}: the spans at vertex 0 never read it, and the
            # 7-cycle maps it onto no line.
            ({6, 7}, (34, 32), r"step \(d\): seed 1 maps line \d+ onto no line"),
        ],
    )
    def test_label_line_with_one_point_swapped(self, monkeypatch, pair, swap, message):
        label_cliques = autgrp._label_cliques

        def swapped(keys):
            cliques = label_cliques(keys)
            if keys[0].bit_count() == 3:  # Gamma's lines, not the stars
                cliques[_mask_of(pair)] ^= _mask_of(swap)
            return cliques

        monkeypatch.setattr(autgrp, "_label_cliques", swapped)
        gbar, triangles, gamma, seeds = chain_inputs(7)
        assert point_orbits(gamma, 7) == [0]
        with pytest.raises(StructureError, match=rf"^{message}$"):
            run_chain(gbar, triangles, gamma, seeds, 7)

    def test_every_edge_spans_its_own_clique(self):
        # A diamond: edge (1, 0) spans the clique {0, 1, 2}, but edge (1, 2)
        # also has vertex 3 as a common neighbour, so its span is all four.
        diamond = [0b0110, 0b1101, 0b1011, 0b0110]
        assert autgrp._clique_span(diamond, 1, 0, 0, 3, "vertices") == 0b0111
        with pytest.raises(StructureError, match=r"edge between vertices 1 and 2 spans vertices \[0, 1, 2, 3\]"):
            autgrp._clique_span(diamond, 1, 2, 0, 3, "vertices")

    def test_threshold_above_size_minus_3_refused(self):
        # Each other vertex of a line of n - 2 has n - 5 neighbours among the
        # common neighbours of an edge on it, so at n = 7 a threshold of 3,
        # above size - 3, refuses even a line of J(7, 3).
        gamma = chain_inputs(7)[2]
        assert autgrp._clique_span(gamma.adj, 0, 1, 2, 5, "vertices") == 0b11111
        with pytest.raises(StructureError, match=r"spans vertices \[0, 1\], not a clique of 5$"):
            autgrp._clique_span(gamma.adj, 0, 1, 3, 5, "vertices")

    def test_empty_vertices_refused(self):
        gbar, triangles, gamma, seeds = chain_inputs(7)
        with pytest.raises(ValueError, match="at least one vertex"):
            clique_chain_groups(gbar, triangles, gamma, seeds, 7, [])

    @pytest.mark.parametrize(
        "relabel",
        [
            lambda labels: None,
            lambda labels: [labels[1], *labels[1:]],  # {1, 2, 4} twice, {1, 2, 3} lost
            lambda labels: [frozenset({1, 2, 8}), *labels[1:]],  # a point outside 1..7
        ],
        ids=["none", "duplicate", "outside"],
    )
    def test_gamma_labels_must_be_the_3_sets(self, relabel):
        gbar, triangles, gamma, seeds = chain_inputs(7)
        relabelled = Graph(gamma.adj, relabel(gamma.labels))
        with pytest.raises(StructureError, match=r"^step \(c\): Gamma's labels are not the 3-sets of 1..7, each once$"):
            clique_chain_groups(gbar, triangles, relabelled, seeds, 7, range(35))

    def test_checked_seeds_are_not_checked_again(self, monkeypatch):
        # chain_inputs took Gbar7's orbit representatives, which checked both
        # seeds, so step (d) reads those verdicts and walks no edge; a seed
        # that is no permutation still fails there, named.
        gbar, triangles, gamma, seeds = chain_inputs(7)
        reps = point_orbits(gamma, 7)
        walks = count_walks(monkeypatch)
        clique_chain_groups(gbar, triangles, gamma, seeds, 7, reps)
        assert walks == []
        with pytest.raises(StructureError, match=r"^step \(d\): seed 1 does not keep Gbar's edges$"):
            clique_chain_groups(gbar, triangles, gamma, [seeds[0], (0,)], 7, reps)
        assert walks == []


class TestGraphLayerAtRepresentatives:
    """The census, the quotient and the clique chain return at the point-orbit
    representatives what they return at every vertex."""

    @pytest.mark.parametrize("n", range(5, 13))
    def test_same_triangles_rows_and_groups(self, n):
        gbar = build_complement(n)
        seeds = induced_point_generators(gbar, n)
        reps, every = orbit_representatives(gbar, seeds), range(gbar.n)
        assert reps == [0]
        triangles = find_triangles(gbar, reps)
        assert triangles == find_triangles(gbar, every) == group_facets_by_support(gbar)
        gamma = build_triangle_graph(gbar, triangles, reps)
        reference = build_triangle_graph_reference(gbar, triangles)
        assert gamma.adj == build_triangle_graph(gbar, triangles, every).adj == reference.adj
        assert gamma.labels == reference.labels
        if n >= CLIQUE_CHAIN_MIN_N:
            gamma_reps = point_orbits(gamma, n)
            assert gamma_reps == [0]
            groups = clique_chain_groups(gbar, triangles, gamma, seeds, n, gamma_reps)
            assert groups == clique_chain_groups(gbar, triangles, gamma, seeds, n, range(gamma.n))


def vf2_automorphism_count(graph: Graph) -> int:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(edges_reference(graph))
    return sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter())


class TestAgainstNetworkxVF2:
    # VF2 lists every automorphism, an independent count of the order.
    @pytest.mark.parametrize(
        "key, order", [("gbar4", 144), ("gbar5", 120), ("gamma5", 120)]
    )
    def test_order_matches_vf2_count(self, key, order):
        graph = graph_by_key(key)
        assert vf2_automorphism_count(graph) == order
        assert automorphism_group(graph).order == order
        assert automorphism_group(graph, known=point_seeds(key, graph)).order == order


def orbit_representatives_reference(graph: Graph, generators) -> list[int]:
    """The least vertex of each connected component of the Schreier graph
    of the generators that map the edge set onto itself, by networkx."""
    edges = {frozenset(e) for e in edges_reference(graph)}
    schreier = nx.Graph()
    schreier.add_nodes_from(range(graph.n))
    for g in generators:
        if sorted(g) == list(range(graph.n)) and {frozenset(g[v] for v in e) for e in edges} == edges:
            schreier.add_edges_from(enumerate(g))
    return sorted(min(component) for component in nx.connected_components(schreier))


@st.composite
def graphs_with_generators(draw, max_vertices=12):
    """A graph whose edge set is closed under a few drawn vertex
    permutations, so that they are automorphisms, and those permutations
    shuffled with a few arbitrary ones, which mostly are not."""
    n = draw(st.integers(1, max_vertices))
    perms = st.permutations(range(n)).map(tuple)
    symmetries = draw(st.lists(perms, max_size=3))
    pairs = list(itertools.combinations(range(n), 2))
    queue = draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []
    edges = set()
    for u, v in queue:
        if (u, v) not in edges:
            edges.add((u, v))
            queue += [tuple(sorted((g[u], g[v]))) for g in symmetries]
    others = draw(st.lists(perms, max_size=2))
    return graph_from_edges(n, sorted(edges)), draw(st.permutations(symmetries + others))


class TestOrbitRepresentatives:
    @settings(max_examples=150, deadline=None)
    @given(graphs_with_generators())
    def test_least_vertex_of_each_schreier_component(self, case):
        graph, generators = case
        expected = orbit_representatives_reference(graph, generators)
        assert orbit_representatives(graph, generators) == expected

    def test_no_generator_leaves_every_vertex(self):
        assert orbit_representatives(graph_from_edges(4, [(0, 1), (2, 3)]), []) == [0, 1, 2, 3]
        assert orbit_representatives(graph_from_edges(0), []) == []

    def test_non_automorphism_is_dropped(self):
        path = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        swap_end = (1, 0, 2, 3)  # moves an end onto an inner vertex
        assert orbit_representatives(path, [swap_end]) == [0, 1, 2, 3]
        assert orbit_representatives(path, [swap_end, (3, 2, 1, 0)]) == [0, 1]
        assert orbit_representatives(path, [(0, 1, 2)]) == [0, 1, 2, 3]  # wrong degree

    def test_non_int_generator_is_dropped(self):
        path = graph_from_edges(3, [(0, 1), (1, 2)])
        assert orbit_representatives(path, [(2, 1, 0)]) == [0, 1]
        assert orbit_representatives(path, [(2.0, 1, 0)]) == [0, 1, 2]


def outcome(fn, *args):
    """What fn returns, or the StructureError message it raises."""
    try:
        return fn(*args)
    except StructureError as exc:
        return f"StructureError: {exc}"


def quotient_outcomes(gamma: Graph, n: int, vertices=None):
    """The census, Johnson, rook and distance-2 outcomes at every vertex, or
    at the given vertices."""
    if vertices is None:
        return (
            outcome(every_vertex_census_reference, gamma),
            johnson_isomorphism_reference(gamma, n),
            first_failure_reference(gamma, verify_rook_neighborhood),
            first_failure_reference(gamma, verify_distance2_property),
        )
    return (
        outcome(intersection_array, gamma, vertices),
        verify_johnson_isomorphism(gamma, n, vertices),
        first_failure_reference(gamma, verify_rook_neighborhood, vertices),
        first_failure_reference(gamma, verify_distance2_property, vertices),
    )


def hexagons_hold(gbar: Graph, u: int) -> bool:
    """`verify_hexagon_neighborhood` as a claim: True, or its StructureError."""
    verify_hexagon_neighborhood(gbar, u)
    return True


def count_walks(monkeypatch) -> list[int]:
    """Count the edge walks `autgrp` makes: the returned list collects the
    vertex count of the graph each `_preserves_adjacency` call walks."""
    walks = []
    walk = autgrp._preserves_adjacency
    monkeypatch.setattr(
        autgrp, "_preserves_adjacency", lambda adj, p: walks.append(len(adj)) or walk(adj, p)
    )
    return walks


def point_orbits(graph: Graph, n: int) -> list[int]:
    return orbit_representatives(graph, induced_point_generators(graph, n))


def toggled(graph: Graph, u: int, w: int) -> Graph:
    adj = list(graph.adj)
    adj[u] ^= 1 << w
    adj[w] ^= 1 << u
    return Graph(adj, graph.labels)


def swapped_labels(graph: Graph, u: int, w: int) -> Graph:
    labels = list(graph.labels)
    labels[u], labels[w] = labels[w], labels[u]
    return Graph(graph.adj, labels)


def with_one_point_meetings(gamma: Graph) -> Graph:
    """Gamma plus an edge between every two 3-sets that meet in one point;
    the point permutations keep the added edges."""
    labels = gamma.labels
    return Graph(
        [row | _mask_of(b for b, m in enumerate(labels) if len(labels[a] & m) == 1)
         for a, row in enumerate(gamma.adj)],
        labels,
    )


@st.composite
def quotient_variants(draw):
    """Gamma_n for n = 5..7, as built or with a toggled vertex pair, two
    labels swapped, or the one-point meetings added."""
    n = draw(st.integers(5, 7))
    gamma = quotient_at_every_vertex(build_complement(n))
    kind = draw(st.sampled_from(["built", "toggled", "swapped", "meetings"]))
    if kind == "meetings":
        gamma = with_one_point_meetings(gamma)
    elif kind != "built":
        u, w = draw(st.lists(st.integers(0, gamma.n - 1), min_size=2, max_size=2, unique=True))
        gamma = (toggled if kind == "toggled" else swapped_labels)(gamma, u, w)
    return gamma, n


@st.composite
def complement_variants(draw):
    """Gbar_n for n = 4..6, as built or with a toggled vertex pair or two
    labels swapped."""
    n = draw(st.integers(4, 6))
    gbar = build_complement(n)
    kind = draw(st.sampled_from(["built", "toggled", "swapped"]))
    if kind != "built":
        u, w = draw(st.lists(st.integers(0, gbar.n - 1), min_size=2, max_size=2, unique=True))
        gbar = (toggled if kind == "toggled" else swapped_labels)(gbar, u, w)
    return gbar, n


class TestOrbitCertificates:
    """Each per-vertex claim gives the same outcome, and the same first
    failing vertex, at the point-permutation orbit representatives as at
    every vertex."""

    @pytest.mark.parametrize("n", range(4, 10))
    def test_same_outcomes_on_gamma_and_gbar(self, n):
        gbar = build_complement(n)
        gamma = quotient_at_every_vertex(gbar)
        assert point_orbits(gamma, n) == point_orbits(gbar, n) == [0]
        assert quotient_outcomes(gamma, n, [0]) == quotient_outcomes(gamma, n)
        assert first_failure_reference(gbar, hexagons_hold) is None
        assert first_failure_reference(gbar, hexagons_hold, [0]) is None

    @settings(max_examples=40, deadline=None)
    @given(quotient_variants())
    def test_same_quotient_outcomes_on_variants(self, case):
        gamma, n = case
        assert quotient_outcomes(gamma, n, point_orbits(gamma, n)) == quotient_outcomes(gamma, n)

    @settings(max_examples=40, deadline=None)
    @given(complement_variants())
    def test_same_hexagon_outcome_on_variants(self, case):
        gbar, n = case
        expected = first_failure_reference(gbar, hexagons_hold)
        reps = point_orbits(gbar, n)
        assert first_failure_reference(gbar, hexagons_hold, reps) == expected
