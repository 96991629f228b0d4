"""Tests for the ridge graph, its complement, Triangles, and the quotient."""

import itertools
import signal
from contextlib import contextmanager

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesym.core import TriangleFacet, enumerate_triangle_facets
from conesym import ridge
from conesym.ridge import (
    Graph,
    IntersectionArray,
    StructureError,
    Triangle,
    _bits,
    _mask_of,
    build_complement,
    build_triangle_graph,
    conflicting,
    edge_list_lines,
    find_triangles,
    group_facets_by_support,
    intersection_array,
    label_lines,
    to_graph6,
    verify_distance2_property,
    verify_hexagon_neighborhood,
    verify_johnson_isomorphism,
    verify_rook_neighborhood,
)

from graph_strategies import networkx_distances, random_graphs
from references import (
    build_ridge_graph_reference,
    edges_reference,
    every_vertex_census_reference,
    graph_from_edges,
    quotient_at_every_vertex,
    simple_rows_reference,
)


def signed_masks_reference(f: TriangleFacet) -> tuple[int, int]:
    """The coordinates where f carries +1 and -1, as bitmasks: the oracle
    for `conflicting`, which compares apex and side pairs instead."""
    pos = neg = 0
    for idx, sign in f.entries():
        if sign > 0:
            pos |= 1 << idx
        else:
            neg |= 1 << idx
    return pos, neg


class TestConflicting:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_every_pair_matches_the_signed_masks(self, n):
        facets = enumerate_triangle_facets(n)
        signed = [signed_masks_reference(f) for f in facets]
        for (f, (fp, fn)), (g, (gp, gn)) in itertools.product(zip(facets, signed), repeat=2):
            assert conflicting(f, g) is bool(fp & gn or fn & gp), (f, g)

    def test_opposite_sign_at_shared_apex(self):
        f = TriangleFacet(1, 2, 3, 5)
        g = TriangleFacet(1, 3, 2, 5)
        assert conflicting(f, g) is True  # position (1,2): +1 vs -1

    def test_facet_never_conflicts_with_itself(self):
        for f in enumerate_triangle_facets(5)[:6]:
            assert conflicting(f, f) is False

    def test_same_apex_different_third(self):
        f = TriangleFacet(1, 2, 3, 4)
        g = TriangleFacet(1, 2, 4, 4)
        assert conflicting(f, g) is False  # +1/+1 at (1,2), rest disjoint

    def test_conflicting_pairs_share_one_or_three_support_coordinates(self):
        # Exhaustive dichotomy check up to n=8.
        for n in range(4, 9):
            facets = enumerate_triangle_facets(n)
            supports = [{idx for idx, _ in f.entries()} for f in facets]
            for a in range(len(facets)):
                for b in range(a + 1, len(facets)):
                    if conflicting(facets[a], facets[b]):
                        assert len(supports[a] & supports[b]) in (1, 3)


# The three perfect matchings of the 4 points, one class per apex pair.
K34_PAIR_CLASS = {
    frozenset({1, 2}): 0,
    frozenset({3, 4}): 0,
    frozenset({1, 3}): 1,
    frozenset({2, 4}): 1,
    frozenset({1, 4}): 2,
    frozenset({2, 3}): 2,
}


def verify_line_graph_k34_reference(ridge4: Graph) -> bool:
    """Explicit isomorphism of the 12-vertex ridge graph onto the line graph
    of K_{3,4}: apex pair -> its perfect-matching class, third point -> the
    4-side vertex; adjacency must match 'share exactly one coordinate'."""
    if ridge4.labels is None or ridge4.n != 12:
        return False
    coords = [(K34_PAIR_CLASS[frozenset(f.apex)], f.k) for f in ridge4.labels]
    if len(set(coords)) != 12:
        return False
    for a in range(12):
        for b in range(a + 1, 12):
            (m1, k1), (m2, k2) = coords[a], coords[b]
            expected = (m1 == m2) != (k1 == k2)
            if ridge4.has_edge(a, b) != expected:
                return False
    return True


class TestRidgeGraphs:
    def test_vertex_counts(self):
        for n in range(4, 8):
            expected = len(enumerate_triangle_facets(n))
            assert build_ridge_graph_reference(n).n == expected
            assert build_complement(n).n == expected

    def test_complement_relation(self):
        g = build_ridge_graph_reference(5)
        gbar = build_complement(5)
        for a in range(g.n):
            for b in range(a + 1, g.n):
                assert g.has_edge(a, b) != gbar.has_edge(a, b)

    def test_complement_degree_formula(self):
        # Conflicting partners: 2 same-support + 4 per outside point.
        for n in (5, 6, 7):
            gbar = build_complement(n)
            assert all(gbar.degree(v) == 4 * n - 10 for v in range(gbar.n))

    def test_n4_is_line_graph_of_k34(self):
        g4 = build_ridge_graph_reference(4)
        assert g4.n == 12
        assert all(g4.degree(v) == 5 for v in range(12))
        assert g4.edge_count() == 30
        assert verify_line_graph_k34_reference(g4) is True

    def test_n4_two_edge_families(self):
        # 18 edges share the apex matching class, 12 share the third point.
        g4 = build_ridge_graph_reference(4)
        same_class = same_third = 0
        classes = {
            frozenset({1, 2}): 0, frozenset({3, 4}): 0,
            frozenset({1, 3}): 1, frozenset({2, 4}): 1,
            frozenset({1, 4}): 2, frozenset({2, 3}): 2,
        }
        for a, b in edges_reference(g4):
            fa, fb = g4.labels[a], g4.labels[b]
            if classes[frozenset(fa.apex)] == classes[frozenset(fb.apex)]:
                same_class += 1
            if fa.k == fb.k:
                same_third += 1
        assert (same_class, same_third) == (18, 12)


def gamma5_with_self_loop():
    """Γ5 with a self-loop on a neighbour w of vertex 0: as a graph it read
    degree 7 at w and failed `verify_rook_neighborhood` at 0, while the
    pairwise reference passed."""
    gamma = quotient_at_every_vertex(build_complement(5))
    w = next(gamma.neighbors(0))
    adj = list(gamma.adj)
    adj[w] |= 1 << w
    return adj


class TestFromAdjacency:
    """`Graph(rows)`, the one constructor, checks the rows it is given."""

    def test_rows_of_a_built_graph_accepted(self):
        gamma = quotient_at_every_vertex(build_complement(5))
        rebuilt = Graph(gamma.adj, gamma.labels)
        assert (rebuilt.n, rebuilt.adj, rebuilt.labels) == (gamma.n, gamma.adj, gamma.labels)

    @pytest.mark.parametrize(
        "adj, row",
        [
            (gamma5_with_self_loop(), 1),
            ([0b10, 0b00], 1),
            ([0b00, 0b01], 1),
            ([0b100, 0b000], 0),
            ([-1, 0], 0),
        ],
        ids=["gamma5-self-loop", "one-sided-upper", "one-sided-lower", "past-last-vertex", "negative"],
    )
    def test_non_simple_rows_refused(self, adj, row):
        # The first row that differs from the mirror of the upper bits is named.
        with pytest.raises(ValueError, match=rf"^row {row} differs from the symmetric closure"):
            Graph(adj)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_accepts_exactly_the_simple_rows(self, data):
        # Rows of a simple graph, perturbed up to three times by a
        # self-loop, a one-sided bit, a bit past the last vertex or a
        # negative row.
        adj = list(data.draw(random_graphs(max_vertices=8)).adj)
        n = len(adj)
        kinds = st.sampled_from(["loop", "one-sided", "past", "negative"])
        for kind in data.draw(st.lists(kinds, max_size=3)):
            u = data.draw(st.integers(0, n - 1))
            if kind == "loop":
                adj[u] |= 1 << u
            elif kind == "one-sided" and n > 1:
                v = data.draw(st.integers(0, n - 2))
                adj[u] ^= 1 << v + (v >= u)
            elif kind == "past":
                adj[u] |= 1 << data.draw(st.integers(n, n + 3))
            elif kind == "negative":
                adj[u] = ~adj[u]
        try:
            Graph(adj)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == simple_rows_reference(adj)

    def test_rows_refuse_item_assignment(self):
        # The rows are the caller's copied into a tuple, so the verdicts
        # kept for the graph stay true: neither list can change them.
        rows = [0b10, 0b01]
        graph = Graph(rows)
        rows[0] = 0
        with pytest.raises(TypeError):
            graph.adj[0] = 0
        assert graph.adj == (0b10, 0b01)

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]])
    def test_label_count_must_match_row_count(self, labels):
        with pytest.raises(ValueError, match="label count does not match vertex count"):
            Graph([0, 0], labels=labels)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_edge_list_round_trip(self, n):
        # The builders' rows, read back as edges and rebuilt by the test
        # helper, give the same rows and labels.
        gbar = build_complement(n)
        graphs = [gbar, gbar.complement()]
        if n >= 5:
            graphs.append(quotient_at_every_vertex(gbar))
        for g in graphs:
            rebuilt = graph_from_edges(g.n, edges_reference(g), g.labels)
            assert (rebuilt.adj, rebuilt.labels) == (g.adj, g.labels)


class TestWalks:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_reach_is_the_union_of_neighbourhoods(self, data):
        graph = data.draw(random_graphs())
        chosen = data.draw(st.sets(st.integers(0, graph.n - 1)))
        expected = set().union(*(graph.neighbors(v) for v in chosen))
        assert set(_bits(graph.reach(_mask_of(chosen)))) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_layers_match_networkx_distances(self, data):
        graph = data.draw(random_graphs())
        v = data.draw(st.integers(0, graph.n - 1))
        dist = networkx_distances(graph, v)
        expected = [_mask_of(w for w, dw in enumerate(dist) if dw == d) for d in range(max(dist) + 1)]
        assert graph.layers(v) == expected

    def test_unreachable_vertices_are_in_no_layer(self):
        graph = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert graph.layers(0) == [0b1, 0b10, 0b100]
        assert graph.layers(4) == [0b10000, 0b1000]


class TestHexagons:
    @pytest.mark.parametrize("n,size", [(4, 6), (5, 10), (6, 14)])
    def test_neighborhood_decomposition_all_vertices(self, n, size):
        gbar = build_complement(n)
        for u in range(gbar.n):
            verify_hexagon_neighborhood(gbar, u)
            hexagons = verify_hexagon_neighborhood_reference(gbar, u)
            assert len(hexagons) == n - 3
            assert gbar.degree(u) == size
            u1, u2 = hexagons[0][0], hexagons[0][-1]
            assert (
                gbar.labels[u].support
                == gbar.labels[u1].support
                == gbar.labels[u2].support
            )

    def test_hexagons_are_six_cycles(self):
        gbar = build_complement(5)
        for hexagon in verify_hexagon_neighborhood_reference(gbar, 0):
            ring = list(hexagon)
            for i, v in enumerate(ring):
                assert gbar.has_edge(v, ring[(i + 1) % 6])

    def test_structure_error_on_wrong_graph(self):
        # A labeled 6-cycle is nothing like a complement ridge graph.
        facets = enumerate_triangle_facets(5)[:6]
        ring = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)], facets)
        with pytest.raises(StructureError):
            verify_hexagon_neighborhood(ring, 0)


def verify_hexagon_neighborhood_reference(gbar: Graph, u: int) -> tuple[tuple[int, ...], ...]:
    """The hexagons (u1, a, b, c, d, u2) of the neighborhood of u, with the
    shared edge (u1, u2) found by a census of induced degrees for n >= 5 and
    by the support labels at n = 4, kept as the oracle for
    `verify_hexagon_neighborhood`, which reads it off the labels at every n
    and returns nothing."""
    if gbar.labels is None:
        raise ValueError("complement graph must carry facet labels")
    n = gbar.labels[0].n
    nb = list(gbar.neighbors(u))
    nb_mask = _mask_of(nb)
    expected = 2 + 4 * (n - 3)
    if len(nb) != expected:
        raise StructureError(f"vertex {u}: neighborhood size {len(nb)} != {expected}")

    ind_deg = {v: (gbar.adj[v] & nb_mask).bit_count() for v in nb}
    if n >= 5:
        heavy = [v for v in nb if ind_deg[v] == n - 2]
        if len(heavy) != 2 or not gbar.has_edge(*heavy):
            raise StructureError(
                f"vertex {u}: no unique max-degree edge in neighborhood (candidates {heavy})"
            )
    else:
        # All induced degrees tie at 2 for n=4; fall back to the support labels.
        support = gbar.labels[u].support
        heavy = [v for v in nb if gbar.labels[v].support == support]
        if len(heavy) != 2 or not gbar.has_edge(*heavy):
            raise StructureError(f"vertex {u}: same-support edge missing at n=4")
    u1, u2 = sorted(heavy)

    if not (gbar.labels[u].support == gbar.labels[u1].support == gbar.labels[u2].support):
        raise StructureError(
            f"vertex {u}: distinguished edge ({u1}, {u2}) does not share the support 3-set"
        )

    rest_mask = nb_mask & ~(1 << u1) & ~(1 << u2)
    components = []
    seen = 0
    for start in _bits(rest_mask):
        if (seen >> start) & 1:
            continue
        comp = 0
        frontier = 1 << start
        while frontier:
            comp |= frontier
            nxt = 0
            for v in _bits(frontier):
                nxt |= gbar.adj[v] & rest_mask & ~comp
            frontier = nxt
        seen |= comp
        components.append(comp)
    if len(components) != n - 3:
        raise StructureError(
            f"vertex {u}: {len(components)} path components, expected {n - 3}"
        )

    hexagons = []
    for comp in components:
        verts = list(_bits(comp))
        if len(verts) != 4:
            raise StructureError(f"vertex {u}: component size {len(verts)} != 4")
        degs = {v: (gbar.adj[v] & comp).bit_count() for v in verts}
        ends = sorted(v for v in verts if degs[v] == 1)
        if sorted(degs.values()) != [1, 1, 2, 2]:
            raise StructureError(f"vertex {u}: component {verts} is not a 4-path")
        a_end = [v for v in ends if gbar.has_edge(v, u1) and not gbar.has_edge(v, u2)]
        d_end = [v for v in ends if gbar.has_edge(v, u2) and not gbar.has_edge(v, u1)]
        if len(a_end) != 1 or len(d_end) != 1:
            raise StructureError(
                f"vertex {u}: path endpoints {ends} do not close a hexagon over ({u1}, {u2})"
            )
        a, d = a_end[0], d_end[0]
        interior = [v for v in verts if v not in (a, d)]
        if any(gbar.has_edge(v, u1) or gbar.has_edge(v, u2) for v in interior):
            raise StructureError(f"vertex {u}: chord from path interior to ({u1}, {u2})")
        b = next(w for w in _bits(gbar.adj[a] & comp))
        c = next(w for w in _bits(gbar.adj[d] & comp))
        hexagons.append((u1, a, b, c, d, u2))
    return tuple(hexagons)


def hexagon_outcome(verify, gbar: Graph, u: int):
    """None when the decomposition holds, StructureError when it fails."""
    try:
        verify(gbar, u)
    except StructureError:
        return StructureError
    return None


def toggled(gbar: Graph, pairs) -> Graph:
    adj = list(gbar.adj)
    for v, w in pairs:
        adj[v] ^= 1 << w
        adj[w] ^= 1 << v
    return Graph(adj, gbar.labels)


@st.composite
def complement_with_toggled_edges(draw):
    """Ḡ5 or Ḡ6 with one to three edges added or removed among a vertex u
    and its neighbours; returns the graph and u."""
    gbar = build_complement(draw(st.sampled_from((5, 6))))
    u = draw(st.integers(0, gbar.n - 1))
    closed = sorted((u, *gbar.neighbors(u)))
    pairs = draw(
        st.lists(
            st.sampled_from(list(itertools.combinations(closed, 2))),
            min_size=1, max_size=3, unique=True,
        )
    )
    return toggled(gbar, pairs), u


@st.composite
def relabelled_complement(draw):
    """Ḡ5 or Ḡ6 under a random vertex permutation, its rows and facet
    labels moved together; returns the graph and a vertex."""
    gbar = build_complement(draw(st.sampled_from((5, 6))))
    perm = draw(st.permutations(range(gbar.n)))
    adj = [0] * gbar.n
    labels = [None] * gbar.n
    for v in range(gbar.n):
        adj[perm[v]] = _mask_of(perm[w] for w in gbar.neighbors(v))
        labels[perm[v]] = gbar.labels[v]
    return Graph(adj, labels), draw(st.integers(0, gbar.n - 1))


class TestHexagonsAgainstReference:
    @pytest.mark.parametrize("n", range(4, 9))
    def test_same_certificate_at_every_vertex(self, n):
        gbar = build_complement(n)
        for u in range(gbar.n):
            assert hexagon_outcome(verify_hexagon_neighborhood, gbar, u) is None
            assert hexagon_outcome(verify_hexagon_neighborhood_reference, gbar, u) is None

    @settings(max_examples=80, deadline=None)
    @given(complement_with_toggled_edges())
    def test_same_outcome_with_edges_toggled(self, case):
        gbar, u = case
        expected = hexagon_outcome(verify_hexagon_neighborhood_reference, gbar, u)
        assert hexagon_outcome(verify_hexagon_neighborhood, gbar, u) == expected

    @settings(max_examples=40, deadline=None)
    @given(relabelled_complement())
    def test_same_certificate_after_relabelling(self, case):
        # Every drawn graph is isomorphic to Ḡn, so both must pass.
        gbar, u = case
        assert hexagon_outcome(verify_hexagon_neighborhood, gbar, u) is None
        assert hexagon_outcome(verify_hexagon_neighborhood_reference, gbar, u) is None

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_shared_edge_and_every_hexagon_required(self, n):
        gbar = build_complement(n)
        u1, a, b, c, d, u2 = verify_hexagon_neighborhood_reference(gbar, 0)[0]
        for pairs in [[(u1, u2)], [(0, v) for v in (a, b, c, d)]]:
            broken = toggled(gbar, pairs)
            assert hexagon_outcome(verify_hexagon_neighborhood_reference, broken, 0) is StructureError
            with pytest.raises(StructureError):
                verify_hexagon_neighborhood(broken, 0)

    @pytest.mark.parametrize("n", [5, 6])
    def test_chord_from_path_interior_refused(self, n):
        gbar = build_complement(n)
        u1, a, b, c, d, u2 = verify_hexagon_neighborhood_reference(gbar, 0)[0]
        for chord in [(b, u1), (c, u2)]:
            broken = toggled(gbar, [chord])
            assert hexagon_outcome(verify_hexagon_neighborhood_reference, broken, 0) is StructureError
            with pytest.raises(StructureError, match="chord from path interior"):
                verify_hexagon_neighborhood(broken, 0)

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("change", ["a-u2", "d-u1", "a-u1 to d-u1"])
    def test_path_end_must_reach_one_side_alone(self, n, change):
        gbar = build_complement(n)
        u1, a, b, c, d, u2 = verify_hexagon_neighborhood_reference(gbar, 0)[0]
        pairs = {"a-u2": [(a, u2)], "d-u1": [(d, u1)], "a-u1 to d-u1": [(a, u1), (d, u1)]}
        broken = toggled(gbar, pairs[change])
        assert hexagon_outcome(verify_hexagon_neighborhood_reference, broken, 0) is StructureError
        with pytest.raises(StructureError, match="do not close a hexagon"):
            verify_hexagon_neighborhood(broken, 0)


class TestTriangles:
    @pytest.mark.parametrize("n,count", [(5, 10), (6, 20), (7, 35)])
    def test_counts(self, n, count):
        gbar = build_complement(n)
        assert len(find_triangles(gbar, range(gbar.n))) == count

    def test_graph_detection_matches_support_grouping(self):
        for n in range(5, 9):
            gbar = build_complement(n)
            assert find_triangles(gbar, range(gbar.n)) == group_facets_by_support(gbar)

    def test_common_neighbor_census_n5_to_n8(self):
        # Triangle edges have n - 2 common neighbors, all others exactly 2,
        # counted by networkx.
        for n in range(5, 9):
            gbar = build_complement(n)
            triangle_edges = set()
            for t in find_triangles(gbar, range(gbar.n)):
                a, b, c = t.vertices
                triangle_edges |= {(a, b), (a, c), (b, c)}
            g = nx.Graph(edges_reference(gbar))
            for a, b in edges_reference(gbar):
                expected = n - 2 if (a, b) in triangle_edges else 2
                assert len(list(nx.common_neighbors(g, a, b))) == expected

    def test_triangles_partition_vertices(self):
        gbar = build_complement(6)
        seen = [v for t in find_triangles(gbar, range(gbar.n)) for v in t.vertices]
        assert sorted(seen) == list(range(gbar.n))

    def test_n4_falls_back_to_support_grouping(self):
        gbar = build_complement(4)
        triangles = find_triangles(gbar, range(gbar.n))
        assert len(triangles) == 4
        assert triangles == group_facets_by_support(gbar)

    def test_off_census_edge_refused(self):
        # Dropping an edge between two Triangles leaves its endpoints' two
        # common neighbours with one common neighbour fewer; at least one
        # of those edges leaves the census {2, n - 2}.
        gbar = build_complement(5)
        labels = gbar.labels
        u, w = next((u, w) for u, w in edges_reference(gbar) if labels[u].support != labels[w].support)
        with pytest.raises(StructureError, match=r"edge \(\d+, \d+\) has 1 common neighbors"):
            find_triangles(toggled(gbar, [(u, w)]), range(gbar.n))

    def test_edgeless_graph_refused(self):
        gbar = build_complement(5)
        with pytest.raises(StructureError, match="vertex 0 do not join it to its two same-support facets"):
            find_triangles(graph_from_edges(gbar.n, [], gbar.labels), range(gbar.n))

    @pytest.mark.parametrize("change, count", [("drop", 4), ("add", 6)])
    def test_triangle_edge_off_the_threshold_by_one_refused(self, change, count):
        # Vertex 0's Triangle edge (0, 1) has n - 2 = 5 common neighbours at
        # n = 7.  Dropping the edge to one of them other than vertex 2, or
        # adding one to a neighbour of 1 alone, leaves it 4 or 6, which the
        # census at vertex 0 refuses before any other edge.
        gbar = build_complement(7)
        assert gbar.labels[0].support == gbar.labels[1].support == gbar.labels[2].support
        adj = gbar.adj
        if change == "drop":
            z = next(_bits(adj[0] & adj[1] & ~0b100))
        else:
            z = next(_bits(adj[1] & ~adj[0] & ~1))
        off = toggled(gbar, [(0, z)])
        message = rf"^edge \(0, 1\) has {count} common neighbors, expected 5 or 2$"
        for vertices in ([0], range(off.n)):
            with pytest.raises(StructureError, match=message):
                find_triangles(off, vertices)

    def test_empty_vertices_refused(self):
        gbar = build_complement(5)
        with pytest.raises(ValueError, match="find_triangles needs at least one vertex"):
            find_triangles(gbar, [])
        triangles = find_triangles(gbar, [0])
        with pytest.raises(ValueError, match="build_triangle_graph needs at least one vertex"):
            build_triangle_graph(gbar, triangles, [])

    def test_unlabelled_graph_refused(self):
        gbar = build_complement(5)
        with pytest.raises(ValueError, match="facet labels"):
            find_triangles(graph_from_edges(gbar.n, edges_reference(gbar)), range(gbar.n))


class TestTriangleGraph:
    def test_gamma5_is_petersen_complement(self):
        gamma = quotient_at_every_vertex(build_complement(5))
        assert gamma.n == 10
        assert all(gamma.degree(v) == 6 for v in range(10))
        # Independent construction: complements of the 3-set labels are
        # 2-subsets; adjacency must match 'share exactly one point', which is
        # the complement of the Petersen graph's disjointness rule.
        points = set(range(1, 6))
        duals = [frozenset(points - s) for s in gamma.labels]
        for a in range(10):
            for b in range(a + 1, 10):
                assert gamma.has_edge(a, b) == (len(duals[a] & duals[b]) == 1)

    def test_adjacency_follows_support_overlap(self):
        gamma = quotient_at_every_vertex(build_complement(6))
        for a in range(gamma.n):
            for b in range(a + 1, gamma.n):
                overlap = len(gamma.labels[a] & gamma.labels[b])
                assert gamma.has_edge(a, b) == (overlap == 2)

    def test_cross_edge_counts_in_0_4_up_to_n8(self):
        # build_triangle_graph raises StructureError on any other count.
        for n in range(5, 9):
            quotient_at_every_vertex(build_complement(n))

    def test_johnson_isomorphism(self):
        for n in range(5, 9):
            gamma = quotient_at_every_vertex(build_complement(n))
            assert verify_johnson_isomorphism(gamma, n, range(gamma.n)) is True

    def test_johnson_isomorphism_refuses_no_vertices(self):
        # An edgeless graph with the right labels would pass over no rows.
        labels = [frozenset(c) for c in itertools.combinations(range(1, 7), 3)]
        edgeless = graph_from_edges(len(labels), [], labels)
        assert verify_johnson_isomorphism(edgeless, 6, range(edgeless.n)) is False
        with pytest.raises(ValueError, match="verify_johnson_isomorphism"):
            verify_johnson_isomorphism(edgeless, 6, [])

    def test_rook_neighborhoods(self):
        for n in (5, 6, 7):
            gamma = quotient_at_every_vertex(build_complement(n))
            assert all(verify_rook_neighborhood(gamma, v) for v in range(gamma.n))

    def test_distance2_property(self):
        for n in (7, 8):
            gamma = quotient_at_every_vertex(build_complement(n))
            assert all(verify_distance2_property(gamma, v) for v in range(gamma.n))

    def test_gamma6_antipodal_pairing(self):
        gamma = quotient_at_every_vertex(build_complement(6))
        for v in range(gamma.n):
            dist = networkx_distances(gamma, v)
            far = [w for w in range(gamma.n) if dist[w] == 3]
            assert len(far) == 1
            assert gamma.labels[far[0]] == frozenset(range(1, 7)) - gamma.labels[v]

    def test_vertex_transitive_under_point_permutations(self):
        for n in (5, 6, 7):
            gamma = quotient_at_every_vertex(build_complement(n))
            index = {s: i for i, s in enumerate(gamma.labels)}
            # The transposition (1 2) and the n-cycle, as image tuples on 0..n-1.
            for sigma in ((1, 0, *range(2, n)), (*range(1, n), 0)):
                perm = [index[frozenset(sigma[p - 1] + 1 for p in s)] for s in gamma.labels]
                for a, b in edges_reference(gamma):
                    assert gamma.has_edge(perm[a], perm[b])


def build_triangle_graph_reference(gbar: Graph, triangles) -> Graph:
    """Every pair of Triangles scanned for cross edges, kept as the oracle
    for `build_triangle_graph`, which visits only the pairs some edge joins."""
    masks = [_mask_of(t.vertices) for t in triangles]
    edges = []
    for a in range(len(triangles)):
        for b in range(a + 1, len(triangles)):
            cross = [
                (u, w)
                for u in triangles[a].vertices
                for w in _bits(gbar.adj[u] & masks[b])
            ]
            if not cross:
                continue
            if len(cross) != 4:
                raise StructureError(
                    f"Triangles {a} and {b} joined by {len(cross)} edges, expected 0 or 4"
                )
            two_disjoint_2paths_reference(cross)
            edges.append((a, b))
    return graph_from_edges(len(triangles), edges, [t.support for t in triangles])


def two_disjoint_2paths_reference(cross):
    """Walk the cross edges' components: the oracle for the popcount and
    centre test in `build_triangle_graph`."""
    deg: dict[int, int] = {}
    for u, w in cross:
        deg[u] = deg.get(u, 0) + 1
        deg[w] = deg.get(w, 0) + 1
    if len(deg) != 6 or sorted(deg.values()) != [1, 1, 1, 1, 2, 2]:
        raise StructureError(f"cross edges {cross} are not two disjoint 2-paths")
    adj: dict[int, set[int]] = {v: set() for v in deg}
    for u, w in cross:
        adj[u].add(w)
        adj[w].add(u)
    seen: set[int] = set()
    comps = 0
    for v in deg:
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        comps += 1
        if len(comp) != 3:
            raise StructureError(f"cross component {sorted(comp)} is not a 2-path")
    if comps != 2:
        raise StructureError(f"cross edges {cross} form {comps} components, expected 2")


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once `seconds` of wall time pass."""

    def stop(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def quotient_outcome(build, gbar, triangles):
    """The quotient's edges and labels, or the StructureError message."""
    try:
        gamma = build(gbar, triangles)
    except StructureError as exc:
        return f"StructureError: {exc}"
    return list(edges_reference(gamma)), gamma.labels


def every_vertex_quotient(gbar, triangles):
    """`build_triangle_graph` certified at every vertex, as the reference scans."""
    return build_triangle_graph(gbar, triangles, range(gbar.n))


class TestTriangleGraphAgainstReference:
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_same_quotient(self, n):
        gbar = build_complement(n)
        triangles = find_triangles(gbar, range(gbar.n))
        expected = quotient_outcome(build_triangle_graph_reference, gbar, triangles)
        assert quotient_outcome(every_vertex_quotient, gbar, triangles) == expected

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_same_error_without_one_cross_edge(self, n):
        gbar = build_complement(n)
        triangles = find_triangles(gbar, range(gbar.n))
        owner = {v: i for i, t in enumerate(triangles) for v in t.vertices}
        u, w = next((u, w) for u, w in edges_reference(gbar) if owner[u] != owner[w])
        adj = list(gbar.adj)
        adj[u] &= ~(1 << w)
        adj[w] &= ~(1 << u)
        broken = Graph(adj, gbar.labels)
        expected = quotient_outcome(build_triangle_graph_reference, broken, triangles)
        assert expected.startswith("StructureError: Triangles")
        assert quotient_outcome(every_vertex_quotient, broken, triangles) == expected

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_vertices_in_no_triangle_are_stepped_over(self, n):
        # Each Triangle dropped in turn leaves its three vertices in no
        # Triangle; the walk must clear each of their bits and go on, where
        # a walk that skips them without clearing never ends.
        gbar = build_complement(n)
        triangles = find_triangles(gbar, range(gbar.n))
        full = build_triangle_graph(gbar, triangles, range(gbar.n))
        for drop in range(len(triangles)):
            kept = triangles[:drop] + triangles[drop + 1 :]
            with time_limit(10):
                gamma = build_triangle_graph(gbar, kept, range(gbar.n))
            assert quotient_outcome(build_triangle_graph_reference, gbar, kept) == (
                list(edges_reference(gamma)), gamma.labels
            )
            rest = [v for v in range(full.n) if v != drop]
            assert list(gamma.adj) == [
                _mask_of(i for i, w in enumerate(rest) if full.has_edge(v, w)) for v in rest
            ]

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_a_two_vertex_triangle_gives_the_references_error(self, n):
        gbar = build_complement(n)
        triangles = find_triangles(gbar, range(gbar.n))
        for drop in range(3):
            first = triangles[0]
            shrunk = Triangle(first.vertices[:drop] + first.vertices[drop + 1 :], first.support)
            kept = [shrunk, *triangles[1:]]
            expected = quotient_outcome(build_triangle_graph_reference, gbar, kept)
            assert expected.startswith("StructureError: Triangles 0 and ")
            assert quotient_outcome(every_vertex_quotient, gbar, kept) == expected


# Two 3-cliques, {0, 1, 2} and {3, 4, 5}, and the nine pairs between them.
TWO_CLIQUES = (Triangle((0, 1, 2), None), Triangle((3, 4, 5), None))
CROSS_PAIRS = tuple(itertools.product((0, 1, 2), (3, 4, 5)))


def two_cliques_with(cross) -> Graph:
    return graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), *cross])


def first_quotient_row(gbar: Graph, triangles) -> Graph:
    """The quotient rule (`ridge._quotient_row`) on the first Triangle's
    row, as a graph on the Triangles; it needs no support labels."""
    masks = [_mask_of(t.vertices) for t in triangles]
    owner = [-1] * gbar.n
    for i, t in enumerate(triangles):
        for v in t.vertices:
            owner[v] = i
    row = ridge._quotient_row(gbar, masks, owner, 0)
    return graph_from_edges(len(triangles), [(0, b) for b in _bits(row)])


class TestQuotientRows:
    def test_row_off_the_labels_refused(self):
        # Triangles 0 and 9, {1, 2, 3} and {3, 4, 5} at n = 5, meet in one
        # point.  Four cross edges in two disjoint 2-paths pass the quotient
        # rule, but the label rows do not join them.
        gbar = build_complement(5)
        triangles = find_triangles(gbar, [0])
        a, b = triangles[0].vertices, triangles[9].vertices
        assert (triangles[0].support, triangles[9].support) == ({1, 2, 3}, {3, 4, 5})
        assert not any(gbar.adj[u] & _mask_of(b) for u in a)
        joined = toggled(gbar, [(a[0], b[1]), (a[0], b[2]), (a[1], b[0]), (a[2], b[0])])
        message = r"^Triangle 0: cross edges join it to Triangles \[.*9\], not to the 6 whose supports"
        with pytest.raises(StructureError, match=message):
            build_triangle_graph(joined, triangles, [0])


class TestCrossEdgesAgainstReference:
    def test_every_subset_of_cross_pairs(self):
        accepted = 0
        for chosen in range(1 << len(CROSS_PAIRS)):
            cross = [p for i, p in enumerate(CROSS_PAIRS) if chosen >> i & 1]
            gbar = two_cliques_with(cross)
            expected = quotient_outcome(build_triangle_graph_reference, gbar, TWO_CLIQUES)
            outcome = quotient_outcome(first_quotient_row, gbar, TWO_CLIQUES)
            if isinstance(expected, str):
                assert isinstance(outcome, str), cross
                if "joined by" in expected:
                    assert outcome == expected
            else:
                accepted += len(cross) == 4
                # The reference labels by support even when there is none.
                assert outcome[0] == expected[0], cross
        # One centre on each side (3 x 3), each reaching the other side's
        # two non-centres; the empty subset is accepted as well.
        assert accepted == 9

    def test_three_edge_path_plus_an_edge_is_refused(self):
        # Popcounts {2, 1, 1} on both sides, but the centres 0 and 3 meet:
        # the path 4-0-3-1 and the edge 2-5.
        gbar = two_cliques_with([(0, 3), (0, 4), (1, 3), (2, 5)])
        with pytest.raises(StructureError, match="centres 0 and 3 are adjacent"):
            first_quotient_row(gbar, TWO_CLIQUES)
        with pytest.raises(StructureError):
            build_triangle_graph_reference(gbar, TWO_CLIQUES)


class TestIntersectionArray:
    def test_gamma5_diameter_2(self):
        gamma = quotient_at_every_vertex(build_complement(5))
        arr = every_vertex_census_reference(gamma)
        assert len(arr.bs) == 2 and len(arr.cs) == 2

    def test_gamma6_distance_regular_diameter_3(self):
        gamma = quotient_at_every_vertex(build_complement(6))
        arr = every_vertex_census_reference(gamma)
        # Derived by hand from the 2-intersection adjacency on 3-subsets:
        # b = (3(n-3), 2(n-4), n-5), c = (1, 4, 9).
        assert arr.bs == (9, 4, 1)
        assert arr.cs == (1, 4, 9)

    def test_gamma7_intersection_array(self):
        gamma = quotient_at_every_vertex(build_complement(7))
        arr = every_vertex_census_reference(gamma)
        assert arr.bs == (12, 6, 2)
        assert arr.cs == (1, 4, 9)

    def test_empty_graph_refused_by_name(self):
        with pytest.raises(StructureError, match="empty graph"):
            intersection_array(graph_from_edges(0), range(0))

    def test_no_vertices_refused_by_name(self):
        with pytest.raises(ValueError, match="intersection_array"):
            intersection_array(quotient_at_every_vertex(build_complement(5)), [])

    def test_non_distance_regular_graph_rejected(self):
        path = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(StructureError):
            intersection_array(path, range(path.n))

    @settings(max_examples=100, deadline=None)
    @given(random_graphs())
    def test_returns_only_on_regular_graphs(self, graph):
        # The census leaves no need for a separate regularity check.
        try:
            arr = intersection_array(graph, range(graph.n))
        except StructureError:
            return
        assert {graph.degree(v) for v in range(graph.n)} == {arr.bs[0]}


def intersection_array_reference(gamma: Graph) -> IntersectionArray:
    """The per-neighbor distance census, kept as the oracle for
    `intersection_array`: each neighbor's distance is looked up one by one."""
    all_dist = [networkx_distances(gamma, v) for v in range(gamma.n)]
    if any(-1 in row for row in all_dist):
        raise StructureError("graph is not connected")
    diameter = max(max(row) for row in all_dist)
    bs = [None] * diameter
    cs = [None] * diameter
    for v in range(gamma.n):
        dist = all_dist[v]
        for w in range(gamma.n):
            d = dist[w]
            if w == v:
                continue
            nearer = sum(1 for x in _bits(gamma.adj[w]) if dist[x] == d - 1)
            farther = sum(1 for x in _bits(gamma.adj[w]) if dist[x] == d + 1)
            if cs[d - 1] is None:
                cs[d - 1] = nearer
            elif cs[d - 1] != nearer:
                raise StructureError(
                    f"not distance-regular: c_{d} differs at pair ({v}, {w})"
                )
            if d < diameter:
                if bs[d] is None:
                    bs[d] = farther
                elif bs[d] != farther:
                    raise StructureError(
                        f"not distance-regular: b_{d} differs at pair ({v}, {w})"
                    )
            elif farther:
                raise StructureError(f"distance census overflow at ({v}, {w})")
    degree = gamma.degree(0)
    if any(gamma.degree(v) != degree for v in range(gamma.n)):
        raise StructureError("not regular")
    return IntersectionArray((degree, *bs[1:]), tuple(cs))


def census_outcome(census, graph):
    """The array, or the StructureError message, a census gives."""
    try:
        return census(graph)
    except StructureError as exc:
        return f"StructureError: {exc}"


@st.composite
def census_graphs(draw, max_vertices=24):
    """Arbitrary graphs, which mostly fail the census, and distance-regular
    families (cycles, complete and complete bipartite graphs, cubes) that
    pass it."""
    kind = draw(st.sampled_from(["random", "cycle", "complete", "bipartite", "cube"]))
    if kind == "cycle":
        n = draw(st.integers(3, max_vertices))
        return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        n = draw(st.integers(2, max_vertices))
        return graph_from_edges(n, itertools.combinations(range(n), 2))
    if kind == "bipartite":
        m = draw(st.integers(1, max_vertices // 2))
        return graph_from_edges(2 * m, [(i, m + j) for i in range(m) for j in range(m)])
    if kind == "cube":
        d = draw(st.integers(1, 4))
        edges = [(v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1]
        return graph_from_edges(1 << d, edges)
    return draw(random_graphs(max_vertices))


class TestIntersectionArrayAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(census_graphs())
    def test_same_array_or_error(self, graph):
        expected = census_outcome(intersection_array_reference, graph)
        assert census_outcome(every_vertex_census_reference, graph) == expected

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_same_array_on_gamma(self, n):
        gamma = quotient_at_every_vertex(build_complement(n))
        assert every_vertex_census_reference(gamma) == intersection_array_reference(gamma)


def build_complement_reference(n: int) -> Graph:
    """Every facet pair tested for opposite signs, kept as the oracle for
    `build_complement`, which ORs per-coordinate sign masks."""
    facets = enumerate_triangle_facets(n)
    signed = [signed_masks_reference(f) for f in facets]
    conflict = [0] * len(facets)
    for a, (ap, an) in enumerate(signed):
        for b in range(a + 1, len(facets)):
            bp, bn = signed[b]
            if ap & bn or an & bp:
                conflict[a] |= 1 << b
                conflict[b] |= 1 << a
    return Graph(conflict, facets)


def verify_rook_neighborhood_reference(gamma: Graph, v: int) -> bool:
    """Every pair of neighbours compared with the rook rule, kept as the
    oracle for `verify_rook_neighborhood`, which compares whole rows."""
    base = gamma.labels[v]
    coords = {}
    for w in gamma.neighbors(v):
        dropped = base - gamma.labels[w]
        added = gamma.labels[w] - base
        if len(dropped) != 1 or len(added) != 1:
            return False
        coords[w] = (next(iter(dropped)), next(iter(added)))
    neighbors = list(coords)
    for a_idx in range(len(neighbors)):
        for b_idx in range(a_idx + 1, len(neighbors)):
            a, b = neighbors[a_idx], neighbors[b_idx]
            (p1, q1), (p2, q2) = coords[a], coords[b]
            expected = (p1 == p2) != (q1 == q2)
            if gamma.has_edge(a, b) != expected:
                return False
    return True


def verify_distance2_property_reference(gamma: Graph, v: int) -> bool:
    """The distance-2 layer read off a BFS, kept as the oracle for
    `verify_distance2_property`, which ORs the neighbours' rows."""
    dist = networkx_distances(gamma, v)
    foursets = []
    for w in range(gamma.n):
        if dist[w] != 2:
            continue
        common = gamma.adj[w] & gamma.adj[v]
        if common.bit_count() != 4:
            return False
        foursets.append(common)
    return len(set(foursets)) == len(foursets)


def quotient_verdicts(gamma: Graph, rook, distance2):
    return [(rook(gamma, v), distance2(gamma, v)) for v in range(gamma.n)]


@st.composite
def gamma_with_a_toggled_edge(draw):
    """A Triangle quotient with one edge added or removed between two
    neighbours of a vertex v; returns the graph and v."""
    gamma = quotient_at_every_vertex(build_complement(draw(st.integers(5, 7))))
    v = draw(st.integers(0, gamma.n - 1))
    a, b = draw(st.lists(st.sampled_from(list(gamma.neighbors(v))), min_size=2, max_size=2, unique=True))
    edges = set(edges_reference(gamma)) ^ {(min(a, b), max(a, b))}
    return graph_from_edges(gamma.n, sorted(edges), gamma.labels), v


class TestQuotientChecksAgainstReference:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_same_complement(self, n):
        gbar, expected = build_complement(n), build_complement_reference(n)
        assert gbar.adj == expected.adj and gbar.labels == expected.labels

    @pytest.mark.parametrize("n", range(5, 10))
    def test_same_verdicts_on_gamma(self, n):
        gamma = quotient_at_every_vertex(build_complement(n))
        expected = quotient_verdicts(
            gamma, verify_rook_neighborhood_reference, verify_distance2_property_reference
        )
        assert quotient_verdicts(gamma, verify_rook_neighborhood, verify_distance2_property) == expected
        assert all(rook and d2 for rook, d2 in expected)

    @settings(max_examples=40, deadline=None)
    @given(gamma_with_a_toggled_edge())
    def test_same_verdicts_with_one_edge_toggled(self, case):
        gamma, v = case
        expected = quotient_verdicts(
            gamma, verify_rook_neighborhood_reference, verify_distance2_property_reference
        )
        assert quotient_verdicts(gamma, verify_rook_neighborhood, verify_distance2_property) == expected
        assert expected[v][0] is False


class TestExport:
    def test_graph6_against_networkx(self):
        for builder, n in [(build_ridge_graph_reference, 4), (build_complement, 5)]:
            g = builder(n)
            encoded = to_graph6(g)
            back = nx.from_graph6_bytes(encoded.encode())
            assert set(back.edges()) == set(edges_reference(g))

    def test_graph6_large_vertex_header(self):
        g = graph_from_edges(70, [(0, 69)])
        back = nx.from_graph6_bytes(to_graph6(g).encode())
        assert back.number_of_nodes() == 70
        assert set(back.edges()) == {(0, 69)}

    def test_edge_list_lines(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert list(edge_list_lines(g)) == ["0 1\n", "1 2\n"]
        star = graph_from_edges(4, [(0, 1), (0, 3), (2, 3)])
        assert list(edge_list_lines(star)) == ["0 1\n0 3\n", "2 3\n"]
        assert list(edge_list_lines(graph_from_edges(3))) == []

    def test_label_lines_for_facets_and_supports(self):
        gbar = build_complement(4)
        lines = label_lines(gbar)
        assert lines[0].split() == ["0", "1", "2", "3", "1", "2"]
        gamma = quotient_at_every_vertex(build_complement(5))
        assert label_lines(gamma)[0].split() == ["0", "1", "2", "3"]
