"""Tests for coordinate indexing, cuts, facets, permutations, and switching."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesym.autgrp import _mult, induced_point_generators
from conesym.cones import facet_value, integer_rank
from conesym.core import (
    TriangleFacet,
    cut_columns,
    cut_correlations,
    cut_members,
    enumerate_triangle_facets,
    num_pairs,
    pair_index,
    pair_list,
)
from conesym.reflections import _move_pairs

from references import (
    cut_bits_reference,
    cut_order_reference,
    graph_from_edges,
    switching_reflection_reference,
)


def permute_cut_reference(sigma, members, n):
    """The cut vector of the image point set, sigma an image tuple on 0..n-1."""
    return cut_bits_reference({sigma[p - 1] + 1 for p in members}, n)


def column_cut(members, n):
    """The cut vector of a generating set in the cut order, read off
    `cut_columns(n)` at the set's place in that order."""
    c = cut_members(n).index(sorted(members))
    return tuple(column >> c & 1 for column in cut_columns(n))


# The seven nonzero cuts on 4 points in the fixed reference order r1..r7.
RAYS_N4 = (
    (0, 0, 1, 0, 1, 1),
    (0, 1, 1, 1, 1, 0),
    (0, 1, 0, 1, 0, 1),
    (1, 0, 1, 1, 0, 1),
    (1, 1, 0, 0, 1, 1),
    (1, 0, 0, 1, 1, 0),
    (1, 1, 1, 0, 0, 0),
)


class TestPairIndexing:
    def test_first_and_last_pair_n4(self):
        assert pair_index(1, 2, 4) == 0
        assert pair_index(3, 4, 4) == 5

    def test_pair_2_4_matches_enumeration(self):
        # Oracle: position of (2, 4) in the explicit lexicographic listing.
        listing = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        assert listing.index((2, 4)) == 4
        assert pair_index(2, 4, 4) == 4

    def test_round_trip_all_pairs_up_to_n12(self):
        # pair_list(n)[k] is the pair at coordinate k.
        for n in range(3, 13):
            pairs = pair_list(n)
            assert len(pairs) == num_pairs(n)
            for k, (i, j) in enumerate(pairs):
                assert pair_index(i, j, n) == k

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            pair_index(2, 2, 4)
        with pytest.raises(ValueError):
            pair_index(3, 2, 4)
        with pytest.raises(ValueError):
            pair_index(1, 5, 4)

    def test_integral_float_point_refused_by_name(self):
        # 1.0 == 1, so the pair table would answer for (1, 2).
        with pytest.raises(ValueError, match=r"invalid pair \(1\.0, 2\) for n=4"):
            pair_index(1.0, 2, 4)

    def test_fractional_point_refused_by_name(self):
        # (1.5, 2) would miss the pair table with a bare KeyError.
        with pytest.raises(ValueError, match=r"invalid pair \(1\.5, 2\) for n=4"):
            pair_index(1.5, 2, 4)


class TestCutVector:
    def test_singleton_cut_matches_reference_row(self):
        assert column_cut({1}, 4) == (1, 1, 1, 0, 0, 0)  # r7
        assert column_cut({2}, 4) == (1, 0, 0, 1, 1, 0)  # r6

    def test_pair_cut_matches_reference_row(self):
        assert column_cut({1, 2}, 4) == (0, 1, 1, 1, 1, 0)  # r2

    def test_empty_and_full_set_give_zero(self):
        # The zero vector is no cut, and the cut order lists neither set.
        assert cut_bits_reference(set(), 4) == cut_bits_reference({1, 2, 3, 4}, 4) == (0,) * 6
        assert [] not in cut_members(4)
        assert not any(column_cut(members, 4) == (0,) * 6 for members in cut_members(4))

    def test_against_brute_force_oracle(self):
        # Every proper nonempty subset of 1..n, read off the columns at its
        # own place in the cut order or at its complement's when it holds n.
        for n in range(3, 7):
            full = set(range(1, n + 1))
            for m in range(1, (1 << n) - 1):
                members = {p + 1 for p in range(n) if (m >> p) & 1}
                generator = full - members if n in members else members
                assert column_cut(generator, n) == cut_bits_reference(members, n)

    def test_complement_symmetry_up_to_n8(self):
        # A set and its complement cut the same pairs, so the sets without
        # n, which the cut order lists, give every nonzero cut.
        for n in range(3, 9):
            full = set(range(1, n + 1))
            every = set()
            for m in range(1 << n):
                members = {p + 1 for p in range(n) if (m >> p) & 1}
                assert cut_bits_reference(members, n) == cut_bits_reference(full - members, n)
                every.add(cut_bits_reference(members, n))
            assert every - {(0,) * num_pairs(n)} == set(cut_order_reference(n))


def covariance_map_reference(x, n):
    """xi(x) rooted at n: xi_in = x_in and xi_ij = (x_in + x_jn - x_ij) / 2."""
    return tuple(
        x[pair_index(i, n, n)]
        if j == n
        else Fraction(x[pair_index(i, n, n)] + x[pair_index(j, n, n)] - x[pair_index(i, j, n)], 2)
        for i, j in pair_list(n)
    )


def covariance_map_inverse_reference(p, n):
    """x_in = p_in and x_ij = p_in + p_jn - 2 * p_ij."""
    return tuple(
        p[pair_index(i, n, n)]
        if j == n
        else p[pair_index(i, n, n)] + p[pair_index(j, n, n)] - 2 * p[pair_index(i, j, n)]
        for i, j in pair_list(n)
    )


class TestCorrelation:
    def test_pair_cut_n4(self):
        # s = (1, 1, 0, 0): p_12 = 1, p_14 = s_1 = 1, p_24 = s_2 = 1.
        assert cut_correlations(4)[cut_members(4).index([1, 2])] == (1, 0, 1, 0, 1, 0)
        # {3, 4} cuts the same pairs as {1, 2}.
        assert covariance_map_reference(cut_bits_reference({3, 4}, 4), 4) == (1, 0, 1, 0, 1, 0)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_is_the_covariance_map_of_every_cut(self, n):
        rows = cut_correlations(n)
        cuts = cut_order_reference(n)
        assert len(rows) == len(cuts)
        for p, bits in zip(rows, cuts):
            assert set(p) <= {0, 1}
            assert p == covariance_map_reference(bits, n)
            assert covariance_map_inverse_reference(p, n) == bits
        assert integer_rank(rows) == num_pairs(n)


class TestFacetCorrelation:
    def test_the_three_shapes_n5(self):
        # Coordinates at n = 5: 12 13 14 15 23 24 25 34 35 45.
        assert TriangleFacet(1, 2, 3, 5).correlation == (-1, 1, 0, 0, 1, 0, 0, 0, -1, 0)
        assert TriangleFacet(2, 5, 4, 5).correlation == (0, 0, 0, 0, 0, 1, 0, 0, 0, -1)
        assert TriangleFacet(3, 4, 5, 5).correlation == (0, 0, 0, 0, 0, 0, 0, -1, 0, 0)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_halves_the_facet_value_on_every_cut(self, n):
        # The cuts span the space, so the identity holds for every x.
        cuts = list(zip(cut_order_reference(n), cut_correlations(n)))
        for f in enumerate_triangle_facets(n):
            h = f.correlation
            assert set(h) <= {-1, 0, 1}
            for bits, p in cuts:
                assert facet_value(f, bits) == 2 * sum(a * b for a, b in zip(h, p))

    @pytest.mark.parametrize("n", range(4, 10))
    def test_supports_are_distinct(self, n):
        facets = enumerate_triangle_facets(n)
        supports = {frozenset(k for k, x in enumerate(f.correlation) if x) for f in facets}
        assert len(supports) == len(facets)


class TestEnumerateCuts:
    def test_n4_equals_reference_rows_as_set(self):
        cuts = cut_order_reference(4)
        assert set(cuts) == set(RAYS_N4)
        assert len(cuts) == 7

    def test_counts(self):
        for n in range(3, 9):
            cuts = cut_order_reference(n)
            assert len(cuts) == 2 ** (n - 1) - 1
            assert len(set(cuts)) == len(cuts)
            assert (0,) * num_pairs(n) not in cuts

    def test_n3_each_cut_has_two_ones(self):
        # Oracle: enumerate subsets of {1,2,3} directly.
        expected = {cut_bits_reference(s, 3) for s in ({1}, {2}, {3})}
        assert set(cut_order_reference(3)) == expected
        assert all(sum(bits) == 2 for bits in cut_order_reference(3))


class TestCutMembers:
    def test_order_n4(self):
        # Cut c is generated by the set bits of c + 1.
        assert cut_members(4) == [[1], [2], [1, 2], [3], [1, 3], [2, 3], [1, 2, 3]]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_points_refused(self, n):
        with pytest.raises(ValueError, match="need n >= 3"):
            cut_members(n)


class TestCutColumns:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_transpose_of_the_cut_masks(self, n):
        cuts = cut_order_reference(n)
        transpose = [sum(bits[k] << c for c, bits in enumerate(cuts)) for k in range(num_pairs(n))]
        assert cut_columns(n) == transpose

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_points_refused(self, n):
        with pytest.raises(ValueError, match="need n >= 3"):
            cut_columns(n)


class TestCutCorrelations:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_rows_of_the_cut_order(self, n):
        expected = [covariance_map_reference(bits, n) for bits in cut_order_reference(n)]
        assert cut_correlations(n) == expected

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_points_refused(self, n):
        with pytest.raises(ValueError, match="need n >= 3"):
            cut_correlations(n)


class TestTriangleFacets:
    def test_counts(self):
        assert len(enumerate_triangle_facets(4)) == 12
        assert len(enumerate_triangle_facets(5)) == 30
        assert len(enumerate_triangle_facets(6)) == 60

    def test_sign_pattern(self):
        for f in enumerate_triangle_facets(5):
            coeffs = f.coeffs()
            assert sorted(coeffs) == [-1, -1] + [0] * (num_pairs(5) - 3) + [1]
            supported = {pair_list(5)[k] for k, c in enumerate(coeffs) if c}
            points = set(itertools.chain.from_iterable(supported))
            assert points == set(f.support) and len(points) == 3

    def test_distinct(self):
        facets = enumerate_triangle_facets(6)
        assert len(set(facets)) == len(facets)

    def test_non_integer_point_refused(self):
        with pytest.raises(ValueError, match=r"\(1\.0, 2, 3\) is not a 3-set"):
            TriangleFacet(1.0, 2, 3, 4)

    def test_facets_nonpositive_on_cuts_up_to_n8(self):
        # Cuts satisfy every triangle inequality.
        for n in range(4, 9):
            cuts = cut_order_reference(n)
            for f in enumerate_triangle_facets(n):
                (a, sa), (b, sb), (c, sc) = f.entries()
                for cut in cuts:
                    assert sa * cut[a] + sb * cut[b] + sc * cut[c] <= 0


class TestPermutationAction:
    """A point permutation is an image tuple on 0..n-1: point p goes to
    sigma[p - 1] + 1.  `autgrp.induced_point_generators` moves the facet or
    3-set labels of a graph through the point generators and
    `reflections._move_pairs` a vector over pairs."""

    def test_identity_fixes_vectors(self):
        v = tuple(range(10))
        assert _move_pairs(tuple(range(5)), v) == v

    def test_transposition_on_singleton_cut(self):
        moved = _move_pairs((1, 0, 2, 3), cut_bits_reference({1}, 4))
        assert moved == (1, 0, 0, 1, 1, 0)  # r6 = the cut of {2}

    def test_three_cycle_on_facet_support(self):
        # Oracle: map the three support pairs through the index map by hand.
        sigma = (1, 2, 0, 3)  # the 3-cycle (1 2 3)
        f = TriangleFacet(1, 2, 3, 4)
        assert _move_pairs(sigma, f.coeffs()) == TriangleFacet(2, 3, 1, 4).coeffs()

    @pytest.mark.parametrize(
        "labels, label, image",
        [
            (enumerate_triangle_facets(4), TriangleFacet(1, 2, 3, 4), TriangleFacet(2, 3, 4, 4)),
            ([frozenset(s) for s in itertools.combinations(range(1, 5), 3)],
             frozenset({1, 2, 4}), frozenset({2, 3, 1})),
        ],
        ids=["facet", "three-set"],
    )
    def test_four_cycle_moves_a_label(self, labels, label, image):
        # The second point generator at n = 4 is the 4-cycle (1 2 3 4).
        _, cycle = induced_point_generators(graph_from_edges(len(labels), labels=labels), 4)
        assert labels[cycle[labels.index(label)]] == image

    def test_length_mismatch_rejected(self):
        graph = graph_from_edges(1, labels=[TriangleFacet(1, 2, 3, 5)])
        with pytest.raises(ValueError, match=r"TriangleFacet\(1,2;3\) is a facet for n=5, not n=4"):
            induced_point_generators(graph, 4)

    @pytest.mark.parametrize("point", [0, 4])
    def test_call_outside_range_refused(self, point):
        # Point 0 would read sigma[-1]; point 4 would index past the end.
        with pytest.raises(ValueError, match=r"not a set of points inside 1\.\.3"):
            induced_point_generators(graph_from_edges(1, labels=[frozenset({point, 1, 2})]), 3)

    def test_call_at_fractional_point_refused(self):
        # 1.5 lies between 1 and 3 but would index the image tuple.
        with pytest.raises(ValueError, match=r"not a set of points inside 1\.\.3"):
            induced_point_generators(graph_from_edges(1, labels=[frozenset({1.5, 2, 3})]), 3)

    @settings(max_examples=60)
    @given(st.data())
    def test_group_action_composition(self, data):
        # Moving by tau, then by sigma, is moving by their product in the
        # order the stabilizer chain composes (`autgrp._mult`).
        n = data.draw(st.integers(3, 6))
        sigma = tuple(data.draw(st.permutations(range(n))))
        tau = tuple(data.draw(st.permutations(range(n))))
        v = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=num_pairs(n), max_size=num_pairs(n))))
        assert _move_pairs(_mult(tau, sigma), v) == _move_pairs(sigma, _move_pairs(tau, v))

    @settings(max_examples=40)
    @given(st.data())
    def test_permute_cut_agrees_with_vector_action(self, data):
        n = data.draw(st.integers(3, 6))
        sigma = tuple(data.draw(st.permutations(range(n))))
        members = data.draw(st.sets(st.integers(1, n)))
        moved = _move_pairs(sigma, cut_bits_reference(members, n))
        assert permute_cut_reference(sigma, members, n) == moved


class TestSwitching:
    def test_empty_set_is_identity(self):
        x = (0, 1, 1, 0, 1, 0)
        assert switching_reflection_reference(set(), x) == x

    def test_switching_own_cut_gives_zero(self):
        # 1 - 1 on the support of the cut of {1}, zeros elsewhere unchanged.
        assert switching_reflection_reference({1}, cut_bits_reference({1}, 4)) == (0,) * 6

    def test_involution(self):
        x = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1)
        for m in range(1 << 5):
            members = {p + 1 for p in range(5) if (m >> p) & 1}
            once = switching_reflection_reference(members, x)
            assert switching_reflection_reference(members, once) == x

    def test_switching_maps_cuts_to_symmetric_difference_n5(self):
        # Brute-force identity check over all 32 x 32 subset pairs.
        n = 5
        subsets = [
            {p + 1 for p in range(n) if (m >> p) & 1} for m in range(1 << n)
        ]
        for s in subsets:
            for t in subsets:
                got = switching_reflection_reference(s, cut_bits_reference(t, n))
                assert got == cut_bits_reference(s ^ t, n)

    @settings(max_examples=60)
    @given(st.data())
    def test_switching_composition_on_binary_vectors(self, data):
        n = data.draw(st.integers(3, 6))
        m = num_pairs(n)
        x = tuple(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
        s = data.draw(st.sets(st.integers(1, n)))
        t = data.draw(st.sets(st.integers(1, n)))
        lhs = switching_reflection_reference(s, switching_reflection_reference(t, x))
        assert lhs == switching_reflection_reference(s ^ t, x)
