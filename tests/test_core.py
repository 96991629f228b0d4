"""Tests for coordinate indexing, cuts, facets, permutations, and switching."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesym.cones import facet_value, integer_rank
from conesym.core import (
    CutVector,
    Permutation,
    TriangleFacet,
    apply_permutation,
    cut_columns,
    cut_correlations,
    cut_vector,
    enumerate_cuts,
    enumerate_triangle_facets,
    num_pairs,
    pair_index,
    pair_list,
    pair_unindex,
    permute_facet,
    switching_reflection,
)


def permute_cut_reference(sigma, cut):
    """The cut generated by the image point set."""
    return CutVector(cut.n, (sigma(p) for p in cut.members))


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


def brute_force_cut_bits(members, n):
    """Independent oracle: evaluate the cut membership test pair by pair."""
    members = set(members)
    return tuple(
        1 if (i in members) != (j in members) else 0
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
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
        for n in range(3, 13):
            for k in range(num_pairs(n)):
                i, j = pair_unindex(k, n)
                assert pair_index(i, j, n) == k
            for i, j in pair_list(n):
                assert pair_unindex(pair_index(i, j, n), n) == (i, j)

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            pair_index(2, 2, 4)
        with pytest.raises(ValueError):
            pair_index(3, 2, 4)
        with pytest.raises(ValueError):
            pair_index(1, 5, 4)
        with pytest.raises(ValueError):
            pair_unindex(6, 4)

    def test_integral_float_point_refused_by_name(self):
        # 1.0 == 1, so the pair table would answer for (1, 2).
        with pytest.raises(ValueError, match=r"invalid pair \(1\.0, 2\) for n=4"):
            pair_index(1.0, 2, 4)

    def test_fractional_point_refused_by_name(self):
        # (1.5, 2) would miss the pair table with a bare KeyError.
        with pytest.raises(ValueError, match=r"invalid pair \(1\.5, 2\) for n=4"):
            pair_index(1.5, 2, 4)

    def test_float_coordinate_refused_by_name(self):
        # 1.0 is in range but would index the pair tuple.
        with pytest.raises(ValueError, match=r"coordinate 1\.0 out of range for n=4"):
            pair_unindex(1.0, 4)


class TestCutVector:
    def test_singleton_cut_matches_reference_row(self):
        assert cut_vector({1}, 4).bits == (1, 1, 1, 0, 0, 0)  # r7
        assert cut_vector({2}, 4).bits == (1, 0, 0, 1, 1, 0)  # r6

    def test_pair_cut_matches_reference_row(self):
        assert cut_vector({1, 2}, 4).bits == (0, 1, 1, 1, 1, 0)  # r2

    def test_empty_and_full_set_give_zero(self):
        assert cut_vector(set(), 4).bits == (0, 0, 0, 0, 0, 0)
        assert cut_vector({1, 2, 3, 4}, 4).is_zero()

    def test_against_brute_force_oracle(self):
        for n in range(3, 7):
            for m in range(1 << n):
                members = {p + 1 for p in range(n) if (m >> p) & 1}
                assert cut_vector(members, n).bits == brute_force_cut_bits(members, n)

    def test_complement_symmetry_up_to_n8(self):
        for n in range(3, 9):
            full = set(range(1, n + 1))
            for m in range(1 << (n - 1)):
                members = {p + 1 for p in range(n - 1) if (m >> p) & 1}
                assert cut_vector(members, n) == cut_vector(full - members, n)

    def test_canonical_representative_omits_n(self):
        c = cut_vector({2, 5}, 5)
        assert 5 not in c.members
        assert c.members == frozenset({1, 3, 4})

    def test_out_of_range_members_rejected(self):
        with pytest.raises(ValueError):
            cut_vector({0}, 4)
        with pytest.raises(ValueError):
            cut_vector({5}, 4)

    def test_non_integer_member_refused(self):
        with pytest.raises(ValueError, match=r"integers in 1\.\.4"):
            CutVector(4, [1.0])


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
        assert cut_vector({1, 2}, 4).correlation == (1, 0, 1, 0, 1, 0)
        assert cut_vector({3, 4}, 4).correlation == (1, 0, 1, 0, 1, 0)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_is_the_covariance_map_of_every_cut(self, n):
        rows = []
        for cut in enumerate_cuts(n):
            p = cut.correlation
            assert set(p) <= {0, 1}
            assert p == covariance_map_reference(cut.bits, n)
            assert covariance_map_inverse_reference(p, n) == cut.bits
            rows.append(p)
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
        cuts = enumerate_cuts(n)
        for f in enumerate_triangle_facets(n):
            h = f.correlation
            assert set(h) <= {-1, 0, 1}
            for cut in cuts:
                assert facet_value(f, cut) == 2 * sum(a * b for a, b in zip(h, cut.correlation))

    @pytest.mark.parametrize("n", range(4, 10))
    def test_supports_are_distinct(self, n):
        facets = enumerate_triangle_facets(n)
        supports = {frozenset(k for k, x in enumerate(f.correlation) if x) for f in facets}
        assert len(supports) == len(facets)


class TestEnumerateCuts:
    def test_n4_equals_reference_rows_as_set(self):
        got = {c.bits for c in enumerate_cuts(4)}
        assert got == set(RAYS_N4)
        assert len(enumerate_cuts(4)) == 7

    def test_counts(self):
        for n in range(3, 9):
            cuts = enumerate_cuts(n)
            assert len(cuts) == 2 ** (n - 1) - 1
            assert len(set(cuts)) == len(cuts)
            assert not any(c.is_zero() for c in cuts)

    def test_n3_each_cut_has_two_ones(self):
        # Oracle: enumerate subsets of {1,2,3} directly.
        expected = {brute_force_cut_bits(s, 3) for s in ({1}, {2}, {3})}
        assert {c.bits for c in enumerate_cuts(3)} == expected
        assert all(sum(c.bits) == 2 for c in enumerate_cuts(3))


class TestCutColumns:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_transpose_of_the_cut_masks(self, n):
        masks = [c.mask for c in enumerate_cuts(n)]
        transpose = [
            sum((mask >> k & 1) << c for c, mask in enumerate(masks)) for k in range(num_pairs(n))
        ]
        assert cut_columns(n) == transpose

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_points_refused(self, n):
        with pytest.raises(ValueError, match="need n >= 3"):
            cut_columns(n)


class TestCutCorrelations:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_rows_of_the_cut_order(self, n):
        assert cut_correlations(n) == [c.correlation for c in enumerate_cuts(n)]

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
            supported = {pair_unindex(k, 5) for k, c in enumerate(coeffs) if c}
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
            cuts = enumerate_cuts(n)
            for f in enumerate_triangle_facets(n):
                (a, sa), (b, sb), (c, sc) = f.entries()
                for cut in cuts:
                    assert sa * cut[a] + sb * cut[b] + sc * cut[c] <= 0


class TestPermutationAction:
    def test_identity_fixes_vectors(self):
        v = tuple(range(10))
        assert apply_permutation(Permutation.identity(5), v) == v

    def test_transposition_on_singleton_cut(self):
        sigma = Permutation.from_cycles(4, [(1, 2)])
        moved = apply_permutation(sigma, cut_vector({1}, 4).bits)
        assert moved == (1, 0, 0, 1, 1, 0)  # r6 = the cut of {2}

    def test_three_cycle_on_facet_support(self):
        # Oracle: map the three support pairs through the index map by hand.
        sigma = Permutation.from_cycles(4, [(1, 2, 3)])
        f = TriangleFacet(1, 2, 3, 4)
        moved = apply_permutation(sigma, f.coeffs())
        assert moved == TriangleFacet(2, 3, 1, 4).coeffs()
        assert permute_facet(sigma, f) == TriangleFacet(2, 3, 1, 4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_permutation(Permutation.identity(4), (0, 1, 2))

    @pytest.mark.parametrize("cycle", [(3, 0), (4, 1)])
    def test_cycle_point_outside_range_refused(self, cycle):
        # Point 0 would write images[-1] and (3, 0) would give the identity;
        # point 4 would index past the end.
        with pytest.raises(ValueError, match=r"outside 1\.\.3"):
            Permutation.from_cycles(3, [cycle])

    @pytest.mark.parametrize("cycle", [(), (1.5, 2)])
    def test_malformed_cycle_refused_by_name(self, cycle):
        # () would read cycle[0]; 1.5 would index the image list.
        with pytest.raises(ValueError, match=re.escape(f"cycle {cycle} ")):
            Permutation.from_cycles(3, [cycle])

    def test_non_integer_image_refused(self):
        # 1.0 == 1, so a sorted comparison would take this for the identity.
        with pytest.raises(ValueError, match=r"\(1\.0, 2, 3\) is not a permutation"):
            Permutation([1.0, 2, 3])

    @pytest.mark.parametrize("point", [0, 4])
    def test_call_outside_range_refused(self, point):
        # Point 0 would read images[-1].
        with pytest.raises(ValueError, match=f"point {point} outside 1\\.\\.3"):
            Permutation([1, 2, 3])(point)

    def test_call_at_fractional_point_refused(self):
        # 1.5 lies between 1 and 3 but would index the image tuple.
        with pytest.raises(ValueError, match=r"point 1\.5 outside 1\.\.3"):
            Permutation([1, 2, 3])(1.5)

    @settings(max_examples=60)
    @given(st.data())
    def test_group_action_composition(self, data):
        n = data.draw(st.integers(3, 6))
        sigma = Permutation(data.draw(st.permutations(range(1, n + 1))))
        tau = Permutation(data.draw(st.permutations(range(1, n + 1))))
        v = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=num_pairs(n), max_size=num_pairs(n))))
        assert apply_permutation(sigma.compose(tau), v) == apply_permutation(
            sigma, apply_permutation(tau, v)
        )

    @settings(max_examples=40)
    @given(st.data())
    def test_permute_cut_agrees_with_vector_action(self, data):
        n = data.draw(st.integers(3, 6))
        sigma = Permutation(data.draw(st.permutations(range(1, n + 1))))
        members = data.draw(st.sets(st.integers(1, n)))
        cut = cut_vector(members, n)
        assert permute_cut_reference(sigma, cut).bits == apply_permutation(sigma, cut.bits)


class TestSwitching:
    def test_empty_set_is_identity(self):
        x = (0, 1, 1, 0, 1, 0)
        assert switching_reflection(set(), x) == x

    def test_switching_own_cut_gives_zero(self):
        # 1 - 1 on the support of the cut of {1}, zeros elsewhere unchanged.
        assert switching_reflection({1}, cut_vector({1}, 4).bits) == (0,) * 6

    def test_involution(self):
        x = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1)
        for m in range(1 << 5):
            members = {p + 1 for p in range(5) if (m >> p) & 1}
            assert switching_reflection(members, switching_reflection(members, x)) == x

    def test_switching_maps_cuts_to_symmetric_difference_n5(self):
        # Brute-force identity check over all 32 x 32 subset pairs.
        n = 5
        subsets = [
            {p + 1 for p in range(n) if (m >> p) & 1} for m in range(1 << n)
        ]
        for s in subsets:
            for t in subsets:
                got = switching_reflection(s, cut_vector(t, n).bits)
                assert got == cut_vector(s ^ t, n).bits

    @settings(max_examples=60)
    @given(st.data())
    def test_switching_composition_on_binary_vectors(self, data):
        n = data.draw(st.integers(3, 6))
        m = num_pairs(n)
        x = tuple(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
        s = data.draw(st.sets(st.integers(1, n)))
        t = data.draw(st.sets(st.integers(1, n)))
        lhs = switching_reflection(s, switching_reflection(t, x))
        assert lhs == switching_reflection(s ^ t, x)
