"""Tests for inequality evaluation, incidence counting, and rank certificates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesym.cones import (
    _facet_incidence_masks,
    adjacency_agreement,
    certify_cutcone_adjacency,
    cut_rank,
    cuts_on_facet,
    enumerate_hypermetric_coeffs,
    facet_value,
    hypermetric_sweep,
    hypermetric_value,
    integer_rank,
    kernel_basis,
    triangle_incidence_bound,
    triangle_maximality_sweep,
)
from conesym.core import (
    Permutation,
    TriangleFacet,
    apply_permutation,
    cut_vector,
    enumerate_cuts,
    enumerate_triangle_facets,
    num_pairs,
)
from conesym.ridge import conflicting


class TestFacetValue:
    def test_on_singleton_cut(self):
        f = TriangleFacet(1, 2, 3, 4)
        assert facet_value(f, cut_vector({1}, 4).bits) == 0  # 1 - 1 - 0

    def test_on_zero_vector(self):
        assert facet_value(TriangleFacet(1, 2, 3, 4), (0,) * 6) == 0

    def test_on_third_point_cut(self):
        f = TriangleFacet(1, 2, 3, 4)
        assert facet_value(f, cut_vector({3}, 4).bits) == -2  # 0 - 1 - 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            facet_value(TriangleFacet(1, 2, 3, 4), (0,) * 10)

    def test_rational_entries(self):
        f = TriangleFacet(1, 2, 3, 4)
        x = (Fraction(1, 2), Fraction(1, 3), 0, Fraction(1, 6), 0, 0)
        assert facet_value(f, x) == Fraction(0)


class TestCutsOnFacet:
    def test_counts_follow_formula(self):
        # 3 * 2**(n-3) - 1: 5, 11, 23, 47 for n = 4..7 on a sample facet.
        for n, expected in [(4, 5), (5, 11), (6, 23), (7, 47)]:
            rep = cuts_on_facet(TriangleFacet(1, 2, 3, n), n)
            assert rep.count == expected == triangle_incidence_bound(n)

    def test_every_facet_n8_by_exhaustive_evaluation(self):
        n = 8
        for f in enumerate_triangle_facets(n):
            rep = cuts_on_facet(f, n)
            assert rep.count == 95
            assert all(facet_value(f, c) == 0 for c in rep.cuts)

    def test_count_invariant_up_to_n10(self):
        for n in (9, 10):
            bound = triangle_incidence_bound(n)
            cuts = enumerate_cuts(n)
            for f in enumerate_triangle_facets(n):
                (a, sa), (b, sb), (c, sc) = f.entries()
                count = sum(
                    1 for cut in cuts if sa * cut[a] + sb * cut[b] + sc * cut[c] == 0
                )
                assert count == bound

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_bit_sliced_masks_match_direct_evaluation(self, n):
        facets, cuts, on, violating = _facet_incidence_masks(n)
        index = {c: i for i, c in enumerate(cuts)}
        for f, on_mask, bad_mask in zip(facets, on, violating):
            assert on_mask == sum(1 << index[c] for c in cuts_on_facet(f, n).cuts)
            assert bad_mask == sum(1 << i for i, c in enumerate(cuts) if facet_value(f, c) > 0)

    def test_requires_n_at_least_4(self):
        with pytest.raises(ValueError):
            cuts_on_facet(TriangleFacet(1, 2, 3, 3), 3)


class TestHypermetric:
    def test_triangle_case_equals_facet_value(self):
        b = (1, 1, -1, 0, 0)
        f = TriangleFacet(1, 2, 3, 5)
        for cut in enumerate_cuts(5):
            assert hypermetric_value(b, cut.bits) == facet_value(f, cut.bits)

    def test_single_support_coefficient_gives_zero(self):
        assert hypermetric_value((1, 0, 0, 0), (3, 1, 4, 1, 5, 9)) == 0

    def test_pair_cut_value(self):
        # sigma = b_1 + b_2 = 2, closed form sigma * (1 - sigma) = -2.
        assert hypermetric_value((1, 1, -1, 0, 0), cut_vector({1, 2}, 5).bits) == -2

    def test_sum_constraint_enforced(self):
        with pytest.raises(ValueError):
            hypermetric_value((1, 1, 0, 0), (0,) * 6)

    def test_closed_form_identity_small(self):
        # Direct summation equals sigma * (1 - sigma) on every cut, n=5, bound 2.
        for b in enumerate_hypermetric_coeffs(5, 2):
            for cut in enumerate_cuts(5):
                sigma = sum(b[p - 1] for p in cut.members)
                value = hypermetric_value(b, cut.bits)
                assert value == sigma * (1 - sigma)
                assert value <= 0


class TestEnumerateHypermetricCoeffs:
    def test_n3_bound1(self):
        got = set(enumerate_hypermetric_coeffs(3, 1))
        perms_100 = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        perms_11m1 = {(1, 1, -1), (1, -1, 1), (-1, 1, 1)}
        assert got == perms_100 | perms_11m1
        assert len(got) == 6

    def test_bound_zero_empty(self):
        assert enumerate_hypermetric_coeffs(3, 0) == []

    def test_n4_bound1_matches_enumeration_oracle(self):
        # Exhaustive filter over {-1,0,1}^4: 4 singleton patterns plus
        # 12 arrangements of (1,1,-1,0) = 16 vectors total.
        got = enumerate_hypermetric_coeffs(4, 1)
        assert len(got) == len(set(got)) == 16
        assert sum(1 for b in got if sorted(b) == [0, 0, 0, 1]) == 4
        assert sum(1 for b in got if sorted(b) == [-1, 0, 1, 1]) == 12


class TestRank:
    def test_full_rank_at_n4(self):
        assert cut_rank(enumerate_cuts(4)) == 6

    def test_empty_list(self):
        assert cut_rank([]) == 0

    def test_full_rank_at_n5(self):
        assert cut_rank(enumerate_cuts(5)) == 10

    def test_integer_rank_matches_fraction_elimination(self):
        # Oracle: rank = cols - kernel dimension from the rational kernel.
        rows = [
            [2, 4, 1, 3],
            [0, 0, 5, 5],
            [2, 4, 6, 8],
            [1, 2, 0, 1],
        ]
        assert integer_rank(rows) == 4 - len(kernel_basis(rows))

    @settings(max_examples=40)
    @given(st.data())
    def test_rank_invariant_under_permutation(self, data):
        n = data.draw(st.integers(4, 6))
        cuts = enumerate_cuts(n)
        chosen = data.draw(st.lists(st.sampled_from(cuts), min_size=1, max_size=8))
        sigma = Permutation(data.draw(st.permutations(range(1, n + 1))))
        moved = [apply_permutation(sigma, c.bits) for c in chosen]
        assert integer_rank(moved) == integer_rank([c.bits for c in chosen])


class TestKernel:
    def test_kernel_vectors_annihilate_rows(self):
        rows = [[1, 2, 3], [4, 5, 6]]
        basis = kernel_basis(rows)
        assert len(basis) == 1
        vec = basis[0]
        for r in rows:
            assert sum(Fraction(a) * b for a, b in zip(r, vec)) == 0

    def test_full_rank_kernel_empty(self):
        assert kernel_basis([[1, 0], [0, 1]]) == []


class TestAdjacency:
    def test_conflicting_pair_not_adjacent(self):
        f = TriangleFacet(1, 2, 3, 5)
        g = TriangleFacet(1, 3, 2, 5)
        assert certify_cutcone_adjacency(f, g, 5) is False

    def test_disjoint_support_pair_adjacent(self):
        f = TriangleFacet(1, 2, 3, 5)
        g = TriangleFacet(4, 5, 1, 5)
        assert certify_cutcone_adjacency(f, g, 5) is True

    def test_identical_facets_rejected(self):
        f = TriangleFacet(1, 2, 3, 5)
        with pytest.raises(ValueError):
            certify_cutcone_adjacency(f, f, 5)

    def test_rank_certificate_matches_sign_test_on_every_pair_n5(self):
        facets = enumerate_triangle_facets(5)
        pairs = [(f, g) for a, f in enumerate(facets) for g in facets[a + 1 :]]
        assert len(pairs) == 435
        for f, g in pairs:
            assert certify_cutcone_adjacency(f, g, 5) is (not conflicting(f, g))

    def test_exhaustive_agreement_n5(self):
        total, mismatches = adjacency_agreement(5)
        assert total == 435
        assert mismatches == []


class TestSweeps:
    def test_hypermetric_sweep_n5(self):
        sweep = hypermetric_sweep(5, 3)
        assert sweep.ok
        assert sweep.cut_count == 15
        # Oracle count: inclusion-exclusion over entries in [-3, 3] summing to 1.
        assert sweep.vector_count == len(enumerate_hypermetric_coeffs(5, 3)) == 1420

    def test_sweep_agrees_with_scalar_path(self):
        sweep = hypermetric_sweep(4, 2)
        assert sweep.ok
        for b in enumerate_hypermetric_coeffs(4, 2)[::7]:
            for cut in enumerate_cuts(4):
                assert hypermetric_value(b, cut.bits) <= 0

    def test_triangle_maximality_n5(self):
        sweep = triangle_maximality_sweep(5, 2)
        assert sweep.ok
        assert sweep.max_count == 11
        # 3 * C(5, 3) arrangements of (1, 1, -1, 0, 0).
        assert sweep.triangle_count == 30
