"""Tests for inequality evaluation, incidence counting, and rank certificates."""

import array
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesym import cones
from conesym.cones import (
    _facet_incidence_masks,
    _sorted_representatives,
    adjacency_agreement,
    enumerate_hypermetric_coeffs,
    hypermetric_sweep,
    integer_rank,
    triangle_incidence_bound,
)
from conesym.core import (
    TriangleFacet,
    cut_correlations,
    cut_members,
    cut_stars,
    enumerate_triangle_facets,
    num_pairs,
    pair_list,
)
from conesym.ridge import _bits, conflicting

from references import (
    cut_bits_reference,
    cut_order_reference,
    facet_value_reference,
    kernel_basis_reference,
    permute_pairs_reference,
    sweep_ok_reference,
)


def integer_rank_reference(rows) -> int:
    """Bareiss elimination taking the first nonzero pivot, updating every row."""
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        piv_row = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if piv_row is None:
            continue
        m[rank], m[piv_row] = m[piv_row], m[rank]
        piv = m[rank][col]
        for r in range(rank + 1, n_rows):
            f = m[r][col]
            for c in range(col + 1, n_cols):
                m[r][c] = (piv * m[r][c] - f * m[rank][c]) // prev
            m[r][col] = 0
        prev = piv
        rank += 1
        if rank == n_rows:
            break
    return rank


def _exhaustive_family(n, bound):
    """Every coefficient vector of the family, the nonzero cuts and
    sigma * (1 - sigma) for every (vector, cut) pair."""
    coeffs = enumerate_hypermetric_coeffs(n, bound)
    cuts = cut_order_reference(n)
    member = np.array([[int(p in m) for p in range(1, n + 1)] for m in cut_members(n)])
    vecs = np.array(coeffs, dtype=np.int64)
    sigma = vecs @ member.T
    return coeffs, cuts, vecs, sigma * (1 - sigma)


def hypermetric_sweep_reference(n, bound):
    """Every vector of the family against every cut; (ok, vector count, cut count)."""
    coeffs, cuts, vecs, closed = _exhaustive_family(n, bound)
    pairs = pair_list(n)
    products = np.stack([vecs[:, i - 1] * vecs[:, j - 1] for i, j in pairs], axis=1)
    direct = products @ np.array(cuts).T
    ok = bool((direct == closed).all() and (direct <= 0).all())
    return ok, len(coeffs), len(cuts)


def triangle_maximality_sweep_reference(n, bound):
    """One rank certificate per triangle or bound-attaining vector of the
    whole family; (ok, vector count, max count, triangle count)."""
    coeffs, cuts, vecs, values = _exhaustive_family(n, bound)
    limit = triangle_incidence_bound(n)
    facet_rank = num_pairs(n) - 1
    triangle = sorted([-1] + [0] * (n - 3) + [1, 1])
    ok = True
    triangles = 0
    for b, row in zip(coeffs, values):
        if sum(1 for v in b if v) < 2:
            continue
        count = int((row == 0).sum())
        is_triangle = sorted(b) == triangle
        triangles += is_triangle
        if count > limit:
            ok = False
        if count == limit or is_triangle:
            rank = integer_rank_reference([cuts[c] for c in np.nonzero(row == 0)[0]])
            if is_triangle:
                ok = ok and count == limit and rank == facet_rank
            elif rank == facet_rank:
                ok = False
    return ok, len(coeffs), limit, triangles


class TestFacetValue:
    def test_on_singleton_cut(self):
        f = TriangleFacet(1, 2, 3, 4)
        assert facet_value_reference(f, cut_bits_reference({1}, 4)) == 0  # 1 - 1 - 0

    def test_on_zero_vector(self):
        assert facet_value_reference(TriangleFacet(1, 2, 3, 4), (0,) * 6) == 0

    def test_on_third_point_cut(self):
        f = TriangleFacet(1, 2, 3, 4)
        assert facet_value_reference(f, cut_bits_reference({3}, 4)) == -2  # 0 - 1 - 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            facet_value_reference(TriangleFacet(1, 2, 3, 4), (0,) * 10)

    def test_rational_entries(self):
        f = TriangleFacet(1, 2, 3, 4)
        x = (Fraction(1, 2), Fraction(1, 3), 0, Fraction(1, 6), 0, 0)
        assert facet_value_reference(f, x) == Fraction(0)


def cuts_on_facet_reference(f, n):
    """The nonzero cuts on which the facet's inequality holds with equality."""
    return [c for c in cut_order_reference(n) if facet_value_reference(f, c) == 0]


class TestCutsOnFacet:
    def test_counts_follow_formula(self):
        # 3 * 2**(n-3) - 1: 5, 11, 23, 47 for n = 4..7 on a sample facet.
        for n, expected in [(4, 5), (5, 11), (6, 23), (7, 47)]:
            count = len(cuts_on_facet_reference(TriangleFacet(1, 2, 3, n), n))
            assert count == expected == triangle_incidence_bound(n)

    def test_every_facet_n8_by_exhaustive_evaluation(self):
        n = 8
        stars = cut_stars(n)
        for f in enumerate_triangle_facets(n):
            off_mask = _facet_incidence_masks(f, stars)
            assert len(cuts_on_facet_reference(f, n)) == 2 ** (n - 1) - 1 - off_mask.bit_count() == 95

    def test_count_invariant_up_to_n10(self):
        for n in (9, 10):
            bound = triangle_incidence_bound(n)
            cuts = cut_order_reference(n)
            for f in enumerate_triangle_facets(n):
                (a, sa), (b, sb), (c, sc) = f.entries()
                count = sum(
                    1 for cut in cuts if sa * cut[a] + sb * cut[b] + sc * cut[c] == 0
                )
                assert count == bound

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_bit_sliced_masks_match_direct_evaluation(self, n):
        # The masks read three stars; the reference evaluates the facet on
        # each cut vector built from its generating set.
        stars, cuts = cut_stars(n), cut_order_reference(n)
        for f in enumerate_triangle_facets(n):
            off_mask = _facet_incidence_masks(f, stars)
            assert off_mask == sum(1 << i for i, c in enumerate(cuts) if facet_value_reference(f, c) != 0)


def hypermetric_value_reference(b, x):
    """The inequality left-hand side sum_{i<j} b_i b_j x_ij.

    Requires integer coefficients summing to 1; the triangle inequalities are
    the special case b with two entries +1 and one entry -1.
    """
    n = len(b)
    if any(int(v) != v for v in b):
        raise ValueError("coefficients must be integers")
    if sum(b) != 1:
        raise ValueError("coefficients must sum to 1")
    if len(x) != num_pairs(n):
        raise ValueError(f"vector length {len(x)} does not match n={n}")
    total = 0
    for k, (i, j) in enumerate(pair_list(n)):
        total += b[i - 1] * b[j - 1] * x[k]
    return total


class TestHypermetric:
    def test_triangle_case_equals_facet_value(self):
        b = (1, 1, -1, 0, 0)
        f = TriangleFacet(1, 2, 3, 5)
        for cut in cut_order_reference(5):
            assert hypermetric_value_reference(b, cut) == facet_value_reference(f, cut)

    def test_single_support_coefficient_gives_zero(self):
        assert hypermetric_value_reference((1, 0, 0, 0), (3, 1, 4, 1, 5, 9)) == 0

    def test_pair_cut_value(self):
        # sigma = b_1 + b_2 = 2, closed form sigma * (1 - sigma) = -2.
        assert hypermetric_value_reference((1, 1, -1, 0, 0), cut_bits_reference({1, 2}, 5)) == -2

    def test_sum_constraint_enforced(self):
        with pytest.raises(ValueError):
            hypermetric_value_reference((1, 1, 0, 0), (0,) * 6)

    def test_closed_form_identity_small(self):
        # Direct summation equals sigma * (1 - sigma) on every cut, n=5, bound 2.
        for b in enumerate_hypermetric_coeffs(5, 2):
            for members, cut in zip(cut_members(5), cut_order_reference(5)):
                sigma = sum(b[p - 1] for p in members)
                value = hypermetric_value_reference(b, cut)
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
        assert integer_rank(cut_order_reference(4)) == 6

    def test_empty_list(self):
        assert integer_rank([]) == 0
        assert integer_rank([[], []]) == 0
        assert integer_rank([(), ()]) == 0

    @pytest.mark.parametrize(
        "rows",
        [[[1, 2], [3]], [[], [1, 2]], [(), (1,)]],
        ids=["short-last", "empty-first", "empty-first-tuple"],
    )
    def test_ragged_matrix_refused(self, rows):
        with pytest.raises(ValueError, match="ragged matrix"):
            integer_rank(rows)

    def test_full_rank_at_n5(self):
        assert integer_rank(cut_order_reference(5)) == 10

    def test_integer_rank_matches_fraction_elimination(self):
        # Oracle: rank = cols - kernel dimension from the rational kernel.
        rows = [
            [2, 4, 1, 3],
            [0, 0, 5, 5],
            [2, 4, 6, 8],
            [1, 2, 0, 1],
        ]
        assert integer_rank(rows) == 4 - len(kernel_basis_reference(rows))

    @pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5])
    def test_non_integral_entry_refused(self, entry):
        # Truncating 1/2 to 0 would report rank 0.
        with pytest.raises(TypeError):
            integer_rank([[entry]])

    @pytest.mark.parametrize(
        "rows",
        [
            # Full rank mod 2 is reached before the last row is read.
            [[1, 0], [0, 1], [Fraction(1, 2), 0]],
            [[1, 0], [0, 1], [300, 0.5]],
            # The same with bytes rows.
            [b"\1\0", b"\0\1", (0.5, 0)],
            [b"\1\0", b"\0\1", (300, 0.5)],
            # The same with signed rows, each packed by its entries' parities.
            [(1, 0), (0, -1), (Fraction(1, 2), 0)],
            [(-1, 0), (0, 1), (0.5, -1)],
            [(Fraction(2), 1)],
            np.array([[1.0, 0.0], [0.0, 1.0]]),
        ],
    )
    def test_non_integral_row_refused(self, rows):
        with pytest.raises(TypeError):
            integer_rank(rows)

    def test_bool_and_numpy_integer_entries_accepted(self):
        assert integer_rank([[True, False], [False, True]]) == 2
        assert integer_rank(np.array([[2, 4], [1, 2]], dtype=np.int64)) == 1

    def test_parities_come_from_values_not_buffers(self):
        # The int64 buffer of 256 holds the bytes 0, 1, 0, ...: a parity read
        # from it would see [[0, 1], [1, 0]] and report rank 2.
        assert integer_rank([[256, 0], [1, 0]]) == 1
        assert integer_rank(np.array([[256, 0], [1, 0]], dtype=np.int64)) == 1
        assert integer_rank(list(np.array([[256, 0], [1, 0]], dtype=np.int64))) == 1

    @pytest.mark.parametrize(
        "rows, rank",
        [
            # Full rank mod 2, so the GF(2) pass alone decides.
            ([[-1, 256], [256, -3]], 2),
            # Parities of rank 1: Bareiss decides.
            ([[-3, 258], [-1, 86]], 1),
            ([[-1, 256], [257, -2]], 2),
        ],
    )
    def test_signed_and_wide_numpy_rows_ranked_by_value(self, rows, rank):
        matrix = np.array(rows, dtype=np.int64)
        assert integer_rank(matrix) == integer_rank(list(matrix)) == rank
        assert integer_rank_reference(rows) == rank

    @pytest.mark.parametrize(
        "rows, rank",
        [
            ([b"\1\0\1", b"\0\1\1", (-1, 1, 0)], 2),
            ([b"\1\0\1", b"\0\1\1", (-1, -1, 1)], 3),
            ([b"\1\0", (300, -1)], 2),
            ([b"\2\4", (-1, -2)], 1),
        ],
    )
    def test_bytes_rows_mixed_with_a_signed_row(self, rows, rank):
        assert integer_rank(rows) == integer_rank_reference(rows) == rank

    @pytest.mark.parametrize(
        "rows",
        [
            lambda: [array.array("q", r) for r in ([256, 0], [1, 0])],
            lambda: [memoryview(array.array("q", r)) for r in ([256, 0], [1, 0])],
            lambda: (r for r in ([256, 0], [1, 0])),
            lambda: (array.array("q", r) for r in ([256, 0], [1, 0])),
        ],
        ids=["array", "memoryview", "generator", "generator-of-arrays"],
    )
    def test_buffer_rows_ranked_by_value(self, rows):
        # As the list [[256, 0], [1, 0]]: int.from_bytes on the int64
        # buffers would read the parities [[0, 1], [1, 0]], of rank 2.
        assert integer_rank(rows()) == 1

    def test_bytearray_rows_ranked_as_their_bytes(self):
        # A bytearray's buffer is its values, one byte per entry.
        assert integer_rank([bytearray([2, 0]), bytearray([1, 0])]) == 1
        assert integer_rank([bytearray(b"\1\0"), bytearray(b"\0\1")]) == 2
        assert integer_rank([bytearray([1, 3]), (2, 6)]) == 1
        assert integer_rank([bytearray([1, 0]), (-1, 1)]) == 2

    def test_bytearray_mutated_between_calls_ranked_by_its_new_value(self):
        row = bytearray(b"\1\0")
        rows = [row, b"\1\0"]
        assert integer_rank(rows) == 1
        row[1] = 1
        assert integer_rank(rows) == 2

    def test_bytes_subclass_ranked_by_its_own_bytes(self):
        # Were these rows cached, every one would hit the packing of the
        # first, e_2, and the second call's GF(2) rank would be a false 2.
        class AllEqual(bytes):
            def __eq__(self, other):
                return True

            def __hash__(self):
                return 0

        assert integer_rank([AllEqual(b"\0\1")]) == 1
        assert integer_rank([b"\1\0", AllEqual(b"\1\0")]) == 1
        assert integer_rank([AllEqual(b"\1\0"), AllEqual(b"\0\1")]) == 2

    def test_float_row_refused_after_its_values_were_ranked(self):
        # (0, 1.0) == (0, 1) and their hashes agree, so a cached tuple would
        # hand the float row the int row's packing.
        assert integer_rank([b"\1\0", b"\0\1"]) == 2
        assert integer_rank([(1, 0), (0, 1)]) == 2
        for rows in ([(1, 0), (0, 1.0)], [b"\1\0", b"\0\1", (0, 1.0)]):
            with pytest.raises(TypeError):
                integer_rank(rows)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_sweep_packs_each_distinct_row_once(self, n, monkeypatch):
        seen = set()
        passed = 0
        original = cones.integer_rank

        def recording(rows):
            nonlocal passed
            byte_rows = [r for r in rows if type(r) is bytes]
            seen.update(byte_rows)
            passed += len(byte_rows)
            return original(rows)

        monkeypatch.setattr(cones, "integer_rank", recording)
        cones._packed_parities.cache_clear()
        adjacency_agreement(n)
        info = cones._packed_parities.cache_info()
        # The unit rows and the nonzero cuts' correlation rows, some equal.
        assert info.misses == len(seen) <= num_pairs(n) + 2 ** (n - 1) - 1
        assert info.hits + info.misses == passed
        assert info.currsize <= info.maxsize

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference_on_small_and_wide_entries(self, data):
        n_rows = data.draw(st.integers(1, 12))
        n_cols = data.draw(st.integers(1, 12))
        entries = data.draw(st.sampled_from([st.integers(0, 1), st.integers(-3, 300)]))
        rows = data.draw(
            st.lists(
                st.lists(entries, min_size=n_cols, max_size=n_cols),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        expected = integer_rank_reference(rows)
        assert integer_rank(rows) == expected
        assert integer_rank(np.array(rows, dtype=np.int64)) == expected
        assert integer_rank([tuple(r) for r in rows]) == expected
        # The GF(2) pass pivots on the lowest coordinates; reversing the
        # columns moves its pivots and keeps the rank.
        assert integer_rank([r[::-1] for r in rows]) == expected
        if all(0 <= x <= 255 for r in rows for x in r):
            assert integer_rank([bytes(r) for r in rows]) == expected
            assert integer_rank([bytes(r[::-1]) for r in rows]) == expected
        # bytes rows and one tuple row with a negative entry, which sends the
        # whole matrix through the parities mod 2.
        mixed = [bytes(x % 256 for x in r) for r in rows] + [(-1,) * n_cols]
        wrapped = [[x % 256 for x in r] for r in rows] + [[-1] * n_cols]
        assert integer_rank(mixed) == integer_rank_reference(wrapped)

    @settings(max_examples=40)
    @given(st.data())
    def test_rank_invariant_under_permutation(self, data):
        n = data.draw(st.integers(4, 6))
        cuts = cut_order_reference(n)
        chosen = data.draw(st.lists(st.sampled_from(cuts), min_size=1, max_size=8))
        sigma = tuple(data.draw(st.permutations(range(n))))
        moved = [permute_pairs_reference(sigma, c) for c in chosen]
        assert integer_rank(moved) == integer_rank(chosen)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bareiss_matches_kernel_nullity_and_reference(self, data):
        n_rows = data.draw(st.integers(1, 8))
        n_cols = data.draw(st.integers(1, 8))
        # Small entries make equal successive pivots common; large ones make
        # the exact divisions carry big intermediates.
        entries = data.draw(st.sampled_from([st.integers(-3, 3), st.integers(-10**9, 10**9)]))
        rows = data.draw(
            st.lists(
                st.lists(entries, min_size=n_cols, max_size=n_cols),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        # Make rows dependent: copy or scale one row onto another.
        for _ in range(data.draw(st.integers(0, n_rows - 1))):
            src = data.draw(st.integers(0, n_rows - 1))
            dst = data.draw(st.integers(0, n_rows - 1))
            k = data.draw(st.sampled_from([1, -1, 2, 10**9]))
            rows[dst] = [k * v for v in rows[src]]
        rank = integer_rank(rows)
        assert rank == n_cols - len(kernel_basis_reference(rows))
        assert rank == integer_rank_reference(rows)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_correlation_rank_matches_cut_rank(self, data):
        n = data.draw(st.integers(4, 7))
        cuts = list(zip(cut_correlations(n), cut_order_reference(n)))
        chosen = data.draw(st.lists(st.sampled_from(cuts), min_size=1, max_size=3 * num_pairs(n)))
        assert integer_rank([p for p, _ in chosen]) == integer_rank_reference(
            [bits for _, bits in chosen]
        )


class TestKernel:
    def test_kernel_vectors_annihilate_rows(self):
        rows = [[1, 2, 3], [4, 5, 6]]
        basis = kernel_basis_reference(rows)
        assert len(basis) == 1
        vec = basis[0]
        for r in rows:
            assert sum(Fraction(a) * b for a, b in zip(r, vec)) == 0

    def test_full_rank_kernel_empty(self):
        assert kernel_basis_reference([[1, 0], [0, 1]]) == []


def certify_cutcone_adjacency_reference(f, g, n) -> bool:
    """Rank certificate that two triangle facets meet in a codimension-2 face:
    the cuts lying on both facets span a space of dimension C(n, 2) - 2."""
    if f == g:
        raise ValueError("facets must be distinct")
    common = [
        c
        for c in cut_order_reference(n)
        if facet_value_reference(f, c) == 0 and facet_value_reference(g, c) == 0
    ]
    return integer_rank(common) == num_pairs(n) - 2


def support_reference(facet):
    """Coordinates where the facet's correlation functional is nonzero."""
    return {k for k, x in enumerate(facet.correlation) if x != 0}


class TestAdjacency:
    def test_conflicting_pair_not_adjacent(self):
        f = TriangleFacet(1, 2, 3, 5)
        g = TriangleFacet(1, 3, 2, 5)
        assert certify_cutcone_adjacency_reference(f, g, 5) is False

    def test_disjoint_support_pair_adjacent(self):
        f = TriangleFacet(1, 2, 3, 5)
        g = TriangleFacet(4, 5, 1, 5)
        assert certify_cutcone_adjacency_reference(f, g, 5) is True

    def test_identical_facets_rejected(self):
        f = TriangleFacet(1, 2, 3, 5)
        with pytest.raises(ValueError):
            certify_cutcone_adjacency_reference(f, f, 5)

    def test_rank_certificate_matches_sign_test_on_every_pair_n5(self):
        facets = enumerate_triangle_facets(5)
        pairs = [(f, g) for a, f in enumerate(facets) for g in facets[a + 1 :]]
        assert len(pairs) == 435
        for f, g in pairs:
            assert certify_cutcone_adjacency_reference(f, g, 5) is (not conflicting(f, g))

    def test_exhaustive_agreement_n5(self):
        total, mismatches = adjacency_agreement(5)
        assert total == 435
        assert mismatches == []

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_pair_ranked_as_on_its_cut_rows(self, n, monkeypatch):
        # An adjacent pair's rank call gets e_u, e_v and the correlation rows
        # of its common cuts, and its rank less 2 is the reference rank of
        # their cut rows.  A conflicting pair's call gets the functionals of
        # f, g and a third facet h tight on every common cut, so the
        # reference rank of those cut rows is at most C(n, 2) - 3.  Rows are
        # compared by value and in order; a rank-route call's rows are the
        # bytes the sweep builds once per n.
        calls = []

        def recording(rows):
            calls.append(rows)
            return integer_rank(rows)

        monkeypatch.setattr(cones, "integer_rank", recording)
        total, mismatches = adjacency_agreement(n)
        assert mismatches == []
        facets, stars = enumerate_triangle_facets(n), cut_stars(n)
        cuts, correlations = cut_order_reference(n), cut_correlations(n)
        on = [sum(1 << i for i, c in enumerate(cuts) if facet_value_reference(f, c) == 0) for f in facets]
        full = (1 << len(cuts)) - 1
        assert on == [full ^ _facet_incidence_masks(f, stars) for f in facets]
        dim = num_pairs(n)
        expected, rank_route = [], []
        for a, b in itertools.combinations(range(len(facets)), 2):
            f, g = facets[a], facets[b]
            common = list(_bits(on[a] & on[b]))
            reference = integer_rank_reference([cuts[i] for i in common])
            rank_route.append(not conflicting(f, g))
            if conflicting(f, g):
                h = TriangleFacet(*cones._third_tight_facet(f, g), n)
                assert all(facet_value_reference(h, cuts[i]) == 0 for i in common)
                expected.append([f.correlation, g.correlation, h.correlation])
                assert integer_rank_reference(expected[-1]) == 3
                assert reference <= dim - 3
            else:
                sf, sg = support_reference(f), support_reference(g)
                u = min(sf - sg) if sf - sg else min(sf)
                v = min(sg - sf) if sg - sf else min(sg)
                units = [tuple(int(k == w) for k in range(dim)) for w in (u, v)]
                expected.append(units + [correlations[i] for i in common])
                assert integer_rank(expected[-1]) - 2 == reference == dim - 2
        assert [[tuple(r) for r in rows] for rows in calls] == expected
        assert total == len(expected)
        ranked = [rows for rows, ranks in zip(calls, rank_route) if ranks]
        assert ranked and all(type(r) is bytes for rows in ranked for r in rows)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_bareiss_runs_on_no_adjacent_pair(self, n, monkeypatch):
        # Adjacent pairs reach full column rank mod 2, and so do the three
        # functionals that certify a conflicting pair, so no pair at all
        # falls back to Bareiss.
        ranks, bareiss = [], []
        rank, eliminate = cones.integer_rank, cones._bareiss_rank
        monkeypatch.setattr(cones, "integer_rank", lambda rows: ranks.append(rows) or rank(rows))
        monkeypatch.setattr(cones, "_bareiss_rank", lambda m: bareiss.append(m) or eliminate(m))
        total, mismatches = adjacency_agreement(n)
        assert mismatches == []
        assert len(ranks) == total == {4: 66, 5: 435, 6: 1770, 7: 5460}[n]
        assert bareiss == []

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
    def test_third_facet_proposed_exactly_for_conflicting_pairs(self, n):
        # Each proposed key names an enumerated facet h, tight on the pair's
        # common cuts and independent of the pair's functionals.  At n = 3
        # every pair conflicts, but no point is left for h.
        facets, stars = enumerate_triangle_facets(n), cut_stars(n)
        keys = {(f.i, f.j, f.k) for f in facets}
        off = [_facet_incidence_masks(f, stars) for f in facets]
        for a, b in itertools.combinations(range(len(facets)), 2):
            f, g = facets[a], facets[b]
            key = cones._third_tight_facet(f, g)
            assert (key is not None) is (n > 3 and conflicting(f, g))
            if key is not None:
                assert key in keys
                h = TriangleFacet(*key, n)
                assert not _facet_incidence_masks(h, stars) & ~(off[a] | off[b])
                assert integer_rank_reference([f.correlation, g.correlation, h.correlation]) == 3

    @pytest.mark.parametrize("proposal", ["arbitrary", "f_itself"])
    def test_wrong_third_facets_leave_every_verdict(self, proposal, monkeypatch):
        # An arbitrary h is mostly not tight on the common cuts, and h = f is
        # tight but dependent; either way the pair is ranked on its cuts.
        # Both are proposed by key, as the sweep reads them.
        facets = enumerate_triangle_facets(5)

        def arbitrary(f, g):
            h = next(h for h in facets if h != f and h != g)
            return h.i, h.j, h.k

        propose = {"arbitrary": arbitrary, "f_itself": lambda f, g: (f.i, f.j, f.k)}[proposal]
        monkeypatch.setattr(cones, "_third_tight_facet", propose)
        assert adjacency_agreement(5) == (435, [])

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
    def test_unit_coordinates_give_a_unit_minor(self, n):
        facets = enumerate_triangle_facets(n)
        supports = [sum(1 << k for k in support_reference(f)) for f in facets]
        corr = [f.correlation for f in facets]
        for a, b in itertools.combinations(range(len(facets)), 2):
            u, v = cones._unit_coordinates(supports[a], supports[b])
            f, g = corr[a], corr[b]
            assert f[u] and g[v]
            assert f[u] * g[v] - f[v] * g[u] in (1, -1)

    @pytest.mark.parametrize("mutant", ["no_diagonal", "rooted_at_1", "one_parity_dropped"])
    def test_wrong_correlation_rows_are_caught(self, mutant, monkeypatch):
        def no_diagonal(members, row):
            return tuple(0 if j == 5 else p for (_, j), p in zip(pair_list(5), row))

        def rooted_at_1(members, row):
            return tuple(int(j in members and (i == 1 or i in members)) for i, j in pair_list(5))

        def one_parity_dropped(members, row):
            # The cut of {1, 2, 3} loses the 1 at the pair (1, 2).
            drop = members == [1, 2, 3]
            return tuple(p ^ (drop and ij == (1, 2)) for ij, p in zip(pair_list(5), row))

        wrong = {
            "no_diagonal": no_diagonal,
            "rooted_at_1": rooted_at_1,
            "one_parity_dropped": one_parity_dropped,
        }[mutant]
        rows = [wrong(m, row) for m, row in zip(cut_members(5), cut_correlations(5))]
        monkeypatch.setattr(cones, "cut_correlations", lambda n: rows)
        total, mismatches = adjacency_agreement(5)
        # The first two miss every adjacent pair (435 less the 150
        # conflicting ones); one dropped parity misses the adjacent pairs
        # whose common cuts need that entry for full rank.
        missed = {"no_diagonal": 285, "rooted_at_1": 285, "one_parity_dropped": 14}[mutant]
        assert total == 435
        assert len(mismatches) == missed
        assert all(by_sign and not by_rank for _, _, by_rank, by_sign in mismatches)


class TestSweeps:
    def test_hypermetric_sweep_n5(self):
        sweep = hypermetric_sweep(5, 3)
        assert sweep_ok_reference(sweep)
        assert sweep.cut_count == 15
        # Oracle count: inclusion-exclusion over entries in [-3, 3] summing to 1.
        assert sweep.vector_count == len(enumerate_hypermetric_coeffs(5, 3)) == 1420

    def test_sweep_agrees_with_scalar_path(self):
        sweep = hypermetric_sweep(4, 2)
        assert sweep_ok_reference(sweep)
        for b in enumerate_hypermetric_coeffs(4, 2)[::7]:
            for cut in cut_order_reference(4):
                assert hypermetric_value_reference(b, cut) <= 0

    def test_triangle_maximality_n5(self):
        sweep = hypermetric_sweep(5, 2)
        assert sweep_ok_reference(sweep)
        assert sweep.max_count == 11
        # 3 * C(5, 3) arrangements of (1, 1, -1, 0, 0).
        assert sweep.triangle_count == 30

    @pytest.mark.parametrize(
        "n, bound", [(n, b) for n in (4, 5, 6) for b in (1, 2, 3)] + [(7, 1), (7, 2)]
    )
    def test_orbit_sweeps_match_exhaustive_reference(self, n, bound):
        sweep = hypermetric_sweep(n, bound)
        identity_ok = sweep.mismatch is None and sweep.positive is None
        assert (identity_ok, sweep.vector_count, sweep.cut_count) == hypermetric_sweep_reference(
            n, bound
        )
        maximality_ok = (
            sweep.over_bound is None
            and sweep.triangle_failure is None
            and sweep.rogue_maximizer is None
        )
        assert (
            maximality_ok,
            sweep.vector_count,
            sweep.max_count,
            sweep.triangle_count,
        ) == triangle_maximality_sweep_reference(n, bound)

    @pytest.mark.parametrize("sweep", [hypermetric_sweep])
    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_refused(self, sweep, bound):
        # The family would be empty and the sweep would pass over nothing.
        with pytest.raises(ValueError, match="hypermetric bound must be positive"):
            sweep(5, bound)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 6), st.integers(1, 3))
    def test_representatives_cover_the_family_once(self, n, bound):
        reps, sizes = zip(*_sorted_representatives(n, bound))
        family = enumerate_hypermetric_coeffs(n, bound)
        assert sum(sizes) == len(family)
        assert list(reps) == sorted({tuple(sorted(b)) for b in family})
        for b, size in zip(reps, sizes):
            assert size == len(set(itertools.permutations(b)))

    def test_faulty_closed_form_yields_mismatch_witness(self, monkeypatch):
        right = cones._closed_forms

        def faulty(b, members):
            closed = right(b, members)
            if b == (0, 0, 0, 0, 1):  # the last representative
                closed[-1] += 1
            return closed

        monkeypatch.setattr(cones, "_closed_forms", faulty)
        sweep = hypermetric_sweep(5, 2)
        assert not sweep_ok_reference(sweep)
        b, members, direct, closed = sweep.mismatch
        assert b == (0, 0, 0, 0, 1)
        assert members == cut_members(5)[-1]
        assert direct == hypermetric_value_reference(b, cut_order_reference(5)[-1])
        assert closed == direct + 1

    def test_faulty_rank_yields_triangle_failure(self, monkeypatch):
        monkeypatch.setattr(cones, "integer_rank", lambda rows: 0)
        sweep = hypermetric_sweep(5, 2)
        assert sweep.triangle_failure == ((-1, 0, 0, 1, 1), 11, 0)
        assert sweep.mismatch is None and sweep.positive is None
