"""Tests for the exact reflection-group reconstruction on the 7 rays."""

import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesym import reflections
from conesym.cli import RunConfig, exit_code, run_verify
from conesym.cones import integer_rank
from conesym.reflections import (
    GENERATOR_PAIRS,
    DegenerateRaysError,
    RayActionError,
    attempt_ray_swap,
    build_reflection_group,
    kernel_vector,
    ray_table,
    symn_orbits,
)

from references import (
    build_ridge_graph_reference,
    cut_bits_reference,
    cut_order_reference,
    det_reference,
    kernel_basis_reference,
    mat_mul_reference,
    mat_vec_reference,
    reflection_reference,
)

RAYS = ray_table()
IDENTITY_ROWS = tuple(tuple(Fraction(int(r == c)) for c in range(6)) for r in range(6))
# The reflection matrices through the kernel vectors of the five generators,
# over Fractions: the oracle for what the Gram test certifies.
GENERATORS = [reflection_reference(attempt_ray_swap(i, j)[0]) for i, j in GENERATOR_PAIRS]


def transposition(i, j) -> tuple[int, ...]:
    """The 0-based ray permutation swapping r_i and r_j."""
    perm = list(range(7))
    perm[i - 1], perm[j - 1] = j - 1, i - 1
    return tuple(perm)


# The generating sets of the cuts r1..r7, in the tabulated order.
RAY_SETS = ({4}, {1, 2}, {3}, {1, 3}, {1, 4}, {2}, {1})


def in_tabulated_order(table) -> bool:
    return tuple(table) == tuple(cut_bits_reference(s, 4) for s in RAY_SETS)


class TestRayTable:
    def test_fixed_rows(self):
        assert RAYS[0] == (0, 0, 1, 0, 1, 1)  # r1
        assert RAYS[3] == (1, 0, 1, 1, 0, 1)  # r4

    def test_tabulated_order(self):
        assert in_tabulated_order(RAYS)

    # Swapping two rays of one orbit leaves the reflect4 report as it is, so
    # only the order pin above tells these tables from the real one.
    @pytest.mark.parametrize("i, j", [(1, 3), (1, 6), (1, 7), (3, 6), (3, 7), (4, 5), (6, 7)])
    def test_within_orbit_swap_breaks_the_order(self, i, j):
        rays = list(RAYS)
        rays[i - 1], rays[j - 1] = rays[j - 1], rays[i - 1]
        assert not in_tabulated_order(rays)

    def test_equals_cut_enumeration_as_set(self):
        assert set(cut_order_reference(4)) == set(RAYS)

    def test_rays_span_the_space(self):
        assert integer_rank(cut_order_reference(4)) == 6


class TestOrbits:
    def test_partition(self):
        four, three = symn_orbits()
        assert four == (1, 3, 6, 7)
        assert three == (2, 4, 5)

    def test_orbit_membership(self):
        four, three = symn_orbits()
        assert 7 in four and 2 in three

    def test_orbit_sizes_match_support_weight(self):
        four, three = symn_orbits()
        assert all(sum(RAYS[i - 1]) == 3 for i in four)
        assert all(sum(RAYS[i - 1]) == 4 for i in three)


class TestKernelVector:
    def test_reference_kernel(self):
        others = [RAYS[k] for k in (0, 1, 2, 5, 6)]  # all but r4, r5
        vec = kernel_vector(others)
        assert vec in ((0, -1, 1, 1, -1, 0), (0, 1, -1, -1, 1, 0))

    def test_kernel_is_orthogonal_to_inputs(self):
        others = [RAYS[k] for k in (1, 3, 4, 5, 6)]  # omit r1, r3
        vec = kernel_vector(others)
        assert any(vec)
        for r in others:
            assert sum(a * b for a, b in zip(vec, r)) == 0

    def test_dependent_rays_rejected(self):
        rows = [RAYS[0], RAYS[1], RAYS[2], RAYS[3]]
        doubled_first = tuple(2 * v for v in RAYS[0])
        with pytest.raises(DegenerateRaysError):
            kernel_vector(rows + [doubled_first])

    @pytest.mark.parametrize(
        "fifth",
        [
            RAYS[2],  # a repeated ray
            tuple(a + b - c for a, b, c in zip(RAYS[0], RAYS[1], RAYS[3])),
            (0,) * 6,
        ],
    )
    def test_five_dependent_rows_rejected(self, fifth):
        # Every 5 of the 7 rays are independent, so the degenerate case needs
        # a fifth row in the span of four rays.
        rows = [RAYS[0], RAYS[1], RAYS[2], RAYS[3]]
        with pytest.raises(DegenerateRaysError):
            kernel_vector(rows + [fifth])

    def test_normalization(self):
        others = [RAYS[k] for k in (0, 1, 2, 5, 6)]
        vec = kernel_vector(others)
        lead = next(v for v in vec if v)
        assert lead > 0
        assert all(isinstance(v, int) for v in vec)


def kernel_line_reference(rows):
    """The normalised kernel line of `rows` from the rational kernel basis,
    or None when the kernel is not a line."""
    basis = kernel_basis_reference(rows)
    if len(basis) != 1:
        return None
    scale = lcm(*(v.denominator for v in basis[0]))
    ints = [int(v * scale) for v in basis[0]]
    content = gcd(*ints)
    if next(v for v in ints if v) < 0:
        content = -content
    return tuple(v // content for v in ints)


def ray_permutation_reference(m, rays):
    """The ray permutation of m, from its Fraction images, or None."""
    targets = [tuple(map(Fraction, r)) for r in rays]
    images = [mat_vec_reference(m, r) for r in rays]
    if not all(img in targets for img in images):
        return None
    perm = tuple(targets.index(img) for img in images)
    return perm if len(set(perm)) == len(rays) else None


class TestAgainstRationalReference:
    @pytest.mark.parametrize("i, j", list(itertools.combinations(range(1, 8), 2)))
    def test_kernel_vector_on_every_ray_pair(self, i, j):
        others = [r for k, r in enumerate(RAYS, start=1) if k not in (i, j)]
        assert kernel_vector(others) == kernel_line_reference(others)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_kernel_vector_on_integer_matrices(self, data):
        entries = data.draw(st.sampled_from([st.integers(-2, 2), st.integers(-10**6, 10**6)]))
        rows = data.draw(st.lists(st.lists(entries, min_size=6, max_size=6), min_size=5, max_size=5))
        # Make rows dependent: copy or scale one row onto another.
        for _ in range(data.draw(st.integers(0, 2))):
            src, dst = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
            k = data.draw(st.sampled_from([0, 1, -1, 3]))
            rows[dst] = [k * v for v in rows[src]]
        expected = kernel_line_reference(rows)
        if expected is None:
            with pytest.raises(DegenerateRaysError):
                kernel_vector(rows)
        else:
            assert kernel_vector(rows) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_det_matches_cofactor_expansion(self, data):
        size = data.draw(st.integers(1, 6))
        entries = data.draw(st.sampled_from([st.integers(-2, 2), st.integers(-10**6, 10**6)]))
        row = st.lists(entries, min_size=size, max_size=size)
        rows = data.draw(st.lists(row, min_size=size, max_size=size))
        kind = data.draw(st.sampled_from(["any", "singular", "zero-lead", "swap"]))
        if kind == "singular":
            # A multiple of another row, or a zero row.
            src, dst = data.draw(st.permutations(range(size)))[:2] if size > 1 else (0, 0)
            k = data.draw(st.sampled_from([0, 1, -1, 3]))
            rows[dst] = [k * v for v in rows[src]]
        elif kind == "zero-lead":
            # Zero pivots in the leading t x t block: a swap, or a column
            # with no pivot at all when its lower entries are zero too.
            t = data.draw(st.integers(1, size))
            for r in range(t):
                rows[r][:t] = [0] * t
        elif kind == "swap" and size > 1:
            rows[0][0] = 0
            rows[-1][0] = data.draw(st.integers(1, 5))
        assert reflections._det([tuple(r) for r in rows]) == det_reference(rows)

    @pytest.mark.parametrize(
        "rows, det",
        [
            ([[0, 1], [1, 0]], -1),  # one row swap
            ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),  # one swap, then none
            ([[0, 2, 1], [0, 1, 3], [0, 4, 5]], 0),  # no pivot in column 0
            ([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 0),  # no pivot after one step
            ([[2, 1, 0], [4, 2, 1], [0, 3, 1]], -6),  # zero pivot after one step
        ],
    )
    def test_det_swaps_and_singular_columns(self, rows, det):
        assert reflections._det(rows) == det_reference(rows) == det

    @pytest.mark.parametrize("i, j", list(itertools.permutations(range(1, 8), 2)))
    def test_ray_permutation_on_every_swap(self, i, j):
        # The Gram test admits a swap exactly when the reflection through
        # alpha permutes the rays, and then both act as the transposition.
        alpha, perm = attempt_ray_swap(i, j)
        assert perm == ray_permutation_reference(reflection_reference(alpha), RAYS)
        assert perm in (None, transposition(i, j))
        four, _ = symn_orbits()
        assert (perm is None) == ((i in four) != (j in four))


    def test_gram_test_on_a_perturbed_table(self, monkeypatch):
        # r7 replaced by another cut of weight 3: every ray keeps its norm,
        # so only the off-diagonal Gram entries tell which swaps survive.
        rays = (*RAYS[:6], (1, 1, 0, 1, 0, 0))
        monkeypatch.setattr(reflections, "_RAYS", rays)
        found = set()
        for i, j in itertools.permutations(range(1, 8), 2):
            others = [r for k, r in enumerate(rays, start=1) if k not in (i, j)]
            alpha = kernel_line_reference(others)
            if alpha is None:
                with pytest.raises(DegenerateRaysError):
                    attempt_ray_swap(i, j)
                continue
            expected = ray_permutation_reference(reflection_reference(alpha), rays)
            assert attempt_ray_swap(i, j) == (alpha, expected)
            found.add(expected is None)
        assert found == {True, False}


class TestReflection:
    def test_negates_alpha(self):
        # On every swap inside an orbit r_i - r_j is a nonzero multiple of
        # alpha, which the reflection through alpha-perp negates.
        swaps = 0
        for i, j in itertools.permutations(range(1, 8), 2):
            alpha, perm = attempt_ray_swap(i, j)
            if perm is None:
                continue
            swaps += 1
            diff = [a - b for a, b in zip(RAYS[i - 1], RAYS[j - 1])]
            (k,) = {Fraction(d, a) for d, a in zip(diff, alpha) if a}
            assert k and diff == [k * a for a in alpha]
            negated = tuple(Fraction(-a) for a in alpha)
            assert mat_vec_reference(reflection_reference(alpha), alpha) == negated
        assert swaps == 2 * (6 + 3)

    def test_fixes_orthogonal_vectors(self):
        # The five rays other than r_i and r_j span alpha-perp, and both the
        # swap and the reflection through alpha-perp fix each of them.
        for i, j in GENERATOR_PAIRS:
            alpha, perm = attempt_ray_swap(i, j)
            others = [k for k in range(7) if k not in (i - 1, j - 1)]
            assert integer_rank([RAYS[k] for k in others]) == 5
            m = reflection_reference(alpha)
            for k in others:
                assert sum(a * b for a, b in zip(alpha, RAYS[k])) == 0
                assert perm[k] == k
                assert mat_vec_reference(m, RAYS[k]) == tuple(map(Fraction, RAYS[k]))

    def test_zero_alpha_rejected(self, monkeypatch):
        # No nonzero vector is a multiple of the zero vector.
        monkeypatch.setattr(reflections, "kernel_vector", lambda rays: (0,) * 6)
        with pytest.raises(RayActionError, match=r"r4 - r5 is not a multiple of the normal"):
            attempt_ray_swap(4, 5)

    def test_reference_swap_of_r4_r5(self):
        alpha, perm = attempt_ray_swap(4, 5)
        m = reflection_reference(alpha)
        assert mat_vec_reference(m, RAYS[3]) == tuple(map(Fraction, RAYS[4]))
        assert mat_vec_reference(m, RAYS[4]) == tuple(map(Fraction, RAYS[3]))
        for k in (0, 1, 2, 5, 6):
            assert mat_vec_reference(m, RAYS[k]) == tuple(map(Fraction, RAYS[k]))
        assert perm == (0, 1, 2, 4, 3, 5, 6)

    def test_all_generator_pairs_swap(self):
        for i, j in GENERATOR_PAIRS:
            _, perm = attempt_ray_swap(i, j)
            assert perm == transposition(i, j)

    def test_cross_orbit_pair_rejected(self):
        _, perm = attempt_ray_swap(1, 2)
        assert perm is None


class TestReflectionGroup:
    def test_certificate(self):
        rep = build_reflection_group()
        assert rep.passed
        assert rep.perm_order == 144
        assert (rep.orbit4_order, rep.orbit3_order) == (24, 6)

    def test_generators_are_involutions(self):
        # ... and orthogonal, of determinant -1, as the Gram test implies.
        rep = build_reflection_group()
        for alpha in rep.alphas:
            m = reflection_reference(alpha)
            for unit in IDENTITY_ROWS:
                assert mat_vec_reference(m, mat_vec_reference(m, unit)) == unit
            assert mat_mul_reference(tuple(zip(*m)), m) == IDENTITY_ROWS
            assert det_reference(m) == -1

    def test_matches_graph_automorphism_count(self):
        from conesym.autgrp import automorphism_group

        aut_order = automorphism_group(build_ridge_graph_reference(4)).order
        assert aut_order == build_reflection_group().perm_order

    def test_order_matches_closure_reference(self):
        # Close the generators breadth-first over Fractions: every element
        # moves the rays differently, and the closure has the chain order.
        rays = [tuple(map(Fraction, r)) for r in RAYS]
        elements = {IDENTITY_ROWS}
        frontier = [IDENTITY_ROWS]
        while frontier:
            nxt = []
            for m in frontier:
                for g in GENERATORS:
                    p = mat_mul_reference(m, g)
                    if p not in elements:
                        elements.add(p)
                        nxt.append(p)
            frontier = nxt
        ray_perms = {tuple(rays.index(mat_vec_reference(m, r)) for r in rays) for m in elements}
        assert len(elements) == len(ray_perms) == 144
        assert build_reflection_group().perm_order == len(elements)

    def test_rank5_rays_raise_before_any_report(self, monkeypatch):
        # With x6 = x5 on every ray the table spans only 5 dimensions; the
        # first swap's other five rays are then dependent, so no report,
        # faithful or not, is ever built.
        monkeypatch.setattr(reflections, "_RAYS", tuple((*r[:5], r[4]) for r in RAYS))
        with pytest.raises(DegenerateRaysError, match="the 5 rays are linearly dependent"):
            build_reflection_group()
        report = run_verify(RunConfig(n_min=4, n_max=4, checks=("reflect4",)))
        (record,) = report["checks"]
        assert record["outcome"] == "fail" and record["details"] == {}
        assert record["witness"] == {"error": "the 5 rays are linearly dependent"}
        assert exit_code(report) == 1
