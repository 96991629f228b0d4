"""Evaluation of triangle and hypermetric inequalities on cuts, incidence
counting, and exact integer rank certificates for cone face dimensions.

All certification arithmetic is exact: ranks come from fraction-free Bareiss
elimination over Python integers, kernels from rational row reduction.  The
exhaustive sweeps over the bounded hypermetric family are vectorized with
64-bit integer numpy arrays; every quantity involved is tiny (coefficients
bounded by the cube of the configured bound times the pair count), so those
sweeps are exact as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    CutVector,
    TriangleFacet,
    enumerate_cuts,
    enumerate_triangle_facets,
    num_pairs,
    pair_list,
)
from .ridge import _bits, conflicting

__all__ = [
    "facet_value",
    "IncidenceReport",
    "cuts_on_facet",
    "triangle_incidence_bound",
    "hypermetric_value",
    "enumerate_hypermetric_coeffs",
    "integer_rank",
    "kernel_basis",
    "cut_rank",
    "certify_cutcone_adjacency",
    "adjacency_agreement",
    "HypermetricSweep",
    "hypermetric_sweep",
    "TriangleMaximalitySweep",
    "triangle_maximality_sweep",
]


def facet_value(facet: TriangleFacet, x: Sequence):
    """x_ij - x_ik - x_jk for the facet with apex (i, j) and third point k."""
    if len(x) != num_pairs(facet.n):
        raise ValueError(f"vector length {len(x)} does not match n={facet.n}")
    (a, sa), (b, sb), (c, sc) = facet.entries()
    return sa * x[a] + sb * x[b] + sc * x[c]


def triangle_incidence_bound(n: int) -> int:
    """Largest number of cuts any facet can contain: 3 * 2**(n-3) - 1."""
    return 3 * 2 ** (n - 3) - 1


@dataclass
class IncidenceReport:
    facet: TriangleFacet
    cuts: list[CutVector]
    count: int


def cuts_on_facet(facet: TriangleFacet, n: int) -> IncidenceReport:
    """All nonzero cuts lying on the facet, i.e. evaluating to exactly 0."""
    if n < 4:
        raise ValueError("need n >= 4")
    if facet.n != n:
        raise ValueError("facet dimension does not match n")
    on = [c for c in enumerate_cuts(n) if facet_value(facet, c) == 0]
    return IncidenceReport(facet, on, len(on))


def hypermetric_value(b: Sequence[int], x: Sequence):
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


def enumerate_hypermetric_coeffs(n: int, bound: int) -> list[tuple[int, ...]]:
    """All integer vectors with entries in [-bound, bound] summing to 1."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    rng = range(-bound, bound + 1)
    return [b for b in itertools.product(rng, repeat=n) if sum(b) == 1]


def integer_rank(rows) -> int:
    """Exact rank of an integer matrix via fraction-free Bareiss elimination.

    Intermediate entries stay integral (divisions are exact by the Sylvester
    identity), so the result is certified, not floating-point.
    """
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    if any(len(r) != n_cols for r in m):
        raise ValueError("ragged matrix")
    rank = 0
    prev = 1
    for col in range(n_cols):
        piv_row = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if piv_row is None:
            continue
        if piv_row != rank:
            m[rank], m[piv_row] = m[piv_row], m[rank]
        piv = m[rank][col]
        for r in range(rank + 1, n_rows):
            f = m[r][col]
            row_r, row_p = m[r], m[rank]
            for c in range(col + 1, n_cols):
                row_r[c] = (piv * row_r[c] - f * row_p[c]) // prev
            row_r[col] = 0
        prev = piv
        rank += 1
        if rank == n_rows:
            break
    return rank


def kernel_basis(rows) -> list[tuple[Fraction, ...]]:
    """Basis of the rational null space of a matrix, via reduced row echelon."""
    m = [[Fraction(v) for v in r] for r in rows]
    if not m:
        return []
    n_cols = len(m[0])
    if any(len(r) != n_cols for r in m):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        piv_row = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv_row is None:
            continue
        m[row], m[piv_row] = m[piv_row], m[row]
        piv = m[row][col]
        m[row] = [v / piv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r, piv_col in enumerate(pivots):
            vec[piv_col] = -m[r][free]
        basis.append(tuple(vec))
    return basis


def cut_rank(cuts: Sequence[CutVector]) -> int:
    """Exact rank over the rationals of the matrix whose rows are the cuts."""
    if not cuts:
        return 0
    dim = len(cuts[0])
    if any(len(c) != dim for c in cuts):
        raise ValueError("cuts of mixed dimension")
    return integer_rank([c.bits for c in cuts])


def certify_cutcone_adjacency(f: TriangleFacet, g: TriangleFacet, n: int) -> bool:
    """Rank certificate that two triangle facets meet in a codimension-2 face.

    True exactly when the cuts lying on both facets span a space of dimension
    C(n, 2) - 2; this is the oracle checked against the sign-based
    non-conflicting test.
    """
    if f == g:
        raise ValueError("facets must be distinct")
    common = [
        c
        for c in enumerate_cuts(n)
        if facet_value(f, c) == 0 and facet_value(g, c) == 0
    ]
    return integer_rank([c.bits for c in common]) == num_pairs(n) - 2


class FacetCutMasks(NamedTuple):
    """Per facet, bitmasks over the cut list: the cuts lying on the facet
    and the cuts violating its inequality."""

    facets: list[TriangleFacet]
    cuts: list[CutVector]
    on: list[int]
    violating: list[int]


def _facet_incidence_masks(n: int) -> FacetCutMasks:
    """Evaluate every facet on every cut in one bit-sliced pass.

    col[k] is the bitmask of the cuts with x_k = 1.  A facet has +1 at a and
    -1 at b and c, so on 0/1 vectors its value A - B - C is 0 exactly when
    all three are 0 or A is 1 with one of B, C, and positive exactly when A
    alone is 1.
    """
    cuts = enumerate_cuts(n)
    facets = enumerate_triangle_facets(n)
    col = [0] * num_pairs(n)
    for idx, cut in enumerate(cuts):
        for k in _bits(cut.mask):
            col[k] |= 1 << idx
    full = (1 << len(cuts)) - 1
    on, violating = [], []
    for f in facets:
        (a, _), (b, _), (c, _) = f.entries()
        A, B, C = col[a], col[b], col[c]
        on.append(full & ~(A | B | C) | A & (B ^ C))
        violating.append(A & ~B & ~C)
    return FacetCutMasks(facets, cuts, on, violating)


def adjacency_agreement(n: int, incidence: FacetCutMasks | None = None):
    """Compare the rank oracle with the sign test over every facet pair.

    `incidence` is `_facet_incidence_masks(n)`, computed when not given.
    Returns (total_pairs, mismatches) where each mismatch records the facet
    pair and the two verdicts.
    """
    facets, cuts, masks, _ = incidence or _facet_incidence_masks(n)
    bit_rows = [c.bits for c in cuts]
    target = num_pairs(n) - 2
    mismatches = []
    total = 0
    for a in range(len(facets)):
        for b in range(a + 1, len(facets)):
            total += 1
            rows = [bit_rows[i] for i in _bits(masks[a] & masks[b])]
            by_rank = integer_rank(rows) == target
            by_sign = not conflicting(facets[a], facets[b])
            if by_rank != by_sign:
                mismatches.append((facets[a], facets[b], by_rank, by_sign))
    return total, mismatches


def _cut_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense 0/1 cut coordinates and point-membership matrices."""
    cuts = enumerate_cuts(n)
    bits = np.array([c.bits for c in cuts], dtype=np.int64)
    member = np.array(
        [[1 if p in c.members else 0 for p in range(1, n + 1)] for c in cuts],
        dtype=np.int64,
    )
    return bits, member


@dataclass
class HypermetricSweep:
    n: int
    bound: int
    vector_count: int
    cut_count: int
    mismatch: tuple | None  # (b, cut members, direct, closed) on first failure
    positive: tuple | None  # (b, cut members, value) on first failure

    @property
    def ok(self) -> bool:
        return self.mismatch is None and self.positive is None


def hypermetric_sweep(n: int, bound: int) -> HypermetricSweep:
    """Exhaustive identity check over the bounded coefficient family.

    For every integer vector b with |b_i| <= bound and sum 1 and every
    nonzero cut, the direct pair summation must equal sigma * (1 - sigma)
    where sigma is the coefficient sum over the generating set, and must be
    nonpositive.  The two sides are computed independently.
    """
    coeffs = enumerate_hypermetric_coeffs(n, bound)
    cuts = enumerate_cuts(n)
    bits, member = _cut_matrix(n)
    vecs = np.array(coeffs, dtype=np.int64)
    idx_i = np.array([i - 1 for i, _ in pair_list(n)])
    idx_j = np.array([j - 1 for _, j in pair_list(n)])
    direct = (vecs[:, idx_i] * vecs[:, idx_j]) @ bits.T
    sigma = vecs @ member.T
    closed = sigma * (1 - sigma)

    mismatch = None
    neq = np.argwhere(direct != closed)
    if neq.size:
        v, c = map(int, neq[0])
        mismatch = (coeffs[v], sorted(cuts[c].members), int(direct[v, c]), int(closed[v, c]))
    positive = None
    pos = np.argwhere(direct > 0)
    if pos.size:
        v, c = map(int, pos[0])
        positive = (coeffs[v], sorted(cuts[c].members), int(direct[v, c]))
    return HypermetricSweep(n, bound, len(coeffs), len(cuts), mismatch, positive)


def _is_triangle_coeffs(b: Sequence[int]) -> bool:
    return sorted(b) == [-1] + [0] * (len(b) - 3) + [1, 1]


@dataclass
class TriangleMaximalitySweep:
    n: int
    bound: int
    vector_count: int
    degenerate_count: int  # vectors inducing the identically-zero functional
    max_count: int
    triangle_count: int
    over_bound: tuple | None  # b exceeding the incidence bound
    triangle_failure: tuple | None  # triangle b missing the bound or facet rank
    rogue_maximizer: tuple | None  # facet-inducing non-triangle b at the bound

    @property
    def ok(self) -> bool:
        return (
            self.over_bound is None
            and self.triangle_failure is None
            and self.rogue_maximizer is None
        )


def triangle_maximality_sweep(n: int, bound: int) -> TriangleMaximalitySweep:
    """Certify that triangle facets are the unique cut-count maximizers among
    the bounded coefficient family.

    Every vector inducing a nonzero functional must contain at most
    3 * 2**(n-3) - 1 cuts; each triangle vector must attain the bound with
    its zero cuts spanning a hyperplane (rank C(n, 2) - 1, the facet
    certificate); any other vector attaining the bound must fail that rank
    certificate.  Vectors with a single nonzero coefficient induce the
    identically-zero functional (the trivial inequality) and are excluded.
    """
    coeffs = enumerate_hypermetric_coeffs(n, bound)
    cuts = enumerate_cuts(n)
    bits, member = _cut_matrix(n)
    vecs = np.array(coeffs, dtype=np.int64)
    sigma = vecs @ member.T
    values = sigma * (1 - sigma)
    zero_counts = (values == 0).sum(axis=1)
    proper = (vecs != 0).sum(axis=1) >= 2
    limit = triangle_incidence_bound(n)
    facet_rank = num_pairs(n) - 1

    over = np.argwhere(proper & (zero_counts > limit))
    over_bound = None
    if over.size:
        v = int(over[0][0])
        over_bound = (coeffs[v], int(zero_counts[v]))

    triangle_failure = None
    rogue_maximizer = None
    triangle_count = 0
    bit_rows = [c.bits for c in cuts]
    for v, b in enumerate(coeffs):
        if not proper[v]:
            continue
        is_triangle = _is_triangle_coeffs(b)
        count = int(zero_counts[v])
        if is_triangle:
            triangle_count += 1
        if count != limit and not is_triangle:
            continue
        rows = [bit_rows[c] for c in np.nonzero(values[v] == 0)[0]]
        rank = integer_rank(rows)
        if is_triangle:
            if count != limit or rank != facet_rank:
                triangle_failure = triangle_failure or (b, count, rank)
        elif rank == facet_rank:
            rogue_maximizer = rogue_maximizer or (b, count, rank)
    return TriangleMaximalitySweep(
        n,
        bound,
        len(coeffs),
        int((~proper).sum()),
        limit,
        triangle_count,
        over_bound,
        triangle_failure,
        rogue_maximizer,
    )
