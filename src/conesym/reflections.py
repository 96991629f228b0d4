"""Exact reconstruction of the order-144 isometry group of the 4-point cone
as a reflection group acting on its 7 extreme rays.

Everything here is exact rational arithmetic.  Each generator is the
reflection through the hyperplane spanned by 5 of the 7 rays; its normal
vector comes from the kernel of the corresponding 5 x 6 matrix, and the
resulting map must permute the ray set, swapping the omitted two rays.  The
group closes by breadth-first matrix multiplication, certified to have order
144 with a faithful product action: the full symmetric group on the 4-ray
orbit times the full symmetric group on the 3-ray orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .autgrp import group_order, symn_point_generators
from .cones import integer_rank, kernel_basis
from .core import apply_permutation

__all__ = [
    "RAY_COUNT",
    "ray_table",
    "symn_orbits",
    "DegenerateRaysError",
    "kernel_vector",
    "reflection",
    "mat_vec",
    "mat_mul",
    "attempt_ray_swap",
    "GENERATOR_PAIRS",
    "RayActionError",
    "ReflectionGroupReport",
    "build_reflection_group",
]

RAY_COUNT = 7

# The 7 nonzero cuts on 4 points in the fixed reference order r1..r7.
_RAYS = (
    (0, 0, 1, 0, 1, 1),
    (0, 1, 1, 1, 1, 0),
    (0, 1, 0, 1, 0, 1),
    (1, 0, 1, 1, 0, 1),
    (1, 1, 0, 0, 1, 1),
    (1, 0, 0, 1, 1, 0),
    (1, 1, 1, 0, 0, 0),
)

# Adjacent transpositions within each point-permutation orbit of the rays;
# together they generate the full product action.
GENERATOR_PAIRS = ((1, 3), (3, 6), (6, 7), (2, 4), (4, 5))


class DegenerateRaysError(ValueError):
    """The chosen rays are linearly dependent."""


class RayActionError(RuntimeError):
    """A constructed reflection fails to permute the ray set."""


def ray_table() -> tuple[tuple[int, ...], ...]:
    """The 7 extreme rays, exactly as tabulated."""
    return _RAYS


def symn_orbits(rays: Sequence[Sequence[int]] = _RAYS) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orbits of the rays under the point permutations, as 1-based ray
    numbers, largest orbit first."""
    index = {tuple(r): i for i, r in enumerate(rays)}
    gens = symn_point_generators(4)
    orbits = []
    seen: set[int] = set()
    for start in range(len(rays)):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for sigma in gens:
                j = index[apply_permutation(sigma, tuple(rays[i]))]
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(j)
        seen |= orbit
        orbits.append(tuple(sorted(i + 1 for i in orbit)))
    orbits.sort(key=len, reverse=True)
    if len(orbits) != 2:
        raise RayActionError(f"expected 2 orbits, found {len(orbits)}")
    return orbits[0], orbits[1]


def kernel_vector(rays: Sequence[Sequence]) -> tuple[int, ...]:
    """The kernel direction of 5 independent 6-dimensional rays, normalized
    to coprime integers with positive leading nonzero entry."""
    rows = [list(r) for r in rays]
    if len(rows) != 5 or any(len(r) != 6 for r in rows):
        raise ValueError("need exactly 5 rays of dimension 6")
    if integer_rank(rows) != 5:
        raise DegenerateRaysError("the 5 rays are linearly dependent")
    basis = kernel_basis(rows)
    assert len(basis) == 1
    vec = basis[0]
    denom_lcm = 1
    for v in vec:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = [int(v * denom_lcm) for v in vec]
    content = 0
    for v in ints:
        content = gcd(content, abs(v))
    ints = [v // content for v in ints]
    leading = next(v for v in ints if v != 0)
    if leading < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def _dot(u, v) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def reflection(alpha: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of the reflection fixing the hyperplane orthogonal to alpha:
    v - 2 <v, alpha> / <alpha, alpha> * alpha."""
    if all(a == 0 for a in alpha):
        raise ValueError("alpha must be nonzero")
    norm = _dot(alpha, alpha)
    rows = []
    for r in range(len(alpha)):
        row = []
        for c in range(len(alpha)):
            entry = Fraction(1 if r == c else 0) - 2 * Fraction(alpha[r]) * alpha[c] / norm
            row.append(entry)
        rows.append(tuple(row))
    return tuple(rows)


def mat_vec(m, v) -> tuple[Fraction, ...]:
    return tuple(_dot(row, v) for row in m)


def mat_mul(a, b) -> tuple[tuple[Fraction, ...], ...]:
    cols = list(zip(*b))
    return tuple(tuple(_dot(row, col) for col in cols) for row in a)


def _identity_matrix(n: int):
    return tuple(
        tuple(Fraction(1 if r == c else 0) for c in range(n)) for r in range(n)
    )


def _ray_permutation(m, rays) -> tuple[int, ...] | None:
    """0-based permutation of the ray list induced by the matrix, or None
    when some image is not a ray."""
    index = {tuple(map(Fraction, r)): i for i, r in enumerate(rays)}
    images = []
    for r in rays:
        img = mat_vec(m, r)
        if img not in index:
            return None
        images.append(index[img])
    return tuple(images) if len(set(images)) == len(rays) else None


def attempt_ray_swap(i: int, j: int):
    """Build the reflection determined by the 5 rays other than r_i, r_j.

    Returns (alpha, matrix, perm) where perm is the induced 0-based ray
    permutation or None when the map does not permute the rays (which is
    what happens for rays in different orbits).
    """
    if not (1 <= i <= RAY_COUNT and 1 <= j <= RAY_COUNT and i != j):
        raise ValueError("ray numbers must be distinct and within 1..7")
    others = [r for k, r in enumerate(_RAYS, start=1) if k not in (i, j)]
    alpha = kernel_vector(others)
    m = reflection(alpha)
    return alpha, m, _ray_permutation(m, _RAYS)


def _restriction_order(perms, positions) -> int:
    pos_index = {p: k for k, p in enumerate(positions)}
    restricted = [tuple(pos_index[perm[p]] for p in positions) for perm in perms]
    return group_order(restricted, len(positions))


@dataclass
class ReflectionGroupReport:
    generator_pairs: tuple[tuple[int, int], ...]
    alphas: tuple[tuple[int, ...], ...]
    generator_perms: tuple[tuple[int, ...], ...]
    matrix_order: int
    perm_order: int
    faithful: bool
    orbit4_order: int
    orbit3_order: int

    @property
    def passed(self) -> bool:
        return (
            self.matrix_order == 144
            and self.perm_order == 144
            and self.faithful
            and self.orbit4_order == 24
            and self.orbit3_order == 6
        )


def _scaled(m) -> tuple[int, tuple[int, ...]]:
    """Canonical (denominator, flat integer entries) form with content 1."""
    den = 1
    for row in m:
        for v in row:
            v = Fraction(v)
            den = den * v.denominator // gcd(den, v.denominator)
    flat = tuple(int(Fraction(v) * den) for row in m for v in row)
    g = den
    for v in flat:
        g = gcd(g, abs(v))
        if g == 1:
            break
    return den // g, tuple(v // g for v in flat)


def _scaled_mul(a, b) -> tuple[int, tuple[int, ...]]:
    da, ea = a
    db, eb = b
    out = []
    for r in range(0, 36, 6):
        for c in range(6):
            out.append(sum(ea[r + k] * eb[6 * k + c] for k in range(6)))
    den = da * db
    g = den
    for v in out:
        g = gcd(g, abs(v))
        if g == 1:
            break
    return den // g, tuple(v // g for v in out)


def build_reflection_group(closure_cap: int = 10000) -> ReflectionGroupReport:
    """Construct the five ray-swapping reflections and certify the group.

    Each generator must be an exact orthogonal involution of determinant -1
    permuting the rays as the transposition of its defining pair; the matrix
    closure must reach order 144 with a permutation action that is faithful
    and restricts to the full symmetric group on each ray orbit.

    The closure multiplies canonical scaled-integer forms of the matrices,
    which is exact; each product's ray permutation is the composition of its
    factors' permutations (products of ray-permuting maps permute the rays).
    """
    ident = _identity_matrix(6)
    alphas = []
    matrices = []
    perms = []
    for i, j in GENERATOR_PAIRS:
        alpha, m, perm = attempt_ray_swap(i, j)
        if perm is None:
            raise RayActionError(f"reflection for rays ({i}, {j}) does not permute the rays")
        expected = list(range(RAY_COUNT))
        expected[i - 1], expected[j - 1] = j - 1, i - 1
        if perm != tuple(expected):
            raise RayActionError(
                f"reflection for rays ({i}, {j}) acts as {perm}, not the transposition"
            )
        transpose = tuple(zip(*m))
        if mat_mul(transpose, m) != ident or mat_mul(m, m) != ident:
            raise RayActionError(f"reflection for rays ({i}, {j}) is not an orthogonal involution")
        if _det(m) != -1:
            raise RayActionError(f"reflection for rays ({i}, {j}) has determinant {_det(m)}")
        alphas.append(alpha)
        matrices.append(m)
        perms.append(perm)

    scaled_gens = [(_scaled(m), perm) for m, perm in zip(matrices, perms)]
    elements = {_scaled(ident): tuple(range(RAY_COUNT))}
    frontier = list(elements)
    while frontier:
        if len(elements) > closure_cap:
            raise RayActionError(f"closure exceeded {closure_cap} elements")
        nxt = []
        for key in frontier:
            perm_m = elements[key]
            for g_key, g_perm in scaled_gens:
                prod = _scaled_mul(key, g_key)
                if prod not in elements:
                    # the matrix product m*g applies g first, so ray i goes
                    # through g_perm and then perm_m
                    elements[prod] = tuple(perm_m[v] for v in g_perm)
                    nxt.append(prod)
        frontier = nxt

    all_perms = list(elements.values())
    faithful = len(set(all_perms)) == len(elements)
    orbit4, orbit3 = symn_orbits()
    return ReflectionGroupReport(
        GENERATOR_PAIRS,
        tuple(alphas),
        tuple(perms),
        len(elements),
        group_order(perms, RAY_COUNT),
        faithful,
        _restriction_order(perms, [p - 1 for p in orbit4]),
        _restriction_order(perms, [p - 1 for p in orbit3]),
    )


def _det(m) -> Fraction:
    rows = [list(map(Fraction, r)) for r in m]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det
