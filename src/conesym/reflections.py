"""Exact reconstruction of the order-144 isometry group of the 4-point cone
as a reflection group acting on its 7 extreme rays.

Everything here runs on Python integers.  A matrix has one form,
(den, entries): a positive integer denominator and the row-major integer
entries, in lowest terms, so equal matrices have equal forms.  Each
generator is the reflection through the hyperplane spanned by 5 of the 7
rays; its normal vector is the kernel line of the corresponding 5 x 6
matrix, read off its six 5 x 5 minors, and the resulting map must permute
the ray set, swapping the omitted two rays.  It must also be an orthogonal
involution, whose determinant then follows from its trace, and that
determinant must be -1.  The group is ordered through its action on the
rays, never by listing its elements: the rays span R^6, so the action is
faithful, and a stabilizer chain on the generators' ray permutations gives
order 144, the full symmetric group on the 4-ray orbit times the full
symmetric group on the 3-ray orbit.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import mul
from typing import NamedTuple, Sequence

from .autgrp import group_order, symn_point_generators
from .cones import integer_rank
from .core import apply_permutation
from .ridge import StructureError

__all__ = [
    "RAY_COUNT",
    "ray_table",
    "symn_orbits",
    "DegenerateRaysError",
    "kernel_vector",
    "reflection",
    "attempt_ray_swap",
    "GENERATOR_PAIRS",
    "RayActionError",
    "ReflectionGroupReport",
    "build_reflection_group",
]

RAY_COUNT = 7

# The 7 nonzero cuts on 4 points in the fixed reference order r1..r7, the
# cuts of {4}, {1, 2}, {3}, {1, 3}, {1, 4}, {2} and {1}.
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


class DegenerateRaysError(StructureError):
    """The chosen rays are linearly dependent."""


class RayActionError(StructureError):
    """A constructed reflection fails to permute the ray set."""


def ray_table() -> tuple[tuple[int, ...], ...]:
    """The 7 extreme rays, exactly as tabulated."""
    return _RAYS


def symn_orbits() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orbits of the rays under the point permutations, as 1-based ray
    numbers, largest orbit first."""
    index = {r: i for i, r in enumerate(_RAYS)}
    gens = symn_point_generators(4)
    orbits = []
    seen: set[int] = set()
    for start in range(RAY_COUNT):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for sigma in gens:
                j = index[apply_permutation(sigma, _RAYS[i])]
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(j)
        seen |= orbit
        orbits.append(tuple(sorted(i + 1 for i in orbit)))
    orbits.sort(key=len, reverse=True)
    if len(orbits) != 2:
        raise RayActionError(f"expected 2 orbits, found {len(orbits)}")
    return orbits[0], orbits[1]


def _det(rows) -> int:
    """Determinant of a square integer matrix, given as a list of tuples, by
    expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def kernel_vector(rays: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The kernel direction of 5 independent 6-dimensional integer rays,
    normalized to coprime integers with positive leading nonzero entry."""
    rows = [tuple(r) for r in rays]
    if len(rows) != 5 or any(len(r) != 6 for r in rows):
        raise ValueError("need exactly 5 rays of dimension 6")
    # Cramer's rule: entry j of the kernel line is (-1)^j times the minor
    # that leaves out column j, and the 5 rows have rank 5 exactly when
    # some minor is nonzero.
    ints = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in rows]) for j in range(6)]
    if not any(ints):
        raise DegenerateRaysError("the 5 rays are linearly dependent")
    content = gcd(*ints)
    if next(v for v in ints if v) < 0:
        content = -content
    return tuple(v // content for v in ints)


def _reduced(den: int, entries) -> tuple[int, tuple[int, ...]]:
    """(den, entries) in lowest terms; den must be positive."""
    g = gcd(den, *entries)
    return den // g, tuple(v // g for v in entries)


def reflection(alpha: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Matrix of the reflection fixing the hyperplane orthogonal to the
    integer vector alpha, v - 2 <v, alpha> / <alpha, alpha> * alpha."""
    if not any(alpha):
        raise ValueError("alpha must be nonzero")
    norm = sum(a * a for a in alpha)
    entries = [norm * (r == c) - 2 * ar * ac
               for r, ar in enumerate(alpha) for c, ac in enumerate(alpha)]
    return _reduced(norm, entries)


def _rows(entries) -> list:
    n = isqrt(len(entries))
    return [entries[k:k + n] for k in range(0, n * n, n)]


def _mul(a, b) -> tuple[int, tuple[int, ...]]:
    (da, ea), (db, eb) = a, b
    cols = list(zip(*_rows(eb)))
    return _reduced(da * db, [sum(map(mul, row, col)) for row in _rows(ea) for col in cols])


def _transpose(m) -> tuple[int, tuple[int, ...]]:
    den, entries = m
    return den, tuple(v for col in zip(*_rows(entries)) for v in col)


def _involution_det(m) -> int:
    """Determinant of a matrix already checked to be an orthogonal
    involution.  Such a matrix is symmetric with eigenvalues +1 and -1, so
    with k eigenvalues -1 its trace is dim - 2k and its determinant (-1)^k."""
    den, entries = m
    dim = isqrt(len(entries))
    k, rem = divmod(dim * den - sum(entries[::dim + 1]), 2 * den)
    assert rem == 0, "the trace of an orthogonal involution has the parity of its dimension"
    return (-1) ** k


def _ray_permutation(m, rays) -> tuple[int, ...] | None:
    """0-based permutation of the ray list induced by the matrix, or None
    when some image is not a ray."""
    # With m = (den, entries), ray s is the image of r exactly when
    # entries . r == den * s.
    den, entries = m
    index = {tuple(den * v for v in s): i for i, s in enumerate(rays)}
    images = []
    for r in rays:
        img = tuple(sum(map(mul, row, r)) for row in _rows(entries))
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


class ReflectionGroupReport(NamedTuple):
    generator_pairs: tuple[tuple[int, int], ...]
    alphas: tuple[tuple[int, ...], ...]
    generator_perms: tuple[tuple[int, ...], ...]
    matrix_order: int | None  # None when the rays fail to span the space
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


def build_reflection_group() -> ReflectionGroupReport:
    """Construct the five ray-swapping reflections and certify the group.

    Each generator must be an exact orthogonal involution of determinant -1
    permuting the rays as the transposition of its defining pair.  The group
    is ordered through its ray action, by a stabilizer chain on the
    generators' ray permutations; the action must restrict to the full
    symmetric group on each ray orbit.

    The action is faithful when the rays span R^6 (an integer rank
    certificate): a matrix fixing 7 spanning rays is the identity.  Every
    generator permutes the rays, so the action maps the matrix group onto the
    group of the ray permutations, and a faithful action makes the two
    orders equal.  Without the rank certificate the matrix order is unknown
    and the report fails.
    """
    ident = (1, tuple(int(r == c) for r in range(6) for c in range(6)))
    alphas = []
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
        if _mul(_transpose(m), m) != ident or _mul(m, m) != ident:
            raise RayActionError(f"reflection for rays ({i}, {j}) is not an orthogonal involution")
        det = _involution_det(m)
        if det != -1:
            raise RayActionError(f"reflection for rays ({i}, {j}) has determinant {det}")
        alphas.append(alpha)
        perms.append(perm)

    perm_order = group_order(perms, RAY_COUNT)
    faithful = integer_rank(_RAYS) == len(_RAYS[0])
    orbit4, orbit3 = symn_orbits()
    return ReflectionGroupReport(
        GENERATOR_PAIRS,
        tuple(alphas),
        tuple(perms),
        perm_order if faithful else None,
        perm_order,
        faithful,
        _restriction_order(perms, [p - 1 for p in orbit4]),
        _restriction_order(perms, [p - 1 for p in orbit3]),
    )
