"""Exact reconstruction of the order-144 isometry group of the 4-point cone
as a reflection group acting on its 7 extreme rays.

Everything here runs on Python integers, and no matrix is built.  The
certificate rests on one lemma: a permutation of a spanning set that keeps
its Gram matrix G extends to exactly one linear isometry, since a
combination c of the vectors vanishes exactly when c^T G c = 0.  The kernel
line alpha of five of the rays, read off the six 5 x 5 minors of their
matrix, is nonzero only when they are independent, and then they span
alpha-perp.  A swap of the other two rays r_i, r_j must keep the 7 x 7 Gram
matrix, and r_i - r_j must be a nonzero multiple of alpha, which puts alpha
in the span of the rays: so the 7 rays span R^6 and the swap is exactly one
isometry g.  It fixes alpha-perp and, being orthogonal, keeps the line of
alpha, so g alpha = -alpha since g moves r_i.  So g is the reflection
through alpha-perp, an involution of determinant -1.  The group is ordered
through its action on the rays, never by listing its elements: the rays
span R^6, so the action is faithful, and a stabilizer chain on the
generators' ray permutations gives order 144, the full symmetric group on
the 4-ray orbit times the one on the 3-ray orbit.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

from .autgrp import _orbits, group_order, symn_point_generators
from .core import pair_index, pair_list
from .ridge import StructureError

__all__ = [
    "RAY_COUNT",
    "ray_table",
    "symn_orbits",
    "DegenerateRaysError",
    "kernel_vector",
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
    """A ray swap fails to be a reflection permuting the ray set."""


def ray_table() -> tuple[tuple[int, ...], ...]:
    """The 7 extreme rays, exactly as tabulated."""
    return _RAYS


def _move_pairs(sigma: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """v with its entry at each pair (i, j) moved to (sigma i, sigma j), sigma
    being an image tuple on the points 0..n-1 (`symn_point_generators`)."""
    n = len(sigma)
    out = [0] * len(v)
    for (i, j), x in zip(pair_list(n), v):
        a, b = sorted((sigma[i - 1] + 1, sigma[j - 1] + 1))
        out[pair_index(a, b, n)] = x
    return tuple(out)


def symn_orbits() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orbits of the rays under the point permutations, as 1-based ray
    numbers, largest orbit first."""
    index = {r: i for i, r in enumerate(_RAYS)}
    gens = [[index[_move_pairs(s, r)] for r in _RAYS] for s in symn_point_generators(4)]
    orbits = [
        tuple(i + 1 for i in range(RAY_COUNT) if orbit >> i & 1)
        for orbit in _orbits(gens, RAY_COUNT)
    ]
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


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def attempt_ray_swap(i: int, j: int):
    """The swap of rays r_i and r_j, certified as the reflection through
    alpha-perp, alpha being the kernel line of the other 5 rays.

    Returns (alpha, perm): perm is the 0-based transposition (i j) of the
    rays when it keeps their Gram matrix, and None when it does not (which
    is what happens for rays in different orbits).  A kept Gram matrix makes
    the swap the reflection through alpha-perp (see the module docstring),
    which moves r_i along its normal; raises RayActionError when r_i - r_j
    is not a nonzero multiple of alpha.
    """
    if not (1 <= i <= RAY_COUNT and 1 <= j <= RAY_COUNT and i != j):
        raise ValueError("ray numbers must be distinct and within 1..7")
    others = [r for k, r in enumerate(_RAYS, start=1) if k not in (i, j)]
    alpha = kernel_vector(others)
    perm = list(range(RAY_COUNT))
    perm[i - 1], perm[j - 1] = j - 1, i - 1
    moved = [_RAYS[k] for k in perm]
    if any(_dot(_RAYS[a], _RAYS[b]) != _dot(moved[a], moved[b])
           for a in range(RAY_COUNT) for b in range(a, RAY_COUNT)):
        return alpha, None
    diff = [a - b for a, b in zip(_RAYS[i - 1], _RAYS[j - 1])]
    # Equality in Cauchy-Schwarz: diff and alpha are nonzero and parallel.
    if not 0 < _dot(diff, diff) * _dot(alpha, alpha) == _dot(diff, alpha) ** 2:
        raise RayActionError(
            f"reflection for rays ({i}, {j}): r{i} - r{j} is not a multiple of the normal {alpha}"
        )
    return alpha, tuple(perm)


def _restriction_order(perms, positions) -> int:
    pos_index = {p: k for k, p in enumerate(positions)}
    restricted = [tuple(pos_index[perm[p]] for p in positions) for perm in perms]
    return group_order(restricted, len(positions))


class ReflectionGroupReport(NamedTuple):
    generator_pairs: tuple[tuple[int, int], ...]
    alphas: tuple[tuple[int, ...], ...]
    perm_order: int
    orbit4_order: int
    orbit3_order: int

    @property
    def passed(self) -> bool:
        return self.perm_order == 144 and self.orbit4_order == 24 and self.orbit3_order == 6


def build_reflection_group() -> ReflectionGroupReport:
    """Construct the five ray-swapping reflections and certify the group.

    Each generator must swap its defining pair of rays keeping the Gram
    matrix of the rays, which makes it the reflection through its alpha-perp
    (`attempt_ray_swap`).  The group is ordered through its ray action, by a
    stabilizer chain on the generators' ray permutations; the action must
    restrict to the full symmetric group on each ray orbit.

    The action is faithful because any passing swap makes the rays span
    R^6: it puts r_i - r_j, a nonzero multiple of alpha, beside five rays
    that span alpha-perp, and a matrix fixing 7 spanning rays is the
    identity.  Every generator permutes the rays, so the action maps the
    matrix group onto the group of the ray permutations, and the two orders
    are equal.
    """
    alphas = []
    perms = []
    for i, j in GENERATOR_PAIRS:
        alpha, perm = attempt_ray_swap(i, j)
        if perm is None:
            raise RayActionError(f"reflection for rays ({i}, {j}) does not permute the rays")
        alphas.append(alpha)
        perms.append(perm)

    orbit4, orbit3 = symn_orbits()
    return ReflectionGroupReport(
        GENERATOR_PAIRS,
        tuple(alphas),
        group_order(perms, RAY_COUNT),
        _restriction_order(perms, [p - 1 for p in orbit4]),
        _restriction_order(perms, [p - 1 for p in orbit3]),
    )
