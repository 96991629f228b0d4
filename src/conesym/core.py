"""Coordinate conventions and the elementary objects everything else builds on.

Points are 1-based, V = {1, ..., n}.  A vector "over pairs" has one entry per
unordered pair (i, j) with i < j, and the pairs are ordered lexicographically,
so for n = 4 the coordinates are (1,2), (1,3), (1,4), (2,3), (2,4), (3,4).
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from math import isqrt
from typing import Iterable, Sequence

__all__ = [
    "num_pairs",
    "pair_list",
    "pair_index",
    "pair_unindex",
    "CutVector",
    "cut_vector",
    "enumerate_cuts",
    "cut_columns",
    "cut_correlations",
    "TriangleFacet",
    "enumerate_triangle_facets",
    "Permutation",
    "apply_permutation",
    "permute_facet",
    "switching_reflection",
]


def num_pairs(n: int) -> int:
    """Number of coordinates for n points, i.e. C(n, 2)."""
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def _pair_table(n: int):
    pairs = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return pairs, {p: k for k, p in enumerate(pairs)}, dict(enumerate(pairs))


def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j), i < j, in coordinate order."""
    return _pair_table(n)[0]


def pair_index(i: int, j: int, n: int) -> int:
    """Coordinate of the pair (i, j); requires integers 1 <= i < j <= n."""
    try:
        return _pair_table(n)[1][operator.index(i), operator.index(j)]
    except (TypeError, KeyError):
        raise ValueError(f"invalid pair ({i}, {j}) for n={n}") from None


def pair_unindex(k: int, n: int) -> tuple[int, int]:
    """Inverse of pair_index."""
    try:
        return _pair_table(n)[2][operator.index(k)]
    except (TypeError, KeyError):
        raise ValueError(f"coordinate {k} out of range for n={n}") from None


def _points(points, n: int, error: str) -> tuple[int, ...]:
    """The points as ints; ValueError(error) unless they are distinct integers in 1..n."""
    try:
        points = tuple(map(operator.index, points))
    except TypeError:
        raise ValueError(error) from None
    if len(set(points)) != len(points) or not all(1 <= p <= n for p in points):
        raise ValueError(error)
    return points


def _n_from_len(m: int) -> int:
    n = (1 + isqrt(1 + 8 * m)) // 2
    if num_pairs(n) != m:
        raise ValueError(f"length {m} is not C(n, 2) for any n")
    return n


class CutVector:
    """0/1 incidence vector of the cut determined by a point subset.

    A pair (i, j) is cut when exactly one of i, j lies in the generating set.
    Complementary subsets determine the same cut, so the stored generator is
    canonicalized to the representative that does not contain the point n.
    Instances are immutable value objects.
    """

    __slots__ = ("n", "members", "mask")

    def __init__(self, n: int, members: Iterable[int] = ()):
        members = frozenset(_points(set(members), n, f"members must be integers in 1..{n}"))
        if n in members:
            members = frozenset(range(1, n + 1)) - members
        mask = 0
        for k, (i, j) in enumerate(pair_list(n)):
            if (i in members) != (j in members):
                mask |= 1 << k
        self.n = n
        self.members = members
        self.mask = mask

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.mask >> k) & 1 for k in range(num_pairs(self.n)))

    @property
    def correlation(self) -> tuple[int, ...]:
        """The cut's 0/1 correlation row p, rooted at the point n.

        With s the incidence vector of the generating set (s_n = 0), p is
        s_i * s_j at the pair (i, j), j < n, and s_i at (i, n), in coordinate
        order.  It is xi(x) for the covariance map xi of Deza and Laurent
        (Geometry of Cuts and Metrics, 1997, section 5.2), with
        xi(x)_in = x_in and xi(x)_ij = (x_in + x_jn - x_ij) / 2.  Its inverse
        x_in = p_in, x_ij = p_in + p_jn - 2 * p_ij is integral, so xi is a
        linear bijection and every set of cuts has the same rank in either
        coordinates.  A cut with k generating points has C(k + 1, 2)
        nonzeros here against k * (n - k) in `bits`.
        """
        n, s = self.n, self.members
        return tuple(int(i in s and (j == n or j in s)) for i, j in pair_list(n))

    def is_zero(self) -> bool:
        return self.mask == 0

    def __len__(self) -> int:
        return num_pairs(self.n)

    def __getitem__(self, k: int) -> int:
        if not 0 <= k < num_pairs(self.n):
            raise IndexError(k)
        return (self.mask >> k) & 1

    def __iter__(self):
        return iter(self.bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CutVector):
            return NotImplemented
        return self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"CutVector(n={self.n}, members={{{', '.join(map(str, sorted(self.members)))}}})"


def cut_vector(members: Iterable[int], n: int) -> CutVector:
    """Incidence vector of the cut split off by the given point set."""
    return CutVector(n, members)


def enumerate_cuts(n: int) -> list[CutVector]:
    """All 2**(n-1) - 1 distinct nonzero cuts, one per complement pair.

    Deterministic order: cut c is generated by the points whose bits are set
    in c + 1, point p at bit p - 1, which keeps the representative free of
    the point n.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    cuts = []
    for m in range(1, 1 << (n - 1)):
        members = [p + 1 for p in range(n - 1) if (m >> p) & 1]
        cuts.append(CutVector(n, members))
    return cuts


def cut_columns(n: int) -> list[int]:
    """Per coordinate, the bitmask over `enumerate_cuts(n)` of the cuts cutting its pair.

    Column (i, n) is M_(i-1) >> 1, M_k being the mask of the m = c + 1 with
    bit k set: M_(n-2) is the upper half of 2**(n-1) bits and M_(k-1) is
    M_k ^ M_k >> 2**(k-1), as adding 2**(k-1) to m flips bit k exactly when
    bit k - 1 is set.  Column (i, j) is the XOR of columns (i, n) and (j, n).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    star = [0] * (n + 1)  # star[n] stays 0: n is in no generating set
    star[n - 1] = (1 << 2 ** (n - 1)) - (1 << 2 ** (n - 2))
    for i in range(n - 1, 1, -1):
        star[i - 1] = star[i] ^ star[i] >> 2 ** (i - 2)
    return [(star[i] ^ star[j]) >> 1 for i, j in pair_list(n)]


def cut_correlations(n: int) -> list[tuple[int, ...]]:
    """`CutVector.correlation` of every cut, in the order of `enumerate_cuts(n)`.

    Cut c is generated by the points at the set bits of c + 1.  With s_p = 1
    for those points, the row is s_i * s_j at (i, j), j < n, and s_i at
    (i, n), so taking s_n = 1 makes every entry the product s_i * s_j.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    pairs = pair_list(n)
    rows = []
    for m in range(1, 1 << (n - 1)):
        s = [0, *(m >> p & 1 for p in range(n - 1)), 1]  # s[p] for p = 1..n
        rows.append(tuple(s[i] & s[j] for i, j in pairs))
    return rows


class TriangleFacet:
    """Signed vector of one triangle inequality x_ij - x_ik - x_jk <= 0.

    The apex pair (i, j) carries +1 and the two pairs through the third
    point k carry -1; all three supported pairs lie in the 3-set {i, j, k}.
    """

    __slots__ = ("n", "i", "j", "k")

    def __init__(self, i: int, j: int, k: int, n: int):
        i, j, k = _points((i, j, k), n, f"({i}, {j}, {k}) is not a 3-set inside 1..{n}")
        if i > j:
            i, j = j, i
        self.n = n
        self.i = i
        self.j = j
        self.k = k

    @property
    def apex(self) -> tuple[int, int]:
        return (self.i, self.j)

    @property
    def support(self) -> frozenset[int]:
        return frozenset((self.i, self.j, self.k))

    def entries(self) -> tuple[tuple[int, int], ...]:
        """The three (coordinate, sign) entries."""
        i, j, k, n = self.i, self.j, self.k, self.n
        return (
            (pair_index(i, j, n), 1),
            (pair_index(min(i, k), max(i, k), n), -1),
            (pair_index(min(j, k), max(j, k), n), -1),
        )

    def coeffs(self) -> tuple[int, ...]:
        """Dense coefficient vector over all pairs."""
        out = [0] * num_pairs(self.n)
        for idx, sign in self.entries():
            out[idx] = sign
        return tuple(out)

    @property
    def correlation(self) -> tuple[int, ...]:
        """The facet's functional in correlation coordinates, halved.

        Substituting x_in = p_in and x_ij = p_in + p_jn - 2 * p_ij (see
        `CutVector.correlation`) into x_ij - x_ik - x_jk gives twice this
        vector, so facet_value(f, x) == 2 * <f.correlation, p> for every x
        and its correlation row p.  It is -p_ij + p_ik + p_jk - p_kn for
        i, j, k < n, p_ik - p_kn for the apex (i, n) and -p_ij for the
        third point n.  Its entries are +-1, and distinct facets have
        distinct supports.
        """
        i, j, k, n = self.i, self.j, self.k, self.n
        if k == n:
            terms = (((i, j), -1),)
        elif j == n:
            terms = (((i, k), 1), ((k, n), -1))
        else:
            terms = (((i, j), -1), ((i, k), 1), ((j, k), 1), ((k, n), -1))
        out = [0] * num_pairs(n)
        for (a, b), sign in terms:
            out[pair_index(min(a, b), max(a, b), n)] = sign
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TriangleFacet):
            return NotImplemented
        return (self.n, self.i, self.j, self.k) == (other.n, other.i, other.j, other.k)

    def __hash__(self) -> int:
        return hash((self.n, self.i, self.j, self.k))

    def __repr__(self) -> str:
        return f"TriangleFacet({self.i},{self.j};{self.k})"


def enumerate_triangle_facets(n: int) -> list[TriangleFacet]:
    """All 3*C(n, 3) triangle facets, grouped by 3-set, apex pairs in order."""
    if n < 3:
        raise ValueError("need n >= 3")
    facets = []
    for a, b, c in itertools.combinations(range(1, n + 1), 3):
        facets.append(TriangleFacet(a, b, c, n))
        facets.append(TriangleFacet(a, c, b, n))
        facets.append(TriangleFacet(b, c, a, n))
    return facets


class Permutation:
    """Bijection of {1, ..., n}; images[p-1] is the image of p."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        self.images = _points(images, n, f"{images} is not a permutation of 1..{n}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        for cycle in cycles:
            error = f"cycle {cycle} is empty, repeats a point or has one outside 1..{n}"
            points = _points(cycle, n, error)
            if not points:
                raise ValueError(error)
            for a, b in zip(points, points[1:] + points[:1]):
                images[a - 1] = b
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, p: int) -> int:
        try:
            if 1 <= p <= len(self.images):
                return self.images[operator.index(p) - 1]
        except TypeError:
            pass
        raise ValueError(f"point {p} outside 1..{len(self.images)}")

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for p, q in enumerate(self.images, start=1):
            inv[q - 1] = p
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(p) == self(other(p))."""
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return Permutation(self.images[q - 1] for q in other.images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def apply_permutation(sigma: Permutation, v: Sequence) -> tuple:
    """Permute a vector over pairs by a point permutation.

    Entry (i, j) of the result is entry (sigma^-1(i), sigma^-1(j)) of v, so
    cuts map to cuts and triangle facets to triangle facets.
    """
    n = sigma.n
    if len(v) != num_pairs(n):
        raise ValueError(f"vector length {len(v)} does not match n={n}")
    inv = sigma.inverse()
    out = []
    for i, j in pair_list(n):
        a, b = inv(i), inv(j)
        if a > b:
            a, b = b, a
        out.append(v[pair_index(a, b, n)])
    return tuple(out)


def permute_facet(sigma: Permutation, facet: TriangleFacet) -> TriangleFacet:
    """The triangle facet with apex and third point mapped through sigma."""
    if sigma.n != facet.n:
        raise ValueError("degree mismatch")
    return TriangleFacet(sigma(facet.i), sigma(facet.j), sigma(facet.k), facet.n)


def switching_reflection(members: Iterable[int], x: Sequence) -> tuple:
    """Replace x_ij by 1 - x_ij on the coordinates cut by the point set.

    An involution; coordinates off the cut are unchanged.  Exact for integer
    and rational entries alike.
    """
    n = _n_from_len(len(x))
    cut = CutVector(n, members)
    return tuple(1 - val if cut[k] else val for k, val in enumerate(x))
