"""Coordinate conventions and the elementary objects everything else builds on.

Points are 1-based, V = {1, ..., n}.  A vector "over pairs" has one entry per
unordered pair (i, j) with i < j, and the pairs are ordered lexicographically,
so for n = 4 the coordinates are (1,2), (1,3), (1,4), (2,3), (2,4), (3,4).
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

__all__ = [
    "num_pairs",
    "pair_list",
    "pair_index",
    "cut_members",
    "cut_stars",
    "cut_correlations",
    "TriangleFacet",
    "enumerate_triangle_facets",
]


def num_pairs(n: int) -> int:
    """Number of coordinates for n points, i.e. C(n, 2)."""
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def _pair_table(n: int):
    pairs = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return pairs, {p: k for k, p in enumerate(pairs)}


def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j), i < j, in coordinate order."""
    return _pair_table(n)[0]


def pair_index(i: int, j: int, n: int) -> int:
    """Coordinate of the pair (i, j); requires integers 1 <= i < j <= n."""
    try:
        return _pair_table(n)[1][operator.index(i), operator.index(j)]
    except (TypeError, KeyError):
        raise ValueError(f"invalid pair ({i}, {j}) for n={n}") from None


def _points(points, n: int, error: str) -> tuple[int, ...]:
    """The points as ints; ValueError(error) unless they are distinct integers in 1..n."""
    try:
        points = tuple(map(operator.index, points))
    except TypeError:
        raise ValueError(error) from None
    if len(set(points)) != len(points) or not all(1 <= p <= n for p in points):
        raise ValueError(error)
    return points


def cut_members(n: int) -> list[list[int]]:
    """The generating set of every nonzero cut, 1-based and ascending, in cut order.

    Cut c is generated by the points whose bits are set in c + 1, point p at
    bit p - 1, which keeps the point n out of every set.  There are
    2**(n-1) - 1 of them, one per complement pair.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    return [[p + 1 for p in range(n - 1) if m >> p & 1] for m in range(1, 1 << (n - 1))]


def cut_stars(n: int) -> list[int]:
    """Per point, the bitmask over the cut order of the cuts whose generating
    set holds it.

    Bit c stands for cut c of `cut_members(n)`, generated by the bits of
    m = c + 1, so the star of point p is M_(p-1) >> 1, M_k being the mask of
    the m with bit k set: M_(n-2) is the upper half of 2**(n-1) bits and
    M_(k-1) is M_k ^ M_k >> 2**(k-1), as adding 2**(k-1) to m flips bit k
    exactly when bit k - 1 is set.  Shifting commutes with that step, so it
    runs on the shifted masks.  The point n is in no generating set, so its
    star is 0.  A cut cuts the pair (i, j) when it holds exactly one of the
    two points, so column (i, j) of the cut vectors is
    stars[i-1] ^ stars[j-1].
    """
    if n < 3:
        raise ValueError("need n >= 3")
    stars = [0] * n
    stars[n - 2] = (1 << 2 ** (n - 1) - 1) - (1 << 2 ** (n - 2) - 1)
    for p in range(n - 2, 0, -1):
        stars[p - 1] = stars[p] ^ stars[p] >> 2 ** (p - 1)
    return stars


def cut_correlations(n: int) -> list[tuple[int, ...]]:
    """The 0/1 correlation row p of every cut, rooted at the point n, in the
    order of `cut_members(n)`.

    With s_p = 1 for the points of the generating set, p is s_i * s_j at the
    pair (i, j), j < n, and s_i at (i, n), so taking s_n = 1 makes every
    entry the product s_i * s_j.  For the cut vector x, p is xi(x) for the
    covariance map xi of Deza and Laurent (Geometry of Cuts and Metrics,
    1997, section 5.2), with xi(x)_in = x_in and
    xi(x)_ij = (x_in + x_jn - x_ij) / 2.  Its inverse x_in = p_in,
    x_ij = p_in + p_jn - 2 * p_ij is integral, so xi is a linear bijection
    and every set of cuts has the same rank in either coordinates.  A cut
    with k generating points has C(k + 1, 2) nonzeros here against
    k * (n - k) in x.

    The rows are read off `cut_stars(n)`, which the `cuts` check certifies:
    bit c of stars[p - 1] is s_p for cut c, so column (i, j) is
    stars[i-1] & stars[j-1] for j < n and stars[i-1] for j = n, and row c
    holds bit c of every column.
    """
    stars = cut_stars(n)
    columns = [stars[i - 1] & stars[j - 1] if j < n else stars[i - 1] for i, j in pair_list(n)]
    return [tuple(col >> c & 1 for col in columns) for c in range(2 ** (n - 1) - 1)]


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

    @property
    def correlation(self) -> tuple[int, ...]:
        """The facet's functional in correlation coordinates, halved.

        Substituting x_in = p_in and x_ij = p_in + p_jn - 2 * p_ij (see
        `cut_correlations`) into x_ij - x_ik - x_jk gives twice this
        vector, so x_ij - x_ik - x_jk == 2 * <f.correlation, p> for every x
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

