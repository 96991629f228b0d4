"""Evaluation of triangle and hypermetric inequalities on cuts, incidence
counting, and exact integer rank certificates for cone face dimensions.

All certification arithmetic is exact and runs on Python integers: a rank
is the rank over GF(2) when that is full and comes from fraction-free
Bareiss elimination otherwise, and the one pass over the bounded
hypermetric family evaluates one sorted representative per orbit of the
point permutations.  A set of cuts
is ranked on its correlation rows, the image of the cut vectors under the
covariance map, an integral linear bijection (see `core.cut_correlations`),
so the rank is the same and the rows are sparser.  A face of two
conflicting triangle facets is shown to have codimension at least 3 by a
third facet tight on all of its cuts, independent of the two, so its cuts
are never ranked.  The adjacency sweep builds its 0/1 rows as `bytes` once
per n, one byte per entry, so the GF(2) pass packs each row by one
`int.from_bytes` call, and keeps the packing of each distinct `bytes` row in
a cache bounded at 1024 rows (`_packed_parities`), so the rows shared by
every rank call of an n are packed once per process.  Only exact `bytes`
rows are cached, being immutable and hashed by value; a row of any other
type is packed again on each call.  The pass packs big-endian, so its
pivots fall on the lowest coordinates, which takes fewer reduction steps on
these rows than pivoting on the highest.  A conflicting pair's third facet
is named by its key and read from the sweep's facet index.  Each pair still
makes one `integer_rank` call on its own rows, so the calls and entries
that perfbench counts for it, and its certificate, stay those of one rank
per pair.
"""

from __future__ import annotations

import functools
import itertools
import operator
from math import factorial, prod
from typing import NamedTuple, Sequence

from .core import (
    TriangleFacet,
    cut_correlations,
    cut_members,
    cut_stars,
    enumerate_triangle_facets,
    num_pairs,
    pair_list,
)
from .ridge import conflicting

__all__ = [
    "triangle_incidence_bound",
    "enumerate_hypermetric_coeffs",
    "integer_rank",
    "adjacency_agreement",
    "HypermetricSweep",
    "hypermetric_sweep",
]


def triangle_incidence_bound(n: int) -> int:
    """Largest number of cuts any facet can contain: 3 * 2**(n-3) - 1."""
    return 3 * 2 ** (n - 3) - 1


def enumerate_hypermetric_coeffs(n: int, bound: int) -> list[tuple[int, ...]]:
    """All integer vectors with entries in [-bound, bound] summing to 1."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    rng = range(-bound, bound + 1)
    return [b for b in itertools.product(rng, repeat=n) if sum(b) == 1]


@functools.lru_cache(maxsize=1024)
def _packed_parities(row: bytes) -> int:
    """The parities of a `bytes` row, the low bit of each byte, packed
    big-endian into one int (see `_gf2_rank` for why it is cached)."""
    return int.from_bytes(row, "big") & int.from_bytes(b"\1" * len(row), "big")


def _gf2_rank(m: list, n_cols: int, full: int) -> int:
    """Rank over GF(2) of an integer matrix, stopping once it reaches `full`.

    Each row is packed into one int, one bit per entry, big-endian, so that
    coordinate 0 is the highest bit: a row's leading bit is its lowest
    coordinate, and a row is reduced against the basis row with the same
    leading bit, kept in a list indexed by bit length.  Reversing the
    columns keeps the rank; pivoting on the lowest coordinates takes fewer
    XOR reductions on the adjacency sweep's rows (24.0 against 36.3 per
    adjacent pair at n = 6, not counting the 15 rows each pair puts into
    the basis).

    A `bytes` row is read by one `int.from_bytes` call and masked to the
    low bit of every byte, the entry's parity, by `_packed_parities`, an
    `lru_cache` bounded at 1024 rows.  The adjacency sweep passes the same
    few `bytes` rows to every rank call of an n (72 distinct of 29,730 in
    the default run), so each is packed about once per process.  Only an
    exact `bytes` row is cached: it is immutable, and hashed and compared
    by its value, so a hit is the packing of the same bytes.  A `bytearray`
    or `memoryview` can change after it was packed, a `bytes` subclass can
    redefine equality, and a tuple compares equal to one holding floats
    ((1.0, 0) == (1, 0)), which would then skip its TypeError; so each of
    these is packed again, by value, on every call.

    Any other row is packed from its entries' parities by value, `x & 1`,
    so a negative or wide entry needs no second pass, no buffer is read,
    and a non-integral entry (a float or a `Fraction`) raises TypeError.
    Every row is packed before any is reduced, so that error is raised even
    when full rank comes first.
    """
    ones = itertools.repeat(1)
    packed = [
        _packed_parities(row)
        if type(row) is bytes
        else int.from_bytes(map(operator.and_, row, ones), "big")
        for row in m
    ]
    basis = [0] * (8 * n_cols)
    rank = 0
    for v in packed:
        while v:
            lead = v.bit_length()
            b = basis[lead]
            if not b:
                basis[lead] = v
                rank += 1
                if rank == full:
                    return rank
                break
            v ^= b
    return rank


_ROW_TYPES = (bytes, tuple, list)


def integer_rank(rows) -> int:
    """Exact rank of an integer matrix.

    The rank over GF(2) comes first (`_gf2_rank`).  An odd minor is a nonzero
    minor, so it is a lower bound on the rank over Q, and when it reaches
    min(rows, columns) it is the rank.  Otherwise fraction-free Bareiss
    elimination decides (`_bareiss_rank`).
    Entries must be integers (`int`, `bool` or a numpy integer); any other
    entry, a `Fraction` or a float among them, raises TypeError.  A row may
    be `bytes` (one entry per byte, as the adjacency sweep's rows are), a
    tuple, a list or any other iterable.  One C-level test, `bytes` first,
    finds whether every row is one of those three; only when some row is
    not are the other rows listed, so that every row has a length and can
    be read twice, by the GF(2) pass and by Bareiss.  Only a `bytes` row is
    read as a buffer; a numpy row, an `array.array` or a `memoryview` is
    read by its values.
    """
    m = rows if type(rows) is list else list(rows)
    if not all(map(isinstance, m, itertools.repeat(_ROW_TYPES))):
        m = [r if isinstance(r, _ROW_TYPES) else list(r) for r in m]
    widths = set(map(len, m))
    if len(widths) > 1:
        raise ValueError("ragged matrix")
    n_cols = widths.pop() if widths else 0
    if not n_cols:
        return 0
    full = min(len(m), n_cols)
    if _gf2_rank(m, n_cols, full) == full:
        return full
    return _bareiss_rank([list(map(operator.index, r)) for r in m])


def _bareiss_rank(m: list[list[int]]) -> int:
    """Rank of a nonempty integer matrix by fraction-free Bareiss elimination,
    which overwrites `m`.

    Intermediate entries stay integral (divisions are exact by the Sylvester
    identity), so the result is certified, not floating-point.
    """
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        piv_row = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if piv_row is None:
            continue
        m[rank], m[piv_row] = m[piv_row], m[rank]
        row_p = m[rank]
        piv = row_p[col]
        for r in range(rank + 1, n_rows):
            row_r = m[r]
            f = row_r[col]
            for c in range(col + 1, n_cols):
                row_r[c] = (piv * row_r[c] - f * row_p[c]) // prev
            row_r[col] = 0
        prev = piv
        rank += 1
        if rank == n_rows:
            break
    return rank


def _facet_incidence_masks(facet: TriangleFacet, stars: list[int]) -> int:
    """The bitmask over the cut order of the cuts off the facet.

    `stars[p - 1]` is the star of point p, as in `cut_stars(facet.n)`, for
    each point p of the facet.  A cut cuts 0 or 2 pairs of the 3-set
    {i, j, k}, and x_ij - x_ik - x_jk is nonzero on it exactly when those
    are the two pairs through k.
    """
    s_i, s_j, s_k = stars[facet.i - 1], stars[facet.j - 1], stars[facet.k - 1]
    return (s_i ^ s_k) & (s_j ^ s_k)


def _unit_coordinates(f_support: int, g_support: int) -> tuple[int, int]:
    """Coordinates u in supp f and v in supp g where the 2x2 minor of the
    correlation functionals f and g is +-1, the supports given as bitmasks
    over the coordinates.

    u is the lowest coordinate of supp f outside supp g, v the lowest of
    supp g outside supp f, each falling back to the lowest of its own
    support when that difference is empty.  Distinct supports leave at most
    one of the two differences empty, so g_u or f_v is 0 and the minor
    f_u * g_v - f_v * g_u is f_u * g_v, a product of two +-1s.
    """
    u = f_support & ~g_support or f_support
    v = g_support & ~f_support or g_support
    return (u & -u).bit_length() - 1, (v & -v).bit_length() - 1


def _third_tight_facet(f: TriangleFacet, g: TriangleFacet) -> tuple[int, int, int] | None:
    """The key (i, j, k) of a facet h, apex pair i < j and third point k,
    tight on every point of the metric cone tight on f and g, when one of
    them carries the other's apex pair as a side pair; None otherwise, and
    for n = 3, where the second case below has no o.

    Write f = (a, b; k) and g = (a, m; b), g's third point b lying in f's
    apex and f's other apex point a in g's.  For m != k, on the common face
    x_am = x_ab + x_bm = x_ak + x_bk + x_bm >= x_ak + x_km >= x_am, so
    h = (a, m; k) is tight there.  For m = k, g = (a, k; b) and f together
    force x_bk = 0, so h = (b, o; k) is tight for any point o outside
    {a, b, k}; o is the least of 1..4 outside it, which exists for n >= 4.
    Either h carries a pair that neither f nor g carries.  The other
    direction swaps f and g.  The key is not checked here: the sweep reads
    h by it from its facet index, which raises on a key that names no
    facet.
    """
    for f, g in ((f, g), (g, f)):
        b = g.k
        if b != f.i and b != f.j:
            continue
        a = f.i + f.j - b
        if a != g.i and a != g.j:
            continue
        m, k = g.i + g.j - a, f.k
        if m != k:
            return (a, m, k) if a < m else (m, a, k)
        o = next(p for p in range(1, 5) if p != a and p != b and p != k)
        if o > f.n:
            return None
        return (b, o, k) if b < o else (o, b, k)
    return None


def _byte_row_tables(rows: list[bytes]) -> list[list[tuple[bytes, ...]]]:
    """Per byte k of a mask over the row order, the rows its values select.

    `tables[k][v]` holds rows 8k + i for the set bits i of v, ascending, so
    the rows of a mask, in order, are the tables' entries at its
    little-endian bytes, joined: a few table reads per mask where a walk
    over its bits takes a step per row.  Each entry extends the one
    without its top bit.
    """
    tables = []
    for k in range(0, len(rows), 8):
        chunk = rows[k : k + 8]
        table = [()]
        for v in range(1, 1 << len(chunk)):
            top = v.bit_length() - 1
            table.append(table[v ^ 1 << top] + (chunk[top],))
        tables.append(table)
    return tables


def adjacency_agreement(n: int):
    """Compare the rank oracle with the sign test over every facet pair.

    Two facets f and g are adjacent when their common cuts have rank
    C(n, 2) - 2.  Those cuts lie in ker f and ker g, so their correlation
    rows are ranked together with two unit rows e_u and e_v
    (`_unit_coordinates`) at which the 2x2 minor of f and g, taken from
    `TriangleFacet.correlation`, is +-1.  No nonzero combination of e_u and
    e_v then lies in both kernels, over Q or over GF(2), so the rank is that
    of the common cuts plus 2, and the pair is adjacent exactly when it is
    C(n, 2), the column count.  The GF(2) pass of `integer_rank` certifies
    that full rank on its own for every adjacent pair at n = 4..8.

    A pair with a third facet h (`_third_tight_facet`) is first tried
    without its cuts: when h is tight on every common cut, one mask AND
    over the cut order, and the correlation functionals f, g and h have
    rank 3, the common cuts lie in a subspace of codimension 3, and the
    pair is not adjacent.  That rank is the pair's one `integer_rank` call;
    a pair whose h fails either test is ranked on its cuts as above.  The
    certificate holds whatever h is proposed, so it never rests on the
    sign test it is compared with.  h is named by its key (i, j, k), and
    its mask and functional are read from the per-facet tables by the
    index of that key, which raises on a key that names no facet.

    The correlation rows (`core.cut_correlations`, read off the cut stars)
    and the unit rows are built once per n as `bytes`, and a pair's common
    rows are read off per-byte tables of its mask (`_byte_row_tables`), so
    no row is converted per pair.  Each pair still makes one `integer_rank`
    call on its rows, in cut order: a call ranks exactly the matrix its
    verdict rests on, so the calls and their sizes count the sweep's work,
    and a wrong row shows in that pair's rank.  The supports of the
    functionals are kept as bitmasks over the coordinates.
    Returns (total_pairs, mismatches) where each mismatch records the facet
    pair and the two verdicts.
    """
    facets = enumerate_triangle_facets(n)
    index = {(f.i, f.j, f.k): c for c, f in enumerate(facets)}
    stars = cut_stars(n)
    full = (1 << 2 ** (n - 1) - 1) - 1
    off = [_facet_incidence_masks(f, stars) for f in facets]
    masks = [full ^ m for m in off]
    dim = num_pairs(n)
    units = [bytes(int(k == u) for k in range(dim)) for u in range(dim)]
    tables = _byte_row_tables([bytes(r) for r in cut_correlations(n)])
    width = len(tables)
    functionals = [f.correlation for f in facets]
    supports = [sum(1 << k for k, v in enumerate(c) if v) for c in functionals]
    mismatches = []
    total = 0
    for a in range(len(facets)):
        f = facets[a]
        for b in range(a + 1, len(facets)):
            g = facets[b]
            total += 1
            common = masks[a] & masks[b]
            key = _third_tight_facet(f, g)
            c = None if key is None else index[key]
            if (
                c is not None
                and not common & off[c]
                and integer_rank([functionals[a], functionals[b], functionals[c]]) == 3
            ):
                by_rank = False
            else:
                u, v = _unit_coordinates(supports[a], supports[b])
                parts = map(operator.getitem, tables, common.to_bytes(width, "little"))
                rows = [units[u], units[v], *itertools.chain.from_iterable(parts)]
                by_rank = integer_rank(rows) == dim
            by_sign = not conflicting(f, g)
            if by_rank != by_sign:
                mismatches.append((f, g, by_rank, by_sign))
    return total, mismatches


def _sorted_representatives(n: int, bound: int):
    """The bounded coefficient family, reduced by the point permutations.

    The family is a union of Sym(n) orbits, and each orbit holds exactly one
    sorted vector, so the family is given by its sorted representatives,
    each yielded with its orbit size n! / prod(m_v!) over the value
    multiplicities m_v.
    """
    for b in itertools.combinations_with_replacement(range(-bound, bound + 1), n):
        if sum(b) == 1:
            yield b, factorial(n) // prod(
                factorial(len(list(run))) for _, run in itertools.groupby(b)
            )


def _closed_forms(b: Sequence[int], members: list[list[int]]) -> list[int]:
    """sigma * (1 - sigma) per cut, sigma being the sum of b over the cut's
    generating set, given as 0-based points."""
    return [s * (1 - s) for s in (sum(map(b.__getitem__, m)) for m in members)]


class HypermetricSweep(NamedTuple):
    bound: int
    vector_count: int
    cut_count: int
    max_count: int
    triangle_count: int
    mismatch: tuple | None  # (b, cut members, direct, closed) on first failure
    positive: tuple | None  # (b, cut members, value) on first failure
    over_bound: tuple | None  # (b, count): more zero cuts than the incidence bound
    triangle_failure: tuple | None  # (b, count, rank): a triangle b off the bound or facet rank
    rogue_maximizer: tuple | None  # (b, count, rank): a facet-inducing non-triangle b at the bound


def hypermetric_sweep(n: int, bound: int) -> HypermetricSweep:
    """Certify both claims about the bounded coefficient family in one pass.

    For every integer vector b with |b_i| <= bound and sum 1 and every
    nonzero cut, the direct pair sum must equal sigma * (1 - sigma), sigma
    being the coefficient sum over the cut's generating set, and must be
    nonpositive; the two sides are computed independently.  The zero cuts
    are those whose direct pair sum is 0.  Every vector inducing a nonzero
    functional must have at most 3 * 2**(n-3) - 1 of them; each triangle
    vector must attain that bound with its zero cuts spanning a hyperplane
    (rank C(n, 2) - 1 on their correlation rows, the facet certificate); any
    other vector attaining the bound must fail that rank certificate.
    Vectors with a single nonzero coefficient induce the identically-zero
    functional (the trivial inequality) and are left out of the second
    claim.

    One sorted representative per Sym(n) orbit is evaluated
    (`_sorted_representatives`).  A permutation pi maps the pair (b, S) to
    (b o pi^-1, pi S): this keeps the direct pair sum, sigma * (1 - sigma)
    and the number of zero cuts, and permutes the coordinates of the
    zero-cut rows, so their rank is kept too.  The nonzero cuts are closed
    under pi, so one representative decides its whole orbit.  The counts
    are weighted by orbit size, and a witness is the first failing
    representative, with its first failing cut.  A bound below 1 leaves the
    family empty, which would pass vacuously, so it raises ValueError.
    """
    if bound < 1:
        raise ValueError("hypermetric bound must be positive")
    members = [[p - 1 for p in m] for m in cut_members(n)]
    pairs = [(i - 1, j - 1) for i, j in pair_list(n)]
    cut_pairs = [
        [k for k, (i, j) in enumerate(pairs) if (i in m) != (j in m)] for m in map(set, members)
    ]
    corr_rows = cut_correlations(n)
    limit = triangle_incidence_bound(n)
    facet_rank = num_pairs(n) - 1
    triangle = (-1, *[0] * (n - 3), 1, 1)
    vector_count = triangle_count = 0
    mismatch = positive = over_bound = triangle_failure = rogue_maximizer = None
    for b, size in _sorted_representatives(n, bound):
        vector_count += size
        products = [b[i] * b[j] for i, j in pairs]
        direct = [sum(map(products.__getitem__, ks)) for ks in cut_pairs]
        closed = _closed_forms(b, members)
        if mismatch is None and direct != closed:
            c = next(c for c, (d, v) in enumerate(zip(direct, closed)) if d != v)
            mismatch = (b, [p + 1 for p in members[c]], direct[c], closed[c])
        if positive is None and max(direct) > 0:
            c = next(c for c, d in enumerate(direct) if d > 0)
            positive = (b, [p + 1 for p in members[c]], direct[c])
        if len(b) - b.count(0) < 2:
            continue
        count = direct.count(0)
        if count > limit:
            over_bound = over_bound or (b, count)
        is_triangle = b == triangle
        if is_triangle:
            triangle_count += size
        if count != limit and not is_triangle:
            continue
        rank = integer_rank([row for row, d in zip(corr_rows, direct) if d == 0])
        if is_triangle:
            if count != limit or rank != facet_rank:
                triangle_failure = triangle_failure or (b, count, rank)
        elif rank == facet_rank:
            rogue_maximizer = rogue_maximizer or (b, count, rank)
    return HypermetricSweep(
        bound, vector_count, len(members), limit, triangle_count,
        mismatch, positive, over_bound, triangle_failure, rogue_maximizer,
    )
