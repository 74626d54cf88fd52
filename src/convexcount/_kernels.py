"""Vectorized numpy kernels for region aggregation and the annealer's
incremental pentagon count.

Region counts use exact angular ranks around lowest-vertex pivots (Rote,
Woeginger, Zhu & Wang, "Counting k-subsets and convex k-gons in the plane",
IPL 1991).  ``rank_tables`` builds two n x n integer tables in O(n^2 log n)
work by sorting the directions around each point once, by the exact key of
``geometry.direction_keys``, so a tie of two keys around a point is a
collinear triple: CollinearError names the first one in index order.
``triangle_regions`` is the one pass over all C(n, 3) triangles, O(n^3) in
all, each taken at its lowest point; ``pivot_regions`` reads a block's seven
region counts in O(1) per triangle, with four table entries each.  Memory is
the two tables, a pair list and O(BLOCK): the region sums, the region table
and the annealer's completion table are all read off the pass.

``candidate_signs`` probes a new position of one point for general position.
The annealer's kernel scores a move of one point x without touching a
5-subset: ``pentagon_pair_delta`` reads, densely over (2, n, n, n) int8
for the candidate and the current position together, which triples of
fixed points x completes to a tridot, and turns the counts of those
triples, of their pairs and of their entries in the completion table into
the exact change in the pentagon count, all in O(n^3).  The completion
table is a dense symmetric (n, n, n) int8 tensor in the layout of the
orientation sign tensor, and ``pentagons_from_completion`` counts
pentagons from it.

Exactness: coordinates are bounded by 10**7, so every cross product of two
point differences has magnitude at most 8 * 10**14 and fits int64 with
headroom.  Region counts are below n and flat table indices below n**2.
``reduce_regions`` sums a chunk by three plain sums and five int64 dot
products; a chunk has at most min(BLOCK, C(n - 1, 2)) rows and each row adds
below n**2 to a dot product, so they are exact for n <=
counting.MAX_AGGREGATE_N, and callers accumulate across chunks in Python
ints, which are unbounded.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, Optional, Tuple

import numpy as np

from .geometry import (
    CollinearError,
    InconsistentCountsError,
    direction_keys,
    pair_sign_matrix,
    row_blocks,
    tied_triple,
)


def rank_tables(coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(ranks, left): two (n, n) int64 tables of the angular order around
    every point, in O(n^2 log n) work.

    ranks[v, a] is the counterclockwise rank of a among the n - 1 other
    points around v: the number of points whose direction from v comes
    before a's, starting from the direction (1, 0) and taking the upper
    half-plane (dy > 0, or dy == 0 and dx > 0) first.  left[v, a] is the
    number of points strictly left of the directed line v -> a.  Entries
    [v, v] carry no meaning.

    Each row sorts its directions once by the exact key of
    ``geometry.direction_keys``, which ignores the half, so two keys tie
    exactly when the two points lie on one line through v: a tie raises
    CollinearError naming the first collinear triple (``tied_triple``), and
    every row is a strict order.  With the counts of the upper and the lower
    half before each position of the sorted row, a's rank is the points of
    its own half before it, plus the whole upper half when a is lower, and
    left[v, a] is the points of its own half after it plus those of the
    other half before it.  The key is exact under the coordinate bound (see
    ``direction_keys``).  Rows go in blocks of about KEY_BLOCK elements, so
    the temporaries stay O(KEY_BLOCK) beside the two tables.
    """
    n = coords.shape[0]
    ranks = np.empty((n, n), dtype=np.int64)
    left = np.empty((n, n), dtype=np.int64)
    for rows in row_blocks(n):
        order, lower, tie = direction_keys(coords, rows)
        if (triple := tied_triple(rows, order, tie)) is not None:
            raise CollinearError(str(triple))
        # points of the upper and the lower half before each position; the
        # last column is v itself, in neither half, so it holds the totals
        halves = np.stack((~lower, lower))
        halves[:, :, -1] = False
        above, below = halves.cumsum(axis=2) - halves
        total_above, total_below = above[:, -1:], below[:, -1:]
        rank = np.where(lower, total_above + below, above)
        beyond = np.where(lower, total_below - below + above, total_above - above + below) - 1
        np.put_along_axis(ranks[rows], order, rank, axis=1)
        np.put_along_axis(left[rows], order, beyond, axis=1)
    return ranks, left


def pivot_regions(
    ranks: np.ndarray, left: np.ndarray, i: int, s: np.ndarray, p: np.ndarray, q: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Region counts of the triangles (i, s[p], s[q]), for the points s
    above the lowest vertex i in counterclockwise order around it and
    position arrays p < q.

    Returns (v2, v3, interior, beta, gamma): v2 = s[p] and v3 = s[q], so
    every triangle (i, v2, v3) runs counterclockwise; beta and gamma have
    shape (3, rows), with Beta(m) the corner region beyond v_m and Gamma(m)
    the edge region across the edge opposite v_m.  Around v_m, with
    next = v_{m+1} and prev = v_{m-1} (cyclic), the wedge
    W_m = interior + gamma_m holds the points strictly between the
    directions to next and prev, and the corner region is
    beta_m = left[v_m, prev] - left[v_m, next] + W_m + 1.  Since
    interior + sum(beta) + sum(gamma) = n - 3, the interior is
    (sum(W) + sum(beta) - (n - 3)) / 2 and gamma_m = W_m - interior.

    Every point inside an angle below pi at i lies above i, so the pivot's
    wedge is W_1 = q - p - 1 and its corner reads left[i, s].  The other
    corners read their entries for i off ranks[s, i] and left[s, i], so the
    only table gathers are [v2, v3] and [v3, v2], one ``np.take`` per table
    at flat indices v * n + w below n**2.  A raw wedge ranks[v, prev] -
    ranks[v, next] - 1 lies in [-(n - 1), n - 3], so adding n - 1 where it
    is negative reduces it modulo n - 1 exactly.  Temporaries are O(rows).

    Raises InconsistentCountsError on an odd interior numerator or a
    negative count: ``rank_tables`` refuses every collinear triple, so
    either can only come from a corrupt table.
    """
    n = ranks.shape[0]
    # by position along s: the point, its rank and left count of i, left[i, point]
    around = np.stack((s, ranks[s, i], left[s, i], left[i, s]))
    v2, r2, l2, li2 = np.take(around, p, axis=1)
    v3, r3, l3, li3 = np.take(around, q, axis=1)
    flat = np.empty((2, p.size), dtype=np.int64)  # [v2, v3] and [v3, v2]
    np.multiply(v2, n, out=flat[0])
    flat[0] += v3
    np.multiply(v3, n, out=flat[1])
    flat[1] += v2
    r = np.take(ranks, flat)
    lt = np.take(left, flat)
    wedge = np.empty((3, p.size), dtype=np.int64)
    np.subtract(q, p, out=wedge[0])
    np.subtract(r2, r[0], out=wedge[1])
    np.subtract(r[1], r3, out=wedge[2])
    wedge -= 1
    turn = wedge[1:]  # W_1 = q - p - 1 is never negative
    turn += (turn >> 63) & (n - 1)
    beta = np.empty_like(wedge)
    np.subtract(li3, li2, out=beta[0])
    np.subtract(l2, lt[0], out=beta[1])
    np.subtract(lt[1], l3, out=beta[2])
    beta += wedge
    beta += 1
    twice_interior = (wedge + beta).sum(axis=0)
    twice_interior -= n - 3
    if (twice_interior & 1).any():
        raise InconsistentCountsError("region partition lost a point; the rank tables are corrupt")
    interior = twice_interior >> 1
    gamma = wedge - interior
    if min(interior.min(), beta.min(), gamma.min()) < 0:
        raise InconsistentCountsError("negative region count; the rank tables are corrupt")
    return v2, v3, interior, beta, gamma


# Triangles in one chunk of ``triangle_regions``.  A chunk's temporaries peak
# at about 200 bytes a triangle (by tracemalloc), 1.6 MB whatever n is.
BLOCK = 1 << 13


def triangle_regions(coords: np.ndarray) -> Iterator[Tuple[int, Tuple[np.ndarray, ...]]]:
    """The one pass over all C(n, 3) triangles: (i, pivot_regions(ranks,
    left, i, s, p, q)) for every lowest vertex i in turn, in slices of at
    most BLOCK pairs p < q.  The pivots go in (y, x) order, so the m points
    after i are its upper half-plane, which ranks[i, .] counts first: sorted
    by it they form s, ranked 0 .. m - 1.  Pivot i reads the first C(m, 2)
    rows of one colex pair list (q major) for n - 1 points.  The tables and
    the list are built when the first chunk is asked for, so a collinear
    triple raises CollinearError (from ``rank_tables``) before any chunk is
    yielded.  No chunk is kept between yields, so memory is the two (n, n)
    int64 tables, the 16 * C(n - 1, 2) bytes of the list and O(BLOCK)."""
    n = coords.shape[0]
    ranks, left = rank_tables(coords)
    pivots = np.lexsort((coords[:, 0], coords[:, 1]))
    q_all, p_all = np.tril_indices(n - 1, -1)
    for k in range(n - 2):
        i = int(pivots[k])
        s = pivots[k + 1 :][np.argsort(ranks[i, pivots[k + 1 :]])]
        pairs = comb(s.size, 2)
        for start in range(0, pairs, BLOCK):
            rows = slice(start, min(start + BLOCK, pairs))
            yield i, pivot_regions(ranks, left, i, s, p_all[rows], q_all[rows])


def reduce_regions(
    interior: np.ndarray, beta: np.ndarray, gamma: np.ndarray
) -> Tuple[int, ...]:
    """The ten placement-wide sums of counting.AggregateSums, in its field
    order, over one ``triangle_regions`` chunk, as Python ints.

    Per slot, C(g, 2) = (g**2 - g) / 2, and per triangle the cross products
    g_1 g_2 + g_1 g_3 + g_2 g_3 = (gamma_T**2 - sum_m g_m**2) / 2, and the
    same for beta.  So three plain sums and five int64 dot products give
    every sum: beta_T and gamma_T with themselves and each other, and the
    flat (3 * rows) slot arrays of beta and of gamma with themselves.

    Each dot product is exact in int64: a chunk has at most
    min(BLOCK, C(n - 1, 2)) rows, and a row adds at most (n - 3)**2 < n**2
    to any of them (sum_m b_m**2 <= beta_T**2, and beta_T + gamma_T <=
    n - 3), so every sum stays below C(n - 1, 2) * n**2 < 2**63 for
    n <= counting.MAX_AGGREGATE_N.
    """
    b1, b2, b3 = beta
    g1, g2, g3 = gamma
    beta_t = b1 + b2 + b3
    gamma_t = g1 + g2 + g3
    b, g = beta.ravel(), gamma.ravel()
    sb, sg, si = int(beta_t.sum()), int(gamma_t.sum()), int(interior.sum())
    bb, gg = int(b @ b), int(g @ g)
    bt2, gt2, btgt = int(beta_t @ beta_t), int(gamma_t @ gamma_t), int(beta_t @ gamma_t)
    return (
        sb, sg, bt2, gt2, btgt,
        (gg - sg) >> 1, (gt2 - gg) >> 1, (bb - sb) >> 1, (bt2 - bb) >> 1,
        si,
    )


def candidate_signs(coords: np.ndarray, u: int, q: Tuple[int, int]) -> Optional[np.ndarray]:
    """Point u's (n, n) int8 pair signs or(p_a, p_b, q) at a new position q:
    ``pair_sign_matrix(coords, q)`` with row and column u set to 0, or None
    when q is collinear with two other points or equal to one.

    The sign matrix is antisymmetric with a zero diagonal, so without row
    and column u it falls short of (n - 1) * (n - 2) nonzero entries exactly
    when an entry between two other points is 0.  With one other point
    there is no such entry, so a q equal to it passes.
    """
    signs = pair_sign_matrix(coords, q)
    signs[u] = signs[:, u] = 0
    n = coords.shape[0]
    return signs if np.count_nonzero(signs) == (n - 1) * (n - 2) else None


def full_sign_tensor(coords: np.ndarray) -> np.ndarray:
    """(n, n, n) int8 tensor of orientation signs or(p_i, p_j, p_k).

    Entries with repeated indices are 0; any other zero means the placement
    is degenerate.  Row i is ``pair_sign_matrix(coords, p_i)``, since
    or(p_i, p_j, p_k) = or(p_j, p_k, p_i), so memory is the n**3 bytes of
    the result, 2.2 MB at the largest search size, n = 130, plus O(n**2)
    temporaries.
    """
    n = coords.shape[0]
    signs = np.empty((n, n, n), dtype=np.int8)
    for i in range(n):
        signs[i] = pair_sign_matrix(coords, coords[i])
    return signs


def pentagons_from_completion(table: np.ndarray) -> int:
    """The number of convex pentagons among n points, from their dense
    (n, n, n) completion table: entry [a, b, c] of three distinct points is
    the number of other points d that make {a, b, c, d} a tridot, the same
    for every order of the triple, and entries with a repeated index are 0.
    d makes a tridot exactly when it lies inside the triangle or in one of
    its corner regions (then the corner's vertex lies inside the triangle of
    d and the other two), so an entry is interior + sum(beta) of its
    triangle in ``triangle_regions``.

    A 5-subset has 0, 2 or 4 tridot 4-subsets (hull of 5, 4 or 3 points),
    and any two of its 4-subsets share a triple.  With Q the tridot
    4-subsets and t the entry of each unordered triple, sum t = 4 * Q,
    sum C(t, 2) counts 5-subsets with hull 4 once and with hull 3 six
    times, and Q * (n - 4) counts them twice and four times, so
    32 * pentagons = 32 * C(n, 5) + 4 * sum t(t - 1) - 5 * (n - 4) * sum t.
    The dense table holds each triple six times, so its sums T6 and P6 of t
    and t(t - 1) are six times those: 192 * pentagons = 192 * C(n, 5) +
    4 * P6 - 5 * (n - 4) * T6.  Raises InconsistentCountsError when the
    division is not exact, which no valid table allows.
    """
    n = table.shape[0]
    flat = table.ravel()
    t6 = int(flat.sum(dtype=np.int64))
    p6 = int(np.einsum("i,i->", flat, flat, dtype=np.int64)) - t6
    scaled = 192 * comb(n, 5) + 4 * p6 - 5 * (n - 4) * t6
    if scaled % 192:
        raise InconsistentCountsError(
            f"completion table gives {scaled}/192 pentagons, not an integer"
        )
    return scaled // 192


def pentagon_pair_delta(
    signs3: np.ndarray, pairs: np.ndarray, completion: np.ndarray
) -> Tuple[int, np.ndarray, np.ndarray]:
    """Change in the pentagon count when the moving point x goes from its
    current position to a candidate, with the statistics its update needs.

    signs3 is the (n, n, n) orientation sign tensor of the current points,
    pairs the (2, n, n) signs or(p_a, p_b, x) at the candidate (row 0) and
    at the current position (row 1), 0 wherever a == b or a or b is x's own
    index u, and completion the current dense completion table (see
    ``pentagons_from_completion``).  Returns (delta, t, te): t is the
    (2, n, n, n) int8 indicator that a triple of fixed points forms a
    tridot with x, and te the (2, n, n) int8 number of such triples through
    each pair.

    Four points in general position form a tridot exactly when an odd
    number of the orientation signs of their four triangles is positive,
    for every order of the points (a transposition flips two of the signs),
    that is when the product of the four signs is -1.  For every triple abc
    that product is S[abc] * P[ab] * P[ac] * P[bc], with S = signs3 and
    P = pairs; it is built densely over (2, n, n, n) in int8, where it lies
    in {-1, 0, 1} and is 0 on every triple with a repeated index or through
    u.  The indicator is therefore symmetric in a, b, c, so te is its sum
    over any one axis; te lies in [0, n - 3], which int8 holds for
    n <= 130.

    With F the fixed points and m = n - 1, a 4-subset D of F has t triples
    that are tridots with x and f = [D is a tridot], and t + f is 0, 2 or 4,
    so [D + x is a pentagon] = 1 - 3t/4 + t^2/8 - 5f/8 + ft/4.  Summed over
    D, the terms of F alone cancel between the two positions:
    8 * delta = -5(m - 3) dN1 + 2 dN2 + 2 dN3, with N1 the tridot triples,
    N2 = sum over pairs of C(te, 2), and N3 the sum over tridot triples of
    the points of F that complete them to a tridot: completion minus the
    triple's tridot with x's current position.  Every sum below runs over
    ordered triples or pairs: y = sum te = 6 * N1, x - y = sum te(te - 1)
    = 4 * N2, and c and both, over the dense t, are six times their
    unordered sums, so 48 * delta = -5(n - 4)(y0 - y1) + 3((x0 - y0) -
    (x1 - y1)) + 2(c0 - c1 - both + y1).  Raises InconsistentCountsError
    when that is not a multiple of 48, which a correct, symmetric
    completion table never gives.  c sums t * completion in int32, exact
    since n**3 * (n - 3) < 2**31 for n <= 130.
    """
    n = signs3.shape[0]
    product = signs3 * pairs[:, :, :, None]
    product *= pairs[:, :, None, :]
    product *= pairs[:, None, :, :]
    t = (product < 0).view(np.int8)
    te = t.sum(axis=1, dtype=np.int8)
    wide = te.reshape(2, -1).astype(np.int64)
    (y0, y1), (x0, x1) = wide.sum(axis=1).tolist(), np.einsum("ki,ki->k", wide, wide).tolist()
    c0, c1 = (t * completion).reshape(2, -1).sum(axis=1, dtype=np.int32).tolist()
    both = int(np.count_nonzero(t[0] & t[1]))
    scaled = (
        -5 * (n - 4) * (y0 - y1)
        + 3 * ((x0 - y0) - (x1 - y1))
        + 2 * (c0 - c1 - both + y1)
    )
    if scaled % 48:
        raise InconsistentCountsError(
            f"pentagon delta {scaled}/48 is not an integer; the completion table is corrupt"
        )
    return scaled // 48, t, te
