"""Vectorized numpy kernels for region aggregation and incremental 5-subset
evaluation.

Region counts use exact angular ranks (the counting technique of Rote,
Woeginger, Zhu & Wang, "Counting k-subsets and convex k-gons in the plane",
IPL 1991).  ``rank_tables`` builds two n x n integer tables in O(n^3) work;
``pivot_regions`` then yields all seven region counts of every triangle with
a given smallest vertex in O(1) per triangle, so a full pass costs O(n^3).

The annealer's 5-subset kernel tests the C(n-1,4) subsets {a, b, c, d, x}
through one moving point x.  ``quad_gather_indices`` builds, once per size,
flat indices of the four triples of every 4-subset of the fixed points;
``pentagon_pair_delta`` folds each triple's tridot test with x into an int8
code and marks the subsets whose gathered codes show no tridot.

Exactness: coordinates are bounded by 10**7, so every cross product of two
point differences has magnitude at most 8 * 10**14 and fits int64 with
headroom.  Region counts are below n, and callers accumulate across pivots
in Python ints, which are unbounded.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Tuple

import numpy as np

from .geometry import CollinearError


def rank_tables(coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(ranks, left): two (n, n) int64 tables of the angular order around
    every point.

    ranks[v, a] is the counterclockwise rank of a among the n - 1 other
    points around v: the upper half-plane (dy > 0, or dy == 0 and dx > 0)
    comes first, and within a half-plane the cross-product sign orders the
    directions, so no angle is ever computed.  left[v, a] is the number of
    points strictly left of the directed line v -> a.  Entries [v, v] carry
    no meaning.  Points collinear with v on one side share a rank;
    ``pivot_regions`` rejects every collinear triple.
    """
    n = coords.shape[0]
    ranks = np.empty((n, n), dtype=np.int64)
    left = np.empty((n, n), dtype=np.int64)
    for v in range(n):
        d = coords - coords[v]
        dx = d[:, 0]
        dy = d[:, 1]
        # cross[a, b] = d_a x d_b, positive when b is counterclockwise of a
        cross = dx[:, None] * dy[None, :] - dy[:, None] * dx[None, :]
        ccw = cross > 0
        left[v] = ccw.sum(axis=1)
        # v itself (d = 0) lands in the lower half and has no ccw entries,
        # so it precedes nothing
        lower = (dy < 0) | ((dy == 0) & (dx <= 0))
        same_half = lower[:, None] == lower[None, :]
        ranks[v] = (same_half & ccw).sum(axis=0) + lower * int((~lower).sum())
    return ranks, left


def pivot_regions(
    coords: np.ndarray, ranks: np.ndarray, left: np.ndarray, i: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Region counts of every triangle whose smallest vertex is i.

    Returns (v2, v3, interior, beta, gamma): the triangles are the canonical
    (i, v2, v3), counterclockwise, in lexicographic order of their sorted
    index triples; beta and gamma have shape (3, rows), with Beta(m) the
    corner region beyond v_m and Gamma(m) the edge region across the edge
    opposite v_m.  Around v_m, with next = v_{m+1} and prev = v_{m-1}
    (cyclic), the wedge W_m = interior + gamma_m holds the points strictly
    between the directions to next and prev, and the corner region is
    beta_m = left[v_m, prev] - left[v_m, next] + W_m + 1.  Since
    interior + sum(beta) + sum(gamma) = n - 3, the interior is
    (sum(W) + sum(beta) - (n - 3)) / 2 and gamma_m = W_m - interior.

    Raises CollinearError on a zero determinant, an odd interior numerator
    or a negative count, none of which a valid placement can produce.
    """
    n = coords.shape[0]
    jj, kk = np.triu_indices(n - 1 - i, k=1)
    v2 = jj + (i + 1)
    v3 = kk + (i + 1)
    d = coords - coords[i]
    det = d[v2, 0] * d[v3, 1] - d[v2, 1] * d[v3, 0]
    if (det == 0).any():
        raise CollinearError("collinear triangle encountered during aggregation")
    swap = det < 0
    v2, v3 = np.where(swap, v3, v2), np.where(swap, v2, v3)

    corners = ((i, v2, v3), (v2, v3, i), (v3, i, v2))
    wedge = np.stack(
        [(ranks[v, prev] - ranks[v, nxt] - 1) % (n - 1) for v, nxt, prev in corners]
    )
    beta = np.stack([left[v, prev] - left[v, nxt] for v, nxt, prev in corners])
    beta += wedge + 1
    twice_interior = wedge.sum(axis=0) + beta.sum(axis=0) - (n - 3)
    if (twice_interior & 1).any():
        raise CollinearError(
            "region partition lost a point; the placement has a collinear triple"
        )
    interior = twice_interior >> 1
    gamma = wedge - interior
    if (interior < 0).any() or (beta < 0).any() or (gamma < 0).any():
        raise CollinearError(
            "negative region count; the placement has a collinear triple"
        )
    return v2, v3, interior, beta, gamma


def reduce_regions(
    interior: np.ndarray, beta: np.ndarray, gamma: np.ndarray
) -> Tuple[int, ...]:
    """The ten placement-wide sums of counting.AggregateSums, in its field
    order, over one ``pivot_regions`` chunk, as Python ints."""
    b1, b2, b3 = beta
    g1, g2, g3 = gamma
    beta_t = b1 + b2 + b3
    gamma_t = g1 + g2 + g3
    sums = (
        beta_t.sum(),
        gamma_t.sum(),
        (beta_t * beta_t).sum(),
        (gamma_t * gamma_t).sum(),
        (beta_t * gamma_t).sum(),
        (gamma * (gamma - 1) // 2).sum(),
        (g1 * g2 + g1 * g3 + g2 * g3).sum(),
        (beta * (beta - 1) // 2).sum(),
        (b1 * b2 + b1 * b3 + b2 * b3).sum(),
        interior.sum(),
    )
    return tuple(int(s) for s in sums)


def pair_sign_matrix(coords: np.ndarray, q: Tuple[int, int]) -> np.ndarray:
    """(n, n) int8 matrix of orientation signs or(p_a, p_b, q).

    Entry [a, b] is the sign of (p_b - p_a) x (q - p_a); the diagonal is 0.
    A zero off the diagonal means q is collinear with the pair (or equals
    one of the points).
    """
    dx = coords[:, 0] - int(q[0])
    dy = coords[:, 1] - int(q[1])
    # (p_b - p_a) x (q - p_a) = (q - p_a) x (q - p_b) written in differences
    cross = dx[:, None] * dy[None, :] - dy[:, None] * dx[None, :]
    return np.sign(cross).astype(np.int8)


def degenerate_with_pair(coords: np.ndarray, q: Tuple[int, int]) -> bool:
    """True when q is collinear with (or equal to) some pair of the points.

    The sign matrix is antisymmetric with a zero diagonal, so it falls short
    of m * (m - 1) nonzero entries exactly when an off-diagonal entry is 0.
    """
    m = coords.shape[0]
    return bool(np.count_nonzero(pair_sign_matrix(coords, q)) != m * (m - 1))


def full_sign_tensor(coords: np.ndarray) -> np.ndarray:
    """(n, n, n) int8 tensor of orientation signs or(p_i, p_j, p_k).

    Entries with repeated indices are 0; any other zero means the placement
    is degenerate.  Memory is n**3 bytes, fine for the search sizes (n well
    under 100).
    """
    x = coords[:, 0]
    y = coords[:, 1]
    dx = x[None, :] - x[:, None]  # dx[i, j] = x_j - x_i
    dy = y[None, :] - y[:, None]
    cross = dx[:, :, None] * dy[:, None, :] - dy[:, :, None] * dx[:, None, :]
    return np.sign(cross).astype(np.int8)


def quad_gather_indices(m: int) -> np.ndarray:
    """Flat gather indices over the C(m, 4) 4-subsets a < b < c < d of
    range(m), in lexicographic order.

    Returns the (4, C) intp rows abc, abd, acd, bcd into a raveled (m, m, m)
    tensor: 32 * C(m, 4) bytes, about 14.6 MB at m = 59.  The members of a
    subset are recovered from rows abc and bcd as unravel_index(abc) and
    bcd % m.
    """
    cols = np.fromiter(chain.from_iterable(combinations(range(m), 4)), np.intp)
    cols = cols.reshape(-1, 4).T
    out = np.empty((4, cols.shape[1]), dtype=np.intp)
    for r, index in enumerate(combinations(cols, 3)):
        out[r] = np.ravel_multi_index(index, (m, m, m))
    return out


# one tridot through x adds this to a 4-subset's code sum; above 8, it lifts
# any fixed sign sum in [-4, 4] clear of -4, 0 and 4
TRIDOT_WEIGHT = 16


def pentagon_pair_delta(
    signs3: np.ndarray,
    pairs: np.ndarray,
    keep: np.ndarray,
    triple_index: np.ndarray,
) -> np.ndarray:
    """Pentagon mask of every 5-subset {a, b, c, d, x} through the moving
    point x at one position, one entry per 4-subset of the fixed points.

    signs3 is the (n, n, n) orientation sign tensor of the current points,
    pairs the (n, n) signs or(p_a, p_b, x) of the position, keep the n - 1
    fixed indices in order (all but x's), and triple_index comes from
    ``quad_gather_indices(n - 1)``.  The mask's count minus the pentagons
    through x at its current position is the move's delta.

    Four points in general position form a tridot exactly when the
    orientation signs of their four triangles sum to +-2, and a 5-subset is
    a pentagon exactly when none of its five 4-subsets is a tridot.  For
    every fixed triple abc, s = S[abc] + P[ab] + P[ac] + P[bc] is the sign
    sum of {a, b, c, x}, with S the triple's sign and P = pairs, and its
    code is S[abc] + TRIDOT_WEIGHT * (|s| == 2).  The codes are built
    densely over the (n - 1)**3 tensor of the fixed points and gathered once
    per 4-subset with its four triple rows.  The row sum is the fixed
    4-subset's sign sum plus TRIDOT_WEIGHT per tridot through x, so the
    5-subset is a pentagon exactly when it is -4, 0 or 4.

    All of it is int8: s lies in [-4, 4], a code in [-1, 17] and a row sum
    in [-4, 68].
    """
    fixed = signs3.take(keep, 0).take(keep, 1).take(keep, 2)
    p = pairs.take(keep, 0).take(keep, 1)
    s = fixed + p[:, :, None]
    s += p[:, None, :]
    s += p
    code = fixed + TRIDOT_WEIGHT * (np.abs(s) == 2).view(np.int8)
    total = code.ravel().take(triple_index).sum(axis=0, dtype=np.int8)
    return (total == 0) | (np.abs(total) == 4)
