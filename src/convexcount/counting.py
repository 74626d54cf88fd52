"""Counting engines for 4- and 5-point subset types.

Two independent routes produce the same numbers:

- the naive engines enumerate every C(n,4) / C(n,5) subset and classify it
  directly (pure Python, exact, the oracle);
- the region engine reads the seven region counts of every triangle off two
  exact angular-rank tables (O(n^3) work, vectorized per lowest vertex)
  and derives all type counts from the aggregated region sums through exact
  double-counting identities, holding every count to the planar-point
  equations E1-E15 (``identity_checks``) before returning.

Any disagreement between the routes and any failed equation raises
InconsistentCountsError: the equations are theorems, so a failure always
means a bug or corrupted input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator, List, Tuple, Union

from . import _kernels
from .classification import (
    RegionKind,
    TriangleRef,
    Type5,
    classify_region,
)
from .geometry import CollinearError, InconsistentCountsError, Placement


# Largest n whose per-chunk int64 dot products are exact: a chunk holds at
# most min(BLOCK, C(n-1, 2)) triangles of one lowest vertex, each term is at
# most (n-3)**2 < n**2, and C(n-1, 2) * n**2 < 2**63 holds for n <= 65536,
# not at 65537.
MAX_AGGREGATE_N = 65536


@dataclass(frozen=True)
class RegionCounts:
    """Points of a placement classified against one triangle: the interior
    count and the per-slot counts for the three corner (beta) and three edge
    (gamma) regions.  interior + sum(beta) + sum(gamma) = n - 3."""

    interior: int
    beta: Tuple[int, int, int]
    gamma: Tuple[int, int, int]

    @property
    def beta_total(self) -> int:
        return sum(self.beta)

    @property
    def gamma_total(self) -> int:
        return sum(self.gamma)


@dataclass(frozen=True)
class TypeCounts4:
    """Counts of the two 4-point types; quad + tridot = C(n,4)."""

    quad: int
    tridot: int

    @property
    def total(self) -> int:
        return self.quad + self.tridot


@dataclass(frozen=True)
class TypeCounts5:
    """Counts of the three 5-point types by hull size 5/4/3;
    pentagon + four_hull + three_hull = C(n,5)."""

    pentagon: int
    four_hull: int
    three_hull: int

    @property
    def total(self) -> int:
        return self.pentagon + self.four_hull + self.three_hull


@dataclass(frozen=True)
class AggregateSums:
    """Placement-wide sums of per-triangle region counts over all C(n,3)
    canonical triangles.

    With beta_T, gamma_T the corner/edge totals of triangle T and
    beta_T^(i), gamma_T^(i) the per-slot counts:

    - sum_beta, sum_gamma, sum_interior: plain sums
    - sum_beta_sq, sum_gamma_sq, sum_beta_gamma: sums of beta_T^2,
      gamma_T^2, beta_T * gamma_T
    - sum_gamma_pair_binom: sum over T and slots of C(gamma_T^(i), 2)
    - sum_gamma_cross: sum over T of the products of distinct slots
    - sum_beta_pair_binom, sum_beta_cross: the beta analogues

    All values are exact arbitrary-precision ints.
    """

    n: int
    sum_beta: int
    sum_gamma: int
    sum_beta_sq: int
    sum_gamma_sq: int
    sum_beta_gamma: int
    sum_gamma_pair_binom: int
    sum_gamma_cross: int
    sum_beta_pair_binom: int
    sum_beta_cross: int
    sum_interior: int

    @property
    def triangles(self) -> int:
        """C(n, 3), the number of triangles summed over."""
        return comb(self.n, 3)


Number = Union[int, Fraction]


@dataclass(frozen=True)
class IdentityCheck:
    """One verified relation: lhs `relation` rhs, both sides exact."""

    id: str
    description: str
    lhs: Number
    rhs: Number
    passed: bool
    relation: str = "=="


# Indexed by the sum of four (1 + orientation sign) values: the signs sum to
# +-2, a tridot, exactly when the sum is 2 or 6.
_TRIDOT_BY_SUM = bytes((0, 0, 1, 0, 0, 0, 1, 0, 0))


def _binomials(n: int, k: int) -> List[int]:
    """C(m, k) for m < n: the colex rank of a sorted subset s_1 < ... < s_k
    is the sum of C(s_i, i)."""
    return [comb(m, k) for m in range(n)]


def _triple_signs(points) -> bytearray:
    """1 + the orientation sign of every triple a < b < c of the points, in
    colex order (index a + C(b, 2) + C(c, 3)), from exact Python ints.
    Raises CollinearError on a zero determinant."""
    n = len(points)
    c2, c3 = _binomials(n, 2), _binomials(n, 3)
    sign = bytearray(comb(n, 3))
    for c, (cx, cy) in enumerate(points):
        for b in range(c):
            bx, by = points[b]
            bc = c2[b] + c3[c]
            for a in range(b):
                ax, ay = points[a]
                det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
                if det == 0:
                    raise CollinearError(
                        f"collinear points {points[a]}, {points[b]}, {points[c]}"
                    )
                sign[bc + a] = 2 if det > 0 else 0
    return sign


def _tridot_rows(points) -> Iterator[bytes]:
    """The tridot flags of all 4-subsets in colex order, one row per triple
    b < c < d: flag a is 1 when {a, b, c, d} is a tridot, for a < b.

    A 4-subset is a tridot when one point lies inside the triangle of the
    other three, that is when its four orientation signs sum to +-2.  Every
    triple's sign is computed once and shared by its n - 3 4-subsets.
    """
    n = len(points)
    c2, c3 = _binomials(n, 2), _binomials(n, 3)
    sign = _triple_signs(points)
    for d in range(n):
        for c in range(d):
            cd = c2[c] + c3[d]
            for b in range(c):
                bc = c2[b] + c3[c]
                bd = c2[b] + c3[d]
                bcd = sign[b + cd]
                yield bytes(
                    _TRIDOT_BY_SUM[bcd + x + y + z]
                    for x, y, z in zip(sign[bc : bc + b], sign[bd : bd + b], sign[cd : cd + b])
                )


def count4_naive(placement: Placement) -> TypeCounts4:
    """Classify every 4-subset directly.  The oracle engine: O(n^4) work in
    pure Python, exact, with C(n, 3) bytes of orientation signs."""
    n = placement.n
    if n < 4:
        raise ValueError(f"4-subset counting needs n >= 4, got {n}")
    tridot = sum(row.count(1) for row in _tridot_rows(placement.points))
    return TypeCounts4(comb(n, 4) - tridot, tridot)


def count5_naive(placement: Placement) -> TypeCounts5:
    """Classify every 5-subset directly.  The oracle engine: O(n^5) work in
    pure Python, exact.

    A 5-subset with hull size 5, 4 or 3 has 0, 2 or 4 tridot 4-subsets, so
    it is classified by the sum of its five 4-subsets' tridot flags.  The
    flags take one byte per 4-subset, in colex order: 27 KB at n = 30 and
    3.9 MB at n = 100.
    """
    n = placement.n
    if n < 5:
        raise ValueError(f"5-subset counting needs n >= 5, got {n}")
    c2, c3, c4 = _binomials(n, 2), _binomials(n, 3), _binomials(n, 4)
    flag = b"".join(_tridot_rows(placement.points))
    by_tridots = [0] * 5
    for e in range(n):
        for d in range(e):
            de = c3[d] + c4[e]
            for c in range(d):
                cde = c2[c] + de
                cd = c3[c] + c4[d]
                ce = c3[c] + c4[e]
                for b in range(c):
                    # the 4-subsets of {a, b, c, d, e} other than {b, c, d, e}
                    # are rows of consecutive a
                    bcd = c2[b] + cd
                    bce = c2[b] + ce
                    bde = c2[b] + de
                    bcde = flag[b + cde]
                    for a in range(b):
                        by_tridots[
                            bcde + flag[a + bcd] + flag[a + bce] + flag[a + bde] + flag[a + cde]
                        ] += 1
    pentagon, one, four_hull, three, three_hull = by_tridots
    if one or three:
        raise InconsistentCountsError(
            f"{one + three} 5-subsets have an odd number of tridot 4-subsets"
        )
    return TypeCounts5(pentagon, four_hull, three_hull)


def region_counts(placement: Placement, tri: TriangleRef) -> RegionCounts:
    """Classify every non-vertex point against one triangle and tally."""
    interior = 0
    beta = [0, 0, 0]
    gamma = [0, 0, 0]
    for x in range(placement.n):
        if x in tri:
            continue
        label = classify_region(placement, tri, x)
        if label.kind is RegionKind.INTERIOR:
            interior += 1
        elif label.kind is RegionKind.BETA:
            beta[label.slot - 1] += 1
        else:
            gamma[label.slot - 1] += 1
    return RegionCounts(interior, tuple(beta), tuple(gamma))


def region_table(placement: Placement) -> List[Tuple[TriangleRef, RegionCounts]]:
    """Full per-triangle region table from the region engine's own pass, for
    diagnostics; capped at n <= 60 because it materializes all C(n,3) rows.
    Each triangle is rotated, with its slots, to lead with its smallest index
    (still counterclockwise); rows run in lexicographic order of sorted triples."""
    if placement.n > 60:
        raise ValueError("region_table is a diagnostic aid, capped at n <= 60")
    table = []
    for i, (v2, v3, interior, beta, gamma) in _kernels.triangle_regions(placement.coords):
        for j, k, inner, b, g in zip(
            v2.tolist(), v3.tolist(), interior.tolist(), beta.T.tolist(), gamma.T.tolist()
        ):
            tri = (i, j, k)
            r = tri.index(min(tri))
            rc = RegionCounts(inner, tuple(b[r:] + b[:r]), tuple(g[r:] + g[:r]))
            table.append((TriangleRef(*tri[r:], *tri[:r]), rc))
    table.sort(key=lambda row: sorted(row[0].indices))
    return table


def aggregate_regions(placement: Placement) -> AggregateSums:
    """Aggregate region counts over all C(n,3) canonical triangles.

    Reads the triangles off ``_kernels.triangle_regions`` in chunks of at
    most ``_kernels.BLOCK`` triangles of one lowest vertex, so memory is the
    two (n, n) int64 rank tables, the pass's pair list of 16 * C(n-1, 2)
    bytes and O(BLOCK).  ``_kernels.reduce_regions`` reduces each chunk by
    three plain sums and five int64 dot products: a chunk has at most
    min(BLOCK, C(n-1,2)) triangles and each adds at most (n-3)^2 < n^2 to a
    dot product, so every sum stays below C(n-1,2) * n^2, which is below
    2^63 exactly for n <= MAX_AGGREGATE_N (65536); a larger n raises
    ValueError before any table is built.  Chunks are summed in Python
    ints.  CollinearError names the first collinear triple, if there is one.
    """
    n = placement.n
    if n < 3:
        raise ValueError(f"aggregation needs n >= 3, got {n}")
    if n > MAX_AGGREGATE_N:
        raise ValueError(
            f"aggregation is exact in int64 only for n <= {MAX_AGGREGATE_N}, got {n}"
        )
    return _aggregate(n, _kernels.triangle_regions(placement.coords))


def _aggregate(n: int, chunks) -> AggregateSums:
    """The sums of ``aggregate_regions`` over the chunks of one
    ``_kernels.triangle_regions`` pass of n points, unguarded."""
    acc = [0] * 10
    for _, (_, _, interior, beta, gamma) in chunks:
        for idx, value in enumerate(_kernels.reduce_regions(interior, beta, gamma)):
            acc[idx] += value
    return AggregateSums(n, *acc)


def identity_checks(
    agg: AggregateSums, t4: TypeCounts4, t5: TypeCounts5
) -> Tuple[IdentityCheck, ...]:
    """The planar-point equations E1-E15: the relations between the region
    sums of a placement and its type counts, each side exact.

    On sums from the region engine some of them follow from others, so they
    check the arithmetic, not the triangle pass:

    - E4 and E15 follow from E1-E3 (4*3*tridot + 3*4*quad = 12*C(n,4), and
      E15 is E4 over the C(n,3) triangles);
    - E13 and E14 follow from E7a/b and E8a/b, since the dot-product
      reduction takes the pair and cross sums from the squared totals;
    - E10 holds triangle by triangle, by the partition check in
      ``_kernels.pivot_regions``.
    """
    n = agg.n
    ntri = agg.triangles
    checks = []

    def check(cid: str, desc: str, lhs: Number, rhs: Number, relation: str = "==") -> None:
        passed = lhs <= rhs if relation == "<=" else lhs == rhs
        checks.append(IdentityCheck(cid, desc, lhs, rhs, passed, relation))

    check("E1", "edge-region incidences count each convex quad 4 times",
          agg.sum_gamma, 4 * t4.quad)
    check("E2", "corner-region incidences count each tridot 3 times",
          agg.sum_beta, 3 * t4.tridot)
    check("E3", "the two 4-point types partition all 4-subsets",
          t4.quad + t4.tridot, comb(n, 4))
    check("E4", "4*corner + 3*edge incidences hit every 4-subset 12 times",
          4 * agg.sum_beta + 3 * agg.sum_gamma, 12 * comb(n, 4))
    check("E5", "mixed corner*edge products leave 4 traces per non-pentagon",
          4 * t5.pentagon, 4 * comb(n, 5) - agg.sum_beta_gamma)
    check("E6", "the three 5-point types partition all 5-subsets",
          t5.pentagon + t5.four_hull + t5.three_hull, comb(n, 5))
    check("E7a", "same-slot edge pairs: 5 per pentagon, 2 per four-hull",
          agg.sum_gamma_pair_binom, 5 * t5.pentagon + 2 * t5.four_hull)
    check("E7b", "cross-slot edge products: 5 per pentagon, 1 per four-hull",
          agg.sum_gamma_cross, 5 * t5.pentagon + t5.four_hull)
    check("E8a", "same-slot corner pairs: 1 per four-hull, 2 per three-hull",
          agg.sum_beta_pair_binom, t5.four_hull + 2 * t5.three_hull)
    check("E8b", "cross-slot corner products: 1 per three-hull",
          agg.sum_beta_cross, t5.three_hull)
    check("E9", "extending a quad by its n-4 remaining points, by 5-type",
          (n - 4) * t4.quad,
          5 * t5.pentagon + 3 * t5.four_hull + t5.three_hull)
    check("E10", "the 7 regions absorb all (n-3) points of every triangle",
          agg.sum_interior + agg.sum_beta + agg.sum_gamma, (n - 3) * ntri)
    check("E11", "interior incidences mark each tridot exactly once",
          agg.sum_interior, t4.tridot)
    check("E12", "squared covariance at most the product of variances",
          (ntri * agg.sum_beta_gamma - agg.sum_beta * agg.sum_gamma) ** 2,
          (ntri * agg.sum_beta_sq - agg.sum_beta**2)
          * (ntri * agg.sum_gamma_sq - agg.sum_gamma**2), "<=")
    check("E13", "centered edge second moment: 20 per pentagon, 6 per four-hull",
          agg.sum_gamma_sq - agg.sum_gamma, 20 * t5.pentagon + 6 * t5.four_hull)
    check("E14", "centered corner second moment: 2 per four-hull, 6 per three-hull",
          agg.sum_beta_sq - agg.sum_beta, 2 * t5.four_hull + 6 * t5.three_hull)
    check("E15", "4*mean corner + 3*mean edge totals = 3*(n-3)",
          Fraction(4 * agg.sum_beta + 3 * agg.sum_gamma, ntri), Fraction(3 * (n - 3)))

    return tuple(checks)


# A request derives from one AggregateSums two or three times (count4, count5
# and bound_report), and the sums are frozen, so the last result is kept.
@lru_cache(maxsize=1)
def _derive(agg: AggregateSums) -> Tuple[TypeCounts4, TypeCounts5]:
    """The 4- and 5-point type counts from region sums, held to E1-E15.

    Each convex quad is seen 4 times as an edge-region configuration and
    each tridot 3 times as a corner one, so quad = sum_gamma/4 and tridot =
    sum_beta/3.  With A = sum_gamma_pair_binom = 5*pentagon + 2*four_hull
    and B = sum_gamma_cross = 5*pentagon + four_hull: four_hull = A - B,
    pentagon = (2B - A)/5 and three_hull = sum_beta_cross.  The divisions
    floor, so an inexact one fails E1, E2 or E7a (5*floor((2B - A)/5) +
    2(A - B) = A - r for the remainder r).  Raises InconsistentCountsError
    naming every failed equation, or on a negative count.
    """
    a, b = agg.sum_gamma_pair_binom, agg.sum_gamma_cross
    t4 = TypeCounts4(agg.sum_gamma // 4, agg.sum_beta // 3)
    t5 = TypeCounts5((2 * b - a) // 5, a - b, agg.sum_beta_cross)
    failed = [c for c in identity_checks(agg, t4, t5) if not c.passed]
    if failed:
        raise InconsistentCountsError("; ".join(
            f"{c.id} fails: {c.lhs} {c.relation} {c.rhs}" for c in failed
        ))
    if min(t4.quad, t4.tridot, t5.pentagon, t5.four_hull, t5.three_hull) < 0:
        raise InconsistentCountsError(f"negative type count: {t4}, {t5}")
    return t4, t5


def count4_from_regions(agg: AggregateSums) -> TypeCounts4:
    """The 4-point type counts from region sums; raises
    InconsistentCountsError unless all of E1-E15 hold (see ``_derive``)."""
    return _derive(agg)[0]


def count5_from_regions(agg: AggregateSums) -> TypeCounts5:
    """The 5-point type counts from region sums; raises
    InconsistentCountsError unless all of E1-E15 hold (see ``_derive``)."""
    return _derive(agg)[1]
