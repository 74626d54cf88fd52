import dataclasses
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcount import (
    AggregateSums,
    COORD_BOUND,
    CollinearError,
    GeneratorSpec,
    InconsistentCountsError,
    Placement,
    Point,
    RegionCounts,
    TypeCounts4,
    TypeCounts5,
    aggregate_regions,
    canonical_triangle,
    count4_from_regions,
    count4_naive,
    count5_from_regions,
    count5_naive,
    generate,
    region_counts,
    region_table,
    verify_identities,
)
from convexcount import _kernels
from convexcount.counting import MAX_AGGREGATE_N
from convexcount.geometry import find_violation

from conftest import completion_table, coord, delta_count5, parabola, random_disc


def test_count4_naive_examples(square_center, triangle_two_inside):
    assert count4_naive(square_center) == TypeCounts4(quad=3, tridot=2)
    assert count4_naive(triangle_two_inside) == TypeCounts4(quad=1, tridot=4)
    assert count4_naive(parabola(7)) == TypeCounts4(quad=comb(7, 4), tridot=0)


def test_count5_naive_examples(square_center, triangle_two_inside):
    assert count5_naive(square_center) == TypeCounts5(0, 1, 0)
    assert count5_naive(triangle_two_inside) == TypeCounts5(0, 0, 1)
    assert count5_naive(parabola(7)) == TypeCounts5(comb(7, 5), 0, 0)


def test_counts_require_enough_points():
    tri = Placement.from_points([(0, 0), (6, 0), (0, 6)])
    quad = Placement.from_points([(0, 0), (6, 0), (0, 6), (1, 1)])
    with pytest.raises(ValueError):
        count4_naive(tri)
    with pytest.raises(ValueError):
        count5_naive(quad)


def test_region_counts_parabola():
    p = parabola(6)
    for ijk in combinations(range(6), 3):
        rc = region_counts(p, canonical_triangle(p, *ijk))
        assert rc.interior == 0
        assert rc.beta_total == 0
        assert rc.gamma_total == 3


def test_region_counts_mixed_example():
    # triangle (0,0),(6,0),(0,6): one interior point, one corner point, one edge point
    p = Placement.from_points([(0, 0), (6, 0), (0, 6), (1, 1), (7, 8), (-1, -2)])
    rc = region_counts(p, canonical_triangle(p, 0, 1, 2))
    assert rc.interior == 1
    assert rc.beta == (1, 0, 0)
    assert rc.gamma == (1, 0, 0)


def test_region_counts_trivial_triangle():
    p = Placement.from_points([(0, 0), (6, 0), (0, 6)])
    rc = region_counts(p, canonical_triangle(p, 0, 1, 2))
    assert rc == RegionCounts(interior=0, beta=(0, 0, 0), gamma=(0, 0, 0))


def test_region_counts_partition():
    p = random_disc(10, seed=7)
    for ijk in combinations(range(10), 3):
        rc = region_counts(p, canonical_triangle(p, *ijk))
        assert rc.interior + rc.beta_total + rc.gamma_total == p.n - 3


def test_region_table_matches_region_counts():
    p = random_disc(9, seed=3)
    table = region_table(p)
    assert [sorted(ref.indices) for ref, _ in table] == [
        list(ijk) for ijk in combinations(range(9), 3)
    ]
    for ref, rc in table:
        assert ref == canonical_triangle(p, *ref.indices)
        assert rc == region_counts(p, ref)


def test_region_table_size_cap():
    with pytest.raises(ValueError):
        region_table(parabola(61))


def test_aggregate_examples(square_center):
    agg = aggregate_regions(parabola(6))
    assert agg.n == 6 and agg.triangles == comb(6, 3)
    assert agg.sum_gamma == 60
    assert agg.sum_beta == 0
    assert agg.sum_interior == 0
    agg2 = aggregate_regions(square_center)
    assert agg2.sum_gamma == 12
    assert agg2.sum_beta == 6


def test_aggregate_matches_pure_reference():
    # E1..E14 pin every AggregateSums field to the naive subset counts
    for p in (parabola(8), random_disc(12, seed=1), random_disc(17, seed=2)):
        report = verify_identities(aggregate_regions(p), count4_naive(p), count5_naive(p))
        assert report.all_pass


def test_aggregate_rejects_collinear_triple():
    # the constructor skips the general-position scan
    p = Placement(((0, 0), (9, 1), (1, 1), (5, 7), (2, 2), (4, -3)))
    with pytest.raises(CollinearError, match="indices 0, 2, 4"):
        aggregate_regions(p)
    with pytest.raises(CollinearError):
        region_table(p)


@st.composite
def collinear_through_pivot(draw):
    """Points with a pivot between two others on one line, in random order."""
    # halved coordinates leave room for offsets of up to 10**6 either way
    px, py = draw(coord) // 2, draw(coord) // 2
    dx, dy = draw(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)).filter(any))
    k1, k2 = draw(st.integers(1, 1000)), draw(st.integers(1, 1000))
    line = [(px, py), (px + k1 * dx, py + k1 * dy), (px - k2 * dx, py - k2 * dy)]
    others = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=5, unique=True))
    pts = line + [q for q in others if q not in line]
    return Placement(tuple(draw(st.permutations(pts))))


@settings(max_examples=60, deadline=None)
@given(collinear_through_pivot())
def test_aggregate_rejects_collinear_through_pivot(p):
    # the constructor skips the general-position scan; the rank tables
    # refuse the triple before the pass yields a chunk
    with pytest.raises(CollinearError):
        next(_kernels.triangle_regions(p.coords))
    with pytest.raises(CollinearError):
        aggregate_regions(p)
    with pytest.raises(CollinearError):
        region_table(p)


def region_outputs(p):
    return aggregate_regions(p), region_table(p), completion_table(p.coords)


def assert_block_split_matches(p):
    want = region_outputs(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "BLOCK", 3)
        chunks = [v2.size for _, (v2, *_) in _kernels.triangle_regions(p.coords)]
        assert max(chunks) <= 3 and len(chunks) > p.n - 2
        got = region_outputs(p)
    assert got[0] == want[0]
    assert got[1] == want[1]
    np.testing.assert_array_equal(got[2], want[2])


def test_block_split_matches_unsplit_pass():
    for p in (random_disc(9, seed=2), random_disc(14, seed=8, bound=COORD_BOUND), parabola(7)):
        assert_block_split_matches(p)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=5, max_size=10, unique=True))
def test_block_split_matches_unsplit_pass_on_tie_heavy_points(pts):
    if find_violation(pts) is None:
        assert_block_split_matches(Placement.from_points(pts))


def reduce_reference(interior, beta, gamma):
    """The ten sums of ``reduce_regions`` slot by slot in Python ints: the
    binomials C(x, 2) and the pairwise cross products of each triangle."""
    acc = [0] * 10
    for inner, b, g in zip(interior.tolist(), beta.T.tolist(), gamma.T.tolist()):
        bt, gt = sum(b), sum(g)
        terms = (
            bt,
            gt,
            bt * bt,
            gt * gt,
            bt * gt,
            sum(comb(x, 2) for x in g),
            g[0] * g[1] + g[0] * g[2] + g[1] * g[2],
            sum(comb(x, 2) for x in b),
            b[0] * b[1] + b[0] * b[2] + b[1] * b[2],
            inner,
        )
        acc = [a + t for a, t in zip(acc, terms)]
    return tuple(acc)


region_rows = st.integers(1, 40).flatmap(
    lambda rows: st.lists(st.integers(0, 10**4), min_size=7 * rows, max_size=7 * rows)
)


@settings(max_examples=200, deadline=None)
@given(region_rows)
def test_reduce_regions_matches_slot_reference(values):
    counts = np.array(values, dtype=np.int64).reshape(7, -1)
    interior, beta, gamma = counts[0], counts[1:4], counts[4:]
    got = _kernels.reduce_regions(interior, beta, gamma)
    assert got == reduce_reference(interior, beta, gamma)
    assert all(type(v) is int for v in got)


def test_reduce_regions_at_the_int64_bound():
    # a full block with every count at its largest value, n - 3, for the
    # largest n the aggregation accepts
    top = np.full((7, _kernels.BLOCK), MAX_AGGREGATE_N - 3, dtype=np.int64)
    interior, beta, gamma = top[0], top[1:4], top[4:]
    assert _kernels.reduce_regions(interior, beta, gamma) == reduce_reference(
        interior, beta, gamma
    )


@pytest.mark.parametrize(
    "line", [((7, 0), (0, 0), (3, 0)), ((0, 9), (0, 2), (0, 0)), ((4, 6), (0, 0), (2, 3))]
)
def test_ray_from_the_first_pivot_raises_before_any_block(line):
    # (0, 0) is the lowest point, so the first pivot, and the other two
    # points of the line lie on one ray from it
    p = Placement(line + ((5, 1), (-3, 4), (1, 9)))
    with pytest.raises(CollinearError):
        next(_kernels.triangle_regions(p.coords))


@st.composite
def collinear_on_axis_line(draw, vertical):
    """Three points on one horizontal or vertical line among others, in
    random order: the triple's lowest point sees the other two along
    (1, 0) or (0, 1)."""
    c = draw(coord)
    line = [(a, c) for a in draw(st.lists(coord, min_size=3, max_size=3, unique=True))]
    if vertical:
        line = [(y, x) for x, y in line]
    others = draw(st.lists(st.tuples(coord, coord), max_size=5, unique=True))
    pts = line + [q for q in others if q not in line]
    return Placement(tuple(draw(st.permutations(pts))))


@pytest.mark.parametrize("vertical", (False, True), ids=("horizontal", "vertical"))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_aggregate_rejects_collinear_on_axis_line(vertical, data):
    p = data.draw(collinear_on_axis_line(vertical))
    with pytest.raises(CollinearError):
        next(_kernels.triangle_regions(p.coords))
    with pytest.raises(CollinearError):
        aggregate_regions(p)
    with pytest.raises(CollinearError):
        region_table(p)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=10, unique=True), st.data())
def test_aggregate_invariant_under_point_order(pts, data):
    if find_violation(pts) is None:
        shuffled = data.draw(st.permutations(pts))
        assert aggregate_regions(Placement(tuple(shuffled))) == aggregate_regions(
            Placement(tuple(pts))
        )


@pytest.mark.parametrize("kind", ("parabola", "random_disc", "convex", "grid_perturbed"))
def test_aggregate_invariant_under_point_order_at_n40(kind):
    p = generate(GeneratorSpec(kind, 40, seed=4, coord_bound=COORD_BOUND))
    order = np.random.default_rng(4).permutation(p.n)
    assert aggregate_regions(Placement(tuple(p.points[k] for k in order))) == aggregate_regions(p)


@pytest.mark.parametrize("by, message", [(1, "lost a point"), (2, "negative region count")])
def test_corrupt_rank_table_raises(monkeypatch, by, message):
    rank_tables = _kernels.rank_tables

    def corrupt(coords):
        ranks, left = rank_tables(coords)
        left[3, 7] += by
        return ranks, left

    monkeypatch.setattr(_kernels, "rank_tables", corrupt)
    with pytest.raises(InconsistentCountsError, match=message):
        aggregate_regions(random_disc(12, seed=3))


def test_aggregate_rejects_n_beyond_int64_bound(monkeypatch):
    assert comb(MAX_AGGREGATE_N - 1, 2) * MAX_AGGREGATE_N**2 < 2**63
    assert comb(MAX_AGGREGATE_N, 2) * (MAX_AGGREGATE_N + 1) ** 2 >= 2**63

    def no_tables(coords):
        raise AssertionError("rank tables built beyond the bound")

    monkeypatch.setattr(_kernels, "rank_tables", no_tables)
    # the constructor makes only O(n) checks, so nothing else stops this size
    p = Placement(tuple(Point(i, 0) for i in range(MAX_AGGREGATE_N + 1)))
    with pytest.raises(ValueError, match="int64"):
        aggregate_regions(p)


def test_engines_agree_on_examples(square_center, triangle_two_inside):
    for p in (square_center, triangle_two_inside, parabola(9)):
        agg = aggregate_regions(p)
        assert count4_from_regions(agg) == count4_naive(p)
        assert count5_from_regions(agg) == count5_naive(p)


@pytest.mark.parametrize("n", range(5, 13))
def test_engines_agree_on_random_placements(n):
    p = random_disc(n, seed=100 + n)
    agg = aggregate_regions(p)
    assert count4_from_regions(agg) == count4_naive(p)
    assert count5_from_regions(agg) == count5_naive(p)


grid_pts = st.lists(
    st.tuples(coord, coord),
    min_size=5,
    max_size=8,
    unique=True,
)


@settings(max_examples=80, deadline=None)
@given(grid_pts)
def test_engines_agree_property(pts):
    if find_violation(pts) is not None:
        return
    p = Placement.from_points(pts)
    agg = aggregate_regions(p)
    c4 = count4_from_regions(agg)
    c5 = count5_from_regions(agg)
    assert c4 == count4_naive(p)
    assert c5 == count5_naive(p)
    assert c4.total == comb(p.n, 4)
    assert c5.total == comb(p.n, 5)


def test_pentagon_count_monotone_under_point_removal():
    p = random_disc(11, seed=9)
    full = count5_naive(p).pentagon
    for drop in range(p.n):
        sub = Placement.from_points([p[i] for i in range(p.n) if i != drop])
        assert count5_naive(sub).pentagon <= full


def test_delta_count5_examples():
    p5 = parabola(5)
    assert delta_count5(p5, 2) == count5_naive(p5)
    p7 = parabola(7)
    assert delta_count5(p7, 0) == TypeCounts5(comb(6, 4), 0, 0)


def test_delta_count5_difference_law():
    p = random_disc(9, seed=42)
    total = count5_naive(p)
    for m in range(p.n):
        rest = Placement.from_points([p[i] for i in range(p.n) if i != m])
        delta = delta_count5(p, m)
        kept = count5_naive(rest)
        assert kept.pentagon + delta.pentagon == total.pentagon
        assert kept.four_hull + delta.four_hull == total.four_hull
        assert kept.three_hull + delta.three_hull == total.three_hull


def test_delta_count5_index_validation():
    p = parabola(6)
    with pytest.raises(ValueError):
        delta_count5(p, 6)
    with pytest.raises(ValueError):
        delta_count5(p, -1)


def _corrupt(agg: AggregateSums, **changes: int) -> AggregateSums:
    return dataclasses.replace(agg, **changes)


def test_count4_rejects_corrupted_sums():
    agg = aggregate_regions(random_disc(8, seed=11))
    with pytest.raises(InconsistentCountsError):
        count4_from_regions(_corrupt(agg, sum_gamma=agg.sum_gamma + 1))
    with pytest.raises(InconsistentCountsError):
        count4_from_regions(_corrupt(agg, sum_interior=agg.sum_interior + 1))


def test_count5_rejects_corrupted_sums():
    agg = aggregate_regions(random_disc(8, seed=11))
    bad_fields = [
        {"sum_gamma_cross": agg.sum_gamma_cross + 5},
        {"sum_beta_gamma": agg.sum_beta_gamma + 1},
        {"sum_beta_pair_binom": agg.sum_beta_pair_binom + 1},
        {"sum_beta_cross": agg.sum_beta_cross + 3},
    ]
    for changes in bad_fields:
        with pytest.raises(InconsistentCountsError):
            count5_from_regions(_corrupt(agg, **changes))
