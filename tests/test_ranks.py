"""The exact direction key: angular-rank tables, general-position checks,
and the naive oracle and completion-table count that the tables are held to."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcount import (
    COORD_BOUND,
    Collinear,
    CollinearError,
    InconsistentCountsError,
    Placement,
    TypeCounts4,
    TypeCounts5,
    count4_naive,
    count5_naive,
    cross,
)
from convexcount import _kernels, geometry
from convexcount.classification import Type4, Type5, classify4, classify5
from convexcount.geometry import find_violation

from conftest import completion_table, coord, parabola, random_disc


def reference_rank_tables(coords):
    """The per-point O(n^3) construction that the sort replaced: cross-product
    signs order the directions within each half-plane."""
    n = coords.shape[0]
    ranks = np.empty((n, n), dtype=np.int64)
    left = np.empty((n, n), dtype=np.int64)
    for v in range(n):
        d = coords - coords[v]
        dx = d[:, 0]
        dy = d[:, 1]
        cross_ab = dx[:, None] * dy[None, :] - dy[:, None] * dx[None, :]
        ccw = cross_ab > 0
        left[v] = ccw.sum(axis=1)
        lower = (dy < 0) | ((dy == 0) & (dx <= 0))
        same_half = lower[:, None] == lower[None, :]
        ranks[v] = (same_half & ccw).sum(axis=0) + lower * int((~lower).sum())
    return ranks, left


def assert_tables_match(pts):
    coords = np.array(pts, dtype=np.int64)
    ranks, left = _kernels.rank_tables(coords)
    want_ranks, want_left = reference_rank_tables(coords)
    off = ~np.eye(len(pts), dtype=bool)
    np.testing.assert_array_equal(ranks[off], want_ranks[off])
    np.testing.assert_array_equal(left[off], want_left[off])


distinct_points = st.lists(st.tuples(coord, coord), min_size=3, max_size=14, unique=True)
tie_heavy_sets = st.one_of(
    distinct_points,
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
             min_size=3, max_size=12, unique=True),
)


@settings(max_examples=150, deadline=None)
@given(distinct_points.filter(lambda pts: find_violation(pts) is None))
def test_rank_tables_match_reference_on_tie_heavy_sets(pts):
    # general-position draws that still share many x or y values
    assert_tables_match(pts)


@settings(max_examples=200, deadline=None)
@given(tie_heavy_sets)
def test_rank_tables_raise_exactly_on_collinear_triples(pts):
    coords = np.array(pts, dtype=np.int64)
    if isinstance(find_violation(pts), Collinear):
        with pytest.raises(CollinearError):
            _kernels.rank_tables(coords)
    else:
        _kernels.rank_tables(coords)


def test_rank_tables_match_reference_at_coordinate_bound():
    b = COORD_BOUND
    # directions between opposite corners reach |dx|, |dy| ~ 2 * 10**7, so a
    # ratio's denominator reaches 4 * 10**7.  Around (-b, -b), the points
    # (b - 1, b - 2) and (b - 2, b - 3) have ratios (m - 1) / (2m - 1) and
    # (m - 2) / (2m - 3) with m = 2 * 10**7 - 1, about 6.25 * 10**-16
    # apart, near the smallest gap the key must resolve.  Around (b, b) the
    # same pair, mirrored, lies in the lower half, and around (b, -b) the
    # pair (-b + 1, b - 2), (-b + 2, b - 3) lies in the second quadrant.
    # Around (b, -b), the last two points have distinct ratios whose sums
    # with 4 round to one double.  Each pair sits off the corners' lines, so
    # the set is in general position.
    pts = [(-b, -b), (b, -b), (b, b), (-b, b), (b - 1, b - 2), (b - 2, b - 3),
           (-b + 1, -b + 2), (-b + 2, -b + 3), (-b + 1, b - 2), (-b + 2, b - 3),
           (-b + 28, b - 27), (-b + 27, b - 26)]
    assert find_violation(pts) is None
    # both index orders: a key that rounded the pair together would keep
    # them in index order, right in one order and wrong in the other
    assert_tables_match(pts)
    assert_tables_match(pts[::-1])


def test_rank_tables_reject_grid_at_coordinate_bound():
    b = COORD_BOUND
    grid = [(x, y) for x in (-b, -b + 1, 0, b - 1, b) for y in (-b, 1, b)]
    with pytest.raises(CollinearError):
        _kernels.rank_tables(np.array(grid, dtype=np.int64))


def test_rank_tables_match_reference_on_lines_through_a_point():
    # one point on each of five lines through v = (5, -3), both axes among
    # them, on either side of v, among generic points; a second point on any
    # of the lines, on either side, is refused
    v = (5, -3)
    lines = ((3, 5), (-2, 7), (1, 0), (0, 1), (4, -1))
    pts = [v] + [(v[0] + k * dx, v[1] + k * dy) for k, (dx, dy) in zip((1, -2, 3, -1, 2), lines)]
    pts += [(11, 40), (-17, 2), (23, -29)]
    assert find_violation(pts) is None
    assert_tables_match(pts)
    assert_tables_match(pts[::-1])
    for dx, dy in lines:
        for k in (-3, 4):
            with pytest.raises(CollinearError):
                _kernels.rank_tables(np.array(pts + [(v[0] + k * dx, v[1] + k * dy)]))


def test_rank_tables_match_reference_across_row_blocks(monkeypatch):
    # a block budget below n puts every row in a block of its own
    p = random_disc(23, seed=4)
    want = _kernels.rank_tables(p.coords)
    monkeypatch.setattr(geometry, "KEY_BLOCK", 5)
    assert [s.stop - s.start for s in geometry.row_blocks(23)] == [1] * 23
    got = _kernels.rank_tables(p.coords)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert_tables_match(p.points)


def test_row_blocks_bound_their_elements():
    for n in (1, 3, 200, 300, geometry.KEY_BLOCK, geometry.KEY_BLOCK + 1):
        blocks = list(geometry.row_blocks(n))
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all((s.stop - s.start) * n <= max(geometry.KEY_BLOCK, n) for s in blocks)


def first_collinear_by_loop(pts):
    for i, j, k in combinations(range(len(pts)), 3):
        if cross(pts[i], pts[j], pts[k]) == 0:
            return Collinear(i, j, k)
    return None


@settings(max_examples=200, deadline=None)
@given(tie_heavy_sets)
def test_find_violation_matches_loop_on_tie_heavy_sets(pts):
    violation = find_violation(pts)
    assert violation == first_collinear_by_loop(pts)
    if violation is not None:
        # the table build names the same triple
        with pytest.raises(CollinearError) as exc:
            _kernels.rank_tables(np.array(pts, dtype=np.int64))
        assert str(exc.value) == str(violation)


def test_find_violation_across_row_blocks(monkeypatch):
    monkeypatch.setattr(geometry, "KEY_BLOCK", 5)
    pts = [(i, i * i) for i in range(20)]
    assert find_violation(pts) is None
    # (3, 7) lies on the line y = 3x - 2 through (1, 1) and (2, 4)
    pts.append((3, 7))
    assert find_violation(pts) == first_collinear_by_loop(pts) == Collinear(1, 2, 20)


def test_rank_tables_raise_on_a_tie_in_the_last_row_blocks(monkeypatch):
    # a collinear triple ties in the rows of its three points only, so with
    # one row a block and the triple last, every earlier block is clean
    monkeypatch.setattr(geometry, "KEY_BLOCK", 5)
    pts = [(i, i * i) for i in range(18)] + [(30, 1), (31, 3), (32, 5)]
    tied = [rows for rows in geometry.row_blocks(len(pts))
            if geometry.direction_keys(np.array(pts), rows)[2].any()]
    assert tied == [slice(18, 19), slice(19, 20), slice(20, 21)]
    with pytest.raises(CollinearError, match="18, 19, 20"):
        _kernels.rank_tables(np.array(pts, dtype=np.int64))


naive_points = st.lists(st.tuples(coord, coord), min_size=5, max_size=8, unique=True)


@settings(max_examples=60, deadline=None)
@given(naive_points)
def test_naive_counts_match_classification(pts):
    if find_violation(pts) is not None:
        with pytest.raises(CollinearError):
            count4_naive(Placement(tuple(pts)))
        with pytest.raises(CollinearError):
            count5_naive(Placement(tuple(pts)))
        return
    p = Placement.from_points(pts)
    quads = sum(classify4(p, s) is Type4.CONVEX_QUAD for s in combinations(range(p.n), 4))
    assert count4_naive(p) == TypeCounts4(quads, len(list(combinations(pts, 4))) - quads)
    types = [classify5(p, s) for s in combinations(range(p.n), 5)]
    assert count5_naive(p) == TypeCounts5(
        types.count(Type5.PENTAGON), types.count(Type5.FOUR_HULL), types.count(Type5.THREE_HULL)
    )


def test_naive_counts_match_classification_on_random_placements():
    for p in (random_disc(11, seed=3), random_disc(13, seed=9, bound=10**7), parabola(9)):
        quads = sum(classify4(p, s) is Type4.CONVEX_QUAD for s in combinations(range(p.n), 4))
        assert count4_naive(p).quad == quads
        types = [classify5(p, s) for s in combinations(range(p.n), 5)]
        assert count5_naive(p).pentagon == types.count(Type5.PENTAGON)
        assert count5_naive(p).three_hull == types.count(Type5.THREE_HULL)


def test_naive_counts_reject_collinear_triple():
    # the constructor skips the general-position scan
    p = Placement(((0, 0), (9, 1), (1, 1), (5, 7), (2, 2), (4, -3)))
    with pytest.raises(CollinearError):
        count4_naive(p)
    with pytest.raises(CollinearError):
        count5_naive(p)


def test_pentagons_from_completion_matches_naive():
    for p in (random_disc(9, seed=1), random_disc(12, seed=5), random_disc(16, seed=7),
              parabola(8), random_disc(10, seed=2, bound=COORD_BOUND)):
        table = completion_table(p.coords)
        assert _kernels.pentagons_from_completion(table) == count5_naive(p).pentagon


def test_pentagons_from_completion_rejects_inexact_table():
    p = random_disc(11, seed=6)
    table = completion_table(p.coords)
    bad = table.copy()
    bad[0, 1, 2] += 1
    # one entry t -> t + 1, in one order of its triple only, moves
    # 192 * pentagons by 8t - 5(n - 4)
    assert (8 * int(table[0, 1, 2]) - 5 * (p.n - 4)) % 192
    with pytest.raises(InconsistentCountsError):
        _kernels.pentagons_from_completion(bad)
