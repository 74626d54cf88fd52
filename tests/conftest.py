"""Shared fixtures and helpers for the test suite."""

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import strategies as st

from convexcount import COORD_BOUND, GeneratorSpec, Placement, TypeCounts5, _kernels, generate
from convexcount.classification import tridot_subsets5

coord = st.one_of(
    st.integers(-15, 15),
    # few distinct values at the coordinate extremes: many equal x or y
    st.sampled_from((-4, -1, 0, 1, 4)).map(lambda v: v * COORD_BOUND // 4),
)


def parabola(n: int) -> Placement:
    return Placement.from_points([(i, i * i) for i in range(n)])


def random_disc(n: int, seed: int, bound: int = 1000) -> Placement:
    return generate(GeneratorSpec("random_disc", n, seed=seed, coord_bound=bound))


def completion_table(coords):
    """The annealer's dense completion table read off the one triangle pass:
    for every triple, in every order, the points inside the triangle or
    beyond a corner; 0 on repeated indices."""
    n = coords.shape[0]
    table = np.zeros((n, n, n), dtype=np.int8)
    for i, (v2, v3, interior, beta, _) in _kernels.triangle_regions(coords):
        for order in permutations((i, v2, v3)):
            table[order] = interior + beta.sum(axis=0)
    return table


def delta_count5(placement: Placement, moved: int) -> TypeCounts5:
    """Type counts over exactly the C(n-1,4) five-subsets containing one
    point, by classifying each: the reference for the annealer's kernel
    delta (``_kernels.pentagon_pair_delta``), which must equal its
    difference between two positions of the point."""
    n = placement.n
    if not 0 <= moved < n:
        raise ValueError(f"index {moved} out of range for n = {n}")
    if n < 5:
        raise ValueError(f"5-subset counting needs n >= 5, got {n}")
    q = placement.points[moved]
    others = placement.points[:moved] + placement.points[moved + 1 :]
    pentagon = 0
    four_hull = 0
    three_hull = 0
    for a, b, c, d in combinations(others, 4):
        t = tridot_subsets5(a, b, c, d, q)
        if t == 0:
            pentagon += 1
        elif t == 2:
            four_hull += 1
        else:
            three_hull += 1
    return TypeCounts5(pentagon, four_hull, three_hull)


def point_in_triangle(p, a, b, c) -> bool:
    """Strict interior test; assumes general position."""

    def cross(u, v, w):
        return (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])

    d1 = cross(a, b, p) > 0
    d2 = cross(b, c, p) > 0
    d3 = cross(c, a, p) > 0
    return d1 == d2 == d3


def hull_size(points) -> int:
    """Number of extreme points, by exhaustive containment checks."""
    inside = 0
    for p in points:
        others = [q for q in points if q != p]
        if any(point_in_triangle(p, a, b, c) for a, b, c in combinations(others, 3)):
            inside += 1
    return len(points) - inside


@pytest.fixture
def square_center() -> Placement:
    return Placement.from_points([(0, 0), (6, 0), (6, 6), (0, 6), (3, 2)])


@pytest.fixture
def triangle_two_inside() -> Placement:
    return Placement.from_points([(0, 0), (12, 0), (0, 12), (3, 2), (2, 3)])
