import io
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcount import (
    CCW,
    COORD_BOUND,
    CW,
    Collinear,
    CollinearError,
    Duplicate,
    InvalidPlacementError,
    ParseError,
    Placement,
    Point,
    ValidationError,
    cross,
    dumps_placement,
    find_violation,
    load_placement,
    orientation,
    save_placement,
)
from convexcount import geometry

coords = st.integers(min_value=-COORD_BOUND, max_value=COORD_BOUND)
points = st.tuples(coords, coords)


def test_orientation_examples():
    assert orientation((0, 0), (1, 0), (0, 1)) == CCW
    assert orientation((0, 0), (0, 1), (1, 0)) == CW
    with pytest.raises(CollinearError):
        orientation((0, 0), (1, 1), (2, 2))


@given(points, points, points)
def test_orientation_antisymmetry_and_cyclic(a, b, c):
    if cross(a, b, c) == 0:
        with pytest.raises(CollinearError):
            orientation(a, b, c)
        return
    s = orientation(a, b, c)
    assert orientation(a, c, b) == -s
    assert orientation(b, c, a) == s
    assert orientation(c, a, b) == s


@given(points, points, points, st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_orientation_translation_invariance(a, b, c, dx, dy):
    def shift(p):
        return (p[0] + dx, p[1] + dy)

    if cross(a, b, c) == 0:
        return
    if any(abs(v) > COORD_BOUND for p in (a, b, c) for v in shift(p)):
        return
    assert orientation(a, b, c) == orientation(shift(a), shift(b), shift(c))


def test_find_violation_examples():
    assert find_violation([(0, 0), (1, 0), (0, 1)]) is None
    v = find_violation([(0, 0), (1, 1), (2, 2), (5, 0)])
    assert v == Collinear(0, 1, 2)
    # four points on one line: the triple takes the two smallest after 0
    assert find_violation([(0, 0), (3, 3), (9, 4), (1, 1), (2, 2)]) == Collinear(0, 1, 3)
    v = find_violation([(0, 0), (0, 0), (1, 2)])
    assert v == Duplicate(0, 1)
    assert find_violation(Placement(((0, 0), (1, 1), (2, 2), (5, 0)))) == Collinear(0, 1, 2)


def _planted_triple():
    # one collinear triple in an otherwise generic placement
    pts = [(i, i * i + (i % 7)) for i in range(70)]
    pts[50] = (200, 300)
    pts[60] = (202, 302)
    pts[65] = (204, 304)
    return pts


def _shuffled_grid(n):
    # many collinear triples; the first in index order is not the one that
    # closes earliest (smallest last index)
    grid = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    order = np.random.default_rng(0).permutation(len(grid))[:n]
    return [grid[i] for i in order]


@pytest.mark.parametrize(
    "pts, tie_heavy",
    [(_planted_triple(), False), (_shuffled_grid(12), True), (_shuffled_grid(40), True)],
    ids=["n70_planted", "n12_grid", "n40_grid"],
)
def test_find_violation_vectorized_matches_pure(pts, tie_heavy, monkeypatch):
    # the sorted direction keys alone name the first triple: no cubic scan
    def refuse(*args):
        raise AssertionError("pair_sign_matrix called during validation")

    monkeypatch.setattr(geometry, "pair_sign_matrix", refuse)
    triples = [
        Collinear(i, j, k)
        for i, j, k in combinations(range(len(pts)), 3)
        if cross(pts[i], pts[j], pts[k]) == 0
    ]
    fast = find_violation(pts)
    assert isinstance(fast, Collinear)
    assert fast == triples[0]
    if tie_heavy:
        assert fast.k > min(t.k for t in triples)


def test_placement_construction_errors():
    with pytest.raises(InvalidPlacementError):
        Placement(((0, 0), (1, 1)))
    with pytest.raises(InvalidPlacementError):
        Placement(((0, 0), (1, 1), (COORD_BOUND + 1, 0)))
    for not_int in (1.0, True):
        with pytest.raises(InvalidPlacementError, match="is not an int"):
            Placement(((0, 0), (1, 1), (not_int, 0)))
    with pytest.raises(ValidationError) as exc:
        Placement((Point(0, 0), Point(1, 1), Point(0, 0)))
    assert exc.value.violation == Duplicate(0, 2)
    with pytest.raises(ValidationError):
        Placement.from_points([(0, 0), (1, 1), (2, 2)])
    # beyond the bound int64 products would wrap and fake a collinear triple
    wide = [(0, 0), (2**32, 0), (1, 2**32)] + [(i, i * i) for i in range(2, 60)]
    with pytest.raises(InvalidPlacementError):
        Placement.from_points(wide)
    with pytest.raises(InvalidPlacementError):
        find_violation(wide)


def test_each_coordinate_checked_once(monkeypatch):
    pts = [(i, i * i) for i in range(12)]
    text = dumps_placement(Placement(tuple(pts)))
    calls = []
    check = geometry._check_coord

    def counted(v, index):
        calls.append(index)
        return check(v, index)

    monkeypatch.setattr(geometry, "_check_coord", counted)
    Placement.from_points(pts)
    assert len(calls) == 2 * len(pts)
    calls.clear()
    load_placement(text)
    assert len(calls) == 2 * len(pts)


def test_placement_basics():
    p = Placement.from_points([(0, 0), (1, 0), (0, 1)])
    assert p.n == 3
    assert len(p) == 3
    assert p[1] == Point(1, 0)
    assert list(p) == [Point(0, 0), Point(1, 0), Point(0, 1)]
    assert p.coords.shape == (3, 2)
    assert not p.coords.flags.writeable


def test_load_placement_examples():
    p = load_placement("3\n0 0\n1 0\n0 1\n")
    assert p.points == (Point(0, 0), Point(1, 0), Point(0, 1))
    with pytest.raises(ParseError):
        load_placement("2\n0 0\n1 1\n9 9\n")
    with pytest.raises(ValidationError):
        load_placement("3\n0 0\n1 1\n2 2\n")


def test_load_placement_comments_and_stream():
    text = "# generated\n# by hand\n3\n0 0\n1 0\n# interlude\n0 1\n"
    p = load_placement(io.StringIO(text))
    assert p.n == 3
    assert load_placement(text.encode("ascii")).points == p.points


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "# only comments\n",
        "three\n0 0\n1 0\n0 1\n",
        "3\n0 0\n1 0\n",
        "3\n0  0\n1 0\n0 1\n",
        "3\n0 0\n01 0\n0 1\n",
        "3\n0 0\n+1 0\n0 1\n",
        "3\n0 0\n1.0 0\n0 1\n",
        "3\n0 0\n-0 0\n0 1\n",
        "3\n0 0\n1 0 7\n0 1\n",
        "3\n0 0\n1\n0 1\n",
        f"3\n0 0\n{COORD_BOUND + 1} 0\n0 1\n",
        "2\n0 0\n1 0\n",
        b"3\n0 0\n1 0\n0 \xff\n",
    ],
)
def test_load_placement_rejects_malformed(bad):
    with pytest.raises(ParseError):
        load_placement(bad)


def test_save_round_trip():
    p = Placement.from_points([(0, 0), (1, 0), (0, 1)])
    assert dumps_placement(p) == "3\n0 0\n1 0\n0 1\n"
    sink = io.StringIO()
    save_placement(p, sink, comment="demo")
    text = sink.getvalue()
    assert text.startswith("# demo\n")
    assert load_placement(text).points == p.points


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                min_size=3, max_size=8, unique=True))
def test_round_trip_is_identity_on_valid_placements(pts):
    if find_violation(pts) is not None:
        return
    p = Placement.from_points(pts)
    assert load_placement(dumps_placement(p)).points == p.points
