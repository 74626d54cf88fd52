import dataclasses
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexcount import (
    AnnealConfig,
    ExhaustedRejectionError,
    GENERATOR_KINDS,
    GenerationError,
    GeneratorSpec,
    InconsistentCountsError,
    Placement,
    Point,
    SearchResult,
    count5_from_regions,
    count5_naive,
    delta_count5,
    generate,
    minimize_pentagons,
)
from convexcount import _kernels, search
from convexcount.geometry import find_violation
from convexcount.search import CONSISTENCY_OK, KNOWN_MIN_PENTAGONS, MAX_ANNEAL_N, _Chain

from conftest import coord, hull_size, random_disc


def test_parabola_generator_exact_points():
    p = generate(GeneratorSpec("parabola", 5))
    assert p.points == ((0, 0), (1, 1), (2, 4), (3, 9), (4, 16))


def test_parabola_generator_ignores_seed():
    a = generate(GeneratorSpec("parabola", 9, seed=1))
    b = generate(GeneratorSpec("parabola", 9, seed=2))
    assert a == b


def test_parabola_generator_bound_check():
    assert generate(GeneratorSpec("parabola", 101, coord_bound=10_000)).n == 101
    with pytest.raises(GenerationError):
        generate(GeneratorSpec("parabola", 102, coord_bound=10_000))


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("n", [5, 12])
def test_generators_produce_valid_placements(kind, n):
    spec = GeneratorSpec(kind, n, seed=7, coord_bound=1000)
    p = generate(spec)
    assert isinstance(p, Placement)
    assert p.n == n
    assert find_violation(p.points) is None
    assert all(abs(x) <= 1000 and abs(y) <= 1000 for x, y in p.points)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generators_deterministic_in_seed(kind):
    spec = GeneratorSpec(kind, 10, seed=3, coord_bound=1000)
    assert generate(spec) == generate(spec)


def test_random_generators_vary_with_seed():
    for kind in ("random_disc", "grid_perturbed", "convex"):
        a = generate(GeneratorSpec(kind, 10, seed=0, coord_bound=1000))
        b = generate(GeneratorSpec(kind, 10, seed=1, coord_bound=1000))
        assert a != b, kind


@pytest.mark.parametrize("n", [5, 9, 16])
def test_convex_generator_gives_convex_position(n):
    p = generate(GeneratorSpec("convex", n, seed=2, coord_bound=5000))
    assert hull_size(p.points) == n


def test_random_disc_rejection_exhausts():
    # a radius-3 disc holds 29 lattice points; 40 distinct ones cannot exist
    with pytest.raises(ExhaustedRejectionError):
        generate(GeneratorSpec("random_disc", 40, seed=0, coord_bound=3))


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("spiral", 8)
    with pytest.raises(ValueError):
        GeneratorSpec("parabola", 2)
    with pytest.raises(ValueError):
        GeneratorSpec("parabola", 8, coord_bound=2)
    with pytest.raises(ValueError):
        GeneratorSpec("parabola", 8, coord_bound=10_000_001)


def _mask_count(signs, pairs, u):
    n = signs.shape[0]
    keep = np.delete(np.arange(n), u)
    mask = _kernels.pentagon_pair_delta(signs, pairs, keep, _kernels.quad_gather_indices(n - 1))
    assert mask.shape == (comb(n - 1, 4),) and mask.dtype == bool
    return int(np.count_nonzero(mask))


def test_pentagon_pair_delta_matches_naive_delta():
    p = random_disc(10, seed=3)
    coords = np.array(p.coords, dtype=np.int64)
    signs = _kernels.full_sign_tensor(coords)
    for u in range(p.n):
        assert _mask_count(signs, signs[:, :, u], u) == delta_count5(p, u).pentagon


def test_pentagon_pair_delta_after_move():
    p = random_disc(9, seed=8, bound=100)
    coords = np.array(p.coords, dtype=np.int64)
    signs = _kernels.full_sign_tensor(coords)
    u = 4
    new_pt = (37, -61)
    moved_pts = list(p.points)
    moved_pts[u] = new_pt
    moved = Placement.from_points(moved_pts)
    # both positions over the tensor of the unmoved points, as an accepted move does
    assert _mask_count(signs, signs[:, :, u], u) == delta_count5(p, u).pentagon
    new_pairs = _kernels.pair_sign_matrix(coords, new_pt)
    assert _mask_count(signs, new_pairs, u) == delta_count5(moved, u).pentagon


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(coord, coord), min_size=5, max_size=8, unique=True),
    st.tuples(coord, coord),
    st.data(),
)
def test_pentagon_pair_delta_property(pts, cand, data):
    assume(find_violation(pts) is None)
    p = Placement.from_points(pts)
    u = data.draw(st.integers(0, p.n - 1))
    coords = np.array(p.coords, dtype=np.int64)
    signs = _kernels.full_sign_tensor(coords)
    assert _mask_count(signs, signs[:, :, u], u) == delta_count5(p, u).pentagon
    moved_pts = list(pts)
    moved_pts[u] = cand
    pairs = _kernels.pair_sign_matrix(coords, cand)
    pairs[u, :] = 0
    pairs[:, u] = 0
    # the annealer's zero-count test: it rejects exactly the invalid moves
    degenerate = np.count_nonzero(pairs) != (p.n - 1) * (p.n - 2)
    assert degenerate == (find_violation(moved_pts) is not None)
    assume(not degenerate)
    moved = Placement.from_points(moved_pts)
    assert _mask_count(signs, pairs, u) == delta_count5(moved, u).pentagon


def test_pentagon_pair_delta_int8_bounds():
    info = np.iinfo(np.int8)
    weight = _kernels.TRIDOT_WEIGHT
    # s = S + three pair signs; code = S + weight * T; a row sums four codes
    for low, high in ((-4, 4), (-1, 1 + weight), (-4, 4 * (1 + weight))):
        assert info.min <= low and high <= info.max
    # one tridot through x lifts every fixed sign sum in [-4, 4] past 4
    assert weight - 4 > 4


def test_chain_index_bytes():
    # four intp rows per 4-subset of the n - 1 fixed points
    per_subset = 4 * np.dtype(np.intp).itemsize
    for m in (4, 7, 11):
        assert _kernels.quad_gather_indices(m).nbytes == per_subset * comb(m, 4)
    # the size limit's stated cost, 14.6 MB on 64-bit builds
    assert per_subset * comb(MAX_ANNEAL_N - 1, 4) <= 14.6e6


def test_quad_gather_indices_order():
    m = 7
    triples = _kernels.quad_gather_indices(m)
    quads = list(combinations(range(m), 4))
    assert triples.dtype == np.intp
    assert triples.shape == (4, len(quads))
    for col, quad in enumerate(quads):
        assert [np.unravel_index(i, (m, m, m)) for i in triples[:, col]] == list(
            combinations(quad, 3)
        )


def test_anneal_config_validation():
    for bad in (
        dict(n=4),
        dict(n=8, iterations=0),
        dict(n=8, restarts=0),
        dict(n=8, initial_temp=0.0),
        dict(n=8, cooling=0.0),
        dict(n=8, cooling=1.5),
        dict(n=8, global_move_prob=1.5),
        dict(n=8, coord_bound=2),
        dict(n=MAX_ANNEAL_N + 1),
    ):
        with pytest.raises(ValueError):
            AnnealConfig(**bad)


def test_minimize_is_deterministic():
    cfg = AnnealConfig(n=6, iterations=300, restarts=2, seed=5, coord_bound=50)
    r1 = minimize_pentagons(cfg)
    r2 = minimize_pentagons(cfg)
    assert r1 == r2
    assert isinstance(r1, SearchResult)


def test_minimize_reaches_zero_at_n8():
    cfg = AnnealConfig(n=8, iterations=20_000, restarts=2, seed=1, target=0)
    res = minimize_pentagons(cfg)
    assert res.best_pentagons == 0
    assert res.consistency == CONSISTENCY_OK
    assert res.iterations_used <= 40_000


def test_minimize_result_invariants():
    cfg = AnnealConfig(n=7, iterations=400, restarts=3, seed=9, coord_bound=300)
    res = minimize_pentagons(cfg)
    # the reported best always equals an independent full recount
    assert count5_naive(res.best_placement).pentagon == res.best_pentagons
    assert res.best_placement.n == 7
    bests = [b for (_, _, b) in res.trace]
    assert all(later < earlier for earlier, later in zip(bests, bests[1:]))
    assert bests[-1] == res.best_pentagons
    assert len(res.restart_bests) <= cfg.restarts
    assert min(res.restart_bests) == res.best_pentagons
    assert all(
        abs(x) <= cfg.coord_bound and abs(y) <= cfg.coord_bound
        for x, y in res.best_placement.points
    )


@pytest.mark.parametrize("n, iterations", [(7, 150), (30, 40)], ids=["n7", "n30"])
def test_minimize_with_recount_every_accepted_move(n, iterations):
    cfg = AnnealConfig(
        n=n, iterations=iterations, restarts=1, seed=3, coord_bound=200, recount_every=1
    )
    res = minimize_pentagons(cfg)
    assert count5_naive(res.best_placement).pentagon == res.best_pentagons


@pytest.mark.parametrize("n", [7, 12, 30], ids=["n7", "n12", "n30"])
def test_incidences_track_every_accepted_move(n):
    cfg = AnnealConfig(n=n, iterations=1, seed=5, coord_bound=200, recount_every=1)
    chain = _Chain(random_disc(n, seed=n, bound=200), np.random.default_rng(n), cfg)
    checked = 0
    for _ in range(60 if n == 30 else 300):
        before = chain.accepted
        chain.step()
        chain.cool()
        if chain.accepted == before:
            continue
        checked += 1
        fresh = _Chain(Placement(tuple(chain.points)), np.random.default_rng(0), cfg)
        assert np.array_equal(chain.incidences, fresh.incidences)
        assert fresh.current == chain.current
        assert int(chain.incidences.sum()) == 5 * chain.current
        if n <= 12:
            placement = Placement(tuple(chain.points))
            for v in range(n):
                assert chain.incidences[v] == delta_count5(placement, v).pentagon
    assert checked >= 3


def test_chain_rejects_inconsistent_incidences(monkeypatch):
    cfg = AnnealConfig(n=9, iterations=1, seed=1, coord_bound=200, recount_every=1)
    start = random_disc(9, seed=2, bound=200)
    chain = _Chain(start, np.random.default_rng(0), cfg)
    chain._verify_recount()
    # same sum, wrong split: only the comparison with a rebuild sees it
    chain.incidences[0] += 1
    chain.incidences[1] -= 1
    with pytest.raises(InconsistentCountsError):
        chain._verify_recount()

    def off_by_one(agg):
        counts = count5_from_regions(agg)
        return dataclasses.replace(counts, pentagon=counts.pentagon + 1)

    monkeypatch.setattr(search, "count5_from_regions", off_by_one)
    with pytest.raises(InconsistentCountsError):
        _Chain(start, np.random.default_rng(0), cfg)


@pytest.mark.parametrize(
    "n, iterations, seed, best, trace_len, last",
    [(18, 600, 11, 599, 51, (0, 556, 599)), (30, 120, 12, 24320, 47, (0, 117, 24320))],
    ids=["n18", "n30"],
)
def test_minimize_matches_pinned_results(n, iterations, seed, best, trace_len, last):
    # values of the two-evaluation annealer, which every later kernel must keep:
    # a changed accept/reject decision moves the random stream and the trace
    res = minimize_pentagons(AnnealConfig(n=n, iterations=iterations, restarts=1, seed=seed))
    assert res.best_pentagons == best and type(res.best_pentagons) is int
    assert len(res.trace) == trace_len
    assert res.trace[-1] == last


def test_step_rejects_degenerate_candidates(monkeypatch):
    cfg = AnnealConfig(n=8, iterations=1, seed=2, coord_bound=1000)
    chain = _Chain(random_disc(8, seed=6), np.random.default_rng(4), cfg)
    points = list(chain.points)
    signs = chain.signs.copy()
    before = (chain.current, chain.accepted)

    def other(u):
        return points[(u + 1) % len(points)]

    def collinear(u):
        a, b = points[(u + 1) % len(points)], points[(u + 2) % len(points)]
        return Point(2 * b[0] - a[0], 2 * b[1] - a[1])

    def own(u):
        return points[u]

    for propose in (other, collinear, own):
        monkeypatch.setattr(chain, "_propose_point", propose)
        chain.step()
        assert chain.points == points
        assert np.array_equal(chain.signs, signs)
        assert (chain.current, chain.accepted) == before


def test_known_minimum_table():
    assert KNOWN_MIN_PENTAGONS == {16: 112, 18: 252}
