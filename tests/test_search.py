import dataclasses
import hashlib
import tracemalloc
from itertools import combinations, permutations, product
from math import exp

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexcount import (
    COORD_BOUND,
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
    canonical_triangle,
    count5_naive,
    cross,
    generate,
    minimize_pentagons,
    orientation,
    region_counts,
)
from convexcount import _kernels, search
from convexcount.geometry import dumps_placement, find_violation
from convexcount.search import CONSISTENCY_OK, KNOWN_MIN_PENTAGONS, MAX_ANNEAL_N, _Chain

from conftest import completion_table, coord, delta_count5, hull_size, random_disc


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


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _generated(spec):
    """The spec's placement file, or its generation error."""
    try:
        return dumps_placement(generate(spec))
    except GenerationError as exc:
        return f"{type(exc).__name__}: {exc}\n"


PINNED_GENERATORS = {
    "parabola": "f5b3957d445e6eee",
    "random_disc": "be88ca265196aac9",
    "convex": "a756bc2148a94891",
    "grid_perturbed": "7f012dcb703374f7",
}


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generators_match_pinned_output(kind):
    # every benchmark input and every chain start comes from `generate`, so a
    # change to a generator's random stream or rejection rule shows here;
    # the tight bounds make each kind exhaust its attempts on some specs
    text = "".join(
        _generated(GeneratorSpec(kind, n, seed=seed, coord_bound=bound))
        for n in (3, 4, 5, 9, 17, 40)
        for seed in (0, 1, 2)
        for bound in (3, 30, 1000, 10**7)
    )
    assert _digest(text) == PINNED_GENERATORS[kind]


def test_random_disc_matches_pinned_large_input():
    # the benchmark's large_n200 placement
    spec = GeneratorSpec("random_disc", 200, seed=1211, coord_bound=10**6)
    assert _digest(_generated(spec)) == "d098e8849d2a04f7"


def test_random_disc_rejects_a_repeated_draw():
    # the second draw inside the disc repeats the first point, (1, 2); a
    # probe against one placed point cannot see that, only the `taken` set
    p = generate(GeneratorSpec("random_disc", 5, seed=9, coord_bound=3))
    assert p.points == ((1, 2), (2, 0), (-2, 2), (1, 0), (2, 1))


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("spiral", 8)
    with pytest.raises(ValueError):
        GeneratorSpec("parabola", 2)
    with pytest.raises(ValueError):
        GeneratorSpec("parabola", 8, coord_bound=2)
    with pytest.raises(ValueError):
        GeneratorSpec("parabola", 8, coord_bound=10_000_001)


def _kernel_inputs(p, u, cand):
    """(signs3, pairs, completion) of the kernel for moving point u of p to
    cand, all built fresh."""
    coords = np.array(p.coords, dtype=np.int64)
    signs = _kernels.full_sign_tensor(coords)
    pairs = np.stack((_kernels.candidate_signs(coords, u, cand), signs[:, :, u]))
    return signs, pairs, completion_table(coords)


def _kernel_delta(p, u, cand):
    delta, t, te = _kernels.pentagon_pair_delta(*_kernel_inputs(p, u, cand))
    assert type(delta) is int
    assert t.shape == (2, p.n, p.n, p.n) and t.dtype == np.int8
    assert te.shape == (2, p.n, p.n)
    return delta


def _moved(p, u, cand):
    pts = list(p.points)
    pts[u] = cand
    return Placement.from_points(pts)


def _naive_delta(p, u, cand):
    return delta_count5(_moved(p, u, cand), u).pentagon - delta_count5(p, u).pentagon


def test_pentagon_pair_delta_matches_naive_delta():
    p = random_disc(10, seed=3)
    targets = random_disc(10, seed=4).points
    checked = 0
    for u in range(p.n):
        cand = targets[u]
        if find_violation(p.points[:u] + (cand,) + p.points[u + 1:]) is not None:
            continue
        assert _kernel_delta(p, u, cand) == _naive_delta(p, u, cand)
        checked += 1
    assert checked >= 8


def test_pentagon_pair_delta_after_move():
    p = random_disc(9, seed=8, bound=100)
    u = 4
    new_pt = (37, -61)
    moved = _moved(p, u, new_pt)
    assert _kernel_delta(p, u, new_pt) == _naive_delta(p, u, new_pt)
    # and back: the moved placement's own table and tensor give the opposite
    back = _kernel_delta(moved, u, p.points[u])
    assert back == _naive_delta(moved, u, p.points[u]) == -_naive_delta(p, u, new_pt)


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
    moved_pts = list(pts)
    moved_pts[u] = cand
    # the annealer's probe: it rejects exactly the invalid moves
    degenerate = _kernels.candidate_signs(p.coords, u, cand) is None
    assert degenerate == (find_violation(moved_pts) is not None)
    assume(not degenerate)
    assert _kernel_delta(p, u, cand) == _naive_delta(p, u, cand)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(coord, coord), min_size=2, max_size=7, unique=True),
    st.tuples(coord, coord),
    st.data(),
)
def test_candidate_signs_contract(others, stale, data):
    # the other points are in general position; u's stale position may repeat
    # one of them or line up with two, since the probe never reads it
    assume(len(others) < 3 or find_violation(others) is None)
    u = data.draw(st.integers(0, len(others)))
    q = data.draw(st.one_of(st.tuples(coord, coord), st.sampled_from(others)))
    coords = np.array(others[:u] + [stale] + others[u:], dtype=np.int64)
    moved = others[:u] + [q] + others[u:]
    signs = _kernels.candidate_signs(coords, u, q)
    assert (signs is None) == (find_violation(moved) is not None)
    if signs is not None:
        expected = _kernels.pair_sign_matrix(coords, q)
        expected[u, :] = 0
        expected[:, u] = 0
        assert signs.dtype == np.int8 and np.array_equal(signs, expected)


def test_pentagon_pair_delta_rejects_corrupt_completion():
    p = random_disc(9, seed=8, bound=100)
    signs, pairs, completion = _kernel_inputs(p, 4, (37, -61))
    _, t, _ = _kernels.pentagon_pair_delta(signs, pairs, completion)
    # one entry off by one, in one order of a triple whose tridot with the
    # moving point changes, moves 48 * delta by 2
    changed = np.argwhere(t[0] != t[1])
    assert changed.size
    completion[tuple(changed[0])] += 1
    with pytest.raises(InconsistentCountsError):
        _kernels.pentagon_pair_delta(signs, pairs, completion)


def test_pentagon_pair_delta_int8_bounds():
    # every product of four signs (a 0 stands for a repeated index or the
    # moving point's own) stays in int8 and is -1, the tridot test, only
    # when no factor is 0
    signs = np.array([-1, 0, 1], dtype=np.int8)
    factors = np.stack(np.meshgrid(signs, signs, signs, signs)).reshape(4, -1)
    prod = factors[0] * factors[1] * factors[2] * factors[3]
    assert prod.dtype == np.int8
    assert set(prod.tolist()) == {-1, 0, 1}
    assert not prod[(factors == 0).any(axis=0)].any()
    # te and the completion entries count at most n - 3 points, in int8
    signs, pairs, completion = _kernel_inputs(random_disc(8, seed=1), 0, (3, 5))
    _, _, te = _kernels.pentagon_pair_delta(signs, pairs, completion)
    assert te.max() <= 8 - 3 and completion.max() <= 8 - 3
    assert MAX_ANNEAL_N - 3 <= np.iinfo(te.dtype).max
    assert MAX_ANNEAL_N - 3 <= np.iinfo(completion.dtype).max
    # the int32 sum of indicator times completion entry over n**3 orders
    assert MAX_ANNEAL_N**3 * (MAX_ANNEAL_N - 3) <= np.iinfo(np.int32).max


def _chain_bytes(n):
    # sign tensor, completion table, pair buffer
    return 2 * n**3 + 2 * n * n


def test_chain_index_bytes():
    cfg = AnnealConfig(n=5, iterations=1, coord_bound=200)
    for n in (5, 9, 14):
        chain = _Chain(random_disc(n, seed=n, bound=200), np.random.default_rng(0), cfg)
        held = (chain.signs, chain.completion, chain._pairs)
        assert sum(a.nbytes for a in held) == _chain_bytes(n)
    # the size limit's stated cost, 4.4 MB
    assert _chain_bytes(MAX_ANNEAL_N) <= 4.5e6


def _sign(p, q, r):
    """The Python-int orientation, 0 for a repeated or collinear triple."""
    return orientation(p, q, r) if cross(p, q, r) else 0


def test_sign_kernels_exact_at_coordinate_bound():
    b = COORD_BOUND
    pts = [(-b, -b), (b, -b), (b, b), (-b, b), (b - 1, b), (-b, b - 1), (0, -b), (1, b)]
    coords = np.array(pts, dtype=np.int64)
    signs = _kernels.full_sign_tensor(coords)
    for i, j, k in product(range(len(pts)), repeat=3):
        assert signs[i, j, k] == _sign(pts[i], pts[j], pts[k])
    for q in pts + [(0, 0), (b, 0), (-b, 1)]:
        pairs = _kernels.pair_sign_matrix(coords, q)
        for i, j in product(range(len(pts)), repeat=2):
            assert pairs[i, j] == _sign(pts[i], pts[j], q)
    # the corner triangles reach the largest cross product, (2 * bound)**2;
    # each of its two int64 products is at most that, so their difference
    # stays below 8 * 10**14 < 2**63
    assert max(abs(cross(p, q, r)) for p, q, r in product(pts, repeat=3)) == (2 * b) ** 2
    assert 2 * (2 * b) ** 2 == 8 * 10**14 < 2**63


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=8))
def test_full_sign_tensor_matches_python_orientation(pts):
    # repeated points and collinear triples are frequent in `coord`
    signs = _kernels.full_sign_tensor(np.array(pts, dtype=np.int64))
    assert signs.shape == (len(pts),) * 3 and signs.dtype == np.int8
    for i, j, k in product(range(len(pts)), repeat=3):
        assert signs[i, j, k] == _sign(pts[i], pts[j], pts[k])


def test_full_sign_tensor_keeps_only_square_temporaries():
    # the n**3 int8 result plus O(n**2) per row; one (n, n, n) int64
    # temporary alone would be 8 * n**3 bytes
    n = 40
    coords = np.array(random_disc(n, seed=1).coords)
    tracemalloc.start()
    try:
        _kernels.full_sign_tensor(coords)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n**3 + 64 * n**2


def test_anneal_config_validation():
    for bad in (
        dict(n=4),
        dict(n=8, iterations=0),
        dict(n=8, restarts=0),
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


def test_target_met_by_a_chain_start_stops_the_search():
    res = minimize_pentagons(AnnealConfig(n=5, iterations=300, restarts=3, seed=0, target=0))
    assert res.trace == ((0, 0, 0),)
    assert res.iterations_used == 0
    assert res.restart_bests == (0,)


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
def test_minimize_with_recount_every_accepted_move(n, iterations, monkeypatch):
    monkeypatch.setattr(search, "RECOUNT_EVERY", 1)
    cfg = AnnealConfig(n=n, iterations=iterations, restarts=1, seed=3, coord_bound=200)
    res = minimize_pentagons(cfg)
    assert count5_naive(res.best_placement).pentagon == res.best_pentagons


@pytest.mark.parametrize("n", [7, 12, 30], ids=["n7", "n12", "n30"])
def test_completion_table_tracks_every_accepted_move(n, monkeypatch):
    monkeypatch.setattr(search, "RECOUNT_EVERY", 1)
    cfg = AnnealConfig(n=n, iterations=1, seed=5, coord_bound=200)
    chain = _Chain(random_disc(n, seed=n, bound=200), np.random.default_rng(n), cfg)
    checked = 0
    for _ in range(60 if n == 30 else 300):
        before = chain.accepted
        chain.step()
        if chain.accepted == before:
            continue
        checked += 1
        table = chain.completion
        # the same in all six orders of a triple, 0 on every repeated index
        for axes in permutations(range(3)):
            assert np.array_equal(table, table.transpose(axes))
        i = np.arange(n)
        assert not (table[i, i, :].any() or table[i, :, i].any() or table[:, i, i].any())
        placement = Placement(tuple(Point(x, y) for x, y in chain.coords.tolist()))
        fresh = _Chain(placement, np.random.default_rng(0), cfg)
        assert np.array_equal(table, fresh.completion)
        assert fresh.current == chain.current
        assert np.array_equal(chain.signs, fresh.signs)
        if n <= 12:
            # the pure-Python oracle: inside the triangle or beyond a corner
            for triple in combinations(range(n), 3):
                counts = region_counts(placement, canonical_triangle(placement, *triple))
                for order in permutations(triple):
                    assert table[order] == counts.interior + counts.beta_total
    assert checked >= 3


def test_chain_start_and_recount_make_one_pass(monkeypatch):
    built = []
    rank_tables = _kernels.rank_tables

    def counted(coords):
        built.append(coords.shape[0])
        return rank_tables(coords)

    monkeypatch.setattr(_kernels, "rank_tables", counted)
    cfg = AnnealConfig(n=9, iterations=1, seed=1, coord_bound=200)
    chain = _Chain(random_disc(9, seed=2, bound=200), np.random.default_rng(0), cfg)
    assert built == [9]
    chain._verify_recount()
    assert built == [9, 9]


def test_chain_rejects_inconsistent_incidences(monkeypatch):
    cfg = AnnealConfig(n=9, iterations=1, seed=1, coord_bound=200)
    start = random_disc(9, seed=2, bound=200)
    chain = _Chain(start, np.random.default_rng(0), cfg)
    chain._verify_recount()
    chain.current += 1
    with pytest.raises(InconsistentCountsError, match="diverged from recount"):
        chain._verify_recount()
    chain.current -= 1
    # two completion entries off in opposite directions: the table's sum holds
    chain.completion[0, 1, 2] += 1
    chain.completion[0, 1, 3] -= 1
    with pytest.raises(InconsistentCountsError):
        chain._verify_recount()
    chain.completion[0, 1, 2] -= 1
    chain.completion[0, 1, 3] += 1
    chain._verify_recount()
    # one flipped sign, which the count and the table never read
    chain.signs[0, 1, 2] *= -1
    with pytest.raises(InconsistentCountsError, match="sign tensor"):
        chain._verify_recount()

    def off_by_one(agg):
        counts = count5_from_regions(agg)
        return dataclasses.replace(counts, pentagon=counts.pentagon + 1)

    monkeypatch.setattr(search, "count5_from_regions", off_by_one)
    with pytest.raises(InconsistentCountsError):
        _Chain(start, np.random.default_rng(0), cfg)


def test_minimize_refuses_a_best_the_final_recount_contradicts(monkeypatch):
    # every tracked delta one too low: the final recount of the best placement
    # disagrees with the tracked best
    pentagon_pair_delta = _kernels.pentagon_pair_delta

    def one_low(*args):
        delta, t, te = pentagon_pair_delta(*args)
        return delta - 1, t, te

    monkeypatch.setattr(_kernels, "pentagon_pair_delta", one_low)
    with pytest.raises(InconsistentCountsError, match="does not match tracked best"):
        minimize_pentagons(AnnealConfig(n=9, iterations=200, restarts=1))


def _result_digest(res):
    """A digest of every field of a SearchResult."""
    rest = (res.best_pentagons, res.iterations_used, res.trace, res.restart_bests,
            res.consistency)
    return _digest(dumps_placement(res.best_placement) + repr(rest))


@pytest.mark.parametrize(
    "n, iterations, seed, best, trace_len, last, digest",
    [
        (18, 600, 11, 599, 51, (0, 556, 599), "58e427e00ca75e89"),
        (30, 120, 12, 24320, 47, (0, 117, 24320), "2c10a385567b29a7"),
    ],
    ids=["n18", "n30"],
)
def test_minimize_matches_pinned_results(n, iterations, seed, best, trace_len, last, digest):
    # values of the two-evaluation annealer, which every later kernel must keep:
    # a changed accept/reject decision moves the random stream and the trace
    res = minimize_pentagons(AnnealConfig(n=n, iterations=iterations, restarts=1, seed=seed))
    assert res.best_pentagons == best and type(res.best_pentagons) is int
    assert len(res.trace) == trace_len
    assert res.trace[-1] == last
    assert _result_digest(res) == digest


def test_minimize_matches_pinned_result_in_a_small_box():
    # in a box of half-side 8 about half the candidates are collinear with
    # two points or repeat one, and the best count still falls near the end
    # of the run, so the result pins which moves the probe rejects
    res = minimize_pentagons(AnnealConfig(n=12, iterations=300, restarts=2, seed=5, coord_bound=8))
    assert _result_digest(res) == "a6e76e90e9a288dc"


def test_step_rejects_degenerate_candidates(monkeypatch):
    cfg = AnnealConfig(n=8, iterations=1, seed=2, coord_bound=1000)
    chain = _Chain(random_disc(8, seed=6), np.random.default_rng(4), cfg)
    coords = chain.coords.copy()
    points = [Point(x, y) for x, y in coords.tolist()]
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
        temp = chain.temp
        chain.step()
        # a rejected proposal still cools the chain
        assert chain.temp == temp * search.COOLING
        assert np.array_equal(chain.coords, coords)
        assert np.array_equal(chain.signs, signs)
        assert (chain.current, chain.accepted) == before


def test_known_minimum_table():
    assert KNOWN_MIN_PENTAGONS == {16: 112, 18: 252}


class _Draws:
    """A stand-in for a chain's rng: every index draw names point u and every
    uniform draw returns `uniform`."""

    def __init__(self, u, uniform):
        self.u, self.uniform = u, uniform

    def integers(self, n):
        return self.u

    def random(self):
        return self.uniform


def test_step_tests_uphill_moves_before_cooling(monkeypatch):
    cfg = AnnealConfig(n=8, iterations=1, seed=2, coord_bound=1000)
    p = random_disc(8, seed=6)
    u, before = 0, count5_naive(p).pentagon

    def uphill():
        for x, y in product(range(-900, 901, 300), repeat=2):
            moved = p.points[:u] + (Point(x, y),) + p.points[u + 1:]
            if find_violation(moved) is None:
                delta = count5_naive(Placement(moved)).pentagon - before
                if delta > 0:
                    return Point(x, y), delta

    cand, delta = uphill()
    temp = 1.0
    # the first draw is the acceptance bound at temp, the second lies between
    # it and the bound at the cooled temperature
    at_temp = exp(-delta / temp)
    between = (at_temp + exp(-delta / (temp * search.COOLING))) / 2
    for uniform, accepted in ((at_temp, 0), (between, 1)):
        chain = _Chain(p, _Draws(u, uniform), cfg)
        chain.temp = temp
        monkeypatch.setattr(chain, "_propose_point", lambda u: cand)
        chain.step()
        assert chain.accepted == accepted
        assert chain.current == before + accepted * delta
        assert chain.temp == temp * search.COOLING
