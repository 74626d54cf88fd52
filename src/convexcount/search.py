"""Placement generators and a simulated-annealing pentagon minimizer.

The minimizer moves one point at a time.  A proposal costs one O(n^3)
kernel call that reads, for the moved point at its candidate and at its
current position together, which triples of fixed points it completes to a
tridot (a 4-subset with one point inside the triangle of the others).  An
identity over those triples, their pair counts and a per-chain table of how
many points complete each triple to a tridot gives the exact change in the
pentagon count; the kernel checks that its division by 48 is exact.  The
table is a dense int8 tensor in the layout of the orientation sign tensor,
and an accepted move updates both the same way, in O(n^3).  A chain holds
O(n^3) bytes, which bound the size together with the int8 entries:
``MAX_ANNEAL_N``.  Published exact minima act as tripwires: since 16-point
placements always contain at least 112 pentagons and 18-point placements at
least 252, any search result below those values proves a counting bug, so
the result carries a consistency flag and the periodic recounts, which
rebuild the count and the table from one pass over the triangles and the
sign tensor from its rows, raise on divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import ceil, exp, pi, sqrt
from typing import List, Optional, Tuple

import numpy as np

from . import _kernels
from .counting import (
    InconsistentCountsError,
    _aggregate,
    aggregate_regions,
    count5_from_regions,
)
from .geometry import (
    COORD_BOUND,
    ConvexCountError,
    Placement,
    Point,
    ValidationError,
    cross,
)


class GenerationError(ConvexCountError):
    """A generator could not produce a valid placement."""


class ExhaustedRejectionError(GenerationError):
    """Rejection sampling hit its attempt budget without finding a valid
    point (bounds too tight for the requested size)."""


# Proven minimum pentagon counts; a search result below these is a bug.
KNOWN_MIN_PENTAGONS = {16: 112, 18: 252}

# Largest annealed size, the largest at which the kernel's int8 pair counts
# and the int8 completion entries (both at most n - 3) cannot overflow; the
# kernel's int32 sum of tridot triples times completion entries is below
# n**3 * (n - 3) < 2**31.  A chain holds 2 * n**3 + 2 * n**2 bytes, 4.4 MB
# at n=130, and an evaluation allocates about 14 MB more; building the sign
# tensor adds O(n**2).  `minimize --n 130` peaks at 54 MB RSS, about 30 MB of
# it the interpreter and numpy.
MAX_ANNEAL_N = 130

# Annealing schedule: the starting temperature, its decay per proposal and
# the share of moves drawn from the full box rather than near the point.
INITIAL_TEMP = 3.0
COOLING = 0.9999
GLOBAL_MOVE_PROB = 0.5

# Every RECOUNT_EVERY accepted moves a chain rebuilds its count, completion
# table and sign tensor from scratch; each must match the tracked one exactly.
RECOUNT_EVERY = 5_000

CONSISTENCY_OK = "ok"
CONSISTENCY_VIOLATION = "violation"


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic placement recipe: kind, size, seed, coordinate bound."""

    kind: str
    n: int
    seed: int = 0
    coord_bound: int = COORD_BOUND

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(
                f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}"
            )
        if self.n < 3:
            raise ValueError(f"generators need n >= 3, got {self.n}")
        if not 3 <= self.coord_bound <= COORD_BOUND:
            raise ValueError(
                f"coord_bound must lie in [3, {COORD_BOUND}], got {self.coord_bound}"
            )


def _generate_parabola(spec: GeneratorSpec) -> Placement:
    top = (spec.n - 1) ** 2
    if top > spec.coord_bound:
        raise GenerationError(
            f"parabola needs (n-1)^2 <= coord_bound; {top} > {spec.coord_bound}"
        )
    return Placement(tuple(Point(i, i * i) for i in range(spec.n)))


def _generate_random_disc(spec: GeneratorSpec) -> Placement:
    rng = np.random.default_rng(spec.seed)
    radius = spec.coord_bound
    r2 = radius * radius
    # a probe against the first point alone cannot see a repeat of it
    taken = set()
    coords = np.empty((spec.n, 2), dtype=np.int64)
    attempts_left = 400 * spec.n + 2000
    m = 0
    while m < spec.n:
        if attempts_left == 0:
            raise ExhaustedRejectionError(
                f"could not place {spec.n} disc points within bound {radius}"
            )
        attempts_left -= 1
        x = int(rng.integers(-radius, radius + 1))
        y = int(rng.integers(-radius, radius + 1))
        if x * x + y * y > r2 or (x, y) in taken:
            continue
        # adding point m is moving it to (x, y) among the points before it
        coords[m] = (x, y)
        if _kernels.candidate_signs(coords[: m + 1], m, (x, y)) is None:
            continue
        taken.add((x, y))
        m += 1
    return Placement(tuple(Point(x, y) for x, y in coords.tolist()))


def _generate_convex(spec: GeneratorSpec) -> Placement:
    """Points on a circular arc, rounded to integers, resampled until the
    rounded polygon is strictly convex (which also forces general
    position)."""
    rng = np.random.default_rng(spec.seed)
    radius = spec.coord_bound
    n = spec.n
    for _ in range(200):
        jitter = rng.random(n) * 0.6
        angles = (np.arange(n) + jitter) * (2.0 * pi / n)
        xs = np.rint(radius * np.cos(angles)).astype(np.int64)
        ys = np.rint(radius * np.sin(angles)).astype(np.int64)
        pts = [Point(int(x), int(y)) for x, y in zip(xs, ys)]
        if len(set(pts)) != n:
            continue
        if all(cross(pts[i], pts[(i + 1) % n], pts[(i + 2) % n]) > 0 for i in range(n)):
            return Placement(tuple(pts))
    raise ExhaustedRejectionError(
        f"no strictly convex rounded {n}-gon found within bound {radius}"
    )


def _generate_grid_perturbed(spec: GeneratorSpec) -> Placement:
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    side = ceil(sqrt(n))
    spacing = max(4, (2 * spec.coord_bound) // (side + 1))
    jitter_max = max(1, spacing // 3)
    origin = -(spacing * (side - 1)) // 2
    cells = [(origin + col * spacing, origin + row * spacing)
             for row in range(side) for col in range(side)][:n]
    for _ in range(200):
        jit = rng.integers(-jitter_max, jitter_max + 1, size=(n, 2))
        pts = [Point(int(cx + jx), int(cy + jy))
               for (cx, cy), (jx, jy) in zip(cells, jit)]
        if any(abs(p.x) > spec.coord_bound or abs(p.y) > spec.coord_bound for p in pts):
            continue
        try:
            return Placement.from_points(pts)
        except ValidationError:
            continue
    raise ExhaustedRejectionError(
        f"no valid perturbed {side}x{side} grid found within bound {spec.coord_bound}"
    )


_GENERATORS = {
    "parabola": _generate_parabola,
    "random_disc": _generate_random_disc,
    "convex": _generate_convex,
    "grid_perturbed": _generate_grid_perturbed,
}
GENERATOR_KINDS = tuple(_GENERATORS)


def generate(spec: GeneratorSpec) -> Placement:
    """Produce a valid placement for the spec; deterministic in the seed."""
    return _GENERATORS[spec.kind](spec)


@dataclass(frozen=True)
class AnnealConfig:
    """Budget and schedule of the pentagon minimizer.

    Each restart runs `iterations` proposals from a fresh random placement;
    temperature starts at INITIAL_TEMP and each step cools it by COOLING.
    Moves resample one point: with probability GLOBAL_MOVE_PROB uniformly in
    the full box of half-side coord_bound, otherwise inside a box of
    half-side max(2, coord_bound // 8) around the current position.  Every
    RECOUNT_EVERY accepted moves the incrementally tracked count, completion
    table and sign tensor are rebuilt from scratch and must match exactly.
    A target stops the search early once reached, also by a chain start.
    n must lie in [5, MAX_ANNEAL_N]: a chain holds the n**3 sign tensor and
    the n**3 completion table (4.4 MB at n=130), and their int8 entries hold
    up to n=130.  Each proposal costs one O(n^3) kernel call for the
    candidate and the current position together; an accepted move adds an
    O(n^3) table update.
    """

    n: int
    iterations: int = 60_000
    restarts: int = 4
    seed: int = 0
    coord_bound: int = 10_000
    target: Optional[int] = None

    def __post_init__(self):
        if not 5 <= self.n <= MAX_ANNEAL_N:
            raise ValueError(
                f"minimization needs 5 <= n <= {MAX_ANNEAL_N}, got {self.n}"
            )
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if not 3 <= self.coord_bound <= COORD_BOUND:
            raise ValueError(f"coord_bound must lie in [3, {COORD_BOUND}]")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a minimization run.

    best_pentagons always equals a from-scratch recount of best_placement;
    trace records (restart, proposal index, new best) at every improvement;
    consistency is "violation" when the result undercuts a proven minimum.
    """

    best_placement: Placement
    best_pentagons: int
    iterations_used: int
    trace: Tuple[Tuple[int, int, int], ...]
    restart_bests: Tuple[int, ...]
    consistency: str


class _Chain:
    """One annealing chain over a fixed-size placement.

    Maintains the full orientation sign tensor of the current points and
    their completion table in the same dense (n, n, n) int8 layout: for
    every triple, in every order, the number of other points that complete
    it to a tridot, and 0 on repeated indices.  A proposal for point u makes
    one ``_kernels.pentagon_pair_delta`` call over the candidate and the
    current position together, which returns the exact delta.  An accepted
    move adds the change in the triples' tridots with u to the table (0 on
    the entries through u), then rewrites the table's three slices through
    u with the candidate's pair counts, as it rewrites the sign tensor's
    three slices with the candidate's pair signs.  Those signs come from
    ``_kernels.candidate_signs``, which rejects a candidate collinear with
    two fixed points or equal to one.  A ``step`` cools the temperature by
    COOLING itself, moved or not, after reading it for its Metropolis test.
    The chain start and every recount read the pentagon count and the
    completion table off one ``_kernels.triangle_regions`` pass and check
    them against each other; a recount also rebuilds the sign tensor.
    """

    def __init__(self, placement: Placement, rng: np.random.Generator, cfg: AnnealConfig):
        self.cfg = cfg
        self.rng = rng
        self.n = placement.n
        self.coords = np.array(placement.coords, dtype=np.int64)
        self.signs = _kernels.full_sign_tensor(self.coords)
        self.temp = INITIAL_TEMP
        self.accepted = 0
        # candidate (row 0) and current (row 1) pair signs of the moving point
        self._pairs = np.empty((2, self.n, self.n), dtype=np.int8)
        self.current, self.completion = self._recount()

    def _recount(self) -> Tuple[int, np.ndarray]:
        """A from-scratch pentagon count and completion table from one
        triangle pass, checked against each other."""
        table = np.zeros(self.signs.shape, dtype=np.int8)

        def chunks():
            for chunk in _kernels.triangle_regions(self.coords):
                i, (v2, v3, interior, beta, _) = chunk
                entries = interior + beta.sum(axis=0)
                for order in permutations((i, v2, v3)):
                    table[order] = entries
                yield chunk

        count = count5_from_regions(_aggregate(self.n, chunks())).pentagon
        from_table = _kernels.pentagons_from_completion(table)
        if from_table != count:
            raise InconsistentCountsError(
                f"completion table gives {from_table} pentagons, the region "
                f"counts {count}"
            )
        return count, table

    def _propose_point(self, u: int) -> Point:
        bound = self.cfg.coord_bound
        if self.rng.random() < GLOBAL_MOVE_PROB:
            x = int(self.rng.integers(-bound, bound + 1))
            y = int(self.rng.integers(-bound, bound + 1))
        else:
            px, py = self.coords[u].tolist()
            d = max(2, bound // 8)
            x = min(bound, max(-bound, px + int(self.rng.integers(-d, d + 1))))
            y = min(bound, max(-bound, py + int(self.rng.integers(-d, d + 1))))
        return Point(x, y)

    def step(self) -> None:
        temp = self.temp
        self.temp = temp * COOLING
        u = int(self.rng.integers(self.n))
        cand = self._propose_point(u)
        if cand == tuple(self.coords[u].tolist()):
            return
        pair_new = _kernels.candidate_signs(self.coords, u, cand)
        if pair_new is None:
            return
        self._pairs[0] = pair_new
        self._pairs[1] = self.signs[:, :, u]
        delta, t, te = _kernels.pentagon_pair_delta(self.signs, self._pairs, self.completion)
        if delta > 0:
            if temp <= 0 or self.rng.random() >= exp(-delta / temp):
                return
        self.completion += t[0] - t[1]
        self.completion[u, :, :] = te[0]
        self.completion[:, u, :] = te[0]
        self.completion[:, :, u] = te[0]
        self.signs[u, :, :] = pair_new
        self.signs[:, u, :] = -pair_new
        self.signs[:, :, u] = pair_new
        self.coords[u] = cand
        self.current += delta
        self.accepted += 1
        if self.accepted % RECOUNT_EVERY == 0:
            self._verify_recount()

    def _verify_recount(self) -> None:
        fresh, table = self._recount()
        if fresh != self.current:
            raise InconsistentCountsError(
                f"incremental pentagon count {self.current} diverged from "
                f"recount {fresh} after {self.accepted} accepted moves"
            )
        if not np.array_equal(table, self.completion):
            raise InconsistentCountsError(
                f"tracked completion table diverged from a rebuild after "
                f"{self.accepted} accepted moves"
            )
        if not np.array_equal(self.signs, _kernels.full_sign_tensor(self.coords)):
            raise InconsistentCountsError(
                f"tracked sign tensor diverged from a rebuild after "
                f"{self.accepted} accepted moves"
            )


def minimize_pentagons(cfg: AnnealConfig) -> SearchResult:
    """Simulated annealing over single-point moves, minimizing the pentagon
    count.  Deterministic in the config; restarts merge by best count with
    earlier restarts winning ties."""
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.restarts)

    best_coords: Optional[np.ndarray] = None
    best = -1
    trace: List[Tuple[int, int, int]] = []
    restart_bests: List[int] = []
    used = 0
    done = False

    for r, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        init_seed = int(rng.integers(2**63))
        start = generate(
            GeneratorSpec("random_disc", cfg.n, seed=init_seed, coord_bound=cfg.coord_bound)
        )
        chain = _Chain(start, rng, cfg)
        restart_best = chain.current
        if best_coords is None or chain.current < best:
            best = chain.current
            best_coords = chain.coords.copy()
            trace.append((r, 0, best))
            done = cfg.target is not None and best <= cfg.target
        for it in range(cfg.iterations):
            if done:
                break
            chain.step()
            used += 1
            if chain.current < restart_best:
                restart_best = chain.current
            if chain.current < best:
                best = chain.current
                best_coords = chain.coords.copy()
                trace.append((r, it + 1, best))
                done = cfg.target is not None and best <= cfg.target
        restart_bests.append(restart_best)
        if done:
            break

    assert best_coords is not None
    final = Placement.from_points(best_coords.tolist())
    recount = count5_from_regions(aggregate_regions(final)).pentagon
    if recount != best:
        raise InconsistentCountsError(
            f"final recount {recount} does not match tracked best {best}"
        )
    floor = KNOWN_MIN_PENTAGONS.get(cfg.n)
    consistency = (
        CONSISTENCY_VIOLATION if floor is not None and best < floor else CONSISTENCY_OK
    )
    return SearchResult(
        best_placement=final,
        best_pentagons=best,
        iterations_used=used,
        trace=tuple(trace),
        restart_bests=tuple(restart_bests),
        consistency=consistency,
    )
