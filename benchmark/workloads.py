"""The benchmark's workloads: inputs made from a seed, expected values, the
timed operations, and the checks applied to their outputs.

Importing this module imports convexcount, so the set-up timing in run.py
imports it only after its clock has started.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import comb, gcd
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

import convexcount
from convexcount import cli
from convexcount.counting import (
    aggregate_regions,
    count4_from_regions,
    count4_naive,
    count5_from_regions,
    count5_naive,
)
from convexcount.geometry import save_placement
from convexcount.identities import verify_identities
from convexcount.search import AnnealConfig, GeneratorSpec, generate, minimize_pentagons

# Proven minimum pentagon counts (the annealer must never go below them).
PENTAGON_FLOOR = {16: 112, 18: 252}
# Expected counts come from the naive subset enumerators up to this size.
NAIVE_MAX_N = 20

GENERATOR_KINDS = ("parabola", "random_disc", "convex", "grid_perturbed")
CORPUS_BOUNDS = (10_000, 1_000_000, 10_000_000)
SMALL_COMMANDS = (
    ("count", "--engine", "auto", "--format", "json"),
    ("verify", "--format", "json"),
    ("bound", "--format", "json"),
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, TINY is the self-test."""

    large_n: int = 200
    large_warmup_n: int = 80
    corpus_size: int = 105
    corpus_n: Tuple[int, int] = (6, 40)
    # One annealer operation runs each (n, iterations) in turn; the two
    # halves take about the same time.
    anneal_iterations: Tuple[Tuple[int, int], ...] = ((18, 2800), (30, 420))
    warmup_iterations: int = 50


TINY = Sizes(large_n=24, large_warmup_n=12, corpus_size=9, corpus_n=(6, 14),
             anneal_iterations=((18, 40), (30, 10)), warmup_iterations=5)


@dataclass(frozen=True)
class Expected:
    """Counts every output on one placement must report."""

    n: int
    quad: int
    tridot: int
    pentagon: int
    four_hull: int
    three_hull: int
    source: str


@dataclass
class Workload:
    """A named, cyclic sequence of operations.

    op(i) returns the thunk the timed loop calls; check(i, result) returns
    None or a failure message; proposals(result) counts annealer proposals.
    The i-th operation repeats every `cycle` indices; every `window`
    consecutive operations carry the same mix of work.
    """

    name: str
    span: str
    cycle: int
    window: int
    op: Callable[[int], Callable[[], object]]
    check: Callable[[int, object], Optional[str]]
    proposals: Callable[[object], int]
    warmup: List[Callable[[], object]] = field(default_factory=list)
    expected: list = field(default_factory=list)


def pair_split_quads(coords) -> int:
    """Convex quadrilaterals counted by pairs, independently of both engines:
    quad = 3*C(n,4) - sum over pairs a<b of L_ab * (n-2-L_ab), where L_ab is
    the number of points strictly left of the line a->b."""
    c = np.asarray(coords, dtype=np.int64)
    n = len(c)
    split = 0
    for a in range(n - 1):
        d = c - c[a]
        cross = d[a + 1:, 0][:, None] * d[None, :, 1] - d[a + 1:, 1][:, None] * d[None, :, 0]
        left = (cross > 0).sum(axis=1)
        split += int((left * (n - 2 - left)).sum())
    return 3 * comb(n, 4) - split


def expected_counts(placement) -> Expected:
    """Naive-engine counts where affordable, else region-engine counts with
    E1-E15 passing; the quad count must also match the pair split."""
    n = placement.n
    if n <= NAIVE_MAX_N:
        t4, t5, source = count4_naive(placement), count5_naive(placement), "naive"
    else:
        agg = aggregate_regions(placement)
        t4, t5 = count4_from_regions(agg), count5_from_regions(agg)
        if not verify_identities(agg, t4, t5).all_pass:
            raise ValueError(f"n={n}: identities E1-E15 do not all pass")
        source = "regions+E1-E15"
    quads = pair_split_quads(placement.coords)
    if t4.quad != quads:
        raise ValueError(f"n={n}: {source} quad {t4.quad} != pair split {quads}")
    return Expected(n, t4.quad, t4.tridot, t5.pentagon, t5.four_hull, t5.three_hull, source)


def corpus_stride(span: int) -> int:
    return next(s for s in range(span * 5 // 6, 0, -1) if gcd(s, span) == 1)


def large_placement(n: int, seed: int):
    return generate(GeneratorSpec("random_disc", n, seed=seed + 1000 + n,
                                  coord_bound=1_000_000))


def make_placements(name: str, seed: int, sizes: Sizes):
    """The placements of a request workload; deterministic in the seed."""
    if name == "large_n200":
        return [large_placement(sizes.large_n, seed)]
    # Sizes, kinds and bounds follow a fixed schedule so that every seed costs
    # the same work; the seed moves the points.  The corpus is a whole number
    # of blocks of `span` placements, each block the same schedule: stepping
    # n by a stride coprime to the size range puts every size once into each
    # block, so a run that stops mid-pass sees the same mix.
    rng = random.Random(f"{name}:{seed}")
    low, high = sizes.corpus_n
    span = high - low + 1
    if sizes.corpus_size % span:
        raise ValueError(f"corpus size {sizes.corpus_size} is not a multiple of {span} sizes")
    stride = corpus_stride(span)
    placements = []
    for i in range(sizes.corpus_size):
        j = i % span
        spec = GeneratorSpec(GENERATOR_KINDS[j % len(GENERATOR_KINDS)],
                             low + (j * stride) % span,
                             seed=rng.randrange(2**32),
                             coord_bound=CORPUS_BOUNDS[j % len(CORPUS_BOUNDS)])
        placements.append(generate(spec))
    return placements


def expected_values(name: str, seed: int, sizes: Sizes) -> list:
    """The expected counts of each placement of a request workload, as JSON
    values: a dict of Expected's fields, or the message of why there are none."""
    values = []
    for placement in make_placements(name, seed, sizes):
        try:
            values.append(asdict(expected_counts(placement)))
        except (ValueError, convexcount.ConvexCountError) as exc:
            values.append(f"{type(exc).__name__}: {exc}")
    return values


def write_placements(placements, out_dir: Path) -> List[str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, placement in enumerate(placements):
        path = out_dir / f"p{i:03d}_n{placement.n}.txt"
        with open(path, "w", encoding="ascii") as fh:
            save_placement(placement, fh)
        paths.append(str(path))
    return paths


def anneal_configs(name: str, seed: int, i: int, sizes: Sizes, iterations=None):
    """The annealer runs of operation i, one per size; `iterations`
    overrides the sizes' counts (the warm-up)."""
    return [AnnealConfig(n=n, restarts=1, iterations=iterations or count,
                         seed=random.Random(f"{name}:{seed}:{i}:{n}").randrange(2**32))
            for n, count in sizes.anneal_iterations]


def setup(name: str, seed: int, sizes: Sizes, out_dir: Path):
    """Make and write a workload's inputs (the timed set-up).  The large
    workload also writes a smaller placement for its warm-up request."""
    if name == "anneal":
        return anneal_configs(name, seed, -1, sizes, sizes.warmup_iterations)
    paths = write_placements(make_placements(name, seed, sizes), out_dir)
    if name == "large_n200":
        warm = large_placement(sizes.large_warmup_n, seed)
        paths.append(write_placements([warm], out_dir / "warmup")[0])
    return paths


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_report(result, command: str, exp) -> Optional[str]:
    if isinstance(exp, str):
        return f"no expected values: {exp}"
    if isinstance(result, BaseException):
        return f"raised {result!r}"
    code, out, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    n = exp.n
    triangles = comb(n, 3)
    want = {
        "n": n,
        "counts4": {"quad": str(exp.quad), "tridot": str(exp.tridot)},
        "counts5": {"pentagon": str(exp.pentagon), "four_hull": str(exp.four_hull),
                    "three_hull": str(exp.three_hull)},
        "mean_beta": str(Fraction(3 * exp.tridot, triangles)),
        "mean_gamma": str(Fraction(4 * exp.quad, triangles)),
        "x_p": str(Fraction(960 * exp.pentagon, n**3)),
    }
    stats = report.get("stats") or {}
    got = {
        "n": report.get("n"),
        "counts4": report.get("counts4"),
        "counts5": report.get("counts5"),
        "mean_beta": (stats.get("mean_beta") or {}).get("exact"),
        "mean_gamma": (stats.get("mean_gamma") or {}).get("exact"),
        "x_p": (stats.get("x_p") or {}).get("exact"),
    }
    for key, value in want.items():
        if got[key] != value:
            return f"{command}: {key} is {got[key]!r}, expected {value!r}"
    if command == "verify":
        ident = report.get("identities") or {}
        checks = ident.get("checks") or []
        if ident.get("all_pass") is not True or len(checks) < 15 or not all(
                c.get("pass") for c in checks):
            return "verify: identities do not all pass"
    if command == "bound":
        if (report.get("bound") or {}).get("pentagon") != str(exp.pentagon):
            return "bound: pentagon differs from the expected count"
    return None


def request_workload(name: str, paths: List[str], sizes: Sizes, values: list) -> Workload:
    expected = [Expected(**v) if isinstance(v, dict) else v for v in values]
    if name == "large_n200":
        # The warm-up request runs the gather on chunks of the same shape as
        # the timed ones, at about 2% of their cost.
        *paths, warm_path = paths
        commands = (("verify", "--format", "json"),)
    else:
        commands = SMALL_COMMANDS
    argvs = [(cmd[0], path, *cmd[1:]) for path in paths for cmd in commands]

    def op(i):
        argv = argvs[i % len(argvs)]
        return lambda: run_cli(argv)

    def check(i, result):
        k = i % len(argvs)
        return check_report(result, argvs[k][0], expected[k // len(commands)])

    if name == "large_n200":
        warmup, window = [lambda: run_cli(("verify", warm_path, "--format", "json"))], 1
    else:
        warmup = [op(i) for i in range(len(commands))]
        window = len(commands) * (sizes.corpus_n[1] - sizes.corpus_n[0] + 1)
    return Workload(name, "cli.request", len(argvs), window, op, check, lambda r: 0,
                    warmup, expected)


def check_anneal(cfg, result) -> Optional[str]:
    n, iterations = cfg.n, cfg.iterations
    if result.consistency != "ok":
        return f"n={n}: consistency is {result.consistency!r}"
    floor = PENTAGON_FLOOR.get(n)
    if floor is not None and result.best_pentagons < floor:
        return f"n={n}: {result.best_pentagons} pentagons is below the proven floor {floor}"
    if result.iterations_used != iterations:
        return f"n={n}: {result.iterations_used} proposals, expected {iterations}"
    if result.best_placement.n != n:
        return f"n={n}: best placement has {result.best_placement.n} points"
    recount = count5_naive(result.best_placement).pentagon
    if recount != result.best_pentagons:
        return f"n={n}: best_pentagons {result.best_pentagons} != naive recount {recount}"
    return None


def anneal_workload(name: str, seed: int, sizes: Sizes, warm_cfgs) -> Workload:
    """One operation is one annealer run at each size in turn: n=18 below
    the n <= 26 quad-index cache cutoff, n=30 above it."""

    def op(i):
        cfgs = anneal_configs(name, seed, i, sizes)
        return lambda: [minimize_pentagons(cfg) for cfg in cfgs]

    def check(i, result):
        if isinstance(result, BaseException):
            return f"raised {result!r}"
        for cfg, one in zip(anneal_configs(name, seed, i, sizes), result):
            msg = check_anneal(cfg, one)
            if msg is not None:
                return msg
        return None

    def proposals(result):
        return 0 if isinstance(result, BaseException) else sum(r.iterations_used for r in result)

    return Workload(name, "search.minimize", 1, 1, op, check, proposals,
                    [lambda: [minimize_pentagons(cfg) for cfg in warm_cfgs]])


def build(name: str, seed: int, sizes: Sizes, inputs, values: list) -> Workload:
    """The workload; `values` are expected_values() of a request workload."""
    if name == "anneal":
        return anneal_workload(name, seed, sizes, inputs)
    return request_workload(name, inputs, sizes, values)
