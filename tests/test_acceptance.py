"""Whole-package acceptance checks, one test per numbered criterion.

Run with -v: each test name is its pass/fail line.  Detail lines are printed
and appear with -s or on failure.  All counts are exact; tolerances appear
only where a float is compared against a quoted decimal.
"""

import time
from fractions import Fraction
from math import comb, sqrt

import pytest

from convexcount import (
    AnnealConfig,
    C5_LOWER_CONST,
    MU5_COEFF,
    aggregate_regions,
    bound_report,
    count4_from_regions,
    count4_naive,
    count5_from_regions,
    count5_naive,
    minimize_pentagons,
    region_table,
    stats,
    supersaturation_bound,
    supersaturation_limit,
    verify_identities,
)
from convexcount.search import CONSISTENCY_OK

from conftest import parabola, random_disc

RANDOM_CASES = 500
PARABOLA_RANGE = range(5, 41)


def _evaluate(placement):
    agg = aggregate_regions(placement)
    return (
        placement,
        agg,
        count4_naive(placement),
        count5_naive(placement),
        count4_from_regions(agg),
        count5_from_regions(agg),
    )


@pytest.fixture(scope="module")
def corpus():
    t0 = time.perf_counter()
    random_part = [
        _evaluate(random_disc(5 + i % 8, seed=i)) for i in range(RANDOM_CASES)
    ]
    parabola_part = [_evaluate(parabola(n)) for n in PARABOLA_RANGE]
    elapsed = time.perf_counter() - t0
    return {"random": random_part, "parabola": parabola_part, "elapsed": elapsed}


def test_c1_both_engines_agree_on_500_random_and_parabola_family(corpus):
    rows = corpus["random"] + corpus["parabola"]
    for p, _, t4n, t5n, t4r, t5r in rows:
        assert t4r == t4n, f"4-subset counts disagree at n={p.n}: {t4r} vs {t4n}"
        assert t5r == t5n, f"5-subset counts disagree at n={p.n}: {t5r} vs {t5n}"
        assert t4n.total == comb(p.n, 4)
        assert t5n.total == comb(p.n, 5)
    assert corpus["elapsed"] < 120, f"corpus evaluation took {corpus['elapsed']:.1f}s"
    print(
        f"c1: exact agreement on {len(rows)} placements "
        f"({RANDOM_CASES} random n in [5,12], parabola n in [5,40]) "
        f"in {corpus['elapsed']:.1f}s"
    )


def test_c2_all_fifteen_identities_hold_on_every_placement(
    corpus, square_center, triangle_two_inside
):
    hand = [_evaluate(square_center), _evaluate(triangle_two_inside), _evaluate(parabola(7))]
    rows = corpus["random"] + corpus["parabola"] + hand
    for p, agg, t4n, t5n, _, _ in rows:
        report = verify_identities(agg, t4n, t5n)
        assert report.all_pass, (
            f"failed at n={p.n}: "
            + ", ".join(c.id for c in report.checks if not c.passed)
        )
    print(f"c2: E1-E15 pass exactly on all {len(rows)} placements")


@pytest.mark.parametrize("n", [5, 10, 25])
def test_c3_convex_position_closed_forms(n):
    p = parabola(n)
    agg = aggregate_regions(p)
    t4 = count4_from_regions(agg)
    t5 = count5_from_regions(agg)
    assert t5.pentagon == comb(n, 5)
    assert t5.four_hull == 0 and t5.three_hull == 0
    assert t4.quad == comb(n, 4) and t4.tridot == 0
    if n == 25:
        assert t5.pentagon == 53130
    for _, rc in region_table(p):
        assert rc.gamma_total == n - 3
        assert rc.beta_total == 0 and rc.interior == 0
    s = stats(agg, t5)
    assert s.var_beta == 0 and s.var_gamma == 0 and s.covariance == 0
    print(f"c3: n={n} pentagon={t5.pentagon} quad={t4.quad}, "
          f"every triangle has edge-region total {n - 3}, zero variance")


def test_c4_published_constants_and_scaling_anchors():
    assert abs(C5_LOWER_CONST - (5 * sqrt(5) - 11) / 4) < 1e-15
    assert abs(C5_LOWER_CONST - 0.045084971) < 1e-9
    assert abs(C5_LOWER_CONST - 0.04508) < 5e-6
    assert abs(MU5_COEFF - C5_LOWER_CONST / 120) < 1e-18
    assert int(1 / MU5_COEFF) == 2661
    assert Fraction(1, 2662) < Fraction(MU5_COEFF) < Fraction(1, 2661)

    assert supersaturation_bound(16, 112, 16) == 112
    assert supersaturation_limit(16, 112) == Fraction(112, 4368)
    assert abs(float(supersaturation_limit(16, 112)) - 0.02564) < 5e-6
    assert supersaturation_limit(18, 252) == Fraction(252, 8568)
    assert abs(float(supersaturation_limit(18, 252)) - 0.029411) < 1e-6
    assert float(supersaturation_limit(18, 252)) < C5_LOWER_CONST
    print(
        f"c4: c5 constant {C5_LOWER_CONST:.9f}, inverse coefficient "
        f"{1 / MU5_COEFF:.2f}, anchors {float(supersaturation_limit(16, 112)):.5f} "
        f"and {float(supersaturation_limit(18, 252)):.6f}"
    )


TRACKER_KEYS = (
    "tracker_gamma_sums",
    "tracker_gamma_stats",
    "tracker_beta_stats",
    "ratio_xp_rhs",
)


def test_c5_tracker_ratios_tighten_along_the_parabola_family():
    sizes = (40, 80, 120)
    reports = {n: bound_report(aggregate_regions(parabola(n))) for n in sizes}
    for n in sizes:
        lo, hi = 1 - 15 / n, 1 + 15 / n
        for key in TRACKER_KEYS:
            r = getattr(reports[n], key)
            assert r is not None
            assert lo <= r <= hi, f"{key} = {r} outside [{lo}, {hi}] at n={n}"
    for key in TRACKER_KEYS:
        errs = [abs(getattr(reports[n], key) - 1) for n in sizes]
        assert errs[1] < errs[0] and errs[2] < errs[1], f"{key} not tightening: {errs}"
    for n in sizes:
        vals = " ".join(f"{k}={getattr(reports[n], k):.5f}" for k in TRACKER_KEYS)
        print(f"c5: n={n} {vals}")


def test_c6_inequalities_hold_everywhere_with_exact_equality_cases(corpus):
    rows = corpus["random"] + corpus["parabola"]
    for p, agg, t4n, t5n, _, _ in rows:
        e12 = verify_identities(agg, t4n, t5n)["E12"]
        assert e12.passed, f"covariance bound fails at n={p.n}"
        rep = bound_report(agg)
        assert rep.mean_gamma > 0
        assert rep.amgm_ok is True, f"mean-edge lower bound fails at n={p.n}"
        assert float(rep.rhs_gamma) >= rep.rhs_const - 1e-9
    for p, agg, t4n, t5n, _, _ in corpus["parabola"]:
        e12 = verify_identities(agg, t4n, t5n)["E12"]
        assert e12.lhs == e12.rhs, f"equality case missed at n={p.n}"
    print(f"c6: covariance and mean-edge inequalities hold on {len(rows)} "
          f"placements; equality exact on all {len(corpus['parabola'])} convex runs")


def test_c7_minimizer_never_undercuts_proven_floors_and_finds_zero():
    t0 = time.perf_counter()
    res16 = minimize_pentagons(AnnealConfig(n=16, target=112))
    res18 = minimize_pentagons(AnnealConfig(n=18, target=252))
    res8 = minimize_pentagons(
        AnnealConfig(n=8, iterations=200_000, restarts=4, seed=0, target=0)
    )
    elapsed = time.perf_counter() - t0
    assert res16.best_pentagons >= 112
    assert res16.consistency == CONSISTENCY_OK
    assert res18.best_pentagons >= 252
    assert res18.consistency == CONSISTENCY_OK
    assert res8.best_pentagons == 0
    assert count5_naive(res8.best_placement).pentagon == 0
    print(
        f"c7: n=16 best {res16.best_pentagons} (floor 112), "
        f"n=18 best {res18.best_pentagons} (floor 252), n=8 best 0, "
        f"{elapsed:.1f}s"
    )


def test_c8_engines_match_at_scale_and_region_engine_wins():
    sizes = (20, 30, 40, 50)
    t0 = time.perf_counter()
    timings = {}
    for n in sizes:
        p = random_disc(n, seed=1000 + n, bound=1_000_000)
        t1 = time.perf_counter()
        naive = (count4_naive(p), count5_naive(p))
        t_naive = time.perf_counter() - t1
        t1 = time.perf_counter()
        agg = aggregate_regions(p)
        regions = (count4_from_regions(agg), count5_from_regions(agg))
        t_regions = time.perf_counter() - t1
        assert naive == regions, f"engines disagree at n={n}"
        timings[n] = (t_naive, t_regions)
        print(f"c8: n={n} naive {t_naive:.2f}s regions {t_regions:.3f}s "
              f"speedup {t_naive / t_regions:.0f}x")
    assert timings[50][1] < timings[50][0], "region engine not faster at n=50"
    total = time.perf_counter() - t0
    assert total < 300, f"benchmark took {total:.0f}s"
    print(f"c8: total {total:.1f}s")
