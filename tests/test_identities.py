import dataclasses
from fractions import Fraction
from math import comb, isclose, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcount import (
    C5_LOWER_CONST,
    MU5_COEFF,
    RHS_CONST_COEFF,
    InconsistentCountsError,
    aggregate_regions,
    bound_report,
    count4_naive,
    count5_from_regions,
    count5_naive,
    stats,
    supersaturation_bound,
    supersaturation_limit,
    verify_identities,
)

from conftest import parabola, random_disc

EXPECTED_IDS = (
    "E1", "E2", "E3", "E4", "E5", "E6",
    "E7a", "E7b", "E8a", "E8b",
    "E9", "E10", "E11", "E12", "E13", "E14", "E15",
)


def _report_for(placement):
    agg = aggregate_regions(placement)
    t4 = count4_naive(placement)
    t5 = count5_naive(placement)
    return verify_identities(agg, t4, t5)


def test_report_shape(square_center):
    report = _report_for(square_center)
    assert tuple(c.id for c in report.checks) == EXPECTED_IDS
    assert report["E12"].relation == "<="
    assert all(c.relation == "==" for c in report.checks if c.id != "E12")
    assert all(c.description for c in report.checks)
    with pytest.raises(KeyError):
        report["E99"]


def test_all_identities_on_fixtures(square_center, triangle_two_inside):
    for p in (square_center, triangle_two_inside):
        report = _report_for(p)
        assert report.all_pass, [c for c in report.checks if not c.passed]


@pytest.mark.parametrize("n", [5, 6, 8, 11])
def test_all_identities_on_parabola(n):
    report = _report_for(parabola(n))
    assert report.all_pass


@pytest.mark.parametrize("seed", range(6))
def test_all_identities_on_random(seed):
    report = _report_for(random_disc(8 + 2 * seed, seed=seed))
    assert report.all_pass


def test_identity_values_square_center(square_center):
    report = _report_for(square_center)
    # one convex quad extended by the remaining point: 3 four-hulls counted thrice
    assert report["E9"].lhs == 3
    assert report["E9"].rhs == 3
    assert report["E15"].lhs == Fraction(6)


def test_identity_values_triangle_two_inside(triangle_two_inside):
    report = _report_for(triangle_two_inside)
    assert report["E9"].lhs == 1 and report["E9"].rhs == 1


def test_identity_values_parabola8():
    report = _report_for(parabola(8))
    assert report["E5"].lhs == 4 * comb(8, 5) == 224
    assert report["E5"].rhs == 224
    # all per-triangle totals coincide, so the covariance bound is tight
    assert report["E12"].lhs == report["E12"].rhs == 0


def test_failed_check_is_reported_not_raised(square_center):
    agg = aggregate_regions(square_center)
    t4 = count4_naive(square_center)
    t5 = count5_naive(square_center)
    import dataclasses

    bad = dataclasses.replace(agg, sum_gamma=agg.sum_gamma + 4)
    report = verify_identities(bad, t4, t5)
    assert not report.all_pass
    failed = {c.id for c in report.checks if not c.passed}
    assert "E1" in failed


def test_stats_parabola():
    p = parabola(10)
    agg = aggregate_regions(p)
    s = stats(agg, count5_from_regions(agg))
    assert s.mean_gamma == 7
    assert s.mean_beta == 0
    assert s.var_gamma == 0
    assert s.var_beta == 0
    assert s.covariance == 0
    assert s.x_p == Fraction(960 * comb(10, 5), 1000) == Fraction(6048, 25)
    assert float(s.x_p) == 241.92


def test_stats_square_center(square_center):
    agg = aggregate_regions(square_center)
    s = stats(agg, count5_from_regions(agg))
    assert s.mean_gamma == Fraction(6, 5)
    assert s.mean_beta == Fraction(3, 5)
    assert 4 * s.mean_beta + 3 * s.mean_gamma == 6
    assert s.x_p == 0
    assert s.var_beta >= 0 and s.var_gamma >= 0


def test_stats_are_exact_fractions(square_center):
    agg = aggregate_regions(square_center)
    s = stats(agg, count5_from_regions(agg))
    for value in (s.mean_beta, s.mean_gamma, s.var_beta, s.var_gamma, s.covariance, s.x_p):
        assert isinstance(value, Fraction)


def test_constants():
    assert isclose(C5_LOWER_CONST, (5 * sqrt(5) - 11) / 4, rel_tol=0, abs_tol=1e-15)
    assert abs(C5_LOWER_CONST - 0.04508) < 5e-6
    assert isclose(MU5_COEFF, C5_LOWER_CONST / 120, rel_tol=1e-15)
    assert int(1 / MU5_COEFF) == 2661
    assert Fraction(1, 2662) < Fraction(MU5_COEFF) < Fraction(1, 2661)
    assert 0.3606 < RHS_CONST_COEFF < 0.3607


def test_bound_report_parabola20():
    rep = bound_report(aggregate_regions(parabola(20)))
    assert rep.n == 20
    assert rep.pentagon == comb(20, 5)
    assert rep.c5_estimate == 1
    assert rep.mean_gamma == 17
    assert rep.mean_gamma > 0
    assert rep.rhs_gamma == Fraction(20 * (25 * 289 - 22 * 20 * 17 + 5 * 400), 17)
    assert rep.amgm_ok is True
    assert float(rep.rhs_gamma) >= rep.rhs_const > 0
    assert rep.ratio_xp_rhs is not None and rep.ratio_xp_rhs > 0
    for tracker in (rep.tracker_gamma_sums, rep.tracker_gamma_stats, rep.tracker_beta_stats):
        assert tracker is not None and tracker > 0
    assert rep.c5_lower_const == C5_LOWER_CONST
    assert rep.mu5_coeff == MU5_COEFF
    assert isclose(rep.mu5_lower_thm, MU5_COEFF * 20**5, rel_tol=1e-12)


def test_bound_report_reads_n_and_counts_from_the_sums(square_center):
    agg = aggregate_regions(square_center)
    rep = bound_report(agg)
    assert rep.n == agg.n == 5
    assert rep.pentagon == count5_from_regions(agg).pentagon == 0
    assert rep.c5_estimate == Fraction(0)
    assert rep.mean_gamma == stats(agg, count5_from_regions(agg)).mean_gamma
    assert rep.amgm_ok is True


def test_bound_report_needs_five_points():
    import convexcount

    p = convexcount.Placement.from_points([(0, 0), (6, 0), (0, 6), (1, 1)])
    with pytest.raises(ValueError):
        bound_report(aggregate_regions(p))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_bound_report_refuses_sums_with_zero_mean_gamma(n):
    # any 5 points in general position hold a convex quad, so sum_gamma = 0
    # is corrupt at n >= 5 and the bound chain never divides by mean_gamma = 0
    agg = dataclasses.replace(aggregate_regions(random_disc(n, seed=n)), sum_gamma=0)
    with pytest.raises(InconsistentCountsError):
        bound_report(agg)


positive_fracs = st.fractions(
    min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)
)


@settings(max_examples=1000)
@given(st.integers(5, 10_000), positive_fracs)
def test_gamma_rhs_never_below_constant(n, scale):
    # the quadratic-over-linear expression in the mean edge count stays above
    # (10*sqrt(5) - 22) * n^2 for every rational mean in (0, n)
    g = n * scale
    rhs_gamma = n * (25 * g * g - 22 * n * g + 5 * n * n) / g
    shifted = rhs_gamma + 22 * n * n
    assert shifted > 0
    assert shifted * shifted >= 500 * Fraction(n) ** 4


def test_supersaturation_anchor_values():
    assert supersaturation_bound(16, 112, 16) == 112
    assert supersaturation_bound(16, 112, 17) == Fraction(112 * comb(17, 5), comb(16, 5))
    assert supersaturation_limit(16, 112) == Fraction(1, 39)
    assert supersaturation_limit(18, 252) == Fraction(1, 34)
    assert isclose(float(supersaturation_limit(16, 112)), 0.02564, abs_tol=5e-6)
    assert isclose(float(supersaturation_limit(18, 252)), 0.029412, abs_tol=5e-6)


def test_supersaturation_limits_below_target_constant():
    assert supersaturation_limit(16, 112) < supersaturation_limit(18, 252)
    assert float(supersaturation_limit(18, 252)) < C5_LOWER_CONST


def test_supersaturation_bound_grows_with_n():
    values = [supersaturation_bound(16, 112, n) for n in range(16, 30)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # density form is constant in n
    for n in (16, 20, 40):
        assert supersaturation_bound(16, 112, n) / comb(n, 5) == Fraction(1, 39)


def test_supersaturation_domain_errors():
    with pytest.raises(ValueError):
        supersaturation_bound(4, 1, 10)
    with pytest.raises(ValueError):
        supersaturation_bound(16, 112, 15)
    with pytest.raises(ValueError):
        supersaturation_bound(16, -1, 20)
    with pytest.raises(ValueError):
        supersaturation_limit(4, 1)
    with pytest.raises(ValueError):
        supersaturation_limit(16, -2)
