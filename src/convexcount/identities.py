"""Exact identity verification, rational statistics, and the lower-bound
report.

Every relation in the report (the planar-point equations of
``counting.identity_checks``) is a theorem about planar point placements in
general position; a failed check on valid input always means
an implementation bug, never a property of the placement.  All comparisons
are exact: integers stay arbitrary-precision ints and every average,
variance, and covariance is a Fraction.  Floating point appears only in the
asymptotic tracker ratios and the covariance slack, which involve square
roots and are reported, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt
from typing import Optional, Tuple

from .counting import (
    AggregateSums,
    IdentityCheck,
    TypeCounts4,
    TypeCounts5,
    count5_from_regions,
    identity_checks,
)

SQRT5 = sqrt(5.0)

# Closed-form constants of the pentagon lower-bound chain.
C5_LOWER_CONST = (5 * SQRT5 - 11) / 4  # ~ 0.04508497187473712
MU5_COEFF = (5 * SQRT5 - 11) / 480  # ~ 3.757e-4 ~ 1/2661.9
RHS_CONST_COEFF = 10 * SQRT5 - 22  # ~ 0.3606797749978969


@dataclass(frozen=True)
class IdentityReport:
    checks: Tuple[IdentityCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, check_id: str) -> IdentityCheck:
        for c in self.checks:
            if c.id == check_id:
                return c
        raise KeyError(check_id)


@dataclass(frozen=True)
class StatsSummary:
    """Exact per-triangle statistics over all C(n,3) triangles.

    Means/variances/covariance of the corner (beta) and edge (gamma) totals,
    plus the normalized pentagon count x_p = 960 * pentagon / n^3.
    """

    mean_beta: Fraction
    mean_gamma: Fraction
    var_beta: Fraction
    var_gamma: Fraction
    covariance: Fraction
    x_p: Fraction


@dataclass(frozen=True)
class BoundReport:
    """Evaluation of the pentagon-density lower-bound chain on one placement.

    Exact fields: c5_estimate = pentagon / C(n,5); x_p = 960*pentagon/n^3;
    rhs_gamma = n*(25*g^2 - 22*n*g + 5*n^2)/g with g the mean edge-region
    total (None when g = 0, flagged degenerate); amgm_ok is the exact
    comparison rhs_gamma >= (10*sqrt(5)-22)*n^2, decided in integers.

    Float fields: rhs_const = (10*sqrt(5)-22)*n^2; the asymptotic trackers
    (each should drift toward 1 on dense well-behaved families) and the
    covariance slack; mu5_lower_thm = (5*sqrt(5)-11)/480 * n^5 and the two
    universal constants.
    """

    n: int
    pentagon: int
    c5_estimate: Fraction
    x_p: Fraction
    mean_gamma: Fraction
    degenerate_gamma: bool
    rhs_gamma: Optional[Fraction]
    rhs_const: float
    amgm_ok: Optional[bool]
    ratio_xp_rhs: Optional[float]
    tracker_gamma_sums: Optional[float]
    tracker_gamma_stats: Optional[float]
    tracker_beta_stats: Optional[float]
    slack_cov_bound: float
    mu5_lower_thm: float
    c5_lower_const: float
    mu5_coeff: float


def verify_identities(
    agg: AggregateSums, t4: TypeCounts4, t5: TypeCounts5
) -> IdentityReport:
    """Check the planar-point equations E1-E15 (``counting.identity_checks``,
    the list every region-engine count is held to) on region sums and type
    counts from the same placement.  Failures are report entries, not
    exceptions, so a broken build shows all casualties at once.
    """
    return IdentityReport(identity_checks(agg, t4, t5))


def stats(agg: AggregateSums, t5: TypeCounts5) -> StatsSummary:
    """Exact means, variances, covariance of per-triangle corner/edge totals,
    and the normalized pentagon count."""
    ntri = agg.triangles
    mean_beta = Fraction(agg.sum_beta, ntri)
    mean_gamma = Fraction(agg.sum_gamma, ntri)
    var_beta = Fraction(agg.sum_beta_sq, ntri) - mean_beta**2
    var_gamma = Fraction(agg.sum_gamma_sq, ntri) - mean_gamma**2
    covariance = Fraction(agg.sum_beta_gamma, ntri) - mean_beta * mean_gamma
    x_p = Fraction(960 * t5.pentagon, agg.n**3)
    return StatsSummary(mean_beta, mean_gamma, var_beta, var_gamma, covariance, x_p)


def bound_report(agg: AggregateSums) -> BoundReport:
    """Evaluate the pentagon lower-bound chain on the placement whose
    region sums are agg."""
    n = agg.n
    if n < 5:
        raise ValueError(f"the bound chain needs n >= 5, got {n}")
    t5 = count5_from_regions(agg)
    st = stats(agg, t5)

    pentagon = t5.pentagon
    c5_estimate = Fraction(pentagon, comb(n, 5))
    g = st.mean_gamma
    degenerate = g == 0
    rhs_const = RHS_CONST_COEFF * n * n

    rhs_gamma: Optional[Fraction] = None
    amgm_ok: Optional[bool] = None
    ratio_xp_rhs: Optional[float] = None
    if not degenerate:
        rhs_gamma = n * (25 * g * g - 22 * n * g + 5 * n * n) / g
        # exact test of rhs_gamma >= (10*sqrt(5) - 22)*n^2: both sides plus
        # 22 n^2 are positive, so compare squares to avoid the irrational
        shifted = rhs_gamma + 22 * n * n
        amgm_ok = shifted > 0 and shifted * shifted >= 500 * n**4
        if rhs_gamma != 0:
            ratio_xp_rhs = float(st.x_p / rhs_gamma)

    # Tracker denominators as exact rationals; each tracker is the float
    # ratio of the normalized pentagon count to its quadratic predictor.
    d1 = 4 * agg.sum_gamma_sq - 3 * n * agg.sum_gamma + Fraction(n**5, 10)
    t1 = float(Fraction(32 * pentagon) / d1) if d1 != 0 else None
    d2 = n**3 * (20 * st.var_gamma + 20 * g * g - 15 * n * g + 3 * n * n)
    t2 = float(Fraction(960 * pentagon) / d2) if d2 != 0 else None
    d3 = n**3 * (
        80 * st.var_beta + 45 * g * g - 50 * n * g + 13 * n * n
    )
    t3 = float(Fraction(960 * pentagon) / d3) if d3 != 0 else None

    sigma_product = sqrt(float(st.var_gamma)) * sqrt(float(st.var_beta))
    gf = float(g)
    slack = 960.0 * pentagon - n**3 * (
        -30.0 * n * gf + 30.0 * gf * gf - 40.0 * sigma_product + 8.0 * n * n
    )

    return BoundReport(
        n=n,
        pentagon=pentagon,
        c5_estimate=c5_estimate,
        x_p=st.x_p,
        mean_gamma=g,
        degenerate_gamma=degenerate,
        rhs_gamma=rhs_gamma,
        rhs_const=rhs_const,
        amgm_ok=amgm_ok,
        ratio_xp_rhs=ratio_xp_rhs,
        tracker_gamma_sums=t1,
        tracker_gamma_stats=t2,
        tracker_beta_stats=t3,
        slack_cov_bound=slack,
        mu5_lower_thm=MU5_COEFF * n**5,
        c5_lower_const=C5_LOWER_CONST,
        mu5_coeff=MU5_COEFF,
    )


def supersaturation_bound(m: int, r: int, n: int) -> Fraction:
    """Propagate a pentagon lower bound from m points to n >= m points.

    If every m-point placement has at least r pentagons, every n-point
    placement has at least r * C(n,5) / C(m,5): each 5-subset lies in
    C(n-5, m-5) of the C(n, m) m-subsets.
    """
    if m < 5:
        raise ValueError(f"base size must be at least 5, got m = {m}")
    if n < m:
        raise ValueError(f"target size n = {n} below base size m = {m}")
    if r < 0:
        raise ValueError(f"count lower bound must be nonnegative, got {r}")
    return Fraction(r * comb(n, 5), comb(m, 5))


def supersaturation_limit(m: int, r: int) -> Fraction:
    """Density limit of the propagated bound: r / C(m,5)."""
    if m < 5:
        raise ValueError(f"base size must be at least 5, got m = {m}")
    if r < 0:
        raise ValueError(f"count lower bound must be nonnegative, got {r}")
    return Fraction(r, comb(m, 5))
