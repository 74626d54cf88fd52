"""Follow the pentagon lower-bound chain on concrete placements.

The chain turns region statistics into a lower bound on the normalized
pentagon count x_P = 960 * pentagons / n^3: exact identities rewrite x_P in
terms of the mean and variance of per-triangle region totals, a covariance
bound and an AM-GM step remove the variance terms, and minimizing over the
mean leaves the constant 10*sqrt(5) - 22.  Per-n tracker ratios show each
rewriting step closing in on 1 as n grows.
"""

from convexcount import (
    C5_LOWER_CONST,
    MU5_COEFF,
    GeneratorSpec,
    aggregate_regions,
    bound_report,
    generate,
    supersaturation_bound,
    supersaturation_limit,
)

print("=== convex-position run (parabola points, every 5-subset a pentagon) ===")
for n in (40, 80, 120):
    rep = bound_report(aggregate_regions(generate(GeneratorSpec("parabola", n))))
    print(f"n={n:<4} pentagons={rep.pentagon:<10} x_p={float(rep.x_p):>10.2f} "
          f"mean_gamma={float(rep.mean_gamma):>6.1f}")
    print(f"      trackers: gamma_sums={rep.tracker_gamma_sums:.5f} "
          f"gamma_stats={rep.tracker_gamma_stats:.5f} "
          f"beta_stats={rep.tracker_beta_stats:.5f} "
          f"x_p/rhs={rep.ratio_xp_rhs:.5f}  (all -> 1)")

print("\n=== random placement: the bound holds with slack ===")
rep = bound_report(aggregate_regions(generate(GeneratorSpec("random_disc", 60, seed=7))))
print(f"n={rep.n} pentagons={rep.pentagon}")
print(f"x_p              = {float(rep.x_p):.2f}")
print(f"rhs_gamma        = {float(rep.rhs_gamma):.2f}   (quadratic predictor "
      f"at the observed mean_gamma = {float(rep.mean_gamma):.2f})")
print(f"rhs_const        = {rep.rhs_const:.2f}   ((10*sqrt(5) - 22) * n^2)")
print(f"amgm_ok          = {rep.amgm_ok}   (exact rational comparison)")
print(f"slack_cov_bound  = {rep.slack_cov_bound:.1f}")
print(f"mu5_lower_thm    = {rep.mu5_lower_thm:.1f}   "
      f"(proved floor ~ {MU5_COEFF:.3e} * n^5)")

print("\n=== scaling small exhaustive floors up to any n ===")
print(f"floor 112 at m=16 gives density {float(supersaturation_limit(16, 112)):.5f}")
print(f"floor 252 at m=18 gives density {float(supersaturation_limit(18, 252)):.6f}")
print(f"proved asymptotic density        {C5_LOWER_CONST:.6f}")
for n in (20, 50, 100):
    lb = supersaturation_bound(18, 252, n)
    print(f"  any {n}-point placement has at least {int(lb)} pentagons")
