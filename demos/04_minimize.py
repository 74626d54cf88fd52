"""Search for placements with few convex pentagons by simulated annealing.

Each proposal moves one point and scores the move from the triples of fixed
points it completes to a tridot, so a step costs O(n^3) instead of a full
recount.  The incremental count is audited against a from-scratch recount
during and after the run; a best below a proven floor would flag the result
as inconsistent instead of reporting it.
"""

import time

from convexcount import (
    AnnealConfig,
    count5_naive,
    dumps_placement,
    minimize_pentagons,
)
from convexcount.search import KNOWN_MIN_PENTAGONS

# 9 points always contain a pentagon; 8 points need not.  Find a witness.
t0 = time.time()
res = minimize_pentagons(
    AnnealConfig(n=8, iterations=50_000, restarts=2, seed=0, target=0)
)
print(f"n=8: reached {res.best_pentagons} pentagons after "
      f"{res.iterations_used} proposals ({time.time() - t0:.1f}s)")
print("improvement trace (restart, proposal, pentagons):")
for step in res.trace:
    print(f"  {step}")
print("witness placement:")
print(dumps_placement(res.best_placement), end="")
print(f"independent recount: {count5_naive(res.best_placement).pentagon}\n")

# n=16 has a proven minimum of 112; stop as soon as the search matches it
t0 = time.time()
res16 = minimize_pentagons(AnnealConfig(n=16, target=KNOWN_MIN_PENTAGONS[16]))
print(f"n=16: best {res16.best_pentagons} (proven floor "
      f"{KNOWN_MIN_PENTAGONS[16]}) after {res16.iterations_used} proposals "
      f"({time.time() - t0:.1f}s), consistency={res16.consistency}")
print(f"restart bests: {res16.restart_bests}")
