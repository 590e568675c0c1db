"""Backlog-greedy scheduling versus the capacity boundary.

One state offers the unit-simplex corners as service options, so arrival
vectors below the line a1 + a2 = 1 are supportable and anything above it is
not.  The backlog-greedy rule finds this boundary empirically: queues stay
flat below it and grow linearly above it.
"""

import numpy as np

from oppsched import DeterministicArrivals, build_model, dominance, rate_region, run_maxweight

model = build_model(["s"], [1.0], [[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]])
region = rate_region(model)

print(f"{'arrivals':>14} {'dominated':>10} {'stable':>7} {'slope':>10} {'tail |Q|':>10}")
for load in (0.2, 0.35, 0.45, 0.55, 0.65):
    a = np.array([load, load])
    rep = run_maxweight(model, DeterministicArrivals(a), 50_000, seed=7)
    dom = dominance(region, a)
    print(
        f"{str(a.tolist()):>14} {str(dom):>10} {str(rep.stable):>7} "
        f"{rep.drift_slope:>10.2e} {rep.tail_avg_queue_norm:>10.2f}"
    )

# Asymmetric load: one component may exceed 0.5 as long as the total fits.
a = np.array([0.7, 0.2])
rep = run_maxweight(model, DeterministicArrivals(a), 50_000, seed=7)
print(
    f"\nasymmetric {a.tolist()}: dominated={dominance(region, a)}, "
    f"stable={rep.stable}, tail |Q|={rep.tail_avg_queue_norm:.2f}"
)
