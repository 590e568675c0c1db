"""Hit any achievable mean rate with a seeded stationary policy.

Builds the policy that time-shares per state to hit a target mean, runs it
for 100k slots from one 64-bit seed, and watches the running average close
in on the target.  Rerunning with the same seed replays the exact trace.
"""

import numpy as np

from oppsched import (
    build_model,
    martingale_check,
    rate_region,
    run,
    target_policy,
    verify_avg_convergence,
    verify_conditional_membership,
)

model = build_model(
    ["bad", "good"], [0.5, 0.5], [[[0.0], [1.0]], [[0.0], [2.0]]]
)
region = rate_region(model)

target = np.array([0.75])
policy = target_policy(region, target)
print("per-state weights:", [w.tolist() for w in policy.weights])
print("exact per-slot mean:", policy.slot_mean(model))

# The run only records; the verifier measures the distances it judges.
trace = run(model, policy, horizon=100_000, seed=42)
report = verify_avg_convergence(trace, region)
print(f"\nrunning average at dyadic checkpoints (target {target[0]}):")
for c, d in zip(report.checkpoints, report.dists):
    print(f"  k={c:>6d}  avg={trace.averages[c - 1][0]:.5f}  dist={d:.2e}")

print(
    f"\nfinal dist {report.final_dist:.2e} <= bound {report.final_bound:.2e}:",
    report.passed,
)

# Per-slot deviations from the exact conditional mean average out.
check = martingale_check(trace, model, policy)
print("average martingale deviation norm:", f"{check.final_average_norm:.2e}")

# Conditioning on any realized decision prefix keeps the next-slot mean
# achievable; with stationary weights it never moves at all.
cond = verify_conditional_membership(model, policy, slot=3, region=region)
print(
    f"conditional means over {cond.prefixes} prefixes stay within",
    f"{cond.dist_tol:.0e} of the region:", cond.passed,
)

replay = run(model, policy, horizon=100_000, seed=42)
print("replay bit-identical:", bool(np.array_equal(replay.x, trace.x)))
