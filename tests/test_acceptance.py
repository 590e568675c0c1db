"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``) with
its runtime, and enforces the runtime budget.  Statistical checks use fixed
seeds and 3-sigma margins, so they are deterministic here and fail with
probability well under 1e-2 for fresh seeds.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest
import scipy.stats

from oppsched import (
    BernoulliArrivals,
    CustomPolicy,
    DeterministicArrivals,
    FiniteRV,
    FiniteSpace,
    MeasurabilityError,
    RandomizedStationaryPolicy,
    deterministic_policy,
    dominance,
    enumerate_generators,
    factorize,
    generate,
    join,
    rate_region,
    run,
    run_maxweight,
    target_policy,
    verify_avg_convergence,
    verify_conditional_membership,
    verify_mean_membership,
)
from oppsched.cli import main as cli_main
from oppsched.queueing import boundary_margin
from oppsched.randomize import bit_positions, slot_uniforms
from oppsched.region import support

from conftest import random_small_model
from test_sigma import oracle_factorable


def report(name: str, passed: bool, detail: str, elapsed: float, budget: float | None):
    status = "PASS" if passed else "FAIL"
    limit = f" (budget {budget:.0f}s)" if budget else ""
    print(f"{status}  {name}: {detail}  [{elapsed:.1f}s{limit}]")
    assert passed, f"{name}: {detail}"
    if budget is not None:
        assert elapsed <= budget, f"{name} exceeded {budget}s budget ({elapsed:.1f}s)"


def test_criterion_1_factorization_oracle_equivalence():
    start = time.time()
    rng = random.Random(1001)
    agreements = exact = 0
    for _ in range(500):
        n = rng.randint(2, 12)
        space = FiniteSpace(n)
        parts = [
            generate(
                space,
                [
                    {w for w in range(n) if rng.random() < 0.5}
                    for _ in range(rng.randint(0, 2))
                ],
            )
            for _ in range(rng.randint(1, 3))
        ]
        n_rvs = rng.randint(1, 3)
        deps, xs, measurable = [], [], []
        for _ in range(n_rvs):
            dep = sorted(rng.sample(range(len(parts)), rng.randint(1, len(parts))))
            deps.append(set(dep))
            if rng.random() < 0.5:
                # measurable by construction: a function of the joined blocks
                joined = join([parts[j] for j in dep])
                idx = joined.block_index()
                vals = [rng.uniform(-3, 3) for _ in range(joined.num_blocks)]
                xs.append(FiniteRV(space, [vals[idx[w]] for w in range(n)]))
            else:
                xs.append(FiniteRV(space, [rng.choice([0.0, 1.0]) for _ in range(n)]))
            measurable.append(
                oracle_factorable(xs[-1].values, parts, dep)
            )
        try:
            tables = factorize(xs, parts, deps)
            succeeded = True
        except MeasurabilityError:
            succeeded = False
            tables = None
        assert succeeded == all(measurable)
        agreements += 1
        if succeeded:
            for x, table in zip(xs, tables):
                for w in range(n):
                    assert table.evaluate_point(w) == x(w)
                exact += 1
    elapsed = time.time() - start
    report(
        "criterion 1 factorization/oracle equivalence",
        agreements == 500,
        f"500 instances agree with brute-force oracle, {exact} reconstructions exact",
        elapsed,
        10.0,
    )


def test_criterion_2_rate_region_exactness(two_state_region):
    start = time.time()
    rng = np.random.default_rng(1002)
    checked = 0
    for _ in range(50):
        model = random_small_model(rng, max_states=4, max_options=4, max_dim=3)
        region = rate_region(model)
        gens = enumerate_generators(region)
        for _ in range(100):
            d = rng.standard_normal(model.m)
            lmo_val = support(region, d)
            enum_val = float(np.max(gens @ d))
            assert abs(lmo_val - enum_val) <= 1e-12
            checked += 1
    # reference model: hull of the generators is exactly [0, 1.5]
    gens = enumerate_generators(two_state_region)
    assert float(gens.min()) == 0.0
    assert float(gens.max()) == 1.5
    assert support(two_state_region, np.array([1.0])) == 1.5
    assert support(two_state_region, np.array([-1.0])) == 0.0
    elapsed = time.time() - start
    report(
        "criterion 2 rate-region exactness",
        checked == 5000,
        f"{checked} support values match enumeration within 1e-12; reference hull [0, 1.5]",
        elapsed,
        10.0,
    )


def test_criterion_3_achievability(two_state_model, two_state_region, simplex_model, simplex_region):
    start = time.time()
    horizon = 100_000
    rng = np.random.default_rng(1003)
    results = []
    for model, region in (
        (two_state_model, two_state_region),
        (simplex_model, simplex_region),
    ):
        gens = enumerate_generators(region)
        centroid = gens.mean(axis=0)
        bound = 3.0 * model.bound / math.sqrt(horizon) + 1e-5
        hits = 0
        for t in range(20):
            w = rng.dirichlet(np.ones(len(gens)))
            x = 0.9 * (w @ gens) + 0.1 * centroid
            policy = target_policy(region, x)
            trace = run(model, policy, horizon, 2000 + t)
            if float(np.linalg.norm(trace.final_average - x)) <= bound:
                hits += 1
        results.append(hits)
        assert hits >= 19
    elapsed = time.time() - start
    report(
        "criterion 3 achievability",
        all(h >= 19 for h in results),
        f"targets tracked within 3D/sqrt(K)+1e-5 on {results[0]}/20 and {results[1]}/20 targets",
        elapsed,
        60.0,
    )


def test_criterion_4_converse(two_state_model, two_state_region, simplex_model, simplex_region):
    start = time.time()
    horizon = 100_000
    reps = 10_000
    tol = 1e-10
    arrivals = BernoulliArrivals(prob=np.array([0.5, 0.5]), batch=np.array([0.8, 0.8]))
    cases = [
        ("deterministic", two_state_model, two_state_region,
         deterministic_policy(two_state_model, psi=(1, 1)), None),
        ("randomized", two_state_model, two_state_region,
         RandomizedStationaryPolicy(weights=(np.array([0.5, 0.5]), np.array([0.25, 0.75]))), None),
        ("target", two_state_model, two_state_region,
         target_policy(two_state_region, [0.75]), None),
        ("maxweight", simplex_model, simplex_region,
         None, arrivals),
    ]
    details = []
    ok = True
    for kind, model, region, policy, arr in cases:
        if kind == "maxweight":
            from oppsched import MaxWeightPolicy

            policy = MaxWeightPolicy()
        mean_report = verify_mean_membership(
            model, policy, replications=reps, slot=3, seed=1004,
            region=region, arrivals=arr,
        )
        trace = run(model, policy, horizon, 1004, arrivals=arr)
        conv_report = verify_avg_convergence(trace, region, tol=tol)
        ok = ok and mean_report.passed and conv_report.passed
        details.append(
            f"{kind}: E[X_k] dist {mean_report.dist:.2e}<= {mean_report.margin:.2e}, "
            f"final {conv_report.final_dist:.2e}<= {conv_report.final_bound:.2e}, "
            f"within 3D/sqrt(c) after burn-in {conv_report.within_bound_after_burn_in}"
        )
    elapsed = time.time() - start
    report(
        "criterion 4 converse (mean + time-average membership)",
        ok,
        "; ".join(details),
        elapsed,
        60.0,
    )


def test_criterion_5_conditional_membership(two_state_model, two_state_region, simplex_model, simplex_region):
    start = time.time()
    custom_table = {}
    for s0 in range(2):
        for s1 in range(2):
            for level in range(4):
                custom_table[((s0, s1), level)] = (s0 ^ s1) if level < 2 else s1
        for level in range(4):
            custom_table[((s0,), level)] = s0 if level % 2 else 0
    cases = [
        (two_state_model, two_state_region,
         RandomizedStationaryPolicy(weights=(np.array([0.25, 0.75]), np.array([0.5, 0.5]))), 3),
        (two_state_model, two_state_region,
         CustomPolicy(table=custom_table, levels=4, psi=(0, 0)), 3),
        (two_state_model, two_state_region,
         deterministic_policy(two_state_model, psi=(1, 1)), 3),
        (simplex_model, simplex_region,
         RandomizedStationaryPolicy(weights=(np.array([0.25, 0.25, 0.5]),)), 2),
    ]
    worst = 0.0
    count = 0
    for model, region, policy, slot in cases:
        rep = verify_conditional_membership(model, policy, slot, region=region)
        assert rep.passed, f"conditional mean escaped the region: {rep}"
        worst = max(worst, rep.max_dist)
        count += rep.prefixes
    elapsed = time.time() - start
    report(
        "criterion 5 conditional membership",
        worst <= 1e-9,
        f"{count} realized prefixes, max conditional-mean distance {worst:.1e} <= 1e-9",
        elapsed,
        30.0,
    )


def test_criterion_6_maxweight_dominance_agreement(simplex_model, simplex_region):
    start = time.time()
    horizon = 100_000
    dirs = [np.array([1.0, 1.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    judged = agreed = skipped = 0
    for a1, a2 in itertools.product(np.linspace(0.0, 0.8, 5), repeat=2):
        a = np.array([a1, a2])
        margin = boundary_margin(simplex_region, a, dirs)
        if abs(margin) < 0.05:
            skipped += 1
            continue
        rep = run_maxweight(simplex_model, DeterministicArrivals(a), horizon, 1006)
        dominated = dominance(simplex_region, a)
        judged += 1
        if rep.stable == dominated:
            agreed += 1
    elapsed = time.time() - start
    report(
        "criterion 6 max-weight/dominance agreement",
        judged > 0 and agreed == judged,
        f"{agreed}/{judged} grid points agree ({skipped} within the 0.05 boundary band)",
        elapsed,
        120.0,
    )


def test_criterion_7_randomization_quality():
    start = time.time()
    seen = set()
    disjoint = True
    for k in range(1, 101):
        pos = set(int(p) for p in bit_positions(k))
        if seen & pos or len(pos) != 53:
            disjoint = False
        seen |= pos
    seeds = np.arange(100_000, dtype=np.uint64)
    # Slots 1 and 2 under every seed, drawn in bulk as one (seed, slot) table.
    u1, u2 = slot_uniforms(seeds, np.tile(np.array([1, 2], dtype=np.uint64), (seeds.size, 1))).T
    counts = np.histogram(u1, bins=32, range=(0.0, 1.0))[0]
    _, p_value = scipy.stats.chisquare(counts)
    rho = float(np.corrcoef(u1, u2)[0, 1])
    passed = disjoint and p_value > 0.001 and abs(rho) < 0.01
    elapsed = time.time() - start
    report(
        "criterion 7 randomization quality",
        passed,
        f"bit sets disjoint={disjoint}, chi-square p={p_value:.3f}, |rho|={abs(rho):.2e}",
        elapsed,
        10.0,
    )


def test_criterion_8_replay_determinism(tmp_path):
    start = time.time()
    import json

    model_doc = {
        "m": 1,
        "states": [
            {"label": "s1", "prob": 0.5, "options": [[0.0], [1.0]]},
            {"label": "s2", "prob": 0.5, "options": [[0.0], [2.0]]},
        ],
    }
    (tmp_path / "m.json").write_text(json.dumps(model_doc))
    (tmp_path / "p.json").write_text(json.dumps({"kind": "target", "x": [0.75]}))
    args = [
        "simulate", "--model", str(tmp_path / "m.json"),
        "--policy", str(tmp_path / "p.json"),
        "--horizon", "20000", "--seed", "42", "--quiet",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    bytes_a = (tmp_path / "a.trace.csv").read_bytes()
    bytes_b = (tmp_path / "b.trace.csv").read_bytes()
    elapsed = time.time() - start
    report(
        "criterion 8 replay determinism",
        bytes_a == bytes_b,
        f"two seeded runs produced byte-identical {len(bytes_a)}-byte traces",
        elapsed,
        None,
    )
