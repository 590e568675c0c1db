import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from oppsched import (
    CustomPolicy,
    MaxWeightPolicy,
    RandomizedStationaryPolicy,
    build_model,
    deterministic_policy,
    martingale_check,
    rate_region,
    run,
    target_policy,
    verify_avg_convergence,
    verify_conditional_membership,
    verify_mean_membership,
    write_trace_csv,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from oppsched import (
    BernoulliArrivals,
    RandSource,
    randomize,
    sample_state,
    slot_uniform,
)
from oppsched.errors import InputError
from oppsched.region import membership
from oppsched.sim import ConditionalMembershipReport, _advance, checkpoint_slots

from conftest import downlink_model, random_small_model


def ref_verify_conditional(model, policy, slot, dist_tol=1e-9, region=None):
    """One membership solve per state prefix, stopping at the first failure."""
    reg = region if region is not None else rate_region(model)
    tol_f = dist_tol * dist_tol
    max_dist = 0.0
    count = 0
    for prefix in itertools.product(range(model.n_states), repeat=slot - 1):
        res = membership(reg, policy.slot_mean(model, prefix), tol=tol_f)
        max_dist = max(max_dist, res.dist)
        count += 1
        if not res.inside:
            return ConditionalMembershipReport(slot, count, max_dist, dist_tol, False)
    return ConditionalMembershipReport(slot, count, max_dist, dist_tol, True)


class ForgedPrefixMean(RandomizedStationaryPolicy):
    """Claims a conditional mean far outside the region after one prefix."""

    def slot_mean(self, model, prefix=(), queue=None):
        mean = super().slot_mean(model, prefix, queue)
        return mean + 10.0 * model.bound if tuple(prefix) == (1, 0) else mean


class PrefixScaledMean(RandomizedStationaryPolicy):
    """Scales the stationary mean by a factor set by the last observed state,
    so prefixes share means and some of those means may lie outside."""

    def slot_mean(self, model, prefix=(), queue=None):
        mean = super().slot_mean(model, prefix, queue)
        return mean * (1.0 + 0.5 * prefix[-1]) if prefix else mean


class DeclaredNonstationary(RandomizedStationaryPolicy):
    """A time-sharing rule that declares itself non-stationary and claims a
    conditional mean that grows with the number of observed states."""

    stationary = False

    def slot_mean(self, model, prefix=(), queue=None):
        return super().slot_mean(model, prefix, queue) * (1.0 + len(prefix))


def ref_custom_slot_mean(policy, model, prefix):
    """Look every (prefix + state, level) key up, however long the prefix."""
    out = np.zeros(model.m)
    prefix = tuple(prefix)
    for s in range(model.n_states):
        acc = np.zeros(model.m)
        for level in range(policy.levels):
            entry = policy.table.get((prefix + (s,), level))
            if entry is None or not (0 <= entry < model.options[s].shape[0]):
                entry = policy.psi[s]
            acc += model.options[s][entry]
        out += model.probs[s] * (acc / policy.levels)
    return out


class TestRun:
    def test_fallback_policy_averages_zero(self, two_state_model, two_state_region):
        policy = deterministic_policy(two_state_model)
        trace = run(two_state_model, policy, 500, 1)
        assert np.all(trace.x == 0.0)
        assert np.all(trace.averages == 0.0)
        assert np.all(verify_avg_convergence(trace, two_state_region).dists == 0.0)

    def test_singleton_options_average_exactly(self):
        model = build_model(["a", "b"], [0.5, 0.5], [[[0.7]], [[0.7]]])
        trace = run(model, deterministic_policy(model), 200, 2)
        assert np.all(trace.x == 0.7)
        assert trace.final_average[0] == pytest.approx(0.7, abs=1e-15)

    def test_target_tracking_concentration(self, two_state_model, two_state_region):
        policy = target_policy(two_state_region, [0.75])
        horizon = 100_000
        trace = run(two_state_model, policy, horizon, 42)
        bound = 3 * two_state_model.bound / math.sqrt(horizon) + 1e-5
        assert abs(trace.final_average[0] - 0.75) <= bound

    def test_running_average_recursion_exact(self, two_state_model, two_state_region):
        policy = target_policy(two_state_region, [0.6])
        trace = run(two_state_model, policy, 3000, 5)
        avg = np.zeros(two_state_model.m)
        for k in range(1, trace.horizon + 1):
            avg = avg + (trace.x[k - 1] - avg) / k
            assert np.array_equal(avg, trace.averages[k - 1])

    def test_feasible_option_every_slot(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            model = random_small_model(rng)
            policy = RandomizedStationaryPolicy(
                weights=tuple(
                    np.full(a.shape[0], 1.0 / a.shape[0]) for a in model.options
                )
            )
            trace = run(model, policy, 400, int(rng.integers(1 << 32)))
            for k in range(trace.horizon):
                s = trace.states[k]
                assert 0 <= trace.choices[k] < model.options[s].shape[0]
                assert np.array_equal(trace.x[k], model.options[s][trace.choices[k]])

    def test_replay_bit_identical(self, two_state_model, two_state_region):
        policy = target_policy(two_state_region, [0.9])
        a = run(two_state_model, policy, 5000, 77)
        b = run(two_state_model, policy, 5000, 77)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.averages, b.averages)
        assert np.array_equal(
            verify_avg_convergence(a, two_state_region).dists,
            verify_avg_convergence(b, two_state_region).dists,
        )

    def test_custom_policy_fallback_flagged(self, two_state_model):
        policy = CustomPolicy(table={}, levels=2, psi=(0, 0))
        trace = run(two_state_model, policy, 50, 3)
        assert np.all(trace.fallbacks)

    def test_horizon_validation(self, two_state_model):
        with pytest.raises(InputError):
            run(two_state_model, deterministic_policy(two_state_model), 0, 1)

    def test_checkpoint_schedule(self):
        assert checkpoint_slots(10).tolist() == [1, 2, 4, 8, 10]
        assert checkpoint_slots(16).tolist() == [1, 2, 4, 8, 16]
        assert checkpoint_slots(1).tolist() == [1]


class TestTraceCsv:
    def test_columns_and_checkpoint_blanks(self, two_state_model, two_state_region, tmp_path):
        policy = deterministic_policy(two_state_model)
        trace = run(two_state_model, policy, 10, 9)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, two_state_model, path, verify_avg_convergence(trace, two_state_region))
        lines = path.read_text().splitlines()
        assert lines[0] == "k,state_label,option_index,x_0,avg_0,dist_checkpoint"
        # slot 3 is not a checkpoint; slot 4 is
        assert lines[3].endswith(",")
        assert not lines[4].endswith(",")
        assert len(lines) == 11

    def test_no_report_no_distances(self, two_state_model, tmp_path):
        trace = run(two_state_model, deterministic_policy(two_state_model), 10, 9)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, two_state_model, path)
        assert all(line.endswith(",") for line in path.read_text().splitlines()[1:])

    def test_queue_columns_present_with_arrivals(self, simplex_model, tmp_path):
        from oppsched import DeterministicArrivals

        trace = run(
            simplex_model,
            MaxWeightPolicy(),
            50,
            4,
            arrivals=DeterministicArrivals(np.array([0.2, 0.2])),
        )
        path = tmp_path / "qtrace.csv"
        write_trace_csv(trace, simplex_model, path)
        header = path.read_text().splitlines()[0]
        assert header.endswith("q_0,q_1")


class TestMeanMembership:
    def test_fallback_policy_estimate_exact_zero(self, two_state_model, two_state_region):
        report = verify_mean_membership(
            two_state_model,
            deterministic_policy(two_state_model),
            replications=1000,
            slot=2,
            region=two_state_region,
        )
        assert report.passed
        assert report.estimate[0] == 0.0
        assert report.dist == 0.0

    def test_randomized_policy_passes(self, two_state_model, two_state_region):
        policy = RandomizedStationaryPolicy(
            weights=(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
        )
        report = verify_mean_membership(
            two_state_model, policy, replications=1000, slot=3, region=two_state_region
        )
        assert report.passed
        assert report.statistical

    def test_estimate_outside_by_less_than_ten_margins_fails(self, two_state_model):
        # Against the region of the same model with options halved, [0, 0.75],
        # the always-serve estimate near 1.5 lies about 0.75 outside: beyond
        # the margin 3*D/sqrt(R) = 0.19 (D = 2, R = 1000), within ten margins.
        half = build_model(
            two_state_model.labels,
            two_state_model.probs,
            [0.5 * opts for opts in two_state_model.options],
        )
        half_region = rate_region(half)
        policy = deterministic_policy(two_state_model, psi=(1, 1))
        report = verify_mean_membership(
            two_state_model, policy, replications=1000, slot=1, region=half_region
        )
        assert report.dist == membership(half_region, report.estimate, 1e-10).dist
        assert report.dist == pytest.approx(0.75, abs=0.05)
        assert report.margin < report.dist < 10 * report.margin
        assert not report.passed

    def test_adversarial_but_feasible_custom_passes(self, two_state_model, two_state_region):
        # history-dependent table, still feasible per slot, so the slot mean
        # stays achievable
        table = {}
        for s0 in range(2):
            for s1 in range(2):
                for level in range(2):
                    table[((s0, s1), level)] = (s0 + s1 + level) % 2
        policy = CustomPolicy(table=table, levels=2, psi=(0, 0))
        report = verify_mean_membership(
            two_state_model, policy, replications=1000, slot=2, region=two_state_region
        )
        assert report.passed


def _mean_cases():
    # Option values that are not dyadic, so sums in any other order than the
    # replication order round differently.
    model = build_model(["s1", "s2"], [0.3, 0.7], [[[0.1], [1.3]], [[0.7], [2.9], [1.7]]])
    queued = build_model(["s"], [1.0], [[[0.9, 0.1], [0.2, 0.7], [0.0, 0.0]]])
    table = {((s0, s1), level): (s0 + s1 + level) % 2
             for s0 in range(2) for s1 in range(2) for level in range(2)}
    bernoulli = BernoulliArrivals(prob=np.array([0.5, 0.3]), batch=np.array([0.7, 1.1]))
    return {
        "deterministic": (model, deterministic_policy(model, psi=(1, 2)), None),
        "randomized": (model, RandomizedStationaryPolicy(
            weights=(np.array([0.25, 0.75]), np.array([0.5, 0.3, 0.2]))), None),
        "target": (model, target_policy(rate_region(model), [1.5]), None),
        "custom": (model, CustomPolicy(table=table, levels=2, psi=(0, 2)), None),
        "maxweight": (queued, MaxWeightPolicy(), bernoulli),
    }


class TestMeanMembershipReference:
    @pytest.mark.parametrize("kind", ["deterministic", "randomized", "target", "custom", "maxweight"])
    @given(seed=st.integers(0, 2**64 - 1), slot=st.integers(1, 4))
    @settings(max_examples=3)
    def test_estimate_equals_sum_of_separate_runs(self, kind, seed, slot):
        model, policy, arrivals = _mean_cases()[kind]
        reps = 1000
        report = verify_mean_membership(
            model, policy, replications=reps, slot=slot, seed=seed, arrivals=arrivals
        )
        root = RandSource(seed)
        total = np.zeros(model.m)
        for r in range(reps):
            trace = run(model, policy, slot, root.stream(f"rep-{r}").seed, arrivals=arrivals)
            total += trace.x[slot - 1]
        assert np.array_equal(report.estimate, total / reps)


    def test_replications_split_across_engine_calls(self):
        # 1000 replications of 300 slots exceed one engine call's share.
        model, policy, _ = _mean_cases()["randomized"]
        report = verify_mean_membership(model, policy, replications=1000, slot=300, seed=9)
        root = RandSource(9)
        total = np.zeros(model.m)
        for r in range(1000):
            total += run(model, policy, 300, root.stream(f"rep-{r}").seed).x[299]
        assert np.array_equal(report.estimate, total / 1000)


class TestBulkEngineReference:
    """The slot engine over B seeds against B separate runs."""

    @pytest.mark.parametrize("kind", ["deterministic", "randomized", "target", "custom", "maxweight"])
    @given(
        seeds=st.lists(st.integers(-(2**64), 2**64 - 1), min_size=2, max_size=4),
        horizon=st.integers(randomize._ROWS // 2 + 1, randomize._ROWS),
    )
    @settings(max_examples=5)
    def test_seeds_advance_as_separate_runs(self, kind, seeds, horizon):
        # B * horizon (seed, slot) rows exceed one block, so some seed's row
        # straddles a block edge of every stream.
        model, policy, arrivals = _mean_cases()[kind]
        states, choices, xs, fallbacks, arrival_rows, queues = _advance(
            model, policy, horizon, seeds, arrivals
        )
        rows = len(seeds) * horizon
        edges = [e for lo in range(randomize._ROWS, rows, randomize._ROWS) for e in (lo - 1, lo)]
        for r, seed in enumerate(seeds):
            # The states on both sides of each block edge, by the scalar draw.
            src = RandSource(seed).stream("states")
            for k in (e - r * horizon for e in edges if 0 <= e - r * horizon < horizon):
                assert states[r, k] == sample_state(model, slot_uniform(src, k + 1))
            trace = run(model, policy, horizon, seed, arrivals=arrivals)
            assert np.array_equal(states[r], trace.states)
            assert np.array_equal(choices[r], trace.choices)
            assert np.array_equal(xs[r], trace.x)
            assert np.array_equal(fallbacks[r], trace.fallbacks)
            if arrivals is None:
                assert arrival_rows is None and queues is None
            else:
                assert np.array_equal(arrival_rows[r], trace.arrivals)
                assert np.array_equal(queues[r], trace.queues)


class TestMaxWeightReplay:
    @given(
        seed=st.integers(0, 2**64 - 1),
        prob=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
        batch=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2),
        horizon=st.integers(1, 300),
    )
    def test_choices_follow_previous_backlog(self, simplex_model, seed, prob, batch, horizon):
        arrivals = BernoulliArrivals(prob=np.array(prob), batch=np.array(batch))
        trace = run(simplex_model, MaxWeightPolicy(), horizon, seed, arrivals=arrivals)
        queue = np.zeros(simplex_model.m)
        for k in range(horizon):
            options = simplex_model.options[trace.states[k]]
            assert trace.choices[k] == int(np.argmax(options @ queue))
            assert np.array_equal(trace.x[k], options[trace.choices[k]])
            queue = np.maximum(queue + trace.arrivals[k] - trace.x[k], 0.0)
            assert np.array_equal(trace.queues[k], queue)


class TestAvgConvergence:
    def test_randomized_long_run(self, two_state_model, two_state_region):
        policy = RandomizedStationaryPolicy(
            weights=(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        )
        trace = run(two_state_model, policy, 100_000, 6)
        report = verify_avg_convergence(trace, two_state_region)
        assert report.passed
        assert report.final_dist <= 0.02

    def test_singleton_model_distance_zero_everywhere(self):
        model = build_model(["a"], [1.0], [[[0.3, 0.4]]])
        region = rate_region(model)
        trace = run(model, deterministic_policy(model), 2048, 8)
        report = verify_avg_convergence(trace, region)
        assert report.passed
        assert np.all(report.dists <= 1e-6)

    def test_boundary_target_converges(self, two_state_model, two_state_region):
        policy = target_policy(two_state_region, [1.5])
        trace = run(two_state_model, policy, 100_000, 10)
        report = verify_avg_convergence(trace, two_state_region)
        assert report.passed
        assert report.final_dist <= report.final_bound

    def test_mid_run_checkpoint_past_its_bound_fails(self, two_state_model, two_state_region):
        policy = deterministic_policy(two_state_model)
        trace = run(two_state_model, policy, 100_000, 3)
        # Forge the record: the final average holds, the average at one
        # checkpoint after burn-in sits past the region [0, 1.5] at twice
        # its 3*D/sqrt(c) bound.
        forged = trace.averages.copy()
        c = 32768
        forged[c - 1] = -6.0 * two_state_model.bound / math.sqrt(c)
        report = verify_avg_convergence(
            dataclasses.replace(trace, averages=forged), two_state_region
        )
        assert report.final_dist <= report.final_bound
        assert not report.passed
        assert not report.within_bound_after_burn_in

    def test_averages_outside_region_fail(self, two_state_model, two_state_region):
        # The verifier judges the recorded averages, not a stored claim.
        trace = run(two_state_model, target_policy(two_state_region, [0.75]), 10_000, 7)
        assert verify_avg_convergence(trace, two_state_region).passed
        shifted = dataclasses.replace(trace, averages=trace.averages + 50.0)
        report = verify_avg_convergence(shifted, two_state_region)
        assert not report.passed
        assert report.final_dist > 40.0

    def test_short_horizon_flagged(self, two_state_model, two_state_region):
        policy = deterministic_policy(two_state_model)
        trace = run(two_state_model, policy, 1, 1)
        report = verify_avg_convergence(trace, two_state_region)
        assert report.insufficient_horizon


class TestConditionalMembership:
    def test_stationary_over_prefixes(self, two_state_model, two_state_region):
        policy = RandomizedStationaryPolicy(
            weights=(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
        )
        report = verify_conditional_membership(
            two_state_model, policy, 3, region=two_state_region
        )
        assert report.passed
        assert report.prefixes == 4  # state prefixes of length 2
        assert report.max_dist <= 1e-9

    def test_fallback_policy_at_origin(self, two_state_model, two_state_region):
        report = verify_conditional_membership(
            two_state_model,
            deterministic_policy(two_state_model),
            2,
            region=two_state_region,
        )
        assert report.passed

    def test_history_dependent_custom(self, two_state_model, two_state_region):
        table = {}
        for s0 in range(2):
            for s1 in range(2):
                for level in range(4):
                    table[((s0, s1), level)] = (s0 ^ s1) if level < 2 else s1
        policy = CustomPolicy(table=table, levels=4, psi=(0, 0))
        report = verify_conditional_membership(
            two_state_model, policy, 2, region=two_state_region
        )
        assert report.passed
        assert report.max_dist <= 1e-9

    def test_agrees_with_mean_membership_at_slot_one(self, two_state_model, two_state_region):
        policy = RandomizedStationaryPolicy(
            weights=(np.array([0.75, 0.25]), np.array([0.25, 0.75]))
        )
        cond = verify_conditional_membership(
            two_state_model, policy, 1, region=two_state_region
        )
        mc = verify_mean_membership(
            two_state_model, policy, replications=1000, slot=1, region=two_state_region
        )
        assert cond.passed and mc.passed
        # the single empty prefix reproduces the exact per-slot mean
        assert cond.prefixes == 1
        exact = policy.slot_mean(two_state_model)
        assert np.array_equal(
            exact, policy.slot_mean(two_state_model, prefix=())
        )

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["target", "custom", "scaled"]))
    def test_matches_one_solve_per_prefix(self, seed, kind):
        rng = np.random.default_rng(seed)
        model = downlink_model(rng, max_states=4) if kind == "target" else random_small_model(rng)
        region = rate_region(model)
        n = model.n_states
        if kind == "target":
            w = [rng.dirichlet(np.ones(o.shape[0])) for o in model.options]
            x = sum(p * (ws @ o) for p, ws, o in zip(model.probs, w, model.options))
            policy = target_policy(region, x)
        elif kind == "scaled":
            w = [rng.dirichlet(np.ones(o.shape[0])) for o in model.options]
            policy = PrefixScaledMean(weights=tuple(w))
        else:
            levels = int(rng.integers(1, 4))
            table = {
                (tuple(rng.integers(0, n, int(rng.integers(1, 3))).tolist()), int(rng.integers(0, levels))):
                    int(rng.integers(-1, 4))
                for _ in range(int(rng.integers(0, 12)))
            }
            psi = tuple(int(rng.integers(0, o.shape[0])) for o in model.options)
            policy = CustomPolicy(table=table, levels=levels, psi=psi)
        slot = int(rng.integers(1, 4))
        report = verify_conditional_membership(model, policy, slot, region=region)
        assert report == ref_verify_conditional(model, policy, slot, region=region)

    def test_forged_prefix_mean_fails_at_that_prefix(self, two_state_model, two_state_region):
        policy = ForgedPrefixMean(weights=(np.array([0.5, 0.5]), np.array([0.25, 0.75])))
        report = verify_conditional_membership(two_state_model, policy, 3, region=two_state_region)
        ref = ref_verify_conditional(two_state_model, policy, 3, region=two_state_region)
        assert not report.passed
        assert report == ref
        assert report.prefixes == 3  # (0, 0), (0, 1), then the forged (1, 0)

    def test_enumeration_cap(self, two_state_model):
        policy = RandomizedStationaryPolicy(
            weights=(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        )
        with pytest.raises(InputError, match="smaller slot"):
            verify_conditional_membership(two_state_model, policy, 12, cap=100)

    def test_cap_counts_state_prefixes_not_levels(self, two_state_model, two_state_region):
        # 2^5 = 32 state prefixes at slot 6, however many randomization levels.
        policy = CustomPolicy(table={((0,), 7): 1, ((1, 0), 3): 1}, levels=8, psi=(0, 0))
        report = verify_conditional_membership(
            two_state_model, policy, 6, region=two_state_region
        )
        assert report == ref_verify_conditional(
            two_state_model, policy, 6, region=two_state_region
        )
        assert report.passed and report.prefixes == 32


class TestMartingale:
    def test_stationary_partial_sums_vanish(self, two_state_model, two_state_region):
        policy = RandomizedStationaryPolicy(
            weights=(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        )
        horizon = 100_000
        trace = run(two_state_model, policy, horizon, 14)
        check = martingale_check(trace, two_state_model, policy)
        assert check.final_average_norm <= 3 * two_state_model.bound / math.sqrt(horizon)

    def test_diffs_have_exact_conditional_means(self, two_state_model):
        policy = deterministic_policy(two_state_model, psi=(1, 1))
        trace = run(two_state_model, policy, 100, 15)
        check = martingale_check(trace, two_state_model, policy)
        mean = policy.slot_mean(two_state_model)
        assert np.allclose(check.diffs, trace.x - mean)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_stationary_shortcut_matches_slot_loop(self, seed):
        rng = np.random.default_rng(seed)
        model = random_small_model(rng)
        weights = tuple(rng.dirichlet(np.ones(a.shape[0])) for a in model.options)
        psi = tuple(int(rng.integers(a.shape[0])) for a in model.options)
        policies = [
            deterministic_policy(model, psi),
            RandomizedStationaryPolicy(weights=weights),
            target_policy(rate_region(model), model.stationary_mean(weights)),
        ]
        for policy in policies:
            assert policy.stationary
            trace = run(model, policy, 64, int(rng.integers(1 << 32)))
            check = martingale_check(trace, model, policy)
            queue = np.zeros(model.m)
            for k in range(trace.horizon):
                want = trace.x[k] - policy.slot_mean(model, trace.states[:k], queue)
                assert check.diffs[k].tobytes() == want.tobytes()

    def test_declared_nonstationary_subclass_takes_slot_loop(self, two_state_model):
        assert not MaxWeightPolicy.stationary and not CustomPolicy.stationary
        policy = DeclaredNonstationary(weights=(np.array([0.5, 0.5]), np.array([0.25, 0.75])))
        trace = run(two_state_model, policy, 200, 24)
        check = martingale_check(trace, two_state_model, policy)
        mean = RandomizedStationaryPolicy.slot_mean(policy, two_state_model)
        for k in range(trace.horizon):
            want = trace.x[k] - mean * (1.0 + k)
            assert check.diffs[k].tobytes() == want.tobytes()

    def test_custom_diffs_match_full_prefix_lookups(self, two_state_model):
        table = {((0,), 0): 1, ((1, 1), 1): 1, ((0, 1, 1), 0): 1, ((1, 0), 2): 7}
        policy = CustomPolicy(table=table, levels=3, psi=(0, 1))
        trace = run(two_state_model, policy, 1500, 21)
        check = martingale_check(trace, two_state_model, policy)
        for k in range(1, trace.horizon + 1):
            prefix = tuple(int(s) for s in trace.states[: k - 1])
            want = trace.x[k - 1] - ref_custom_slot_mean(policy, two_state_model, prefix)
            assert check.diffs[k - 1].tobytes() == want.tobytes()

    def test_maxweight_diffs_read_the_backlog_before_each_slot(self, simplex_model):
        policy = MaxWeightPolicy()
        arrivals = BernoulliArrivals(prob=np.array([0.3, 0.4]), batch=np.array([1.0, 1.0]))
        trace = run(simplex_model, policy, 300, 23, arrivals=arrivals)
        check = martingale_check(trace, simplex_model, policy)
        queue = np.zeros(2)
        for k in range(trace.horizon):
            want = trace.x[k] - policy.slot_mean(simplex_model, queue=queue)
            assert check.diffs[k].tobytes() == want.tobytes()
            queue = trace.queues[k]

    def test_custom_check_is_linear_in_horizon(self, two_state_model):
        # Looking up the whole prefix on every slot made 20,000 slots take 44 s.
        policy = CustomPolicy(table={((0,), 0): 1, ((1, 1), 1): 1}, levels=2, psi=(0, 0))
        trace = run(two_state_model, policy, 20_000, 22)
        start = time.perf_counter()
        check = martingale_check(trace, two_state_model, policy)
        assert time.perf_counter() - start < 10.0
        assert check.diffs.shape == (20_000, two_state_model.m)
