import time
from unittest import mock

import numpy as np
import pytest

from oppsched import (
    BernoulliArrivals,
    CustomPolicy,
    MaxWeightPolicy,
    MembershipError,
    RandomizedStationaryPolicy,
    RandSource,
    build_model,
    deterministic_policy,
    rate_region,
    run,
    sim,
    target_policy,
)
from hypothesis import given
from hypothesis import strategies as st

from oppsched.errors import InputError
from oppsched.policy import policy_from_dict
from oppsched.randomize import slot_uniform

from conftest import random_small_model


def max_weight_choice(q, options) -> int:
    """The max-weight choice among ``options`` under backlog ``q``, as the
    rule picks it in a one-state model."""
    model = build_model(["s"], [1.0], [options])
    return MaxWeightPolicy().select(model, [0], None, np.asarray(q, dtype=np.float64))[0]


class TestMaxWeight:
    def test_zero_queue_tie_break(self):
        assert max_weight_choice([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]) == 0

    def test_heavier_component_wins(self):
        assert max_weight_choice([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]]) == 1

    def test_combined_option_beats_pure(self):
        opts = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]]
        assert max_weight_choice([5.0, 5.0], opts) == 2

    def test_scaling_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            q = rng.uniform(0, 3, size=3)
            opts = rng.uniform(-1, 1, size=(4, 3))
            base = max_weight_choice(q, opts)
            for c in (0.1, 2.0, 1000.0):
                assert max_weight_choice(c * q, opts) == base

    def test_negative_queue_rejected(self, simplex_model):
        # slot_mean is the public method that takes a caller's backlog.
        with pytest.raises(InputError, match="nonnegative"):
            MaxWeightPolicy().slot_mean(simplex_model, queue=np.array([-1.0, 0.0]))

    @pytest.mark.parametrize("queue", [[np.nan, 5.0], [np.inf, 5.0], [1.0, 2.0, 3.0],
                                       [[1.0, 2.0]]], ids=["nan", "inf", "length-3", "2-D"])
    def test_malformed_backlog_rejected(self, simplex_model, queue):
        # A nan backlog once picked option 0 silently, an infinite one warned,
        # and a wrong shape reached the argmax.
        with pytest.raises(InputError, match="queue"):
            MaxWeightPolicy().slot_mean(simplex_model, queue=np.array(queue))


class TestDecide:
    """The slot decision: ``select`` on the observed prefix and the slot uniform."""

    def test_deterministic_always_psi(self, two_state_model):
        policy = deterministic_policy(two_state_model)
        src = RandSource(3)
        for k in range(1, 20):
            states = [k % 2] * k
            assert policy.select(two_state_model, states, slot_uniform(src, k)) == (0, False)

    def test_randomized_inverse_cdf_threshold(self, two_state_model):
        policy = RandomizedStationaryPolicy(
            weights=(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        )
        # u = 0.75 falls past the 0.5 threshold, picking the rate-1 option
        idx, fallback = policy.select(two_state_model, [0], 0.75)
        assert (idx, fallback) == (1, False)
        assert policy.select(two_state_model, [0], 0.25)[0] == 0

    def test_maxweight_serves_longest_queue(self, simplex_model):
        policy = MaxWeightPolicy()
        idx, _ = policy.select(simplex_model, [0], 0.0, queue=np.array([3.0, 1.0]))
        assert simplex_model.options[0][idx].tolist() == [1.0, 0.0]

    def test_decide_consumes_slot_uniform(self, two_state_model):
        # The engine's slot-k decision reads the slot-k uniform of the
        # seed's policy stream.
        policy = RandomizedStationaryPolicy(
            weights=(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        )
        trace = run(two_state_model, policy, 64, 99)
        src = RandSource(99).stream("policy")
        for k in range(1, trace.horizon + 1):
            u = slot_uniform(src, k)
            expected = policy.select(two_state_model, trace.states[:k].tolist(), u)[0]
            assert trace.choices[k - 1] == expected


class TestFeasibility:
    def test_every_policy_kind_yields_valid_indices(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(65):
            model = random_small_model(rng)
            policies = [
                deterministic_policy(model),
                RandomizedStationaryPolicy(
                    weights=tuple(
                        np.full(a.shape[0], 1.0 / a.shape[0]) for a in model.options
                    )
                ),
                MaxWeightPolicy(),
                CustomPolicy(table={}, levels=4, psi=tuple(0 for _ in model.options)),
            ]
            for policy in policies:
                for probe in range(40):
                    k = int(rng.integers(1, 6))
                    states = [int(rng.integers(model.n_states)) for _ in range(k)]
                    queue = (rng.uniform(0, 4, size=model.m)
                             if isinstance(policy, MaxWeightPolicy) else None)
                    u = slot_uniform(RandSource(probe), k)
                    idx, _ = policy.select(model, states, u, queue)
                    assert 0 <= idx < model.options[states[-1]].shape[0]
                    checked += 1
        assert checked >= 10_000

    def test_causality_future_states_irrelevant(self, two_state_model):
        base_table = {((0, 1), level): 1 for level in range(4)}
        policy = CustomPolicy(table=base_table, levels=4, psi=(0, 0))
        u = slot_uniform(RandSource(5), 2)
        base = policy.select(two_state_model, [0, 1], u)
        # a policy differing only on extended histories decides slot 2 the same
        for future in ((0,), (1,), (0, 0), (1, 1, 0)):
            noisy = dict(base_table)
            for level in range(4):
                noisy[((0, 1) + future, level)] = 0
            altered = CustomPolicy(table=noisy, levels=4, psi=(0, 0))
            assert altered.select(two_state_model, [0, 1], u) == base

    def test_stationary_ignores_earlier_states(self, two_state_model):
        policy = RandomizedStationaryPolicy(
            weights=(np.array([0.25, 0.75]), np.array([0.75, 0.25]))
        )
        src = RandSource(21)
        for k in (2, 3, 4):
            u = slot_uniform(src, k)
            prefixes = [
                [0] * (k - 1) + [1],
                [1] * (k - 1) + [1],
                list(np.resize([0, 1], k - 1)) + [1],
            ]
            decisions = {policy.select(two_state_model, p, u)[0] for p in prefixes}
            assert len(decisions) == 1


class TestCustomFallback:
    def test_missing_entry_falls_back_and_flags(self, two_state_model):
        policy = CustomPolicy(table={}, levels=2, psi=(1, 0))
        idx, fallback = policy.select(two_state_model, [0], 0.3)
        assert idx == 1 and fallback

    def test_present_entry_used(self, two_state_model):
        policy = CustomPolicy(table={((0,), 0): 1}, levels=2, psi=(0, 0))
        idx, fallback = policy.select(two_state_model, [0], 0.3)
        assert idx == 1 and not fallback

    def test_invalid_entry_guarded(self, two_state_model):
        policy = CustomPolicy(table={((0,), 0): 99}, levels=2, psi=(0, 0))
        idx, fallback = policy.select(two_state_model, [0], 0.3)
        assert idx == 0 and fallback


def ref_custom_select(policy, model, states, u):
    """Table lookup on a copy of the whole prefix, as ``select`` once did."""
    level = min(int(u * policy.levels), policy.levels - 1)
    entry = policy.table.get((tuple(states), level))
    s = states[-1]
    if entry is None or not (0 <= entry < model.options[s].shape[0]):
        return policy.psi[s], True
    return entry, False


class TestCustomSelect:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_prefix_copying_lookup(self, seed):
        rng = np.random.default_rng(seed)
        model = random_small_model(rng)
        n = model.n_states
        levels = int(rng.integers(1, 5))
        path = rng.integers(0, n, 12).tolist()
        table = {}
        for _ in range(int(rng.integers(0, 30))):
            length = int(rng.integers(1, 9))
            # Half the keys lie on the walked path, so lookups hit.
            prefix = path[:length] if rng.random() < 0.5 else rng.integers(0, n, length).tolist()
            table[(tuple(prefix), int(rng.integers(0, levels)))] = int(rng.integers(-1, 5))
        # The longest key matches the path at every level, the edge of the skip.
        longest = max((len(p) for p, _ in table), default=int(rng.integers(1, 9)))
        table.update({(tuple(path[:longest]), level): 0 for level in range(levels)})
        psi = tuple(int(rng.integers(0, a.shape[0])) for a in model.options)
        policy = CustomPolicy(table=table, levels=levels, psi=psi)
        for k in range(1, len(path) + 1):
            u = float(rng.random())
            expected = ref_custom_select(policy, model, path[:k], u)
            assert policy.select(model, path[:k], u) == expected
            assert policy.select(model, tuple(path[:k]), u) == expected

    def test_long_run_is_linear_in_horizon(self, two_state_model):
        # Copying the prefix on every slot made 1e5 slots take minutes.
        policy = CustomPolicy(table={((0,), 0): 1, ((1, 1), 1): 1}, levels=2, psi=(0, 0))
        start = time.perf_counter()
        trace = run(two_state_model, policy, 100_000, 5)
        assert time.perf_counter() - start < 15.0
        assert trace.fallbacks[2:].all()


class TestTargetPolicy:
    def test_boundary_target_deterministic_per_state(self, two_state_region):
        policy = target_policy(two_state_region, [1.5])
        assert policy.weights[0].tolist() == [0.0, 1.0]
        assert policy.weights[1].tolist() == [0.0, 1.0]

    def test_zero_target_is_fallback(self, two_state_region, two_state_model):
        policy = target_policy(two_state_region, [0.0])
        assert policy.slot_mean(two_state_model)[0] == pytest.approx(0.0, abs=1e-9)

    def test_interior_target_mean(self, two_state_region, two_state_model):
        policy = target_policy(two_state_region, [0.75])
        assert abs(policy.slot_mean(two_state_model)[0] - 0.75) <= 1e-5

    def test_unachievable_target_raises(self, two_state_region):
        with pytest.raises(MembershipError):
            target_policy(two_state_region, [1.7])


# Option entries include -0.0, whose sign a sum can lose, and repeats, which
# tie in the LMO.
ONE_HOT_VALUES = np.array([0.0, -0.0, 0.25, 0.5, 1.0])


def scalar_mean(model, pick):
    """Sum of p_s * options[s][pick(s)], one state at a time."""
    ref = np.zeros(model.m)
    for s in range(model.n_states):
        ref = ref + model.probs[s] * model.options[s][pick(s)]
    return ref


class TestDeterministicOneHot:
    """A deterministic rule is the one-hot stationary rule, tied to the scalar
    reference: option psi[s] in state s, mean sum of p_s * options[s][psi[s]].
    A max-weight rule's law is one-hot too, at ``select``'s option."""

    @given(seed=st.integers(0, 2**32 - 1), queued=st.booleans())
    def test_matches_scalar_reference(self, seed, queued):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        probs = rng.random(n) + 0.05
        options = [rng.choice(ONE_HOT_VALUES, size=(int(rng.integers(1, 5)), m))
                   for _ in range(n)]
        model = build_model([f"s{i}" for i in range(n)], probs / probs.sum(), options)
        psi = [int(rng.integers(arr.shape[0])) for arr in model.options]
        policy = deterministic_policy(model, psi)
        arrivals = (BernoulliArrivals(prob=rng.random(m), batch=rng.random(m))
                    if queued else None)
        run_seed = int(rng.integers(2**63))

        # The arrival stream is drawn in queueing, so these count the state
        # and policy draws only: rules without randomness skip the latter.
        with mock.patch.object(sim, "slot_uniforms", wraps=sim.slot_uniforms) as draws:
            trace = run(model, policy, 200, run_seed, arrivals=arrivals)
        assert draws.call_count == 1
        assert trace.choices.tolist() == [psi[s] for s in trace.states.tolist()]

        assert policy.slot_mean(model).tobytes() == scalar_mean(model, psi.__getitem__).tobytes()
        queue = rng.choice([0.0, 0.5, 1.0, 2.0], size=m)
        mw = MaxWeightPolicy()
        want = scalar_mean(model, lambda s: mw.select(model, [s], None, queue)[0])
        assert mw.slot_mean(model, queue=queue).tobytes() == want.tobytes()

        vertex, _ = rate_region(model).body.lmo(rng.standard_normal(m))
        target = target_policy(rate_region(model), vertex)
        with mock.patch.object(sim, "slot_uniforms", wraps=sim.slot_uniforms) as draws:
            run(model, target, 200, run_seed, arrivals=arrivals)
        assert draws.call_count == 1


def random_table(rng, n, levels, prefix):
    """Up to 20 entries, some naming no option; half the keys extend
    ``prefix`` by one state, so its lookups hit, the rest hold one to three
    random states."""
    table = {}
    for _ in range(int(rng.integers(0, 20))):
        key = (prefix + (int(rng.integers(n)),) if rng.random() < 0.5
               else tuple(rng.integers(0, n, int(rng.integers(1, 4))).tolist()))
        table[(key, int(rng.integers(levels)))] = int(rng.integers(-1, 5))
    return table


class TestSlotLaw:
    """Each rule's ``slot_law`` against its own ``select``."""

    @pytest.mark.parametrize("kind", ["deterministic", "randomized", "target", "custom", "maxweight"])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_law_matches_select(self, kind, seed):
        rng = np.random.default_rng(seed)
        model = random_small_model(rng)
        n = model.n_states
        weights = tuple(rng.dirichlet(np.ones(a.shape[0])) for a in model.options)
        psi = tuple(int(rng.integers(a.shape[0])) for a in model.options)
        prefix = tuple(rng.integers(0, n, int(rng.integers(0, 4))).tolist())
        queue = rng.choice([0.0, 0.5, 1.0, 3.0], size=model.m)
        levels = int(rng.integers(1, 9))  # k / levels * levels == k exactly below 22
        policy = {
            "deterministic": lambda: deterministic_policy(model, psi),
            "randomized": lambda: RandomizedStationaryPolicy(weights=weights),
            "target": lambda: target_policy(rate_region(model), model.stationary_mean(weights)),
            "custom": lambda: CustomPolicy(table=random_table(rng, n, levels, prefix),
                                           levels=levels, psi=psi),
            "maxweight": MaxWeightPolicy,
        }[kind]()
        law = policy.slot_law(model, prefix, queue)

        assert len(law) == n
        for row, opts in zip(law, model.options):
            assert row.shape == (opts.shape[0],)
            assert np.all(row >= 0.0) and abs(row.sum() - 1.0) <= 1e-9
        if policy.stationary:
            assert law is policy.weights
        for s, (row, opts) in enumerate(zip(law, model.options)):
            if kind == "custom":
                # select at the midpoint of each level cell.
                picks = [policy.select(model, prefix + (s,), (v + 0.5) / levels)[0]
                         for v in range(levels)]
                counts = np.bincount(picks, minlength=opts.shape[0])
                assert np.array_equal(row * levels, counts)
            elif kind == "maxweight":
                j = policy.select(model, [s], None, queue)[0]
                assert np.array_equal(row, np.eye(opts.shape[0])[j])


class TestWeightRows:
    def test_sum_tolerance_is_tight(self):
        # Rows may miss 1 by rounding (1e-9), not by 1e-6.
        with pytest.raises(InputError, match="sum to 1"):
            RandomizedStationaryPolicy(weights=(np.array([0.5, 0.5 + 1e-6]),))
        policy = RandomizedStationaryPolicy(weights=(np.array([0.5, 0.5 + 1e-12]),))
        assert policy.weights[0].tolist() == [0.5, 0.5 + 1e-12]


class TestPolicyJson:
    def test_each_kind_parses(self, two_state_model, two_state_region):
        det = policy_from_dict({"kind": "deterministic"}, two_state_model)
        assert det.kind() == "deterministic"
        rnd = policy_from_dict(
            {"kind": "randomized", "weights": [[0.5, 0.5], [1.0, 0.0]]}, two_state_model
        )
        assert rnd.kind() == "randomized"
        tgt = policy_from_dict(
            {"kind": "target", "x": [0.75]}, two_state_model, two_state_region
        )
        assert tgt.kind() == "target"
        mw = policy_from_dict({"kind": "maxweight"}, two_state_model)
        assert mw.kind() == "maxweight"

    def test_unknown_kind_rejected(self, two_state_model):
        with pytest.raises(InputError):
            policy_from_dict({"kind": "psychic"}, two_state_model)

    def test_bad_weights_shape_rejected(self, two_state_model):
        with pytest.raises(InputError):
            policy_from_dict(
                {"kind": "randomized", "weights": [[1.0]]}, two_state_model
            )
