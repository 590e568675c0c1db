import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from oppsched import (
    MembershipError,
    build_model,
    decompose,
    dominance,
    enumerate_generators,
    lmo,
    membership,
    rate_region,
    target_policy,
)
from oppsched import geometry
from oppsched.errors import ConvergenceError, InputError
from oppsched.region import TargetDecomposition, shortfall, support

from conftest import downlink_model, random_small_model


def brute_support(model, d):
    """Oracle: max of d.y over all deterministic per-state selections."""
    best = -np.inf
    for combo in itertools.product(*(range(a.shape[0]) for a in model.options)):
        point = sum(
            model.probs[s] * model.options[s][i] for s, i in enumerate(combo)
        )
        best = max(best, float(np.dot(d, point)))
    return best


class TestLmo:
    def test_two_state_downhill(self, two_state_region):
        assert lmo(two_state_region, [-1.0])[0] == pytest.approx(1.5)

    def test_two_state_uphill(self, two_state_region):
        assert lmo(two_state_region, [1.0])[0] == 0.0

    def test_singleton_options_ignore_direction(self):
        model = build_model(["a", "b"], [0.3, 0.7], [[[2.0]], [[1.0]]])
        region = rate_region(model)
        fixed = 0.3 * 2.0 + 0.7 * 1.0
        for d in ([-5.0], [0.0], [3.0]):
            assert lmo(region, d)[0] == pytest.approx(fixed)

    def test_tie_breaks_to_lowest_index(self, simplex_region):
        point, choices = simplex_region.body.lmo(np.zeros(2))
        assert choices == (0,)
        assert point.tolist() == [1.0, 0.0]


class TestEnumerateGenerators:
    def test_two_state_reference(self, two_state_region):
        gens = enumerate_generators(two_state_region)
        assert sorted(gens.ravel().tolist()) == [0.0, 0.5, 1.0, 1.5]

    def test_single_state_options(self):
        model = build_model(["a"], [1.0], [[[1.0], [4.0]]])
        gens = enumerate_generators(rate_region(model))
        assert sorted(gens.ravel().tolist()) == [1.0, 4.0]

    def test_all_options_equal(self):
        model = build_model(["a", "b"], [0.5, 0.5], [[[3.0], [3.0]], [[3.0], [3.0]]])
        gens = enumerate_generators(rate_region(model))
        assert set(np.round(gens.ravel(), 12).tolist()) == {3.0}

    def test_cap_exceeded_mentions_oracle_mode(self, two_state_region):
        with pytest.raises(InputError, match="oracle"):
            enumerate_generators(two_state_region, cap=3)


class TestMembership:
    def test_interior_point(self, two_state_region):
        res = membership(two_state_region, [1.2])
        assert res.inside and res.dist <= 1e-5

    def test_outside_with_certificate(self, two_state_region):
        res = membership(two_state_region, [1.6], tol=1e-10)
        assert not res.inside
        half = res.certificate
        assert half.a.tolist() == [1.0]
        assert half.b == pytest.approx(1.5, abs=1e-9)
        assert float(half.a @ np.array([1.6])) > half.b + 1e-10

    def test_origin_achievable(self, two_state_region):
        assert membership(two_state_region, [0.0]).inside

    def test_convexity_midpoints(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            model = random_small_model(rng)
            region = rate_region(model)
            gens = enumerate_generators(region)
            a = gens[rng.integers(len(gens))]
            b = gens[rng.integers(len(gens))]
            assert membership(region, 0.5 * (a + b)).inside


class TestSupportConsistency:
    def test_lmo_matches_enumeration_on_random_models(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            model = random_small_model(rng)
            region = rate_region(model)
            for _ in range(20):
                d = rng.standard_normal(model.m)
                assert support(region, d) == pytest.approx(
                    brute_support(model, d), abs=1e-12
                )

    def test_option_addition_never_shrinks(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            model = random_small_model(rng)
            region = rate_region(model)
            grown_options = list(model.options)
            s = int(rng.integers(model.n_states))
            extra = rng.uniform(-1, 1, size=(1, model.m))
            grown_options[s] = np.vstack([grown_options[s], extra])
            grown = rate_region(
                build_model(model.labels, model.probs, grown_options)
            )
            for _ in range(20):
                d = rng.standard_normal(model.m)
                assert support(grown, d) >= support(region, d) - 1e-12


class TestDominance:
    def test_inside_simplex(self, simplex_region):
        assert dominance(simplex_region, [0.4, 0.4])

    def test_beyond_symmetric_capacity(self, simplex_region):
        assert not dominance(simplex_region, [0.6, 0.6])

    def test_origin_always_dominated(self, simplex_region, two_state_region):
        assert dominance(simplex_region, [0.0, 0.0])
        assert dominance(two_state_region, [0.0])

    def test_componentwise_not_euclidean(self, simplex_region):
        # (0.9, 0) is dominated by the vertex (1, 0) even though it is far
        # from the simplex centroid
        assert dominance(simplex_region, [0.9, 0.0])


def lp_margin(region, a):
    """Largest t with some generator mixture y >= a + t*1: positive exactly
    when a is strictly dominated, and -t bounds the shortfall norm."""
    gens = enumerate_generators(region)
    n, m = gens.shape
    res = linprog(
        c=np.r_[np.zeros(n), -1.0],
        A_ub=np.c_[-gens.T, np.ones(m)],
        b_ub=-np.asarray(a, dtype=np.float64),
        A_eq=np.r_[np.ones(n), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * n + [(None, None)],
    )
    assert res.status == 0
    return -res.fun


class TestDominanceReference:
    """Dominance and shortfall against a linear program over the explicit
    generators of the region."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        downlink=st.booleans(),
        tol=st.sampled_from([1e-10, 1e-6]),
    )
    def test_matches_lp_margin(self, seed, downlink, tol):
        rng = np.random.default_rng(seed)
        model = downlink_model(rng) if downlink else random_small_model(rng)
        region = rate_region(model)
        w = [rng.dirichlet(np.ones(o.shape[0])) for o in model.options]
        inside = sum(p * (ws @ o) for p, ws, o in zip(model.probs, w, model.options))
        scale = max(model.bound, 0.1)
        for a in (
            inside - 0.05 * scale * rng.random(model.m),
            inside + 0.2 * scale * rng.standard_normal(model.m),
            rng.uniform(-1.5, 1.5, model.m),
        ):
            t = lp_margin(region, a)
            if t > 1e-6:
                assert dominance(region, a, tol)
            elif -t > math.sqrt(tol) + 1e-6:
                # The shortfall norm is at least -t, past the verdict's sqrt(tol).
                assert not dominance(region, a, tol)
            if t < -1e-6:
                deficit = shortfall(region, a, tol)
                assert -t - math.sqrt(tol) <= deficit <= math.sqrt(model.m) * -t + 1e-9

    def test_stalled_downlink_point_is_dominated(self):
        # Minimizing the shortfall objective directly ran 100,000 Frank-Wolfe
        # iterations here and raised ConvergenceError; the LP margin is +6.6e-5.
        probs = np.array([0.110721, 0.115152, 0.251528, 0.114837, 0.240988, 0.166775])
        options = [
            [[0, 0], [0.841998307451931, 0], [0, 0.4272149528800127]],
            [[0, 0], [0.3347582676670011, 0], [0, 0.7198785564012431]],
            [[0, 0]],
            [[0, 0], [0.3880279336684111, 0], [0, 0.8828228174088812]],
            [[0, 0], [0, 0.38795421118152706]],
            [[0, 0], [0.7818097376904489, 0], [0, 0.4676191717890906]],
        ]
        model = build_model([f"s{i}" for i in range(6)], probs / probs.sum(), options)
        region = rate_region(model)
        a = [0.2341357593554848, 0.2549308619907282]
        assert lp_margin(region, a) > 6e-5
        assert dominance(region, a)


class TestTolerance:
    @pytest.mark.parametrize("fn", [membership, decompose, dominance, shortfall])
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_tol_that_is_not_positive_finite(self, simplex_region, fn, tol):
        with pytest.raises(InputError, match="tolerance must be a positive finite number"):
            fn(simplex_region, [0.2, 0.2], tol)


class TestDecompose:
    def test_boundary_target_unique_weights(self, two_state_region):
        d = decompose(two_state_region, [1.5])
        assert d.weights[0].tolist() == [0.0, 1.0]
        assert d.weights[1].tolist() == [0.0, 1.0]
        assert d.residual <= 1e-9

    def test_zero_target_uses_first_options(self, two_state_region, two_state_model):
        d = decompose(two_state_region, [0.0])
        assert d.mean(two_state_model)[0] == pytest.approx(0.0, abs=1e-9)
        assert d.weights[0][0] == pytest.approx(1.0, abs=1e-9)
        assert d.weights[1][0] == pytest.approx(1.0, abs=1e-9)

    def test_interior_target_recomputed_mean(self, two_state_region, two_state_model):
        d = decompose(two_state_region, [0.75])
        assert abs(d.mean(two_state_model)[0] - 0.75) <= 1e-5
        for w in d.weights:
            assert np.all(w >= -1e-12)
            assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_outside_target_raises_with_certificate(self, two_state_region):
        with pytest.raises(MembershipError) as exc:
            decompose(two_state_region, [1.7])
        assert exc.value.certificate is not None

    def test_residual_guard_rejects_mislabelled_atoms(self, two_state_region, monkeypatch):
        # A projection that reports x itself, converged, but whose one atom
        # names options (0, 0): the regrouped weights mean 0, not 1.5.
        x = np.array([1.5])
        forged = geometry.FWResult(
            point=x.copy(), value=0.0, gap=0.0, iterations=1,
            atoms=[geometry.Atom(x.copy(), 1.0, (0, 0))],
        )
        monkeypatch.setattr(geometry, "frank_wolfe", lambda *args, **kwargs: forged)
        with pytest.raises(MembershipError) as exc:
            decompose(two_state_region, x)
        # The residual guard raises without a certificate; a projection
        # verdict would carry one.
        assert exc.value.certificate is None

    def test_soundness_on_random_models(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            model = random_small_model(rng)
            region = rate_region(model)
            gens = enumerate_generators(region)
            w = rng.random(len(gens))
            w /= w.sum()
            target = w @ gens
            d = decompose(region, target)
            mean = d.mean(model)
            assert float(np.linalg.norm(mean - target)) <= 1e-5


def ref_decompose(region, x, tol=1e-10):
    """Decide membership first, then solve the projection again for its atoms."""
    x = geometry.as_vector(x, region.dim)
    check = membership(region, x, tol)
    if not check.inside:
        raise MembershipError(x.tolist(), check.certificate)
    res = geometry.frank_wolfe(region.body, x, tol=min(tol, 1e-12), f_stop=tol * 1e-4)
    model = region.model
    weights = [np.zeros(arr.shape[0]) for arr in model.options]
    for atom in res.atoms:
        for s, idx in enumerate(atom.tag):
            weights[s][idx] += atom.weight
    mean = np.zeros(model.m)
    for s in range(model.n_states):
        total = weights[s].sum()
        if total > 0:
            weights[s] /= total
        mean += model.probs[s] * (weights[s] @ model.options[s])
    residual = float(np.linalg.norm(mean - x))
    if residual > math.sqrt(tol):
        raise MembershipError(x.tolist(), check.certificate)
    return TargetDecomposition(target=x, weights=tuple(weights), residual=residual)


def outcome(fn, region, x, tol):
    """Everything a decomposition or its refusal exposes, as comparable bytes."""
    try:
        d = fn(region, x, tol)
    except MembershipError as e:
        cert = e.certificate
        return ("outside", e.point, None if cert is None else (cert.a.tobytes(), cert.b))
    except ConvergenceError:
        return ("stalled",)
    return ("inside", [w.tobytes() for w in d.weights], d.residual)


def policy_decomposition(region, x, tol):
    """``target_policy``'s weights; a policy keeps no residual, so it comes
    from ``decompose`` on the same query."""
    weights = target_policy(region, x, tol).weights
    residual = decompose(region, x, tol).residual
    return TargetDecomposition(target=x, weights=weights, residual=residual)


class TestDecomposeReference:
    """``decompose`` reads its verdict from its own solve; the reference
    decides with ``membership`` first.  Both must give the same bytes, at
    tolerances above and below the gap floor."""

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        downlink=st.booleans(),
        tol=st.sampled_from([1e-10, 1e-6, 1e-13, 1e-16]),
    )
    def test_matches_membership_then_solve(self, seed, downlink, tol):
        rng = np.random.default_rng(seed)
        model = downlink_model(rng) if downlink else random_small_model(rng)
        region = rate_region(model)
        w = [rng.dirichlet(np.ones(o.shape[0])) for o in model.options]
        inside = sum(p * (ws @ o) for p, ws, o in zip(model.probs, w, model.options))
        a = np.abs(rng.standard_normal(model.m)) + 0.1
        step = 0.1 * max(model.bound, 0.1) * (a / np.linalg.norm(a) + rng.random(model.m))
        beyond = lmo(region, -a) + step  # past the support point of a
        for x in (inside, beyond, rng.uniform(-1.5, 1.5, model.m)):
            want = outcome(ref_decompose, region, x, tol)
            assert outcome(decompose, region, x, tol) == want
            assert outcome(policy_decomposition, region, x, tol) == want

    def test_scalar_target_refusal_names_a_vector(self, two_state_region):
        with pytest.raises(MembershipError) as exc:
            target_policy(two_state_region, 1.7)
        assert exc.value.point == [1.7]
        assert exc.value.certificate.a.tolist() == [1.0]
