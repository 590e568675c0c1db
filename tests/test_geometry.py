import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import nnls

from oppsched import (
    ConvexBody,
    HalfSpace,
    build_model,
    decompose,
    dominance,
    enumerate_generators,
    membership,
    outer_halfspaces,
    rate_region,
    support,
    target_policy,
    verify_conditional_membership,
)
from oppsched import geometry
from oppsched.errors import ConvergenceError, InputError
from oppsched.geometry import frank_wolfe


def interval_body(lo=0.0, hi=1.5):
    return ConvexBody.from_points([[lo], [hi]])


TRIANGLE = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def triangle_body():
    return ConvexBody.from_points(TRIANGLE)


def projection(body, x, tol=1e-10):
    """Closest body point to x and its distance, from the Frank-Wolfe solve."""
    res = frank_wolfe(body, x, tol=tol)
    return res.point, float(np.sqrt(max(res.value, 0.0)))


def random_points(rng):
    m = int(rng.integers(1, 4))
    return rng.uniform(-2, 2, size=(int(rng.integers(2, 8)), m))


class TestSupport:
    def test_interval_positive_direction(self):
        assert support(ConvexBody.from_points([[0.0], [1.5]]), [1.0]) == 1.5

    def test_triangle_diagonal(self):
        assert support(triangle_body(), [1.0, 1.0]) == 1.0

    def test_zero_direction(self):
        assert support(triangle_body(), [0.0, 0.0]) == 0.0

    def test_subadditive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            body = ConvexBody.from_points(random_points(rng))
            a = rng.standard_normal(body.dim)
            b = rng.standard_normal(body.dim)
            assert support(body, a + b) <= support(body, a) + support(body, b) + 1e-12

    def test_lmo_form_matches_generator_form(self):
        gens = np.array([[0.0, 0.0], [2.0, 1.0], [-1.0, 3.0]])
        body = ConvexBody.from_points(gens)
        rng = np.random.default_rng(1)
        for _ in range(30):
            d = rng.standard_normal(2)
            assert support(body, d) == pytest.approx(float(np.max(gens @ d)), abs=1e-12)


class TestProject:
    def test_point_beyond_interval(self):
        point, dist = projection(interval_body(), [2.0])
        assert point[0] == pytest.approx(1.5, abs=1e-6)
        assert dist == pytest.approx(0.5, abs=1e-6)

    def test_interior_point(self):
        point, dist = projection(interval_body(), [1.2])
        assert dist <= 1e-5
        assert point[0] == pytest.approx(1.2, abs=1e-5)

    def test_simplex_face(self):
        # closed form: (1,1) projects to the midpoint of the diagonal face
        point, dist = projection(triangle_body(), [1.0, 1.0])
        assert np.allclose(point, [0.5, 0.5], atol=1e-6)
        assert dist == pytest.approx(np.sqrt(0.5), abs=1e-6)

    def test_variational_inequality_on_generators(self):
        rng = np.random.default_rng(2)
        tol = 1e-10
        for _ in range(40):
            gens = random_points(rng)
            x = rng.uniform(-3, 3, size=gens.shape[1])
            point, dist = projection(ConvexBody.from_points(gens), x, tol)
            slack = np.sqrt(tol) * max(dist, 1.0)
            for g in gens:
                assert float((x - point) @ (g - point)) <= slack + 1e-9

    def test_membership_consistency_with_support(self):
        rng = np.random.default_rng(3)
        tol = 1e-10
        for _ in range(30):
            gens = random_points(rng)
            body = ConvexBody.from_points(gens)
            # With one state the rate region is the hull of its options.
            region = rate_region(build_model(["s"], [1.0], [gens]))
            w = rng.random(gens.shape[0])
            w /= w.sum()
            inside = w @ gens
            direction = rng.standard_normal(body.dim)
            direction /= np.linalg.norm(direction)
            radius = float(np.max(np.linalg.norm(gens, axis=1)))
            outside = inside + direction * (2.0 * radius + 1.0)
            for x, expect_in in ((inside, True), (outside, False)):
                _, dist = projection(body, x, tol)
                assert membership(region, x, tol).inside == expect_in
                dirs = rng.standard_normal((64, body.dim))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                margin = max(float(d @ x) - support(body, d) for d in dirs)
                if expect_in:
                    assert dist <= np.sqrt(tol)
                    assert margin <= 1e-6
                else:
                    assert dist > np.sqrt(tol)
                    assert margin > 1e-6

    def test_iteration_cap_raises_with_gap(self, monkeypatch):
        # An interior point needs all three vertices; one iteration and one
        # min-norm-point cycle hold only two of them.
        monkeypatch.setattr(geometry, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as exc:
            frank_wolfe(triangle_body(), [0.2, 0.3], tol=1e-16)
        assert exc.value.gap > 0


def ref_sq_dist(pts, x):
    """Squared distance from x to the hull of the rows, by brute force: the
    nearest point is the affine projection onto at most m+1 of the rows
    with nonnegative weights (Caratheodory)."""
    best = np.inf
    for size in range(1, min(len(pts), pts.shape[1] + 1) + 1):
        for rows in itertools.combinations(range(len(pts)), size):
            p = pts[list(rows)]
            kkt = np.ones((size + 1, size + 1))
            kkt[:size, :size], kkt[size, size] = p @ p.T, 0.0
            w = np.linalg.lstsq(kkt, np.append(p @ x, 1.0), rcond=None)[0][:size]
            if np.all(w >= -1e-12):
                best = min(best, float(np.sum((w @ p - x) ** 2)))
    return best


def nnls_sq_dist(pts, x):
    """Squared distance from x to the hull of many rows, to about 1e-10, by
    nonnegative least squares with a heavy row holding the weight sum to 1."""
    heavy = 1e5
    w = nnls(np.vstack([pts.T, np.full(len(pts), heavy)]), np.append(x, heavy))[0]
    return float(np.sum((w @ pts - x) ** 2))


# Reproducers of away-step stalls: generators that nearly coincide, option
# segments that are nearly parallel.  Each ran all 100,000 Frank-Wolfe
# iterations of the former cap, 3-6 s, before min-norm-point finished it.
STALL_A = build_model(
    ["s0", "s1", "s2", "s3"], [0.0226, 0.3628, 0.2978, 0.3168],
    [[[-0.75, 0.25], [-0.5, 0.25], [1.0, -0.5]], [[-0.25, 0.25]], [[0.0, -0.75]],
     [[-0.75, -0.5], [0.25, -1.0]]],
)
STALL_B = build_model(
    ["s0", "s1"], [0.5884, 0.4116],
    [[[-1.0, -0.75, 0.25, -0.75], [-0.25, 0.75, -0.5, 0.5], [1.0, 0.5, 0.25, -1.0]],
     [[-0.25, 0.25, -1.0, 0.5], [0.0, 0.75, 1.0, -1.0], [1.0, 0.25, -0.75, -0.5]]],
)
STALL_C = build_model(
    ["s0", "s1", "s2", "s3"], [0.2916, 0.3380, 0.1979, 0.1725],
    [[[0, 0, 0], [0.8639, 0, 0], [0, 0.8473, 0]],
     [[0, 0, 0], [0.2333, 0, 0], [0, 0.7043, 0], [0, 0, 0.6285]],
     [[0, 0, 0], [0.4366, 0, 0], [0, 0.5336, 0], [0, 0, 0.4762]],
     [[0, 0, 0], [0, 0.2916, 0]]],
)


class TestMinNormPointFallback:
    """Projections that away steps cannot finish within ``MAX_ITER``
    iterations are finished by min-norm-point cycles.  The reproducers run
    at the shipped cap; the property test shrinks it so that the fallback
    does the work."""

    @pytest.mark.parametrize("x", [[-0.0784, 0.3326, 0.2982], [-0.0862, 0.6367, 0.0046]])
    def test_outside_stall_matches_explicit_hull(self, x):
        res = membership(rate_region(STALL_C), x)
        ref = nnls_sq_dist(enumerate_generators(rate_region(STALL_C)), np.array(x))
        assert not res.inside
        assert abs(res.dist**2 - ref) <= 1e-8

    def test_inside_stall_decomposes(self):
        dec = decompose(rate_region(STALL_A), [-0.1596, -0.3756])
        assert dec.residual <= 1e-5
        assert np.linalg.norm(dec.mean(STALL_A) - [-0.1596, -0.3756]) <= 1e-5

    def test_held_atom_ends_with_the_affine_minimizer(self, monkeypatch):
        # After one iteration the corral is the edge from (1, 0) to (0, 1),
        # and the LMO offers (1, 0) again: the edge's nearest point is the
        # projection, and no longer a ConvergenceError.
        monkeypatch.setattr(geometry, "MAX_ITER", 1)
        res = frank_wolfe(triangle_body(), [2.0, 1.1], tol=1e-16)
        assert np.allclose(res.point, [0.95, 0.05], rtol=0, atol=1e-15)
        assert abs(res.value - 2 * 1.05**2) <= 1e-14

    def test_conditional_verifier_stall(self):
        region = rate_region(STALL_B)
        policy = target_policy(region, [0.2195, 0.5741, -0.0706, -0.2964])
        assert verify_conditional_membership(STALL_B, policy, 3, region=region).passed

    def test_dominance_stall(self):
        # A point dominated by the region, on which the shortfall solve stalled.
        model = build_model(
            ["a", "b"], [0.5761233317696896, 0.42387666823031034],
            [[[0.27286072056941624, 0.16688081356095896]],
             [[-0.9398761866084606, 0.7398865571151043],
              [-0.9209464020473559, -0.10592255506825587]]],
        )
        assert dominance(rate_region(model), [-0.24044083891769705, 0.3762839113690501])

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["generic", "duplicate", "collinear", "near"]),
        cap=st.sampled_from([10, 30]),
    )
    def test_matches_explicit_hull(self, seed, shape, cap):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        pts = rng.uniform(-1, 1, (int(rng.integers(2, 7)), m))
        if shape == "duplicate":
            pts = np.vstack([pts, pts[:2]])
        elif shape == "collinear":
            pts = pts[0] + np.outer(rng.uniform(-1, 1, len(pts)), pts[1] - pts[0])
        elif shape == "near":
            pts = np.vstack([pts, pts[0] + 1e-9 * rng.standard_normal(m)])
        x = rng.uniform(-1.5, 1.5, m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "MAX_ITER", cap)
            res = frank_wolfe(ConvexBody.from_points(pts), x, tol=1e-12)
        assert abs(res.value - ref_sq_dist(pts, x)) <= 1e-10
        assert abs(sum(a.weight for a in res.atoms) - 1.0) <= 1e-9
        assert np.allclose(sum(a.weight * a.point for a in res.atoms), res.point, atol=1e-9)


class TestOuterHalfspaces:
    def test_interval_both_directions(self):
        hs = outer_halfspaces(interval_body(), [[1.0], [-1.0]])
        assert hs[0].b == pytest.approx(1.5)
        assert hs[1].b == pytest.approx(0.0)

    def test_single_direction_contains_generators(self):
        (h,) = outer_halfspaces(triangle_body(), [[0.3, 0.9]])
        for g in TRIANGLE:
            assert h.a @ g <= h.b + 1e-9

    def test_axis_directions_box_the_simplex(self):
        hs = outer_halfspaces(
            triangle_body(), [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        )
        values = [h.b for h in hs]
        assert values == pytest.approx([1.0, 0.0, 1.0, 0.0])

    def test_zero_direction_rejected(self):
        with pytest.raises(InputError):
            outer_halfspaces(interval_body(), [[0.0]])

    def test_soundness_random(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            gens = random_points(rng)
            dirs = rng.standard_normal((16, gens.shape[1]))
            for h in outer_halfspaces(ConvexBody.from_points(gens), dirs):
                for g in gens:
                    assert h.a @ g <= h.b + 1e-9

    def test_unit_normal_invariant(self):
        with pytest.raises(InputError):
            HalfSpace(np.array([1.0, 1.0]), 2.0)

