import numpy as np
import pytest

from oppsched import ConvexBody, HalfSpace, hull_generators, outer_halfspaces, project, support
from oppsched.errors import ConvergenceError, InputError
from oppsched.geometry import frank_wolfe


def interval_body(lo=0.0, hi=1.5):
    return ConvexBody.from_points([[lo], [hi]])


def triangle_body():
    return ConvexBody.from_points([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def random_body(rng, m=None):
    m = m or int(rng.integers(1, 4))
    pts = rng.uniform(-2, 2, size=(int(rng.integers(2, 8)), m))
    return ConvexBody.from_points(pts)


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
            body = random_body(rng)
            a = rng.standard_normal(body.dim)
            b = rng.standard_normal(body.dim)
            assert support(body, a + b) <= support(body, a) + support(body, b) + 1e-12

    def test_lmo_form_matches_generator_form(self):
        gens = np.array([[0.0, 0.0], [2.0, 1.0], [-1.0, 3.0]])
        gen_body = ConvexBody.from_points(gens)
        lmo_body = ConvexBody.from_lmo(
            2, lambda d: gens[int(np.argmin(gens @ d))], bound=4.0
        )
        rng = np.random.default_rng(1)
        for _ in range(30):
            d = rng.standard_normal(2)
            assert support(gen_body, d) == pytest.approx(support(lmo_body, d), abs=1e-12)


class TestProject:
    def test_point_beyond_interval(self):
        point, dist = project(interval_body(), [2.0])
        assert point[0] == pytest.approx(1.5, abs=1e-6)
        assert dist == pytest.approx(0.5, abs=1e-6)

    def test_interior_point(self):
        point, dist = project(interval_body(), [1.2])
        assert dist <= 1e-5
        assert point[0] == pytest.approx(1.2, abs=1e-5)

    def test_simplex_face(self):
        # closed form: (1,1) projects to the midpoint of the diagonal face
        point, dist = project(triangle_body(), [1.0, 1.0])
        assert np.allclose(point, [0.5, 0.5], atol=1e-6)
        assert dist == pytest.approx(np.sqrt(0.5), abs=1e-6)

    def test_variational_inequality_on_generators(self):
        rng = np.random.default_rng(2)
        tol = 1e-10
        for _ in range(40):
            body = random_body(rng)
            x = rng.uniform(-3, 3, size=body.dim)
            point, dist = project(body, x, tol)
            slack = np.sqrt(tol) * max(dist, 1.0)
            for g in body.generators:
                assert float((x - point) @ (g - point)) <= slack + 1e-9

    def test_membership_consistency_with_support(self):
        rng = np.random.default_rng(3)
        tol = 1e-10
        for _ in range(30):
            body = random_body(rng)
            gens = body.generators
            w = rng.random(gens.shape[0])
            w /= w.sum()
            inside = w @ gens
            direction = rng.standard_normal(body.dim)
            direction /= np.linalg.norm(direction)
            outside = inside + direction * (2.0 * body.bound + 1.0)
            for x, expect_in in ((inside, True), (outside, False)):
                _, dist = project(body, x, tol)
                dirs = rng.standard_normal((64, body.dim))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                margin = max(float(d @ x) - support(body, d) for d in dirs)
                if expect_in:
                    assert dist <= np.sqrt(tol)
                    assert margin <= 1e-6
                else:
                    assert dist > np.sqrt(tol)
                    assert margin > 1e-6

    def test_iteration_cap_raises_with_gap(self):
        body = triangle_body()
        with pytest.raises(ConvergenceError) as exc:
            frank_wolfe(body, [2.0, 1.1], tol=1e-16, max_iter=1)
        assert exc.value.gap > 0


class TestOuterHalfspaces:
    def test_interval_both_directions(self):
        hs = outer_halfspaces(interval_body(), [[1.0], [-1.0]])
        assert hs[0].b == pytest.approx(1.5)
        assert hs[1].b == pytest.approx(0.0)

    def test_single_direction_contains_generators(self):
        body = triangle_body()
        (h,) = outer_halfspaces(body, [[0.3, 0.9]])
        for g in body.generators:
            assert h.contains(g, slack=1e-9)

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
            body = random_body(rng)
            dirs = rng.standard_normal((16, body.dim))
            for h in outer_halfspaces(body, dirs):
                for g in body.generators:
                    assert h.contains(g, slack=1e-9)

    def test_unit_normal_invariant(self):
        with pytest.raises(InputError):
            HalfSpace(np.array([1.0, 1.0]), 2.0)


class TestHullGenerators:
    def test_interval_min_max(self):
        hull = hull_generators([[0.0], [1.0], [1.5]])
        assert sorted(hull.ravel().tolist()) == [0.0, 1.5]

    def test_square_corners_survive_center_dropped(self):
        pts = [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]]
        hull = hull_generators(pts)
        assert sorted(map(tuple, hull.tolist())) == [
            (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
        ]

    def test_single_point(self):
        assert hull_generators([[2.0, 3.0]]).tolist() == [[2.0, 3.0]]

    def test_high_dim_preserves_hull(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(10, 4))
        hull = hull_generators(np.vstack([pts, pts]))
        body_a = ConvexBody.from_points(pts)
        body_b = ConvexBody.from_points(hull)
        for _ in range(40):
            d = rng.standard_normal(4)
            assert support(body_a, d) == pytest.approx(support(body_b, d), abs=1e-12)
