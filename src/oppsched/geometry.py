"""Compact convex bodies driven by linear-minimization oracles.

A body is either the convex hull of finitely many generator points or an
oracle ``d -> argmin over the body of d.y``.  Projection runs Frank-Wolfe
with away steps over the oracle, keeping the active set of atoms so callers
can read off the convex-combination weights of the solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, InputError

DEFAULT_TOL = 1e-10
MAX_ITER = 100_000


def as_vector(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise InputError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise InputError(f"expected dimension {dim}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise InputError("vector entries must be finite")
    return v


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space {x : a.x <= b} with unit normal a."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = as_vector(self.a)
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > 1e-12:
            raise InputError(f"half-space normal must be unit length, got norm {norm!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))

    def contains(self, x, slack: float = 0.0) -> bool:
        return float(self.a @ as_vector(x, self.a.size)) <= self.b + slack

    def __repr__(self):
        return f"HalfSpace(a={self.a.tolist()}, b={self.b})"


@dataclass(frozen=True)
class ConvexBody:
    """Compact convex set given by generators or a linear-minimization oracle."""

    dim: int
    bound: float
    generators: np.ndarray | None = None
    oracle: Callable[[np.ndarray], tuple[np.ndarray, Hashable]] | None = field(
        default=None, repr=False
    )

    def __post_init__(self):
        if self.generators is None and self.oracle is None:
            raise InputError("a body needs generators or an oracle")

    @classmethod
    def from_points(cls, points) -> "ConvexBody":
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.size == 0:
            raise InputError("at least one generator point is required")
        bound = float(np.max(np.linalg.norm(pts, axis=1)))
        return cls(dim=pts.shape[1], bound=bound, generators=pts)

    @classmethod
    def from_lmo(cls, dim: int, lmo: Callable, bound: float) -> "ConvexBody":
        def oracle(d):
            out = lmo(d)
            if isinstance(out, tuple):
                point, tag = out
                return as_vector(point, dim), tag
            point = as_vector(out, dim)
            return point, point.round(12).tobytes()

        return cls(dim=dim, bound=float(bound), oracle=oracle)

    def lmo(self, d) -> tuple[np.ndarray, Hashable]:
        """Minimizer of d.y over the body, with a hashable atom tag."""
        d = as_vector(d, self.dim)
        if self.generators is not None:
            idx = int(np.argmin(self.generators @ d))  # ties to lowest index
            return self.generators[idx], idx
        return self.oracle(d)


def support(body: ConvexBody, a) -> float:
    """Support value max over the body of a.y."""
    a = as_vector(a, body.dim)
    if body.generators is not None:
        return float(np.max(body.generators @ a))
    point, _ = body.lmo(-a)
    return float(a @ point)


class Atom(NamedTuple):
    point: np.ndarray
    weight: float
    tag: Hashable


@dataclass
class FWResult:
    point: np.ndarray
    value: float
    gap: float
    iterations: int
    atoms: list[Atom]


def _sq_dist(x: np.ndarray, y: np.ndarray) -> float:
    diff = x - y
    return float(diff @ diff)


def frank_wolfe(
    body: ConvexBody,
    x,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
    f_stop: float | None = None,
    on_cap: str = "raise",
) -> FWResult:
    """Project x onto the body: minimize ||x - y||^2 over the body with
    exact line searches, tracking the active atoms.

    Stops when the duality gap drops to ``tol`` (certifying
    ||x - y||^2 - min <= tol) or, if ``f_stop`` is given, as soon as
    ||x - y||^2 <= f_stop.  At the iteration cap either raises (default) or,
    with ``on_cap="return"``, hands back the best iterate found.
    """
    if tol < 0:
        raise InputError("tolerance must be nonnegative")
    x = as_vector(x, body.dim)

    p0, k0 = body.lmo(np.zeros(body.dim))
    weights: dict[Hashable, float] = {k0: 1.0}
    points: dict[Hashable, np.ndarray] = {k0: p0}
    y = p0.copy()
    gap = np.inf

    for it in range(max_iter):
        val = _sq_dist(x, y)
        if f_stop is not None and val <= f_stop:
            return _finish(x, y, val, 0.0, it, weights, points)
        g = 2.0 * (y - x)
        s, sk = body.lmo(g)
        gap = float(g @ (y - s))
        if gap <= tol:
            return _finish(x, y, val, gap, it, weights, points)

        away_key = max(weights, key=lambda k: float(g @ points[k]))
        v = points[away_key]
        away_gap = float(g @ (v - y))  # descent available by shedding v

        toward = gap >= away_gap or len(weights) == 1
        if toward:
            d = s - y
            gmax = 1.0
        else:
            d = y - v
            w = weights[away_key]
            gmax = w / (1.0 - w) if w < 1.0 else 1e12
        dd = float(d @ d)
        step = 0.0 if dd <= 0.0 else min(max(float((x - y) @ d) / dd, 0.0), gmax)
        gamma = min(step, gmax)
        if toward:
            if gamma >= 1.0:
                weights = {sk: 1.0}
                points = {sk: s}
            else:
                for k in weights:
                    weights[k] *= 1.0 - gamma
                weights[sk] = weights.get(sk, 0.0) + gamma
                points.setdefault(sk, s)
        else:
            for k in weights:
                weights[k] *= 1.0 + gamma
            weights[away_key] -= gamma
            if weights[away_key] <= 1e-15:
                del weights[away_key]
                del points[away_key]
        y = y + gamma * d
        for k in [k for k, w in weights.items() if w <= 1e-15 and k in points]:
            del weights[k]
            del points[k]
        if (it + 1) % 256 == 0:
            y = _combine(weights, points)

    if on_cap == "return":
        return _finish(x, y, _sq_dist(x, y), gap, max_iter, weights, points)
    raise ConvergenceError(
        f"Frank-Wolfe did not converge within {max_iter} iterations", gap
    )


def _combine(weights, points) -> np.ndarray:
    total = sum(weights.values())
    y = np.zeros_like(next(iter(points.values())))
    for k, w in weights.items():
        y += (w / total) * points[k]
    return y


def _finish(x, y, val, gap, iterations, weights, points) -> FWResult:
    total = sum(weights.values())
    atoms = [Atom(points[k], w / total, k) for k, w in weights.items() if w / total > 0]
    y_exact = _combine(weights, points)
    val_exact = _sq_dist(x, y_exact)
    if val_exact < val:
        y, val = y_exact, val_exact
    return FWResult(point=y, value=val, gap=gap, iterations=iterations, atoms=atoms)


class ProjectionResult(NamedTuple):
    point: np.ndarray
    dist: float


def project(body: ConvexBody, x, tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Closest body point to x plus the distance, certified by the duality gap.

    On exit ||x - y*||^2 exceeds the true minimum by at most ``tol``, so the
    distance is 0 within sqrt(tol) exactly when x lies in the body.
    """
    res = frank_wolfe(body, x, tol=tol)
    return ProjectionResult(res.point, float(np.sqrt(max(res.value, 0.0))))


def outer_halfspaces(body: ConvexBody, dirs: Sequence) -> list[HalfSpace]:
    """Supporting half-spaces in the given directions; their intersection
    contains the body."""
    out = []
    for d in dirs:
        d = as_vector(d, body.dim)
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            raise InputError("directions must be nonzero")
        a = d / norm
        out.append(HalfSpace(a, support(body, a)))
    return out


def hull_generators(points) -> np.ndarray:
    """Generating subset with the same convex hull.

    Exact and minimal for dimensions 1 and 2; for higher dimensions only
    duplicate points are removed (hull preserved, minimality best-effort).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.size == 0:
        raise InputError("at least one point is required")
    m = pts.shape[1]
    if m == 1:
        lo, hi = float(pts.min()), float(pts.max())
        if lo == hi:
            return np.array([[lo]])
        return np.array([[lo], [hi]])
    if m == 2:
        return _planar_hull(pts)
    uniq = sorted({tuple(p) for p in pts})
    return np.array(uniq)


def _planar_hull(pts: np.ndarray) -> np.ndarray:
    """Monotone-chain hull; collinear interior points are dropped."""
    points = sorted({(float(p[0]), float(p[1])) for p in pts})
    if len(points) <= 2:
        return np.array(points)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in points:
        while len(lower) > 1 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(points):
        while len(upper) > 1 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return np.array(sorted(hull))
