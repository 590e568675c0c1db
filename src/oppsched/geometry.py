"""Compact convex bodies driven by linear-minimization oracles.

A body is its oracle ``d -> argmin over the body of d.y``; ``from_points``
builds one for the convex hull of a point set.  Projection runs Frank-Wolfe
with away steps over the oracle, keeping the active set of atoms so callers
can read off the convex-combination weights of the solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, InputError

DEFAULT_TOL = 1e-10
MAX_ITER = 10_000


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

    def __repr__(self):
        return f"HalfSpace(a={self.a.tolist()}, b={self.b})"


@dataclass(frozen=True)
class ConvexBody:
    """Compact convex set given by its linear-minimization oracle
    ``d -> (argmin over the body of d.y, hashable atom tag)``."""

    dim: int
    oracle: Callable[[np.ndarray], tuple[np.ndarray, Hashable]] = field(repr=False)

    @classmethod
    def from_points(cls, points) -> "ConvexBody":
        """Convex hull of the rows; atoms are tagged by row index."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.size == 0:
            raise InputError("at least one generator point is required")

        def oracle(d):
            idx = int(np.argmin(pts @ d))  # ties to lowest row
            return pts[idx], idx

        return cls(dim=pts.shape[1], oracle=oracle)

    def lmo(self, d) -> tuple[np.ndarray, Hashable]:
        """Minimizer of d.y over the body, with a hashable atom tag."""
        return self.oracle(as_vector(d, self.dim))


def support(body: ConvexBody, a) -> float:
    """Support value max over the body of a.y."""
    a = as_vector(a, body.dim)
    return float(a @ body.lmo(-a)[0])


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
    f_stop: float = 0.0,
) -> FWResult:
    """Project x onto the body: minimize ||x - y||^2 over the body with
    exact line searches, tracking the active atoms.

    Stops when the duality gap drops to ``tol`` (certifying
    ||x - y||^2 - min <= tol) or as soon as ||x - y||^2 <= f_stop.  A
    projection still open after ``MAX_ITER`` iterations is finished by
    min-norm-point cycles; ConvergenceError when those fail too.
    """
    if tol < 0:
        raise InputError("tolerance must be nonnegative")
    x = as_vector(x, body.dim)

    p0, k0 = body.lmo(np.zeros(body.dim))
    weights: dict[Hashable, float] = {k0: 1.0}
    points: dict[Hashable, np.ndarray] = {k0: p0}
    y = p0.copy()
    gap = np.inf

    for it in range(MAX_ITER):
        val = _sq_dist(x, y)
        if val <= f_stop:
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
        gamma = 0.0 if dd <= 0.0 else min(max(float((x - y) @ d) / dd, 0.0), gmax)
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
        y = y + gamma * d
        for k in [k for k, w in weights.items() if w <= 1e-15]:
            del weights[k]
            del points[k]
        if (it + 1) % 256 == 0:
            y = _combine(weights, points)

    # Away steps crawl where generators nearly coincide; projections that
    # converge above keep their bits, the rest finish by min-norm-point.
    res = _min_norm_point(body, x, tol, f_stop, weights, points)
    if res is not None:
        return res
    raise ConvergenceError(
        f"Frank-Wolfe did not converge within {MAX_ITER} iterations", gap
    )


def _min_norm_point(body, x, tol, f_stop, weights, points) -> FWResult | None:
    """Wolfe's min-norm-point cycles (Wolfe 1976), warm-started from the
    active atoms: each minor cycle moves to the best point of the atoms'
    affine hull, or as far toward it as their weights allow, dropping the
    atom whose weight reaches 0; each major cycle adds the LMO's atom.
    When the LMO offers an atom already held, the affine minimizer is the
    projection to float precision (its gap is rounding).  None when a cycle
    ends uncertified without getting closer to x, or after ``MAX_ITER``
    cycles."""
    keys = list(weights)
    pts = np.array([points[k] for k in keys])
    lam = np.array([weights[k] for k in keys]) / sum(weights.values())
    last = np.inf
    for it in range(MAX_ITER):
        while True:  # minor cycles
            n = len(keys)
            # Affine minimizer in coordinates relative to the first atom;
            # a Gram matrix would square the conditioning.
            c = np.linalg.lstsq((pts[1:] - pts[0]).T, x - pts[0], rcond=None)[0]
            w = np.concatenate([[1.0 - c.sum()], c])
            if np.all(w > 0):
                break
            ratio = np.where(w <= 0, lam / np.maximum(lam - w, 1e-300), np.inf)
            lam = lam + ratio.min() * (w - lam)
            keep = (np.arange(n) != np.argmin(ratio)) & (lam > 0)
            keys, pts, lam = [k for k, k_in in zip(keys, keep) if k_in], pts[keep], lam[keep]
        y = w @ pts
        val, g = _sq_dist(x, y), 2.0 * (y - x)
        s, sk = body.lmo(g)
        gap = float(g @ (y - s))
        if val <= f_stop or gap <= tol or sk in keys:
            weights, points = dict(zip(keys, w.tolist())), dict(zip(keys, pts))
            return _finish(x, y, val, max(gap, 0.0), MAX_ITER + it, weights, points)
        if val >= last:
            return None
        keys, pts, lam, last = keys + [sk], np.vstack([pts, s]), np.append(w, 0.0), val
    return None


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
