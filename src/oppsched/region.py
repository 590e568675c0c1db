"""The achievable mean-rate set of a model and queries against it.

The set of per-slot expectation vectors reachable by randomized stationary
feasible decisions is a compact convex body: the probability-weighted
Minkowski sum of the per-state option hulls.  Its linear-minimization oracle
is a cheap exact sum of per-state argmins, which drives projection,
membership, dominance, and the extraction of per-state time-sharing weights
for any achievable target.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import InputError, MembershipError
from .geometry import ConvexBody, HalfSpace
from .model import Model

ENUMERATION_CAP = 1_000_000

# Projections certify distances to about sqrt(gap); keep the internal gap
# well below any membership tolerance callers are likely to use.
_GAP_FLOOR = 1e-12


@dataclass(frozen=True)
class RateRegion:
    model: Model
    body: ConvexBody

    @property
    def dim(self) -> int:
        return self.model.m


def rate_region(model: Model) -> RateRegion:
    """Build the region of a model."""
    probs = model.probs
    options = model.options

    def oracle(d: np.ndarray):
        point = np.zeros(model.m)
        choices = []
        for s in range(model.n_states):
            idx = int(np.argmin(options[s] @ d))  # ties to lowest option index
            choices.append(idx)
            point += probs[s] * options[s][idx]
        return point, tuple(choices)

    body = ConvexBody(dim=model.m, oracle=oracle)
    return RateRegion(model=model, body=body)


def lmo(region: RateRegion, d) -> np.ndarray:
    """Probability-weighted sum of per-state minimizers along d."""
    point, _ = region.body.lmo(geometry.as_vector(d, region.dim))
    return point


def support(region: RateRegion, a) -> float:
    return geometry.support(region.body, a)


def enumerate_generators(region: RateRegion, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """All weighted sums choosing one option per state; their hull is the region.

    Refuses models whose per-state option counts multiply past the cap;
    switch to the oracle-only queries for those.
    """
    model = region.model
    counts = [arr.shape[0] for arr in model.options]
    total = math.prod(counts)
    if total > cap:
        raise InputError(
            f"{total} deterministic selections exceed the cap {cap}; "
            "use the oracle-based queries (lmo/membership/dominance) instead"
        )
    probs = model.probs
    out = np.empty((total, model.m))
    for row, combo in enumerate(itertools.product(*(range(c) for c in counts))):
        point = np.zeros(model.m)
        for s, idx in enumerate(combo):
            point += probs[s] * model.options[s][idx]
        out[row] = point
    return out


@dataclass(frozen=True)
class MembershipResult:
    inside: bool
    dist: float
    point: np.ndarray  # closest region point found
    certificate: HalfSpace | None  # separating half-space when outside

    def __bool__(self) -> bool:
        return self.inside


def check_tol(tol) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be a positive finite number, got {tol!r}")


def membership(region: RateRegion, x, tol: float = 1e-10) -> MembershipResult:
    """Decide x in the region within sqrt(tol), with a certificate either way.

    Inside: the projection distance is at most sqrt(tol), witnessed by the
    feasible point found.  Outside: returns a supporting half-space (a, b)
    with a.x > b + tol.

    Tolerances below the gap floor are decided by driving the squared
    distance itself under tol, since the duality gap cannot be resolved past
    float precision at that scale.
    """
    check_tol(tol)
    x = geometry.as_vector(x, region.dim)
    res = geometry.frank_wolfe(region.body, x, tol=_GAP_FLOOR, f_stop=tol)
    if tol < _GAP_FLOOR and tol < res.value <= tol + 2.0 * _GAP_FLOOR:
        # Gap-certified but still above the requested squared distance:
        # keep iterating on the primal value alone.
        res = geometry.frank_wolfe(
            region.body, x, tol=0.0, f_stop=tol, on_cap="return"
        )
    certificate = _certify(region, x, res, tol)
    dist = float(np.sqrt(max(res.value, 0.0)))
    return MembershipResult(certificate is None, dist, res.point, certificate)


def _certify(region: RateRegion, x: np.ndarray, res, tol: float) -> HalfSpace | None:
    """The verdict of a projection of x: None when its squared distance is
    within tol, otherwise the supporting half-space that separates x."""
    if res.value <= tol:
        return None
    a = (x - res.point) / float(np.sqrt(res.value))
    a = a / float(np.linalg.norm(a))
    return HalfSpace(a, support(region, a))


def _min_shortfall(region: RateRegion, a, tol: float) -> float:
    """Minimum over the region R of the squared shortfall |(a - y)+|^2.

    It equals dist^2(a, R - [0, L]^m) once the box depth L covers how far
    any point of R can exceed a.  Raising a to R's coordinatewise minimum
    changes no shortfall and keeps L within R's width.
    """
    check_tol(tol)
    a = geometry.as_vector(a, region.dim)
    axes = np.eye(region.dim)
    lo = np.array([-support(region, -e) for e in axes])
    a = np.maximum(a, lo)
    drop = max(max(support(region, e) - a_c, 0.0) for e, a_c in zip(axes, a))

    def oracle(d: np.ndarray):
        point, tag = region.body.lmo(d)
        up = d > 0
        return point - drop * up, (tag, up.tobytes())

    lowered = ConvexBody(dim=region.dim, oracle=oracle)
    return geometry.frank_wolfe(lowered, a, tol=min(tol, _GAP_FLOOR), f_stop=tol).value


def dominance(region: RateRegion, a, tol: float = 1e-10) -> bool:
    """True iff some region point weakly exceeds a in every component.

    Projects a onto the region lowered by a box (see ``_min_shortfall``); the
    verdict compares the squared shortfall against tol.
    """
    return _min_shortfall(region, a, tol) <= tol


def shortfall(region: RateRegion, a, tol: float = 1e-10) -> float:
    """Norm of the smallest componentwise excess of a over the region; at
    most sqrt(tol), not exactly 0, when a is dominated."""
    return float(np.sqrt(max(_min_shortfall(region, a, tol), 0.0)))


@dataclass(frozen=True)
class TargetDecomposition:
    """Per-state simplex weights whose weighted mean reproduces the target."""

    target: np.ndarray
    weights: tuple[np.ndarray, ...]  # one simplex vector per state
    residual: float

    def mean(self, model: Model) -> np.ndarray:
        return model.stationary_mean(self.weights)


def decompose(region: RateRegion, x, tol: float = 1e-10) -> TargetDecomposition:
    """Per-state option weights achieving the target x.

    The projection's active atoms are deterministic per-state selections, so
    their convex weights regroup directly into per-state simplex vectors.
    Raises with the separating certificate when x is outside the region.
    The verdict comes from that same projection, which runs membership's
    iterates further, except where the gap cannot certify.
    """
    check_tol(tol)
    x = geometry.as_vector(x, region.dim)
    # Below the floor membership decides before the solve.
    gap_certifies = tol >= _GAP_FLOOR
    if not gap_certifies:
        check = membership(region, x, tol)
        if not check.inside:
            raise MembershipError(x.tolist(), check.certificate)
    res = geometry.frank_wolfe(
        region.body, x, tol=min(tol, _GAP_FLOOR), f_stop=tol * 1e-4
    )
    if gap_certifies:
        certificate = _certify(region, x, res, tol)
        if certificate is not None:
            raise MembershipError(x.tolist(), certificate)
    model = region.model
    weights = [np.zeros(arr.shape[0]) for arr in model.options]
    for atom in res.atoms:
        choices = atom.tag
        for s, idx in enumerate(choices):
            weights[s][idx] += atom.weight
    for w in weights:
        total = w.sum()
        if total > 0:
            w /= total
    residual = float(np.linalg.norm(model.stationary_mean(weights) - x))
    if residual > math.sqrt(tol):
        raise MembershipError(x.tolist(), None)
    return TargetDecomposition(target=x, weights=tuple(weights), residual=residual)
