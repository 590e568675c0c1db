"""Single-hop queueing overlay: arrivals, backlog recursion, and an
empirical stability check for the backlog-greedy rule.

The stability verdict is a drift-slope threshold on the backlog norm, not a
formal certificate: it flags whether queues grew linearly over the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, as_floats
from .model import Model
from .policy import MaxWeightPolicy
from .randomize import MAX_SLOT, slot_uniforms
from .region import RateRegion, shortfall, support
from .sim import Trace, run

STABLE_SLOPE = 0.01


@dataclass(frozen=True)
class DeterministicArrivals:
    """The same arrival vector every slot."""

    rate: np.ndarray

    def __post_init__(self):
        rate = as_floats(self.rate, "arrival field 'rate'", ndim=1)
        if np.any(rate < 0):
            raise InputError("arrival rates must be nonnegative")
        object.__setattr__(self, "rate", rate)

    def mean_rate(self) -> np.ndarray:
        return self.rate

    def sample_all(self, horizon: int, m: int, seeds) -> np.ndarray:
        return np.tile(self.rate, (len(seeds), horizon, 1))


@dataclass(frozen=True)
class BernoulliArrivals:
    """Per-component batch arrivals: batch[c] with probability prob[c]."""

    prob: np.ndarray
    batch: np.ndarray

    def __post_init__(self):
        prob = as_floats(self.prob, "arrival field 'prob'")
        batch = as_floats(self.batch, "arrival field 'batch'")
        if prob.ndim != 1 or prob.shape != batch.shape:
            raise InputError("arrival 'prob' and 'batch' must be vectors of equal length")
        if np.any(prob < 0) or np.any(prob > 1):
            raise InputError("arrival probabilities must lie in [0, 1]")
        if np.any(batch < 0):
            raise InputError("batch sizes must be nonnegative")
        object.__setattr__(self, "prob", prob)
        object.__setattr__(self, "batch", batch)

    def mean_rate(self) -> np.ndarray:
        return self.prob * self.batch

    def sample_all(self, horizon: int, m: int, seeds) -> np.ndarray:
        """Arrival rows of ``horizon`` slots under each of B stream seeds:
        a (B, horizon, m) array."""
        if horizon * m > MAX_SLOT:
            raise InputError(
                f"{horizon} slots of {m} arrival components need more than "
                f"{MAX_SLOT} slot uniforms"
            )
        ks = np.arange(1, horizon * m + 1, dtype=np.uint64)
        us = slot_uniforms(seeds, np.broadcast_to(ks, (len(seeds), ks.size)))
        us = us.reshape(len(seeds), horizon, m)
        return np.where(us < self.prob, self.batch, 0.0)


def arrivals_from_dict(doc: dict):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError("arrivals must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "deterministic":
        return DeterministicArrivals(rate=doc.get("rate"))
    if kind == "bernoulli":
        return BernoulliArrivals(prob=doc.get("prob"), batch=doc.get("batch"))
    raise InputError(f"unknown arrivals kind {kind!r}")


@dataclass(frozen=True)
class StabilityReport:
    """Backlog statistics of one backlog-greedy run."""

    horizon: int
    mean_rate: np.ndarray
    time_avg_queue_norm: float
    tail_avg_queue_norm: float  # mean backlog norm over the last quarter
    drift_slope: float  # least-squares slope of the backlog norm over slots
    stable: bool
    trace: Trace


def run_maxweight(model: Model, arrivals, horizon: int, seed: int) -> StabilityReport:
    """Serve the arrivals with the backlog-greedy rule and judge stability.

    Stability here means the least-squares drift slope of the backlog norm
    stays under ``STABLE_SLOPE``; near-critical loads mix slowly, so verdicts
    within a thin band of the region boundary are unreliable.
    """
    if horizon < 1000:
        raise InputError("stability runs need a horizon of at least 1000 slots")
    trace = run(model, MaxWeightPolicy(), horizon, seed, arrivals=arrivals)
    norms = np.linalg.norm(trace.queues, axis=1)
    ks = np.arange(1, horizon + 1, dtype=np.float64)
    slope = float(np.polyfit(ks, norms, 1)[0])
    tail = norms[-(horizon // 4):]
    return StabilityReport(
        horizon=horizon,
        mean_rate=np.asarray(arrivals.mean_rate(), dtype=np.float64),
        time_avg_queue_norm=float(norms.mean()),
        tail_avg_queue_norm=float(tail.mean()),
        drift_slope=slope,
        stable=bool(slope <= STABLE_SLOPE),
        trace=trace,
    )


def boundary_margin(region: RateRegion, a, dirs, tol: float = 1e-10) -> float:
    """Signed distance of an arrival vector to the stability boundary.

    Positive means strictly inside the dominated set (by at least the
    returned margin along the sampled directions); negative means outside by
    the exact shortfall norm.  Sampled directions should include the facet
    normals of interest for the inside margin to be tight.
    """
    a = np.asarray(a, dtype=np.float64)
    deficit = shortfall(region, a, tol)
    if deficit > math.sqrt(tol):
        return -deficit
    margins = []
    for d in dirs:
        d = np.asarray(d, dtype=np.float64)
        d = d / np.linalg.norm(d)
        margins.append(support(region, d) - float(d @ a))
    return float(min(margins))
