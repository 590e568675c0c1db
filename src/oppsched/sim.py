"""Slot-by-slot simulation and the statistical/exact verifiers.

A run draws i.i.d. states, lets the policy pick one option per slot from the
observed prefix and its slot uniform, and records everything needed to replay
or audit the run: per-slot decisions, the running average (computed by the
exact recursion A_k = A_{k-1} + (x_k - A_{k-1})/k) and optional queue
backlogs.  The record holds no verdicts: the verifiers judge it, and the
convergence verifier computes the region distances at its checkpoint slots
from the recorded averages.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import Model, sample_states
from .policy import Policy
from .randomize import MAX_SLOT, child_seeds, slot_uniforms
from .region import RateRegion, membership, rate_region


# Seeds x slots per engine call in the mean verifier; bounds its arrays to a
# few MB however many replications or slots are asked for.
_ENGINE_SLOTS = 1 << 18

# Slots per formatted block of the trace CSV; bounds the writer's strings to
# one block however long the run.  Larger blocks format no faster and raised
# the peak RSS of 1e5-slot simulate runs: their short-lived strings spread
# over more allocator arenas.
_CSV_ROWS = 2048


def checkpoint_slots(horizon: int) -> np.ndarray:
    """Powers of two up to the horizon, plus the final slot."""
    slots = []
    c = 1
    while c <= horizon:
        slots.append(c)
        c *= 2
    if slots[-1] != horizon:
        slots.append(horizon)
    return np.array(slots, dtype=np.int64)


@dataclass
class Trace:
    """Complete record of one run, replayable from (model, policy, seed, K)."""

    seed: int
    horizon: int
    policy_kind: str
    states: np.ndarray  # (K,) state indices
    choices: np.ndarray  # (K,) option indices
    x: np.ndarray  # (K, m) decision vectors
    averages: np.ndarray  # (K, m) running averages
    fallbacks: np.ndarray  # (K,) guarded-fallback flags
    queues: np.ndarray | None = None  # (K, m) backlog after each slot
    arrivals: np.ndarray | None = None  # (K, m) arrivals per slot

    @property
    def final_average(self) -> np.ndarray:
        return self.averages[-1]


def run(model: Model, policy: Policy, horizon: int, seed: int, *, arrivals=None) -> Trace:
    """Simulate ``horizon`` slots and return their record; nothing is judged.

    States, policy randomness, and arrival randomness come from disjoint
    child streams of the seed, so the trace is a pure function of
    (model, policy, seed, horizon).
    """
    states, choices, xs, fallbacks, arrival_rows, queues = _advance(
        model, policy, horizon, [seed], arrivals
    )
    return Trace(
        seed=seed,
        horizon=horizon,
        policy_kind=policy.kind(),
        states=states[0],
        choices=choices[0],
        x=xs[0],
        averages=_running_averages(xs[0]),
        fallbacks=fallbacks[0],
        queues=None if queues is None else queues[0],
        arrivals=None if arrival_rows is None else arrival_rows[0],
    )


def _advance(model: Model, policy: Policy, horizon: int, seeds, arrivals):
    """The slot engine: advance independent runs, one per seed, over
    ``horizon`` slots.

    Returns states, choices, decision vectors, fallback flags, arrivals and
    backlogs, each with a leading axis over the seeds (arrivals and backlogs
    are None without arrivals).  Each stream (states, policy, arrivals) is
    drawn for every (seed, slot) pair with one call, under the child seeds
    of all seeds at once.  Rules that declare ``stationary`` are evaluated
    for all slots at once; rules that read the history or the backlog, and
    every run with arrivals, go slot by slot with a backlog that stays zero
    without arrivals.
    """
    if not 1 <= horizon <= MAX_SLOT:
        raise InputError(f"horizon must lie in [1, {MAX_SLOT}], got {horizon}")
    m = model.m
    if arrivals is not None and (shape := np.shape(arrivals.mean_rate())) != (m,):
        raise InputError(f"field 'arrivals' needs vectors of m = {m} entries, got shape {shape}")

    b = len(seeds)
    slots = np.broadcast_to(np.arange(1, horizon + 1, dtype=np.uint64), (b, horizon))
    states = sample_states(model, slot_uniforms(child_seeds(seeds, "states"), slots))
    # Rules that ignore their slot uniforms never consume the policy stream.
    u_policy = (slot_uniforms(child_seeds(seeds, "policy"), slots)
                if policy.uses_randomness else np.zeros((b, horizon)))
    arrival_rows = (None if arrivals is None
                    else arrivals.sample_all(horizon, m, child_seeds(seeds, "arrivals")))

    options = model.options
    counts = [arr.shape[0] for arr in options]
    fallbacks = np.zeros((b, horizon), dtype=bool)
    if policy.stationary and arrivals is None:
        choices = policy.choices_vector(model, states.ravel(), u_policy.ravel())
        choices = choices.reshape(b, horizon)
        bad = (choices < 0) | (choices >= np.asarray(counts)[states])
        if np.any(bad):
            at = np.unravel_index(np.argmax(bad), bad.shape)
            raise InputError(
                f"policy produced invalid option {int(choices[at])} "
                f"in state {int(states[at])}"
            )
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
        xs = np.vstack(options)[offsets[states] + choices]
        return states, choices, xs, fallbacks, None, None

    choices = np.empty((b, horizon), dtype=np.int64)
    xs = np.empty((b, horizon, m))
    queues = None if arrivals is None else np.empty((b, horizon, m))
    for r in range(b):
        queue = np.zeros(m)
        prefix: list[int] = []
        u_list = u_policy[r].tolist()
        for k, s in enumerate(states[r].tolist()):
            prefix.append(s)
            idx, fb = policy.select(model, prefix, u_list[k], queue)
            if not 0 <= idx < counts[s]:
                raise InputError(f"policy produced invalid option {idx} in state {s}")
            x = options[s][idx]
            choices[r, k] = idx
            xs[r, k] = x
            fallbacks[r, k] = fb
            if arrivals is not None:
                queue = np.maximum(queue + arrival_rows[r, k] - x, 0.0)
                queues[r, k] = queue
    return states, choices, xs, fallbacks, arrival_rows, queues


def _running_averages(xs: np.ndarray) -> np.ndarray:
    """Exact recursion A_k = A_{k-1} + (x_k - A_{k-1})/k, columnwise.

    Scalar float and vector float64 arithmetic round identically, so this
    matches the slot-by-slot vector recursion bit for bit.
    """
    horizon, m = xs.shape
    out = np.empty((horizon, m))
    for c in range(m):
        out[:, c] = np.fromiter(_recursion(xs[:, c].tolist()), np.float64, horizon)
    return out


def _recursion(col):
    """The running averages of one column, as Python floats."""
    acc = 0.0
    for k, x in enumerate(col, 1):
        acc = acc + (x - acc) / k
        yield acc


def write_trace_csv(trace: Trace, model: Model, path, report=None) -> None:
    """Columnar slot record.  The ``dist_checkpoint`` column holds the
    distances of a convergence report on its checkpoint slots; it is empty
    elsewhere, and everywhere without a report.

    Rows are formatted column by column in blocks of ``_CSV_ROWS`` slots, so
    the strings alive at once are bounded by one block.  Floats are written
    as ``repr``; decision columns repeat option rows, so they format each
    distinct bit pattern once (not each distinct value, which would merge
    -0.0 and 0.0).
    """
    m = model.m
    labels = np.array(model.labels, dtype=object)
    cp_strs = {}
    if report is not None:
        cp_strs = dict(zip(report.checkpoints.tolist(), map(repr, report.dists.tolist())))
    with open(path, "w", newline="") as fh:
        header = ["k", "state_label", "option_index"]
        header += [f"x_{c}" for c in range(m)]
        header += [f"avg_{c}" for c in range(m)]
        header.append("dist_checkpoint")
        if trace.queues is not None:
            header += [f"q_{c}" for c in range(m)]
        fh.write(",".join(header) + "\n")
        for lo in range(0, trace.horizon, _CSV_ROWS):
            hi = min(lo + _CSV_ROWS, trace.horizon)
            cols = [
                map(str, range(lo + 1, hi + 1)),
                labels[trace.states[lo:hi]].tolist(),
                map(str, trace.choices[lo:hi].tolist()),
            ]
            cols += [_format_decisions(trace.x[lo:hi, c]) for c in range(m)]
            cols += [map(repr, trace.averages[lo:hi, c].tolist()) for c in range(m)]
            dists = [""] * (hi - lo)
            for k, text in cp_strs.items():
                if lo < k <= hi:
                    dists[k - lo - 1] = text
            cols.append(dists)
            if trace.queues is not None:
                cols += [map(repr, trace.queues[lo:hi, c].tolist()) for c in range(m)]
            fh.write("\n".join(map(",".join, zip(*cols))))
            fh.write("\n")


def _format_decisions(col: np.ndarray) -> list[str]:
    """``repr`` of each entry as a float64, called once per distinct bit pattern."""
    bits, inverse = np.unique(
        np.asarray(col, dtype=np.float64).view(np.int64), return_inverse=True
    )
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


# --- verifiers --------------------------------------------------------------

@dataclass(frozen=True)
class MeanMembershipReport:
    """Monte Carlo check that the slot-k mean decision lies in the region.

    Statistical: the margin is 3*D/sqrt(R), so a correct policy fails with
    probability well under 1e-2.
    """

    slot: int
    replications: int
    estimate: np.ndarray
    dist: float
    margin: float
    passed: bool
    statistical: bool = True


def verify_mean_membership(
    model: Model,
    policy: Policy,
    replications: int = 1000,
    slot: int = 1,
    tol: float = 1e-10,
    *,
    seed: int = 0,
    region: RateRegion | None = None,
    arrivals=None,
) -> MeanMembershipReport:
    """Estimate E[X_k] over independent seeds and test region membership."""
    if replications < 1000:
        raise InputError("mean-membership checks need at least 1000 replications")
    if slot < 1:
        raise InputError("slot must be >= 1")
    reg = region if region is not None else rate_region(model)
    seeds = child_seeds(seed, [f"rep-{r}" for r in range(replications)])
    total = np.zeros(model.m)
    group = max(1, _ENGINE_SLOTS // slot)
    for lo in range(0, replications, group):
        xs = _advance(model, policy, slot, seeds[lo : lo + group], arrivals)[2]
        # A running sum in replication order, as separate runs would sum.
        total = np.cumsum(np.vstack([total, xs[:, slot - 1]]), axis=0)[-1]
    estimate = total / replications
    dist = membership(reg, estimate, tol).dist
    margin = 3.0 * model.bound / math.sqrt(replications)
    return MeanMembershipReport(
        slot=slot,
        replications=replications,
        estimate=estimate,
        dist=dist,
        margin=margin,
        passed=bool(dist <= margin),
    )


@dataclass(frozen=True)
class AvgConvergenceReport:
    """Distances of the running average to the region at checkpoint slots."""

    checkpoints: np.ndarray
    dists: np.ndarray
    final_dist: float
    final_bound: float
    burn_in: int
    within_bound_after_burn_in: bool
    insufficient_horizon: bool
    passed: bool


def verify_avg_convergence(
    trace: Trace,
    region: RateRegion,
    checkpoints=None,
    tol: float = 1e-10,
) -> AvgConvergenceReport:
    """Check the trace's running average approaches the region.

    Distances are computed from ``trace.averages`` at the given checkpoint
    slots, or at ``checkpoint_slots(K)`` when none are given.  The last
    checkpoint's distance must fall under 3*D/sqrt(c) + sqrt(tol) at that
    checkpoint's slot c, and after a burn-in of K/10 every checkpoint c must
    satisfy the same bound.  Horizons under 100 slots are marked insufficient
    and only the final bound is asserted.
    """
    if checkpoints is None:
        cps = checkpoint_slots(trace.horizon)
    else:
        cps = np.asarray(checkpoints, dtype=np.int64)
        if cps.size == 0 or int(cps.min()) < 1 or int(cps.max()) > trace.horizon:
            raise InputError("checkpoints must be slot indices within the horizon")
    dists = np.array([membership(region, trace.averages[c - 1], tol).dist for c in cps])

    horizon = trace.horizon
    bound = region.model.bound
    slack = math.sqrt(tol)
    final_dist = float(dists[-1])
    final_bound = 3.0 * bound / math.sqrt(int(cps[-1])) + slack
    burn_in = horizon // 10
    insufficient = horizon < 100
    within = all(
        d <= 3.0 * bound / math.sqrt(c) + slack
        for c, d in zip(cps.tolist(), dists.tolist())
        if c >= burn_in
    )
    final_ok = final_dist <= final_bound
    passed = final_ok and (within or insufficient)
    return AvgConvergenceReport(
        checkpoints=cps,
        dists=dists,
        final_dist=final_dist,
        final_bound=final_bound,
        burn_in=burn_in,
        within_bound_after_burn_in=within,
        insufficient_horizon=insufficient,
        passed=bool(passed),
    )


@dataclass(frozen=True)
class ConditionalMembershipReport:
    """Exact conditional means of the slot-k decision, one per realized
    decision prefix, with their distances to the region."""

    slot: int
    prefixes: int
    max_dist: float
    dist_tol: float
    passed: bool


def verify_conditional_membership(
    model: Model,
    policy: Policy,
    slot: int,
    *,
    dist_tol: float = 1e-9,
    cap: int = 1_000_000,
    region: RateRegion | None = None,
) -> ConditionalMembershipReport:
    """Enumerate decision prefixes exactly and test each conditional mean.

    Policies draw only the current slot's uniform, so conditioning on the
    quantized-randomness path collapses to conditioning on the state prefix;
    the conditional mean of the slot decision given a prefix is computed
    exactly from the policy's weights.  Queue-aware rules are evaluated with
    an empty backlog.  Prefixes that share a conditional mean (every prefix,
    for a stationary rule) share one membership solve.
    """
    if slot < 1:
        raise InputError("slot must be >= 1")
    reg = region if region is not None else rate_region(model)
    n = model.n_states
    prefixes = n ** (slot - 1)
    if prefixes > cap:
        raise InputError(
            f"{prefixes} state prefixes exceed the cap {cap}; use a smaller slot index"
        )

    tol_f = dist_tol * dist_tol
    max_dist = 0.0
    count = 0
    solved = {}
    passed = True
    for prefix in itertools.product(range(n), repeat=slot - 1):
        mean = policy.slot_mean(model, prefix)
        key = mean.tobytes()
        if key not in solved:
            solved[key] = membership(reg, mean, tol=tol_f)
        res = solved[key]
        max_dist = max(max_dist, res.dist)
        count += 1
        if not res.inside:
            passed = False
            break
    return ConditionalMembershipReport(
        slot=slot, prefixes=count, max_dist=max_dist, dist_tol=dist_tol, passed=passed
    )


@dataclass(frozen=True)
class MartingaleCheck:
    """Per-slot deviations of decisions from their exact conditional means."""

    diffs: np.ndarray  # (K, m)
    partial_sums: np.ndarray  # (K, m) cumulative sums of diffs

    @property
    def final_average_norm(self) -> float:
        return float(np.linalg.norm(self.partial_sums[-1] / self.diffs.shape[0]))


def martingale_check(trace: Trace, model: Model, policy: Policy) -> MartingaleCheck:
    """Deviations x_k minus the policy's exact slot-k conditional mean.

    Means come from the policy weights, never from estimates, so the partial
    sums average a genuine zero-mean bounded sequence.
    """
    if policy.stationary:
        diffs = trace.x - policy.slot_mean(model)
    else:
        # Table rules read the state prefix, queue rules the backlog
        # before the slot; each ignores the other.
        diffs = np.empty((trace.horizon, model.m))
        queue = np.zeros(model.m)
        for k in range(trace.horizon):
            diffs[k] = trace.x[k] - policy.slot_mean(model, trace.states[:k], queue)
            if trace.queues is not None:
                queue = trace.queues[k]
    return MartingaleCheck(diffs=diffs, partial_sums=np.cumsum(diffs, axis=0))
