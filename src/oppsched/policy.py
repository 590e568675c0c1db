"""Causal decision rules: observe states s_1..s_k, draw the slot uniform,
pick an option index.

Every policy here makes its slot-k choice from the observed state prefix and
the slot-k uniform carved out of one upfront randomization source, so
feasibility (the chosen index is always valid for the current state) and
causality (later states never matter) hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import InputError, as_floats, as_ints
from .model import Model
from .randomize import inverse_cdf
from .region import RateRegion, TargetDecomposition, decompose


class Policy:
    """Base decision rule; subclasses implement ``select``."""

    uses_randomness = True  # whether the slot uniform influences decisions
    # Whether the rule reads only (current state, slot uniform); such rules
    # define choices_vector, and slot_mean ignores the prefix and the backlog.
    stationary = False

    def select(self, model: Model, states, u: float, queue=None) -> tuple[int, bool]:
        """Option index for the current state, plus a fallback flag.

        ``states`` is the observed state-index prefix; only the last entry
        and earlier ones may be read, never anything beyond.
        """
        raise NotImplementedError

    def slot_mean(self, model: Model, prefix=(), queue=None) -> np.ndarray:
        """Exact expected decision vector for the next slot given the past."""
        raise NotImplementedError

    def kind(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class RandomizedStationaryPolicy(Policy):
    """Per-state time sharing: option i in state s with probability weights[s][i]."""

    stationary = True

    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        ws = []
        for s, w in enumerate(self.weights):
            w = as_floats(w, f"weights[{s}]", ndim=1)
            if w.size == 0 or np.any(w < -1e-15):
                raise InputError(f"weights[{s}] must be a nonempty nonnegative vector")
            if abs(float(w.sum()) - 1.0) > 1e-9:
                raise InputError(f"weights[{s}] must sum to 1 within 1e-9")
            ws.append(w)
        object.__setattr__(self, "weights", tuple(ws))

    @property
    def uses_randomness(self) -> bool:
        """Whether some state shares time between two options."""
        return any(np.count_nonzero(w > 0) > 1 for w in self.weights)

    def select(self, model, states, u, queue=None):
        return int(inverse_cdf(self.weights[states[-1]], u)), False

    def choices_vector(self, model, states, us):
        """All slot choices at once, from the states and slot uniforms."""
        out = np.zeros(states.size, dtype=np.int64)
        for s, w in enumerate(self.weights):
            mask = states == s
            if np.any(mask):
                out[mask] = inverse_cdf(w, us[mask])
        return out

    def slot_mean(self, model, prefix=(), queue=None):
        return model.stationary_mean(self.weights)

    def kind(self):
        return "randomized"


class DeterministicPolicy(RandomizedStationaryPolicy):
    """Fixed choice function: option psi[s] in state s, as one-hot weights."""

    def kind(self):
        return "deterministic"


@dataclass(frozen=True)
class TargetPolicy(RandomizedStationaryPolicy):
    """Randomized stationary rule whose per-slot mean hits a chosen target."""

    decomposition: TargetDecomposition = None

    def kind(self):
        return "target"


@dataclass(frozen=True)
class MaxWeightPolicy(Policy):
    """Backlog-greedy rule: maximize queue.x among the current options."""

    uses_randomness = False

    def select(self, model, states, u, queue=None):
        # The backlog comes from the slot engine, which keeps it a
        # nonnegative length-m vector; the bare argmax keeps the per-slot
        # loop cheap.
        return int(np.argmax(model.options[states[-1]] @ queue)), False

    def slot_mean(self, model, prefix=(), queue=None):
        q = np.zeros(model.m) if queue is None else np.asarray(queue, dtype=np.float64)
        if np.any(q < 0):
            raise InputError("queue weights must be nonnegative")
        out = np.zeros(model.m)
        for s in range(model.n_states):
            out += model.probs[s] * model.options[s][self.select(model, [s], None, q)[0]]
        return out

    def kind(self):
        return "maxweight"


@dataclass(frozen=True)
class CustomPolicy(Policy):
    """Prefix-dependent rule given as a finite decision table.

    Keys are (state-index prefix, quantized uniform level); the slot uniform
    is quantized into ``levels`` equal cells.  Missing entries fall back to
    the guarded choice function psi on the current state, and the fallback is
    flagged so traces can record it.
    """

    table: Mapping[tuple[tuple[int, ...], int], int]
    levels: int
    psi: tuple[int, ...]

    def __post_init__(self):
        if self.levels < 1:
            raise InputError("levels must be >= 1")

    @cached_property
    def _longest_prefix(self) -> int:
        """Length of the longest prefix among the table keys."""
        return max((len(prefix) for prefix, _ in self.table), default=0)

    def select(self, model, states, u, queue=None):
        level = min(int(u * self.levels), self.levels - 1)
        # A prefix longer than every key matches none; skip copying it.
        entry = None
        if len(states) <= self._longest_prefix:
            entry = self.table.get((tuple(states), level))
        s = states[-1]
        if entry is None or not (0 <= entry < model.options[s].shape[0]):
            return self.psi[s], True
        return entry, False

    def slot_mean(self, model, prefix=(), queue=None):
        out = np.zeros(model.m)
        # Keys are one state longer than the prefix; past the longest table
        # key none can match, so every level falls back without a lookup.
        keys = tuple(prefix) if len(prefix) < self._longest_prefix else None
        for s in range(model.n_states):
            acc = np.zeros(model.m)
            for level in range(self.levels):
                entry = None if keys is None else self.table.get((keys + (s,), level))
                if entry is None or not (0 <= entry < model.options[s].shape[0]):
                    entry = self.psi[s]
                acc += model.options[s][entry]
            out += model.probs[s] * (acc / self.levels)
        return out

    def kind(self):
        return "custom"


def target_policy(region: RateRegion, x, tol: float = 1e-10) -> TargetPolicy:
    """Stationary randomized policy whose exact per-slot mean is x (within
    the decomposition residual).  Raises with a separating certificate when
    x is not achievable."""
    decomposition = decompose(region, x, tol)
    return TargetPolicy(weights=decomposition.weights, decomposition=decomposition)


def deterministic_policy(model: Model, psi=None) -> DeterministicPolicy:
    """Always option psi[s] in state s; psi defaults to the model's
    certified fallback.  Integral floats such as 1.0 name option 1."""
    psi = model.psi if psi is None else as_ints(psi, "field 'psi'", ndim=1)
    if len(psi) != model.n_states:
        raise InputError("field 'psi' must list one integer option index per state")
    rows = []
    for s, j in enumerate(psi):
        if not 0 <= j < model.options[s].shape[0]:
            raise InputError(f"psi[{s}]={j} is not a valid option index")
        rows.append(np.eye(model.options[s].shape[0])[j])
    return DeterministicPolicy(weights=tuple(rows))


def policy_from_dict(doc: dict, model: Model, region: RateRegion | None = None) -> Policy:
    """Parse the policy schema."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError("policy document must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "deterministic":
        return deterministic_policy(model, doc.get("psi"))
    if kind == "randomized":
        weights = doc.get("weights")
        if not isinstance(weights, list) or len(weights) != model.n_states:
            raise InputError("field 'weights' must list one simplex vector per state")
        policy = RandomizedStationaryPolicy(weights=tuple(weights))
        for s, w in enumerate(policy.weights):
            if w.size != model.options[s].shape[0]:
                raise InputError(f"weights[{s}] must have one entry per option")
        return policy
    if kind == "target":
        x = as_floats(doc.get("x"), "field 'x'")
        tol = float(as_floats(doc.get("tol", 1e-10), "field 'tol'", ndim=0))
        from .region import rate_region

        reg = region if region is not None else rate_region(model)
        return target_policy(reg, x, tol)
    if kind == "maxweight":
        return MaxWeightPolicy()
    raise InputError(f"unknown policy kind {kind!r}")
