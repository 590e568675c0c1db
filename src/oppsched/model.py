"""Scheduling environment: states, state distribution, and per-state options.

A model couples a finite state distribution with a finite menu of decision
vectors per state and a ball bound on all options.  Continuous state spaces
enter only through quantization into representative bins, which keeps the
whole downstream geometry exactly computable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError
from .randomize import inverse_cdf

PROB_TOL = 1e-12


@dataclass(frozen=True)
class StateSpace:
    """Finite state labels with their probabilities."""

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size != len(self.labels):
            raise InputError("need one probability per state label")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, labels: Sequence[str]) -> "StateSpace":
        n = len(labels)
        return cls(tuple(labels), np.full(n, 1.0 / n))

    @classmethod
    def quantized_interval(cls, bins: int, weights=None) -> "StateSpace":
        """Unit interval quantized into bins; states are the bin midpoints."""
        if bins < 1:
            raise InputError("need at least one bin")
        mids = (np.arange(bins) + 0.5) / bins
        labels = tuple(f"{m:.6g}" for m in mids)
        probs = np.full(bins, 1.0 / bins) if weights is None else np.asarray(weights, float)
        return cls(labels, probs)


@dataclass(frozen=True)
class Model:
    """States, probabilities, per-state option vectors, and the ball bound.

    Construction checks the model, so every model that exists is valid, and
    its ``psi`` is a certified fallback choice function.
    """

    states: StateSpace
    options: tuple[np.ndarray, ...]  # one (n_options, m) array per state
    m: int
    bound: float
    psi: tuple[int, ...] | None = None  # fallback option per state; first if absent

    def __post_init__(self):
        opts = []
        for i, arr in enumerate(self.options):
            arr = np.asarray(arr, dtype=np.float64)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1) if self.m == 1 else arr.reshape(1, -1)
            if arr.ndim != 2 or (arr.size and arr.shape[1] != self.m):
                raise InputError(f"states[{i}].options must be vectors of dimension {self.m}")
            opts.append(arr)
        object.__setattr__(self, "options", tuple(opts))
        issues = []
        probs = self.probs
        if not np.all(np.isfinite(probs)):
            issues.append("state probabilities must be finite")
        elif np.any(probs < 0):
            issues.append("state probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            issues.append(f"state probabilities sum to {total!r}, expected 1")
        if not math.isfinite(self.bound):
            issues.append(f"the bound must be finite, got {self.bound!r}")
        for i, arr in enumerate(self.options):
            state = f"state '{self.label(i)}'"
            if arr.shape[0] == 0:
                issues.append(f"{state} has no options (no feasible choice exists)")
            elif not np.all(np.isfinite(arr)):
                issues.append(f"{state} has a non-finite option entry")
            elif (worst := float(np.linalg.norm(arr, axis=1).max())) > self.bound + 1e-9:
                issues.append(
                    f"{state} has an option of norm {worst!r} "
                    f"outside the declared bound {self.bound!r}"
                )
        if not issues and self.psi is not None:
            if len(self.psi) != self.n_states:
                issues.append("psi must name one option per state")
            else:
                issues += [f"psi[{s}]={j} is not a valid option index"
                           for s, j in enumerate(self.psi)
                           if not 0 <= j < self.options[s].shape[0]]
        if issues:
            raise InputError("; ".join(issues))
        psi = (0,) * self.n_states if self.psi is None else tuple(self.psi)
        object.__setattr__(self, "psi", psi)

    @property
    def n_states(self) -> int:
        return len(self.states.labels)

    @property
    def probs(self) -> np.ndarray:
        return self.states.probs

    def label(self, s: int) -> str:
        return self.states.labels[s]

    def stationary_mean(self, weights) -> np.ndarray:
        """Expected decision vector when state s picks its options with
        probabilities weights[s]: the sum over s of p_s (weights[s] . options_s)."""
        out = np.zeros(self.m)
        for s in range(self.n_states):
            out += self.probs[s] * (weights[s] @ self.options[s])
        return out


def build_model(
    labels: Sequence[str],
    probs,
    options: Sequence,
    bound: float | None = None,
    psi: Sequence[int] | None = None,
) -> Model:
    """Assemble a model, computing the ball bound from the options if absent."""
    opts = []
    m = None
    for arr in options:
        arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
        if m is None and arr.size:
            m = arr.shape[1]
        opts.append(arr)
    if m is None:
        raise InputError("cannot infer dimension: all option lists are empty")
    opts = [a if a.size else np.zeros((0, m)) for a in opts]
    if bound is None:
        norms = [np.linalg.norm(a, axis=1).max() for a in opts if a.size]
        bound = float(max(norms)) if norms else 0.0
    return Model(
        states=StateSpace(tuple(labels), np.asarray(probs, dtype=np.float64)),
        options=tuple(opts),
        m=m,
        bound=float(bound),
        psi=psi,
    )


@dataclass(frozen=True)
class ResourceSpec:
    """Resource allocation menu: power vectors and the reward they produce."""

    power_vectors: tuple[np.ndarray, ...]
    reward: Callable[[str, np.ndarray], np.ndarray]
    reward_dim: int

    @classmethod
    def from_table(cls, power_vectors, table: dict) -> "ResourceSpec":
        """Table form: table[label][power_index] -> reward vector."""
        pvs = tuple(np.atleast_1d(np.asarray(p, dtype=np.float64)) for p in power_vectors)
        dims = {len(np.atleast_1d(r)) for rows in table.values() for r in rows}
        if len(dims) != 1:
            raise InputError("reward_table rows must share one reward dimension")

        def reward(label, p):
            idx = next(i for i, q in enumerate(pvs) if np.array_equal(q, p))
            return np.atleast_1d(np.asarray(table[label][idx], dtype=np.float64))

        return cls(pvs, reward, dims.pop())


def from_resources(spec: ResourceSpec, states: StateSpace) -> Model:
    """Model whose options stack each power vector with its reward.

    The fallback choice prefers the all-zero power vector when present, so
    doing nothing is always certified feasible.
    """
    if not spec.power_vectors:
        raise InputError("resource spec needs at least one power vector")
    a = spec.power_vectors[0].size
    options = []
    for label in states.labels:
        rows = []
        for p in spec.power_vectors:
            r = spec.reward(label, p)
            if r.size != spec.reward_dim:
                raise InputError(f"reward for state '{label}' has wrong dimension")
            rows.append(np.concatenate([p, r]))
        options.append(np.array(rows))
    zero_idx = next(
        (i for i, p in enumerate(spec.power_vectors) if not np.any(p)), 0
    )
    psi = tuple(zero_idx for _ in states.labels)
    return build_model(states.labels, states.probs, options, psi=psi)


def sample_state(model: Model, u: float) -> int:
    """Inverse-CDF state index for a uniform draw; boundary ties go low."""
    if not (0.0 <= u < 1.0):
        raise InputError(f"u must lie in [0, 1), got {u!r}")
    return int(inverse_cdf(model.probs, u))


def sample_states(model: Model, us: np.ndarray) -> np.ndarray:
    """Vectorized ``sample_state``."""
    return inverse_cdf(model.probs, us).astype(np.int64)


# --- JSON schema -----------------------------------------------------------

def model_from_dict(doc: dict) -> Model:
    """Parse the model schema, naming the offending field on error."""
    if not isinstance(doc, dict):
        raise InputError("model document must be a JSON object")
    if "power_vectors" in doc:
        return _resource_model_from_dict(doc)
    try:
        m = int(doc["m"])
    except KeyError:
        raise InputError("missing field 'm'") from None
    states = doc.get("states")
    if not isinstance(states, list) or not states:
        raise InputError("field 'states' must be a nonempty list")
    labels, probs, options = [], [], []
    for i, st in enumerate(states):
        try:
            labels.append(str(st["label"]))
        except (KeyError, TypeError):
            raise InputError(f"states[{i}].label is missing") from None
        try:
            probs.append(float(st["prob"]))
        except (KeyError, TypeError, ValueError):
            raise InputError(f"states[{i}].prob must be a number") from None
        opts = st.get("options")
        if not isinstance(opts, list):
            raise InputError(f"states[{i}].options must be a list of vectors")
        arr = np.asarray(opts, dtype=np.float64)
        if arr.size and (arr.ndim != 2 or arr.shape[1] != m):
            raise InputError(f"states[{i}].options must be vectors of length {m}")
        options.append(arr.reshape(-1, m) if arr.size else np.zeros((0, m)))
    bound = doc.get("bound")
    return build_model(labels, probs, options, bound=None if bound is None else float(bound))


def _resource_model_from_dict(doc: dict) -> Model:
    table = doc.get("reward_table")
    if not isinstance(table, dict) or not table:
        raise InputError("field 'reward_table' must be a nonempty object")
    spec = ResourceSpec.from_table(doc["power_vectors"], table)
    labels = list(table.keys())
    probs = doc.get("probs")
    space = (
        StateSpace.uniform(labels)
        if probs is None
        else StateSpace(tuple(labels), np.asarray(probs, dtype=np.float64))
    )
    return from_resources(spec, space)


def load_json(path, what: str):
    """Parse a JSON file; a missing or malformed ``what`` file is an InputError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{what} file is not valid JSON: {e}") from None


def model_from_json(path) -> Model:
    return model_from_dict(load_json(path, "model"))


def model_to_dict(model: Model) -> dict:
    return {
        "m": model.m,
        "states": [
            {
                "label": model.label(s),
                "prob": float(model.probs[s]),
                "options": model.options[s].tolist(),
            }
            for s in range(model.n_states)
        ],
        "bound": model.bound,
    }
