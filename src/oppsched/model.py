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
from typing import Sequence

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


def _vectors(value, what: str) -> np.ndarray:
    """A nonempty list of equal-length numeric vectors, a number counting as
    a vector of length 1, as an (n, length) array."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim not in (1, 2) or arr.shape[0] == 0:
        raise InputError(f"{what} must be a nonempty list of equal-length numeric vectors")
    return arr.reshape(arr.shape[0], -1)


def from_resources(power_vectors, reward_table: dict, probs=None) -> Model:
    """Model whose state ``label`` offers, for each power vector i, the
    option stacking power vector i with ``reward_table[label][i]``.

    Rewards are read by position, so equal power vectors keep their own
    rewards.  States are the table's labels, equally likely unless ``probs``
    is given.  The fallback choice prefers the first all-zero power vector
    when present, so doing nothing is always certified feasible.
    """
    powers = _vectors(power_vectors, "field 'power_vectors'")
    if not isinstance(reward_table, dict) or not reward_table:
        raise InputError("field 'reward_table' must be a nonempty object")
    options = []
    for label, rows in reward_table.items():
        what = f"field 'reward_table' entry '{label}'"
        rewards = _vectors(rows, what)
        if rewards.shape[0] != powers.shape[0]:
            raise InputError(f"{what} must list one reward per power vector")
        if options and powers.shape[1] + rewards.shape[1] != options[0].shape[1]:
            raise InputError("field 'reward_table' rows must share one reward dimension")
        options.append(np.hstack([powers, rewards]))
    n = len(options)
    try:
        probs = np.full(n, 1.0 / n) if probs is None else np.asarray(probs, dtype=np.float64)
    except (TypeError, ValueError):
        raise InputError("field 'probs' must list one probability per state") from None
    zero = np.flatnonzero(~powers.any(axis=1))
    psi = [int(zero[0]) if zero.size else 0] * n
    return build_model(list(reward_table), probs, options, psi=psi)


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
        return from_resources(doc["power_vectors"], doc.get("reward_table"), doc.get("probs"))
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
