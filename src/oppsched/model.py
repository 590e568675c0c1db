"""Scheduling environment: states, state distribution, and per-state options.

A model couples a finite state distribution with a finite menu of decision
vectors per state and a ball bound on all options.  Continuous state spaces
enter only through quantization into representative bins, which keeps the
whole downstream geometry exactly computable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError, as_floats, as_ints
from .randomize import inverse_cdf

PROB_TOL = 1e-12


@dataclass(frozen=True)
class Model:
    """State labels and probabilities, per-state option vectors, and the
    ball bound.

    Construction converts and checks every field, so every model that exists
    is valid, and its ``psi`` is a certified fallback choice function.  The
    dimension ``m`` defaults to that of the first nonempty option list and
    the bound to the largest option norm.
    """

    labels: tuple[str, ...]
    probs: np.ndarray
    options: tuple[np.ndarray, ...]  # one (n_options, m) array per state
    bound: float | None = None
    psi: tuple[int, ...] | None = None  # fallback option per state; first if absent
    m: int | None = None

    def __post_init__(self):
        labels = tuple(self.labels)
        probs = as_floats(self.probs, "state probabilities", ndim=1)
        options = tuple(as_floats(a, f"states[{i}].options") for i, a in enumerate(self.options))
        if not probs.size == len(options) == len(labels):
            raise InputError("need one probability and one option list per state label")
        m = self.m
        if m is None:
            m = next((a.shape[-1] for a in options if a.ndim and a.size), None)
            if m is None:
                raise InputError("cannot infer the dimension: no option list holds a vector")
        for i, arr in enumerate(options):
            if arr.size and (arr.ndim != 2 or arr.shape[1] != m):
                raise InputError(f"states[{i}].options must be vectors of length {m}")
        if self.bound is None:
            bound = float(max((np.linalg.norm(a, axis=1).max() for a in options if a.size),
                              default=0.0))
        else:
            bound = float(as_floats(self.bound, "field 'bound'", ndim=0))
        issues = []
        if np.any(probs < 0):
            issues.append("state probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            issues.append(f"state probabilities sum to {total!r}, expected 1")
        for label, arr in zip(labels, options):
            if arr.size == 0:
                issues.append(f"state '{label}' has no options (no feasible choice exists)")
            elif (worst := float(np.linalg.norm(arr, axis=1).max())) > bound + 1e-9:
                issues.append(
                    f"state '{label}' has an option of norm {worst!r} "
                    f"outside the declared bound {bound!r}"
                )
        if not issues and self.psi is not None:
            if len(self.psi) != len(labels):
                issues.append("psi must name one option per state")
            else:
                issues += [f"psi[{s}]={j} is not a valid option index"
                           for s, j in enumerate(self.psi)
                           if not 0 <= j < options[s].shape[0]]
        if issues:
            raise InputError("; ".join(issues))
        psi = (0,) * len(labels) if self.psi is None else tuple(self.psi)
        for name, value in (("labels", labels), ("probs", probs), ("options", options),
                            ("bound", bound), ("psi", psi), ("m", m)):
            object.__setattr__(self, name, value)

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def label(self, s: int) -> str:
        return self.labels[s]

    def stationary_mean(self, weights) -> np.ndarray:
        """Expected decision vector when state s picks its options with
        probabilities weights[s]: the sum over s of p_s (weights[s] . options_s)."""
        out = np.zeros(self.m)
        for s in range(self.n_states):
            out += self.probs[s] * (weights[s] @ self.options[s])
        return out


# build_model(labels, probs, options, bound=None, psi=None): the positional
# constructor, with m inferred from the options.
build_model = Model


def _vectors(value, what: str) -> np.ndarray:
    """A nonempty list of equal-length numeric vectors, a number counting as
    a vector of length 1, as an (n, length) array."""
    arr = as_floats(value, what)
    if arr.ndim not in (1, 2) or arr.size == 0:
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
    probs = np.full(n, 1.0 / n) if probs is None else as_floats(probs, "field 'probs'", ndim=1)
    zero = np.flatnonzero(~powers.any(axis=1))
    psi = [int(zero[0]) if zero.size else 0] * n
    return Model(tuple(reward_table), probs, tuple(options), psi=psi)


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
    m = as_ints(doc.get("m"), "field 'm'", ndim=0)
    states = doc.get("states")
    if not isinstance(states, list) or not states:
        raise InputError("field 'states' must be a nonempty list")
    labels, probs, options = [], [], []
    for i, st in enumerate(states):
        if not isinstance(st, dict) or "label" not in st:
            raise InputError(f"states[{i}].label is missing")
        labels.append(str(st["label"]))
        probs.append(as_floats(st.get("prob"), f"states[{i}].prob", ndim=0))
        options.append(st.get("options"))
    return Model(tuple(labels), probs, tuple(options), bound=doc.get("bound"), m=m)


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
