import numpy as np
import pytest
from hypothesis import settings

from oppsched import build_model, rate_region

# Property tests draw the same examples on every run, so the suite stays
# reproducible; no example database is written.
settings.register_profile(
    "tier1", derandomize=True, database=None, deadline=None, max_examples=25
)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def two_state_model():
    # Reference model: two equally likely states, rate options {0,1} and {0,2}.
    return build_model(
        ["s1", "s2"], [0.5, 0.5], [[[0.0], [1.0]], [[0.0], [2.0]]]
    )


@pytest.fixture(scope="session")
def two_state_region(two_state_model):
    return rate_region(two_state_model)


@pytest.fixture(scope="session")
def simplex_model():
    # One state whose options span the unit simplex corners.
    return build_model(
        ["s"], [1.0], [[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]]
    )


@pytest.fixture(scope="session")
def simplex_region(simplex_model):
    return rate_region(simplex_model)


def random_small_model(rng: np.random.Generator, max_states=4, max_options=4, max_dim=3):
    n = int(rng.integers(1, max_states + 1))
    m = int(rng.integers(1, max_dim + 1))
    probs = rng.random(n) + 0.05
    probs = probs / probs.sum()
    options = [
        rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, max_options + 1)), m))
        for _ in range(n)
    ]
    return build_model([f"s{i}" for i in range(n)], probs, options)


def downlink_model(rng: np.random.Generator, max_states=6, max_dim=4):
    """A downlink rate table: in each state, idle or serve one user at its
    current rate; a user's channel is off (no option) with probability 1/4."""
    n = int(rng.integers(1, max_states + 1))
    m = int(rng.integers(1, max_dim + 1))
    probs = rng.random(n) + 0.5
    probs = probs / probs.sum()
    options = []
    for _ in range(n):
        rates = np.where(rng.random(m) < 0.25, 0.0, rng.uniform(0.2, 1.0, m))
        options.append(np.vstack([np.zeros(m)] + [r * e for r, e in zip(rates, np.eye(m)) if r > 0]))
    return build_model([f"s{i}" for i in range(n)], probs, options)
