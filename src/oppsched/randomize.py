"""Single randomization variable realized as a seeded bit stream.

A source holds one conceptual uniform draw R in [0,1] whose binary digits are
produced on demand by a counter-based generator: digit i is a pure function of
(seed, i), so any digit can be read in O(1) without sequential state.  Slot
uniforms U_1, U_2, ... are carved out of R by giving slot k the digits at
positions pair(k, 0), pair(k, 1), ... where pair is the Cantor pairing
function; distinct slots therefore read disjoint digit sets.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError

DEPTH = 53  # binary digits per slot uniform

# Largest slot index: past it, t(t+1) in the Cantor pairing overflows uint64
# and the digit sets of different slots collide.
MAX_SLOT = (1 << 32) - DEPTH

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# (seed, slot) rows per block of digit arithmetic; bounds the working set to
# a few MB whatever the number of slots or seeds.
_ROWS = 8192


def cantor_pair(k, i):
    """Cantor pairing (k+i)(k+i+1)/2 + i, injective on pairs of nonnegative ints."""
    with np.errstate(over="ignore"):
        t = np.asarray(k, dtype=np.uint64) + np.asarray(i, dtype=np.uint64)
        return ((t * (t + np.uint64(1))) >> np.uint64(1)) + np.asarray(i, dtype=np.uint64)


def _check_slots(ks) -> np.ndarray:
    ks = np.asarray(ks)
    if ks.size and int(ks.min()) < 1:
        raise InputError("slot indices must be >= 1")
    if ks.size and int(ks.max()) > MAX_SLOT:
        raise InputError(
            f"slot index {int(ks.max())} exceeds {MAX_SLOT}: "
            "its digit positions would overflow the Cantor pairing"
        )
    return ks.astype(np.uint64)


def bit_positions(k: int) -> np.ndarray:
    """Digit positions of R consumed by the slot-k uniform."""
    ks = _check_slots([k])
    return cantor_pair(ks, np.arange(DEPTH, dtype=np.uint64))


def _mix64(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # 64-bit wraparound is the point
        z = z ^ (z >> np.uint64(30))
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        return z


def _words(seeds: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Counter-based word stream: 64-bit word j of a seed mixes seed + (j+1)*golden."""
    with np.errstate(over="ignore"):
        return _mix64(seeds + (idx + np.uint64(1)) * _GOLDEN)


def _uniforms(seeds, ks) -> np.ndarray:
    """U_k = sum of digit(pair(k, i)) * 2^-(i+1) over i < 53, for every
    seed and slot: a (len(seeds), len(ks)) array.

    The only place digits are read.  Each term is a distinct power of two, so
    the sum is exact in float64 whatever the summation order.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    ks = _check_slots(np.ravel(ks))
    n_k = ks.size
    out = np.empty(seeds.size * n_k)
    i = np.arange(DEPTH, dtype=np.uint64)
    weights = 0.5 ** (1.0 + np.arange(DEPTH))
    for lo in range(0, out.size, _ROWS):
        rows = np.arange(lo, min(lo + _ROWS, out.size))
        pos = cantor_pair(ks[rows % n_k, None], i)
        words = _words(seeds[rows // n_k, None], pos >> np.uint64(6))
        words >>= pos & np.uint64(63)
        words &= np.uint64(1)
        out[lo : lo + rows.size] = words.astype(np.float64) @ weights
    return out.reshape(seeds.size, n_k)


@dataclass(frozen=True)
class RandSource:
    """One randomization variable, addressed by 64-bit seed.

    Digit i of the conceptual R depends only on (seed, i), so values
    reproduce across runs and platforms.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", self.seed & 0xFFFFFFFFFFFFFFFF)

    def uniform(self, k: int) -> float:
        """The slot-k uniform U_k in [0, 1)."""
        return slot_uniform(self, k)

    def uniforms(self, count: int) -> np.ndarray:
        """U_1..U_count as one array (same values as repeated ``uniform`` calls)."""
        return slot_uniforms(self, np.arange(1, count + 1, dtype=np.uint64))

    def stream(self, tag: str) -> "RandSource":
        """An unrelated child source addressed by a stable name."""
        digest = hashlib.blake2b(tag.encode(), digest_size=8).digest()
        child = np.uint64(self.seed) ^ np.uint64(int.from_bytes(digest, "big"))
        with np.errstate(over="ignore"):
            return RandSource(int(_mix64(child + _GOLDEN)))


def slot_uniform(src: RandSource, k: int) -> float:
    """U_k = sum of bit(pair(k, i)) * 2^-(i+1) over i < 53."""
    return float(_uniforms([src.seed], [k])[0, 0])


def slot_uniforms(src: RandSource, ks: np.ndarray) -> np.ndarray:
    """Vectorized ``slot_uniform`` over an array of slot indices."""
    return _uniforms([src.seed], ks)[0]


def uniform_across_seeds(seeds, k: int) -> np.ndarray:
    """U_k under many seeds at once; equals RandSource(seed).uniform(k) per entry.

    Meant for statistical audits that sample the slot-k uniform across a
    population of sources.
    """
    return _uniforms(seeds, [k])[:, 0]


def cumulative(weights) -> np.ndarray:
    """Cumulative weights for inverse-CDF draws, with the top edge guarded
    against rounding so that every u < 1 falls in some cell."""
    cum = np.cumsum(weights)
    cum[-1] = max(cum[-1], 1.0)
    return cum


def draw_option(u: float, weights) -> int:
    """Inverse-CDF index of u under the given simplex weights; ties go low.

    Returns the first index i with cumsum(weights)[i] >= u.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise InputError("weights must be a nonempty vector")
    if np.any(w < -1e-15):
        raise InputError("weights must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-9:
        raise InputError(f"weights must sum to 1 within 1e-9, got {total!r}")
    return int(np.searchsorted(cumulative(w), u, side="left"))
