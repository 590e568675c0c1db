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

_M64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# (seed, slot) rows per block of digit arithmetic: each (rows, 53) uint64
# temporary is 217 KB, so a block stays in cache.  8192-row blocks took 0.086 s
# for 1e5 uniforms against 0.049 s, and raised the mean verifier's RSS ~5 MB.
_ROWS = 512


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
    return ks.astype(np.uint64, copy=False)


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
    """U_k = sum of digit(pair(k, i)) * 2^-(i+1) over i < 53: a (B, K) array
    from B seeds and slot indices that broadcast to (B, K) against them, so
    ``ks`` is either one row of K slots for every seed or one row per seed.

    The only place digits are read.  Each term is a distinct power of two, so
    the sum is exact in float64 whatever the summation order.
    """
    ks = _check_slots(ks)
    seeds, ks = np.broadcast_arrays(np.asarray(seeds, dtype=np.uint64).reshape(-1, 1), ks)
    out = np.empty(ks.shape)
    flat = out.reshape(-1)
    i = np.arange(DEPTH, dtype=np.uint64)
    weights = 0.5 ** (1.0 + np.arange(DEPTH))
    for lo in range(0, flat.size, _ROWS):
        r, j = np.divmod(np.arange(lo, min(lo + _ROWS, flat.size)), ks.shape[1])
        pos = cantor_pair(ks[r, j, None], i)
        words = _words(seeds[r, j, None], pos >> np.uint64(6))
        words >>= pos & np.uint64(63)
        words &= np.uint64(1)
        flat[lo : lo + r.size] = words.astype(np.float64) @ weights
    return out


def child_seeds(seeds, tags) -> np.ndarray:
    """``RandSource(seed).stream(tag).seed`` for seeds and tags that broadcast
    against each other (``tags`` may be one string), as a 1-D array."""
    seeds = np.asarray(np.array(seeds, dtype=object) & _M64, dtype=np.uint64)
    digests = (hashlib.blake2b(t.encode(), digest_size=8).digest() for t in
               ([tags] if isinstance(tags, str) else tags))
    words = np.array([int.from_bytes(d, "big") for d in digests], dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64((seeds ^ words) + _GOLDEN)


@dataclass(frozen=True)
class RandSource:
    """One randomization variable, addressed by 64-bit seed.

    Digit i of the conceptual R depends only on (seed, i), so values
    reproduce across runs and platforms.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", self.seed & _M64)

    def stream(self, tag: str) -> "RandSource":
        """An unrelated child source addressed by a stable name."""
        return RandSource(int(child_seeds(self.seed, tag)[0]))


def slot_uniform(src: RandSource, k: int) -> float:
    """U_k = sum of bit(pair(k, i)) * 2^-(i+1) over i < 53."""
    return float(_uniforms([src.seed], [k])[0, 0])


def slot_uniforms(src, ks) -> np.ndarray:
    """U_k for every slot index in ``ks``, one uniform per entry.

    ``src`` is one RandSource, for a 1-D ``ks``, or an array of B stream
    seeds, for a (B, K) ``ks`` whose row b is drawn under seed b: the slot
    engine draws every seed of a stream with one call.
    """
    if isinstance(src, RandSource):
        return _uniforms([src.seed], np.ravel(ks))[0]
    if np.ndim(ks) != 2 or len(ks) != len(src):
        raise InputError("slot indices must form one row per seed")
    return _uniforms(src, ks)


# Smallest positive float64.  Raising u to it changes no u > 0 and moves
# u = 0 past the zero-mass cells at the bottom of a distribution.
_TINY = np.nextafter(0.0, 1.0)


def inverse_cdf(weights, u):
    """Cell of u in [0, 1) under the cell masses ``weights``: the first cell
    whose cumulative mass reaches u, so boundary ties go low, and u = 0 lands
    in the first cell of positive mass.  A total short of 1 by rounding is
    made up from the last cell of positive mass on (the last cell if none),
    so every u < 1 falls in a cell of positive mass.  ``u`` may be a scalar or
    an array; state draws and stationary option draws both go through here.
    """
    cum = np.cumsum(weights)
    if cum[-1] < 1.0:  # a total of at least 1 already covers every u < 1
        positive = np.flatnonzero(np.asarray(weights) > 0)
        top = positive[-1] if positive.size else -1
        cum[top:] = np.maximum(cum[top:], 1.0)
    return np.searchsorted(cum, np.maximum(u, _TINY), side="left")
