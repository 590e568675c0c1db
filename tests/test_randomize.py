import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oppsched import RandSource, draw_option, slot_uniform, slot_uniforms
from oppsched.errors import InputError
from oppsched import randomize
from oppsched.randomize import bit_positions, cantor_pair, uniform_across_seeds

# Regression constants: computed once with the pure-int reference
# implementation below (seed 42) and frozen.
SEED42_U1 = 0.3689971351981006
SEED42_U2 = 0.30287761549313785

_M64 = (1 << 64) - 1


def ref_word(seed, j):
    """Pure-int reference for the counter-based word stream."""
    z = (seed + ((j + 1) * 0x9E3779B97F4A7C15 & _M64)) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def ref_uniform(seed, k, depth=53):
    def bit(i):
        return (ref_word(seed, i >> 6) >> (i & 63)) & 1

    def pair(k, i):
        t = k + i
        return t * (t + 1) // 2 + i

    return sum(bit(pair(k, i)) * 2.0 ** -(i + 1) for i in range(depth))


def fixed_words(monkeypatch, word: int):
    """Make every word of every seed's stream the constant ``word``, for
    formula checks."""
    monkeypatch.setattr(
        randomize, "_words", lambda seeds, idx: np.full(idx.shape, word, dtype=np.uint64)
    )


class TestSlotUniform:
    def test_all_zero_stream(self, monkeypatch):
        fixed_words(monkeypatch, 0)
        src = RandSource(0)
        assert slot_uniform(src, 1) == 0.0
        assert slot_uniform(src, 7) == 0.0

    def test_all_one_stream(self, monkeypatch):
        fixed_words(monkeypatch, _M64)
        src = RandSource(0)
        expected = 1.0 - 2.0 ** -53
        assert slot_uniform(src, 1) == expected
        assert slot_uniform(src, 3) == expected

    def test_pinned_regression_values(self):
        src = RandSource(42)
        assert slot_uniform(src, 1) == SEED42_U1
        assert slot_uniform(src, 2) == SEED42_U2
        # and the frozen constants still agree with the reference oracle
        assert ref_uniform(42, 1) == SEED42_U1
        assert ref_uniform(42, 2) == SEED42_U2

    def test_matches_reference_on_many_slots(self):
        src = RandSource(987654321)
        for k in (1, 2, 5, 17, 100, 4096):
            assert slot_uniform(src, k) == ref_uniform(987654321, k)

    def test_vectorized_matches_scalar(self):
        src = RandSource(5)
        ks = np.arange(1, 20000, dtype=np.uint64)  # spans several row blocks
        vec = slot_uniforms(src, ks)
        sample = [0, 1, 17, 4095, 4096, 8191, 8192, 16384, 19998]
        for i in sample:
            assert vec[i] == slot_uniform(src, int(ks[i]))

    def test_noncontiguous_slots_match_scalar(self):
        src = RandSource(8)
        ks = np.array([3, 1, 4096, 77, 77, 2], dtype=np.uint64)
        vec = slot_uniforms(src, ks)
        for i, k in enumerate(ks):
            assert vec[i] == slot_uniform(src, int(k))

    def test_rejects_slot_zero(self):
        with pytest.raises(InputError):
            slot_uniform(RandSource(0), 0)

    def test_largest_slot_before_pairing_overflow(self):
        # k <= MAX_SLOT = 2^32 - 53 keeps t(t+1) inside uint64 in the Cantor pairing.
        assert slot_uniform(RandSource(3), 2**32 - 53) == ref_uniform(3, 2**32 - 53)
        with pytest.raises(InputError):
            slot_uniform(RandSource(3), 2**32 - 52)
        with pytest.raises(InputError):
            slot_uniforms(RandSource(3), np.array([1, 2**32 - 52], dtype=np.uint64))
        with pytest.raises(InputError):
            bit_positions(2**32 - 52)

    def test_values_in_unit_interval(self):
        src = RandSource(123)
        us = src.uniforms(1000)
        assert np.all(us >= 0.0) and np.all(us < 1.0)


class TestBitLayout:
    def test_cantor_pairing_formula(self):
        assert int(cantor_pair(np.uint64(3), np.uint64(4))) == 7 * 8 // 2 + 4

    def test_disjoint_positions_first_100_slots(self):
        seen = set()
        for k in range(1, 101):
            pos = set(int(p) for p in bit_positions(k))
            assert len(pos) == 53
            assert not (seen & pos)
            seen |= pos

    def test_determinism_across_processes(self):
        code = (
            "from oppsched import RandSource, slot_uniform;"
            "print(repr([slot_uniform(RandSource(42), k) for k in (1, 2, 3)]))"
        )
        # The child imports the package this suite is testing.
        src = os.path.dirname(os.path.dirname(randomize.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        outs = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
            ).stdout
            for _ in range(2)
        }
        assert len(outs) == 1
        assert repr(SEED42_U1) in outs.pop()


class TestStatisticalQuality:
    def test_across_seeds_matches_scalar(self):
        seeds = np.array([0, 1, 42, 2**63, 123456789], dtype=np.uint64)
        vec = uniform_across_seeds(seeds, 3)
        for i, t in enumerate(seeds):
            assert vec[i] == RandSource(int(t)).uniform(3)

    def test_chi_square_uniformity(self):
        us = uniform_across_seeds(np.arange(100_000), 1)
        counts = np.histogram(us, bins=32, range=(0.0, 1.0))[0]
        _, p = scipy.stats.chisquare(counts)
        assert p > 0.001

    def test_cross_slot_correlation(self):
        seeds = np.arange(100_000)
        u1 = uniform_across_seeds(seeds, 1)
        u2 = uniform_across_seeds(seeds, 2)
        assert abs(np.corrcoef(u1, u2)[0, 1]) < 0.01

    def test_streams_are_unrelated(self):
        a = RandSource(9).stream("states")
        b = RandSource(9).stream("policy")
        assert a.seed != b.seed
        ua = a.uniforms(5000)
        ub = b.uniforms(5000)
        assert abs(np.corrcoef(ua, ub)[0, 1]) < 0.05


class TestDrawOption:
    def test_degenerate_weights(self):
        for u in (0.0, 0.3, 0.999):
            assert draw_option(u, [1.0, 0.0]) == 0

    def test_halfway_split(self):
        assert draw_option(0.75, [0.5, 0.5]) == 1
        assert draw_option(0.25, [0.5, 0.5]) == 0

    def test_cumulative_thresholds(self):
        assert draw_option(0.49, [0.2, 0.3, 0.5]) == 1
        assert draw_option(0.19, [0.2, 0.3, 0.5]) == 0
        assert draw_option(0.51, [0.2, 0.3, 0.5]) == 2

    def test_boundary_ties_go_low(self):
        assert draw_option(0.5, [0.5, 0.5]) == 0
        assert draw_option(0.2, [0.2, 0.3, 0.5]) == 0

    def test_unnormalized_rejected(self):
        with pytest.raises(InputError):
            draw_option(0.5, [0.5, 0.4])


class TestPrimitiveProperties:
    @given(
        seeds=st.lists(st.integers(0, _M64), min_size=1, max_size=3),
        ks=st.lists(st.integers(1, 2**32 - 53), min_size=1, max_size=4),
    )
    def test_matches_reference_oracle(self, seeds, ks):
        out = randomize._uniforms(np.array(seeds, dtype=np.uint64), np.array(ks, dtype=np.uint64))
        assert out.shape == (len(seeds), len(ks))
        for b, seed in enumerate(seeds):
            for j, k in enumerate(ks):
                assert out[b, j] == ref_uniform(seed, k)

    @given(seed=st.integers(0, _M64), start=st.integers(1, 10**6))
    @settings(max_examples=10)
    def test_row_blocks_match_reference(self, seed, start):
        # A slot range longer than one block of rows, checked at its ends and
        # at both sides of every block boundary.
        n = 2 * randomize._ROWS + 5
        us = slot_uniforms(RandSource(seed), np.arange(start, start + n, dtype=np.uint64))
        for j in (0, randomize._ROWS - 1, randomize._ROWS, 2 * randomize._ROWS, n - 1):
            assert us[j] == ref_uniform(seed, start + j)
