import math
import random

import pytest

from oppsched import (
    FiniteRV,
    FiniteSpace,
    MeasurabilityError,
    Partition,
    canonical_y,
    factorize,
    generate,
    is_measurable,
    join,
)
from oppsched.errors import InputError


def blocks_of(p):
    return [sorted(b) for b in p.blocks]


# --- brute-force oracle: constancy on membership-signature classes ----------

def signature_classes(n, partitions):
    indices = [p.block_index() for p in partitions]
    classes = {}
    for w in range(n):
        sig = tuple(idx[w] for idx in indices)
        classes.setdefault(sig, []).append(w)
    return list(classes.values())


def oracle_factorable(x_values, partitions, dep):
    n = len(x_values)
    parts = [partitions[j] for j in dep]
    for cls in signature_classes(n, parts):
        vals = {x_values[w] for w in cls}
        if len(vals) > 1:
            return False
    return True


class TestGenerate:
    def test_single_set_and_complement(self):
        p = generate(FiniteSpace(4), [{0, 1}])
        assert blocks_of(p) == [[0, 1], [2, 3]]

    def test_no_generators_gives_trivial(self):
        p = generate(FiniteSpace(4), [])
        assert blocks_of(p) == [[0, 1, 2, 3]]

    def test_two_sets_split_to_singletons(self):
        # brute force: signatures of 0..3 under {0,1} and {0,2} are all distinct
        p = generate(FiniteSpace(4), [{0, 1}, {0, 2}])
        assert blocks_of(p) == [[0], [1], [2], [3]]

    def test_out_of_range_index(self):
        with pytest.raises(InputError):
            generate(FiniteSpace(4), [{0, 7}])

    def test_duplicate_generators_no_effect(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(1, 10)
            sets = [
                {w for w in range(n) if rng.random() < 0.5} for _ in range(rng.randint(0, 3))
            ]
            assert generate(FiniteSpace(n), sets) == generate(FiniteSpace(n), sets + sets)


class TestJoin:
    def test_two_partitions_to_singletons(self):
        space = FiniteSpace(4)
        p1 = Partition.from_blocks(space, [[0, 1], [2, 3]])
        p2 = Partition.from_blocks(space, [[0, 2], [1, 3]])
        assert blocks_of(join([p1, p2])) == [[0], [1], [2], [3]]

    def test_idempotent(self):
        p = Partition.from_blocks(FiniteSpace(5), [[0, 1], [2], [3, 4]])
        assert join([p, p]) == p

    def test_trivial_is_identity(self):
        space = FiniteSpace(5)
        p = Partition.from_blocks(space, [[0, 1], [2], [3, 4]])
        assert join([p, Partition.trivial(space)]) == p

    def test_commutative(self):
        rng = random.Random(1)
        space = FiniteSpace(8)
        for _ in range(30):
            p = generate(space, [{w for w in range(8) if rng.random() < 0.5}])
            q = generate(space, [{w for w in range(8) if rng.random() < 0.5}])
            assert join([p, q]) == join([q, p])

    def test_space_mismatch(self):
        with pytest.raises(InputError):
            join([Partition.trivial(FiniteSpace(3)), Partition.trivial(FiniteSpace(4))])


class TestIsMeasurable:
    def test_constant_per_block(self):
        space = FiniteSpace(4)
        x = FiniteRV(space, [1, 1, 2, 2])
        p = Partition.from_blocks(space, [[0, 1], [2, 3]])
        assert is_measurable(x, p)

    def test_nonconstant_block(self):
        space = FiniteSpace(4)
        x = FiniteRV(space, [1, 2, 2, 2])
        p = Partition.from_blocks(space, [[0, 1], [2, 3]])
        assert not is_measurable(x, p)

    def test_singletons_measure_everything(self):
        space = FiniteSpace(4)
        x = FiniteRV(space, [3.7, -1, 0, 9])
        assert is_measurable(x, Partition.singletons(space))


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        space = FiniteSpace(2)
        with pytest.raises(InputError, match="finite"):
            FiniteRV(space, [bad, bad])  # one object twice
        with pytest.raises(InputError, match="finite"):
            FiniteRV(space, [bad, float(str(bad))])  # two distinct objects
        with pytest.raises(InputError, match="finite"):
            FiniteRV(space, [0.0, bad])

    def test_agrees_with_factorize(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 6)
            space = FiniteSpace(n)
            p = generate(space, [[w for w in range(n) if rng.random() < 0.5]])
            # Signed zeros compare equal, so both verdicts must treat them alike.
            x = FiniteRV(space, [rng.choice([0.0, -0.0, 1.0]) for _ in range(n)])
            try:
                factorize([x], [p], [[0]])
                factored = True
            except MeasurabilityError:
                factored = False
            assert is_measurable(x, p) == factored


class TestCanonicalY:
    def test_two_blocks(self):
        p = Partition.from_blocks(FiniteSpace(4), [[0, 1], [2, 3]])
        assert canonical_y(p).values == (0.0, 0.0, 0.5, 0.5)

    def test_singletons(self):
        p = Partition.singletons(FiniteSpace(4))
        assert canonical_y(p).values == (0.0, 0.25, 0.5, 0.75)

    def test_trivial(self):
        p = Partition.trivial(FiniteSpace(4))
        assert canonical_y(p).values == (0.0, 0.0, 0.0, 0.0)

    def test_measurable_and_separating(self):
        p = Partition.from_blocks(FiniteSpace(6), [[0, 3], [1, 4], [2, 5]])
        y = canonical_y(p)
        assert is_measurable(y, p)
        assert len({y(min(b)) for b in p.blocks}) == p.num_blocks


class TestFactorize:
    def test_identity_rv_through_two_partitions(self):
        space = FiniteSpace(4)
        h1 = Partition.from_blocks(space, [[0, 1], [2, 3]])
        h2 = Partition.from_blocks(space, [[0, 2], [1, 3]])
        x = FiniteRV(space, [0, 1, 2, 3])
        (table,) = factorize([x], [h1, h2], [{0, 1}])
        # block pair (b1, b2) carries the value 2*b1 + b2
        for b1 in range(2):
            for b2 in range(2):
                assert table.table[(b1, b2)] == 2 * b1 + b2
        for w in range(4):
            assert table.evaluate_point(w) == x(w)

    def test_constant_rv(self):
        space = FiniteSpace(4)
        h1 = Partition.from_blocks(space, [[0, 1], [2, 3]])
        x = FiniteRV(space, [7, 7, 7, 7])
        (table,) = factorize([x], [h1], [{0}])
        assert set(table.table.values()) == {7.0}

    def test_single_partition_lookup(self):
        space = FiniteSpace(4)
        h1 = Partition.from_blocks(space, [[0, 1], [2, 3]])
        x = FiniteRV(space, [1, 1, 2, 2])
        (table,) = factorize([x], [h1], [{0}])
        assert table.table[(0,)] == 1
        assert table.table[(1,)] == 2

    def test_failure_reports_witness(self):
        space = FiniteSpace(4)
        h1 = Partition.from_blocks(space, [[0, 1], [2, 3]])
        x = FiniteRV(space, [1, 2, 2, 2])
        with pytest.raises(MeasurabilityError) as exc:
            factorize([x], [h1], [{0}])
        err = exc.value
        assert err.k == 0
        a, b = err.witness
        assert x(a) != x(b)
        # witness points share a block
        assert any(a in blk and b in blk for blk in h1.blocks)

    def test_shared_y_objects_across_tables(self):
        space = FiniteSpace(8)
        parts = [
            generate(space, [{0, 1, 2, 3}]),
            generate(space, [{0, 1, 4, 5}]),
            generate(space, [{0, 2, 4, 6}]),
        ]
        ys = [canonical_y(p) for p in parts]
        xs = [
            FiniteRV(space, [ys[0](w) + ys[1](w) for w in range(8)]),
            FiniteRV(space, [ys[1](w) * 2 for w in range(8)]),
            FiniteRV(space, [ys[1](w) - ys[2](w) for w in range(8)]),
        ]
        tables = factorize(xs, parts, [{0, 1}, {1}, {1, 2}])
        # partition 1 is shared by all three: identical objects, not copies
        y_first = tables[0].ys[1]
        assert tables[1].ys[0] is y_first
        assert tables[2].ys[0] is y_first

    def test_roundtrip_exact_on_random_instances(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(1, 12)
            space = FiniteSpace(n)
            parts = [
                generate(
                    space,
                    [
                        {w for w in range(n) if rng.random() < 0.5}
                        for _ in range(rng.randint(0, 2))
                    ],
                )
                for _ in range(rng.randint(1, 3))
            ]
            dep = set(rng.sample(range(len(parts)), rng.randint(1, len(parts))))
            # build x measurable by construction: function of the joined blocks
            joined = join([parts[j] for j in sorted(dep)])
            idx = joined.block_index()
            values = [rng.uniform(-5, 5) for _ in range(joined.num_blocks)]
            x = FiniteRV(space, [values[idx[w]] for w in range(n)])
            (table,) = factorize([x], parts, [dep])
            for w in range(n):
                assert table.evaluate_point(w) == x(w)  # exact, no tolerance

    def test_success_iff_oracle_passes(self):
        # three-way equivalence: constancy on joined atoms, signature-class
        # oracle, and factorize succeeding must all agree
        rng = random.Random(3)
        successes = failures = 0
        for _ in range(200):
            n = rng.randint(2, 12)
            space = FiniteSpace(n)
            parts = [
                generate(
                    space,
                    [
                        {w for w in range(n) if rng.random() < 0.5}
                        for _ in range(rng.randint(0, 2))
                    ],
                )
                for _ in range(rng.randint(1, 3))
            ]
            dep = set(rng.sample(range(len(parts)), rng.randint(1, len(parts))))
            x_vals = [rng.choice([0.0, 1.0, 2.0]) for _ in range(n)]
            x = FiniteRV(space, x_vals)
            expected = oracle_factorable(x_vals, parts, sorted(dep))
            joined = join([parts[j] for j in sorted(dep)])
            assert is_measurable(x, joined) == expected
            try:
                factorize([x], parts, [dep])
                ok = True
                successes += 1
            except MeasurabilityError:
                ok = False
                failures += 1
            assert ok == expected
        assert successes > 10 and failures > 10  # both branches exercised
