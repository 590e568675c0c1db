"""Sigma algebras on finite sample spaces, stored as atom partitions.

On a finite space every sigma algebra is determined by its atoms, so the whole
calculus (generation, joins, measurability, factorization through a shared
family of block-encoding variables) reduces to partition operations.  All
values are copied, never recomputed, so factorizations reproduce their inputs
with exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import InputError, MeasurabilityError, as_floats


@dataclass(frozen=True)
class FiniteSpace:
    """Sample space of n points indexed 0..n-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise InputError(f"space size must be >= 1, got {self.size}")

    def points(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering the space, sorted by minimum element."""

    space: FiniteSpace
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise InputError("blocks must be nonempty")
            if seen & b:
                raise InputError("blocks must be disjoint")
            seen |= b
        if seen != set(self.space.points()):
            raise InputError("blocks must cover the whole space")
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks, key=min)))

    @classmethod
    def from_blocks(cls, space: FiniteSpace, blocks: Iterable[Iterable[int]]) -> "Partition":
        return cls(space, tuple(frozenset(b) for b in blocks))

    @classmethod
    def trivial(cls, space: FiniteSpace) -> "Partition":
        return cls(space, (frozenset(space.points()),))

    @classmethod
    def singletons(cls, space: FiniteSpace) -> "Partition":
        return cls(space, tuple(frozenset([w]) for w in space.points()))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_index(self) -> list[int]:
        """Block index of every sample point, as a list over 0..n-1."""
        idx = [0] * self.space.size
        for i, b in enumerate(self.blocks):
            for w in b:
                idx[w] = i
        return idx


@dataclass(frozen=True)
class FiniteRV:
    """Real-valued function on the sample space, one value per point."""

    space: FiniteSpace
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(as_floats(self.values, "random variable values", ndim=1).tolist())
        if len(values) != self.space.size:
            raise InputError(f"expected {self.space.size} values, got {len(values)}")
        object.__setattr__(self, "values", values)

    def __call__(self, w: int) -> float:
        return self.values[w]


@dataclass(frozen=True)
class FactorTable:
    """Lookup table h_k expressing one variable through shared block encodings.

    ``inputs`` are indices into the partition list the table was built from;
    ``ys`` are the corresponding shared encoding variables (one object per
    partition, reused across tables); ``table`` maps tuples of block indices
    to the variable's value on that cell.
    """

    inputs: tuple[int, ...]
    table: Mapping[tuple[int, ...], float]
    ys: tuple[FiniteRV, ...] = field(repr=False)
    block_counts: tuple[int, ...] = field(repr=False)

    def evaluate(self, y_values: Sequence[float]) -> float:
        """Apply the table to encoded values (as produced by the shared ys)."""
        blocks = tuple(
            int(round(y * c)) for y, c in zip(y_values, self.block_counts)
        )
        return self.table[blocks]

    def evaluate_point(self, w: int) -> float:
        return self.evaluate([y(w) for y in self.ys])


def generate(space: FiniteSpace, sets: Iterable[Iterable[int]]) -> Partition:
    """Atom partition of the sigma algebra generated by the given sets.

    Two points land in the same atom iff they agree on membership in every
    generating set.
    """
    normalized = []
    for s in sets:
        s = frozenset(s)
        for w in s:
            if not (0 <= w < space.size):
                raise InputError(f"generator element {w} outside space of size {space.size}")
        normalized.append(s)
    groups: dict[tuple[bool, ...], set[int]] = {}
    for w in space.points():
        sig = tuple(w in s for s in normalized)
        groups.setdefault(sig, set()).add(w)
    return Partition.from_blocks(space, groups.values())


def join(parts: Sequence[Partition]) -> Partition:
    """Common refinement: the coarsest partition finer than every input."""
    if not parts:
        raise InputError("join requires at least one partition")
    space = parts[0].space
    for p in parts[1:]:
        if p.space != space:
            raise InputError("all partitions must share one space")
    indices = [p.block_index() for p in parts]
    groups: dict[tuple[int, ...], set[int]] = {}
    for w in space.points():
        sig = tuple(idx[w] for idx in indices)
        groups.setdefault(sig, set()).add(w)
    return Partition.from_blocks(space, groups.values())


def is_measurable(x: FiniteRV, p: Partition) -> bool:
    """True iff x is constant on every block of p."""
    if x.space != p.space:
        raise InputError("random variable and partition live on different spaces")
    return _measurability_witness(x, p) is None


def canonical_y(p: Partition) -> FiniteRV:
    """Block-encoding variable Y with Y(w) = block_index(w) / #blocks in [0, 1).

    Y is measurable for p and injective on block indices, so it separates the
    atoms while staying inside the unit interval.
    """
    n_blocks = max(1, p.num_blocks)
    idx = p.block_index()
    return FiniteRV(p.space, tuple(i / n_blocks for i in idx))


def _measurability_witness(
    x: FiniteRV, p: Partition
) -> tuple[tuple[int, int], tuple[float, float]] | None:
    for b in p.blocks:
        ws = sorted(b)
        v0 = x(ws[0])
        for w in ws[1:]:
            if x(w) != v0:
                return (ws[0], w), (v0, x(w))
    return None


def factorize(
    xs: Sequence[FiniteRV],
    parts: Sequence[Partition],
    deps: Sequence[Iterable[int]],
) -> list[FactorTable]:
    """Express each variable as a table over the shared block encodings.

    ``deps[k]`` lists which partitions variable k may depend on.  Requires
    each x_k to be constant on the atoms of the join of its partitions; on
    failure reports the offending variable and a witness pair of points.
    The returned tables draw from one shared family of encoding variables,
    so overlapping dependency sets reuse identical Y objects.
    """
    if len(xs) != len(deps):
        raise InputError("need one dependency set per variable")
    if not parts:
        raise InputError("at least one partition is required")
    space = parts[0].space

    dep_tuples: list[tuple[int, ...]] = []
    for k, dep in enumerate(deps):
        dep_t = tuple(sorted(set(dep)))
        if not dep_t:
            raise InputError(f"dependency set for variable {k} is empty")
        for j in dep_t:
            if not (0 <= j < len(parts)):
                raise InputError(f"dependency index {j} out of range for variable {k}")
        dep_tuples.append(dep_t)

    # One shared encoding per partition, reused by every table that needs it.
    shared_y = tuple(canonical_y(p) for p in parts)
    indices = [p.block_index() for p in parts]

    tables: list[FactorTable] = []
    for k, (x, dep_t) in enumerate(zip(xs, dep_tuples)):
        if x.space != space:
            raise InputError(f"variable {k} lives on a different space")
        joined = join([parts[j] for j in dep_t])
        witness = _measurability_witness(x, joined)
        if witness is not None:
            points, values = witness
            raise MeasurabilityError(k, points, values)
        table: dict[tuple[int, ...], float] = {}
        for w in space.points():
            key = tuple(indices[j][w] for j in dep_t)
            table[key] = x(w)  # constant on the cell, so overwrites agree
        tables.append(
            FactorTable(
                inputs=dep_t,
                table=table,
                ys=tuple(shared_y[j] for j in dep_t),
                block_counts=tuple(max(1, parts[j].num_blocks) for j in dep_t),
            )
        )
    return tables
