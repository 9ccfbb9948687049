"""Equal-period box machinery for semigroup maximal-element families.

When all pairwise periods of the chosen places agree (period pi), the sets of
maximal elements with positive coordinates split into disjoint boxes
prod_i [k_i*pi, (k_i+1)*pi), and every box is a translate of a level-k box on
the first axis by the zero-sum vector

    w_{k_2..k_n} = (-pi * sum k_i, k_2*pi, ..., k_n*pi).

A MaximalFamily stores just those level boxes; translation, cardinality
counting, and the greatest-lower-bound construction of pure gaps all run off
that seed data.  Everything here is generic over the family content: nothing
assumes Kummer closed forms.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from math import comb
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .curves import _checked_make

TupleZ = tuple[int, ...]


def glb(tuples: Iterable[Sequence[int]]) -> TupleZ:
    """Componentwise minimum of a nonempty collection of equal-length tuples."""
    ts = [tuple(t) for t in tuples]
    if not ts:
        raise ValueError("glb of an empty collection is undefined")
    if len({len(t) for t in ts}) != 1:
        raise ValueError("glb needs tuples of equal dimension")
    return tuple(min(col) for col in zip(*ts))


def compositions(total: int, parts: int) -> Iterator[TupleZ]:
    """Weak compositions of ``total`` into ``parts`` nonnegative parts, colex order."""
    if parts < 1:
        raise ValueError("need at least one part")
    if total < 0:
        return
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for rest in compositions(total - last, parts - 1):
            yield rest + (last,)


class MaximalFamily(namedtuple("MaximalFamily", "period n box0", defaults=(None,))):
    """Level-box seed data for a set of maximal elements with equal periods.

    box0 maps each level k >= 0 to the elements lying in
    [k*period, (k+1)*period) x [0, period)^(n-1); the full set is recovered by
    translating level boxes with w-vectors over all compositions.
    """

    __slots__ = ()

    def __new__(cls, period: int, n: int, box0: Mapping | None = None):
        if period < 1:
            raise ValueError("period must be positive")
        if n < 2:
            raise ValueError("families need n >= 2 places")
        normalized: dict[int, tuple[TupleZ, ...]] = {}
        for k, elems in (box0 or {}).items():
            if k < 0:
                raise ValueError(f"box levels must be nonnegative, got {k}")
            items = sorted({tuple(e) for e in elems})
            if not items:
                continue
            for e in items:
                if len(e) != n:
                    raise ValueError(f"element {e} does not have dimension {n}")
                if not k * period <= e[0] < (k + 1) * period:
                    raise ValueError(f"element {e} is outside level-{k} window on axis 1")
                if any(not 0 <= c < period for c in e[1:]):
                    raise ValueError(f"element {e} leaves [0, {period}) on a trailing axis")
            normalized[k] = tuple(items)
        return super().__new__(cls, period, n, MappingProxyType(normalized))

    _make = classmethod(_checked_make)

    @classmethod
    def from_window_elements(
        cls, period: int, n: int, elements: Iterable[Sequence[int]]
    ) -> "MaximalFamily":
        """Group fundamental-window elements by their level on the first axis."""
        grouped: dict[int, list[TupleZ]] = {}
        for e in elements:
            t = tuple(e)
            grouped.setdefault(t[0] // period, []).append(t)
        return cls(period, n, {k: tuple(v) for k, v in grouped.items()})

    def box(self, k: int) -> tuple[TupleZ, ...]:
        return self.box0.get(k, ())

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(sorted(self.box0))

    @property
    def max_level(self) -> int:
        return max(self.box0, default=-1)


def translate_box(family: MaximalFamily, ks: Sequence[int]) -> list[TupleZ]:
    """The box of the family at indices (k_1, ..., k_n): level sum(ks) shifted by w.

    Output tuples lie in prod_i [k_i*period, (k_i+1)*period).
    """
    if len(ks) != family.n:
        raise ValueError(f"expected {family.n} box indices, got {len(ks)}")
    if any(k < 0 for k in ks):
        raise ValueError("box indices must be nonnegative")
    w = (-family.period * sum(ks[1:]), *(k * family.period for k in ks[1:]))
    return [tuple(a + b for a, b in zip(e, w)) for e in family.box(sum(ks))]


def family_cardinality(family: MaximalFamily, genus: int) -> int:
    """Size of the full maximal-element set generated by the family.

    Levels at or above ceil((2g-1)/period) must be empty, because a coordinate
    sum of 2g or more already lies in the semigroup; each lower level k is hit
    by one box per composition of k into n parts.
    """
    pi, n = family.period, family.n
    bound = -(-(2 * genus - 1) // pi)
    for k in family.levels:
        if k >= bound and family.box(k):
            raise ValueError(
                f"family has a nonempty level {k}, impossible for genus {genus} and period {pi}"
            )
    return sum(comb(k + n - 1, n - 1) * len(family.box(k)) for k in family.levels)


def pure_gaps_from_relative_maximals(
    relative_maximals: Iterable[Sequence[int]], n: int, box_max: int | None = None
) -> list[TupleZ]:
    """Pure gaps as greatest lower bounds of n-tuples of relative maximal elements.

    A glb(beta^1, ..., beta^n) qualifies when each beta^l has its l-th
    coordinate strictly below the l-th coordinate of every other chosen
    element; the glb is then d = (beta^1_1, ..., beta^n_n).  Written out per
    element, the pairwise condition reads beta^l_l = d_l and beta^l_j > d_j
    for every j != l, which separates by coordinate: d qualifies iff every
    coordinate l has a witness beta with beta_l = d_l that lies strictly above
    d on the other coordinates.  So d is walked depth first, each value d_j
    taken from the elements still above the prefix, and each fixed coordinate
    keeps its surviving witnesses; raising d_j only thins those lists, so the
    value loop stops at the first empty one.  The last coordinate needs no
    lists: a value qualifies iff it carries an element and lies below every
    witness list's maximum on that axis.  With box_max, each axis stops at its
    first value past it, so only the glbs inside (-inf, box_max]^n are walked.
    Each glb comes out once, in lexicographic order.
    """
    if n < 1:
        raise ValueError("glbs need at least one coordinate")
    elems = sorted({tuple(e) for e in relative_maximals})
    for e in elems:
        if len(e) != n:
            raise ValueError(f"element {e} does not have dimension {n}")
    if box_max is None:
        box_max = max(map(max, elems), default=0)  # no glb coordinate lies above it
    box_max = operator.index(box_max)
    out: list[TupleZ] = []

    def walk(prefix: TupleZ, pool: list[TupleZ], witnesses: list[list[TupleZ]]) -> None:
        # pool: the elements above prefix on every fixed coordinate
        j = len(prefix)
        if j == n - 1:
            stop = min([box_max + 1] + [max(b[j] for b in w) for w in witnesses])
            out.extend(prefix + (v,) for v in sorted({b[j] for b in pool}) if v < stop)
            return
        carriers: dict[int, list[TupleZ]] = {}
        for b in pool:
            carriers.setdefault(b[j], []).append(b)
        for v in sorted(carriers):
            if v > box_max:
                break
            kept = [[b for b in w if b[j] > v] for w in witnesses]
            above = [b for b in pool if b[j] > v]
            if not (above and all(kept)):
                break
            walk(prefix + (v,), above, kept + [carriers[v]])

    walk((), elems, [])
    del walk  # a closure that calls itself is a cycle; unbinding frees it at once
    return out
