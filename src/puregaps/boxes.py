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

The witness rule.  Relative maximal elements beta^1, ..., beta^n, each beta^l
strictly below the others on coordinate l, have the glb d = (beta^1_1, ...,
beta^n_n); so d is such a glb iff each coordinate l has a witness beta with
beta_l = d_l and beta_j > d_j for j != l.  The level-K element e has the seed
eps = e - (K*pi, 0, ..., 0) in [0, pi)^n and the translates eps + pi*k, k a
composition of K; one is a witness iff d_l = eps_l + pi*k_l and each other
k_j >= max(0, floor((d_j - eps_j)/pi) + 1), so the seed has one iff
d_l = eps_l (mod pi), d_l >= eps_l and

    N_eps(d) = sum_j max(0, floor((d_j - eps_j)/pi) + 1) <= K + 1,

the term at l being k_l + 1 and any spare total going to a j != l.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import namedtuple
from itertools import chain, repeat
from math import comb
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .curves import _checked_make

TupleZ = tuple[int, ...]


def compositions(total: int, parts: int) -> Iterator[TupleZ]:
    """Weak compositions of ``total`` into ``parts`` nonnegative parts, colex order."""
    if operator.index(parts) < 1:
        raise ValueError("need at least one part")
    if operator.index(total) < 0:
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
        period, n = operator.index(period), operator.index(n)
        if period < 1:
            raise ValueError("period must be positive")
        if n < 2:
            raise ValueError("families need n >= 2 places")
        normalized: dict[int, tuple[TupleZ, ...]] = {}
        for k, elems in (box0 or {}).items():
            k = operator.index(k)
            if k < 0:
                raise ValueError(f"box levels must be nonnegative, got {k}")
            items = sorted({tuple(map(operator.index, e)) for e in elems})
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
    ks = tuple(map(operator.index, ks))
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
    pi, n, genus = family.period, family.n, operator.index(genus)
    bound = -(-(2 * genus - 1) // pi)
    for k in family.levels:
        if k >= bound and family.box(k):
            raise ValueError(
                f"family has a nonempty level {k}, impossible for genus {genus} and period {pi}"
            )
    return sum(comb(k + n - 1, n - 1) * len(family.box(k)) for k in family.levels)


def pure_gaps_from_family(family: MaximalFamily, box_max: int | None = None) -> list[TupleZ]:
    """The glbs of every translate of the family, from its seeds, in lexicographic order.

    No translate is listed: each seed is tested by the witness rule of the
    module docstring.  With box_max, only the glbs in (-inf, box_max]^n.
    """
    box_max = None if box_max is None else operator.index(box_max)
    if not family.box0:
        return []
    walk = _SeedWalk(family, box_max)
    walk.walk((), (), 0)
    return walk.out


class _SeedWalk:
    """The depth-first walk behind pure_gaps_from_family, with its memos.

    With d_j = q_j*pi + rho_j >= 0 and 0 <= rho_j < pi, a seed's need at d_j
    is q_j + [rho_j >= eps_j], so a prefix acts through its residues and its
    level Q = sum q_j, which lowers every slack by Q.  Each residue prefix
    has one record at Q = 0: slack[s], K_s + 1 less the needs so far and the
    least needs (at the column's least eps_j) after the next coordinate; the
    ladder of next values eps_t + pi*k, k < slack[s]; and end, over the fixed
    coordinates, the least of the largest reach eps_t + pi*slack[s] among the
    seeds of each one's residue.  A seed keeps slack >= 0 at v iff v is
    below its reach.  A seed of that residue that was no witness fell below
    its least need there, so its reach never tops a witness's.  A prefix at
    level Q takes the ladder values in [pi*Q, end + pi*Q), moved down by
    pi*Q.  A class, not a recursive closure, so a call leaves no cycle.
    """

    def __init__(self, family: MaximalFamily, box_max: int | None):
        pi, self.n = family.period, family.n
        self.pi = pi
        seeds = [(k, (e[0] - k * pi,) + e[1:]) for k, elems in family.box0.items() for e in elems]
        self.cols = list(zip(*(eps for _, eps in seeds)))
        self.least = [[c == lo for c in col] for col, lo in zip(self.cols, map(min, self.cols))]
        self.groups = []  # groups[t][rho]: the seeds with eps_t = rho
        for col in self.cols:
            groups = [()] * pi
            for s, c in enumerate(col):
                groups[c] += (s,)
            self.groups.append(groups)
        # candidates are eps_t + pi*k with k < slack <= K + 1: bound clips none
        self.bound = pi * (family.max_level + 2)
        self.top = self.bound if box_max is None else min(self.bound, box_max + 1)
        self.out: list[TupleZ] = []
        self.ladders: dict[tuple[int, TupleZ], list[int]] = {}
        slack = tuple(k + 1 - sum(row) for (k, _), row in zip(seeds, zip(*self.least[1:])))
        self.memo = {(): self.record(0, slack, ())}

    def node(self, res: TupleZ) -> tuple[TupleZ, list[int], int]:
        """The (slack, ladder, end) record of a residue prefix, from its parent's (made first)."""
        found = self.memo.get(res)
        if found is None:
            t, rho = len(res), res[-1]
            up, col = self.memo[res[:-1]][0], self.cols[t - 1]
            slack = tuple([a - (rho >= c) + b for a, c, b in zip(up, col, self.least[t])])
            found = self.memo[res] = self.record(t, slack, res)
        return found

    def record(self, t: int, slack: TupleZ, res: TupleZ) -> tuple[TupleZ, list[int], int]:
        """A residue prefix's record, from its slacks at column t."""
        pi, col = self.pi, self.cols[t]
        reach = [c + pi * a for c, a in zip(col, slack)]
        end = self.bound
        for groups, rho in zip(self.groups, res):
            e = max(map(reach.__getitem__, groups[rho]))
            if e < end:
                end = e
        ladder = self.ladders.get((t, slack))
        if ladder is None:
            runs = chain.from_iterable(map(range, col, reach, repeat(pi)))
            ladder = self.ladders[t, slack] = sorted(set(runs))
        return slack, ladder, end

    def walk(self, prefix: TupleZ, res: TupleZ, shift: int) -> None:
        """The glbs under a prefix with residues res and level shift // pi."""
        pi, top = self.pi, self.top
        _, ladder, end = self.node(res)
        lo = bisect_left(ladder, shift)
        values = ladder[lo : bisect_left(ladder, min(end, top + shift), lo)]
        if len(res) < self.n - 2:
            for v in values:
                rho = v % pi
                self.walk(prefix + (v - shift,), res + (rho,), v - rho)
            return
        heads = [repeat(d) for d in prefix]
        for v in values:  # the last coordinate is listed here, so that a leaf costs no call
            rho = v % pi
            _, last, end = self.node(res + (rho,))
            level = v - rho
            lo = bisect_left(last, level)
            tail = last[lo : bisect_left(last, min(end, top + level), lo)]
            self.out.extend(zip(*heads, repeat(v - shift), map(operator.sub, tail, repeat(level))))
