"""Pure-gap boxes, the enumeration stream, and exact cardinality formulas.

The pure gaps at n ramified places decompose into disjoint grid cells of side
m.  The cell at the origin of level k is the permutation union of the product
box B_k with bounds a_j = m - ceil(m*(k+j)/r); every other cell of level
k_1 + ... + k_n = k is its translate by (k_1*m, ..., k_n*m).  Counting uses
the recursion

    D_1(a_1) = a_1
    D_n(a) = a_n^n + sum_{i<n} C(n,i) * a_n^(n-i) * D_i(a_1 - a_n, ..., a_i - a_n)

which gives |union over permutations of B| for non-increasing positive bounds;
reference.union_count_bruteforce checks it by explicit set enumeration.

The same cells give a pointwise test.  Write t_i = c_i*m + u_i with
1 <= u_i <= m - 1.  Then t is a pure gap exactly when its level
k = c_1 + ... + c_n is at most max_level and the descending sort of
u = (u_1, ..., u_n) lies under the bounds of B_k, coordinate by coordinate.
The stream walks this test depth first: a prefix (t_1, ..., t_j) is kept when
the descending sort of its residues lies under the first j bounds of B_k, k
the level of the prefix.  The prune is exact.  Every level up to max_level
has last bound >= 1, so padding a kept prefix with t = 1 (c = 0, u = 1)
completes it, and no branch of the walk dies.  At one level, the residues
that extend a kept prefix form an interval 1..u_max, since a larger u sorts
to a pointwise larger vector; and once a prefix fails at a level it fails at
every higher one, since the bounds do not grow with k.

The test reads a prefix only through the descending sort of its residues and
its level, so the last coordinates that complete an (n-1)-prefix, its block,
and the (t, block) pairs that complete an (n-2)-prefix, its row, depend on
that class alone.  The walk builds each block once per class, as a list of
leaves made by a constructor the caller passes in, and hands out the same
list for every prefix of that class: 1-tuples for the tuple stream, rendered
strings for the CLI.  A row is filled as it is read; one read to its end is
kept as its list of blocks (its t come again from the memoized ranges) for
the later prefixes of its class, at depth >= 2 only, since a shorter prefix
is alone in its class.  So the walk holds the block memo plus one block list
per kept class.  Over the benchmark's stream pool there are about eleven
(n-1)-prefixes per block, and at n = 4 about four 2-prefixes per kept row.

The box rule: under a box [1, box_max]^n, a prefix's ranges end at the first
cell that starts past box_max, and the last one is clipped to box_max.  As
t = 1 completes every kept prefix, a walk with box_max >= 1 has no dead branch
(box_max < 1 has no branch), and its work follows the pure gaps in the box.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from itertools import chain, starmap
from math import comb
from typing import Callable, Iterator, Sequence

from .boxes import TupleZ, compositions
from .curves import KummerCurve
from .errors import NOutOfRangeError
from .maximals import _in_window, _require_places, lambda_star


class BkBox(namedtuple("BkBox", "level bounds empty")):
    """Product box of pure-gap offsets at one level.

    bounds are non-increasing; the box counts as empty past the last level
    that admits pure gaps, even though the bound formula still evaluates.
    """

    __slots__ = ()


def max_level(curve: KummerCurve, n: int) -> int:
    """Largest level whose cells contain pure gaps; negative means none at all."""
    return curve.r - operator.index(n) - 1 - curve.r // curve.m


def b_k(curve: KummerCurve, n: int, k: int) -> BkBox:
    """The offset box at level k, with bounds m - ceil(m*(k+j)/r) for j = 1..n."""
    _require_places(curve, n)
    k = operator.index(k)
    if k < 0:
        raise ValueError(f"level must be nonnegative, got {k}")
    return BkBox(level=k, bounds=tuple(_box_bounds(curve, k, n)), empty=k > max_level(curve, n))


def _box_bounds(curve: KummerCurve, k: int, count: int) -> list[int]:
    """m - ceil(m*(k+j)/r) for j = 1..count: bound j of level k, and bound j - i of level k + i."""
    m, r = curve.m, curve.r
    return [m - -(-(m * (k + j)) // r) for j in range(1, count + 1)]


def pure_gaps(curve: KummerCurve, n: int, box_max: int | None = None) -> Iterator[TupleZ]:
    """Lexicographically ordered stream of every pure gap at P_1, ..., P_n.

    The rows of pure_gap_blocks with 1-tuple leaves, each block appended to
    its prefix and t.  Blocks and kept rows are shared by the prefixes of a
    class, so the walk keeps one list per class and no heap.  With box_max,
    only the pure gaps in [1, box_max]^n come out, by the box rule of the
    module docstring.  n is checked on the call.
    """
    rows = pure_gap_blocks(curve, n, lambda t: (t,), box_max)
    return chain.from_iterable(map((p + (t,)).__add__, block) for p, row in rows for t, block in row)


def pure_gap_blocks(
    curve: KummerCurve, n: int, leaf: Callable[[int], object], box_max: int | None = None
) -> Iterator[tuple[TupleZ, Iterator[tuple[int, list]]]]:
    """The pure-gap stream in rows: (prefix, row) per (n-2)-prefix, in lexicographic order.

    The row yields (t, [leaf(u) for every u completing prefix + (t,)]) for
    every t extending prefix, t and u ascending.  It is filled as it is read,
    and kept at depth >= 2 once read to its end, so memory is the block memo
    plus one block list per kept class.  With box_max, every coordinate stays
    at most box_max, by the box rule of the module docstring; a box below 1
    yields no row.  A block list is shared by every prefix of its class, so
    callers must not mutate it.  n is checked on the call.
    """
    _require_places(curve, n)
    return _BlockWalk(curve.m, n, _level_bounds(curve, n), leaf, box_max).walk((), (), 0)


def _level_bounds(curve: KummerCurve, n: int) -> list[TupleZ]:
    """The bounds of b_k for k = 0..max_level in one pass: bound j of level k is cap[k + j - 1]."""
    levels = max_level(curve, n) + 1
    cap = _box_bounds(curve, 0, levels + n - 1)
    return [tuple(cap[k : k + n]) for k in range(levels)]


class _BlockWalk:
    """The depth-first walk behind pure_gap_blocks, with its memos.

    A prefix is extended by t_j = c*m + u with c, then u, ascending, so the
    stream comes out in lexicographic order.  residues holds a prefix's
    residues sorted descending, d_0 >= d_1 >= ...  The walk is a class, not a
    recursive closure, because a closure that calls itself is a reference
    cycle: it would keep the memos alive after the stream ends, until the
    cyclic collector finds them.
    """

    def __init__(
        self, m: int, n: int, bounds: Sequence[TupleZ], leaf: Callable[[int], object],
        box_max: int | None,
    ):
        self.m, self.n, self.bounds = m, n, bounds
        self.stop = len(bounds) * m if box_max is None else min(len(bounds) * m, box_max + 1)
        self.leaves = [leaf(t) for t in range(self.stop)]
        self.memo: dict[tuple[TupleZ, int], list[tuple[int, int]]] = {}
        self.blocks: dict[tuple[TupleZ, int], list] = {}
        self.rows: dict[tuple[TupleZ, int], list[list]] = {}

    def extensions(self, residues: TupleZ, k: int) -> list[tuple[int, int]]:
        """The next coordinates that keep a prefix completable: ranges [c*m + 1, c*m + u_max + 1).

        With u added, the i-th largest residue is max(d_i, min(u, d_{i-1})).
        So at bounds b the prefix takes u exactly when every d_i <= b_i, and
        u <= b_0, and u <= b_i wherever d_{i-1} > b_i; the bounds do not grow
        with i, so the last such b_i is the least.  Once the prefix itself
        fails, every higher level fails too.  The box rule of the module
        docstring is the loop's range: the cells c*m + 1 that start below
        stop, paired with the levels k + c up to the top one, each range
        clipped to stop.  So no range is empty or past the box.  The cap is
        the same for the whole walk, so it needs no place in the memo key.
        """
        found = self.memo.get((residues, k))
        if found is None:
            found = self.memo[residues, k] = []
            stop = self.stop
            for lo, b in zip(range(1, stop, self.m), self.bounds[k:]):
                u_max = b[0]
                for d, bi, b_next in zip(residues, b, b[1:]):
                    if d > bi:
                        return found
                    if d > b_next:
                        u_max = b_next
                hi = lo + u_max
                found.append((lo, hi if hi < stop else stop))
        return found

    def walk(self, prefix: TupleZ, residues: TupleZ, k: int) -> Iterator[tuple[TupleZ, Iterator]]:
        """The rows under one prefix: recurse to the (n-2)-prefixes, then yield their rows."""
        if len(prefix) == self.n - 2:
            ranges, found = self.extensions(residues, k), self.rows.get((residues, k))
            if found is not None:
                yield prefix, zip(chain.from_iterable(starmap(range, ranges)), found)
            elif ranges:  # only the root can have none
                yield prefix, self.fill(residues, k, len(prefix) >= 2)
            return
        m = self.m
        for lo, hi in self.extensions(residues, k):
            c = lo // m
            for t in range(lo, hi):
                child = tuple(sorted(residues + (t - c * m,), reverse=True))
                yield from self.walk(prefix + (t,), child, k + c)

    def fill(self, residues: TupleZ, k: int, store: bool) -> Iterator[tuple[int, list]]:
        """The (t, block) pairs of a row as they are asked for; the whole row is kept if store."""
        m, blocks, leaves, row = self.m, self.blocks, self.leaves, []
        for lo, hi in self.extensions(residues, k):
            c = lo // m
            for t in range(lo, hi):
                key = (tuple(sorted(residues + (t - c * m,), reverse=True)), k + c)
                block = blocks.get(key)
                if block is None:
                    block = blocks[key] = [x for a, b in self.extensions(*key) for x in leaves[a:b]]
                row.append(block)
                yield t, block
        if store:
            self.rows[residues, k] = row


def union_count(bounds: Sequence[int]) -> int:
    """The box permutation-union count, by the exact recursion.

    Evaluates the recursion as written on any integer input (intermediate
    calls can receive non-monotone arguments); counting semantics hold for
    non-increasing positive bounds.
    """
    a = tuple(map(operator.index, bounds))
    n = len(a)
    if n == 0:
        raise ValueError("need at least one bound")
    if n == 1:
        return a[0]
    last = a[-1]
    total = last**n
    for i in range(1, n):
        total += comb(n, i) * last ** (n - i) * union_count(tuple(x - last for x in a[:i]))
    return total


def pure_gap_count(curve: KummerCurve, n: int) -> int:
    """Exact number of pure gaps at n places, by the level-sum closed form."""
    _require_places(curve, n)
    levels = enumerate(_level_bounds(curve, n))
    return sum(comb(k + n - 1, n - 1) * union_count(bounds) for k, bounds in levels)


def pure_gap_count_two_places(curve: KummerCurve) -> int:
    """The n = 2 specialization as a single explicit sum over levels."""
    m, r = curve.m, curve.r
    total = 0
    for k in range(1, r - 1 - r // m):
        low = -(-(m * k) // r)
        high = -(-(m * (k + 1)) // r)
        total += k * ((m - low) ** 2 - (high - low) ** 2)
    return total


def pure_gap_count_multiple_plus_one(curve: KummerCurve, n: int, u: int) -> int:
    """Closed-form count for the special shape m = u*r + 1.

    The ceilings collapse, leaving u^n * sum_k C(k+n-1, n-1) (r-k-n) (r-k)^(n-1).
    """
    m, r, n, u = curve.m, curve.r, operator.index(n), operator.index(u)
    if u < 1:
        raise ValueError(f"u must be positive, got {u}")
    if m != u * r + 1:
        raise ValueError(f"curve has m={m}, r={r}; the shape m = u*r + 1 needs m = {u * r + 1}")
    _require_places(curve, n)
    total = 0
    for k in range(0, r - n):
        total += comb(k + n - 1, n - 1) * (r - k - n) * (r - k) ** (n - 1)
    return u**n * total


class Cube(namedtuple("Cube", "origin side count level")):
    """One side-m grid cell of the three-place pure-gap diagram."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "origin": list(self.origin),
            "side": self.side,
            "count": self.count,
            "class": self.level,
        }


class CubeData(namedtuple("CubeData", "cubes relative_maximals")):
    """Plot payload: all nonempty cells plus the positive relative maximal points."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "cubes": [c.to_json() for c in self.cubes],
            "lambda_star": [list(t) for t in self.relative_maximals],
        }


def plot_data(curve: KummerCurve, n: int = 3) -> CubeData:
    """Cube inventory of the three-place pure-gap set, for external plotting.

    Each cell of level k = k_1 + k_2 + k_3 gets its origin, its side m, and
    its pure-gap count; cube counts across a level share one box count.
    """
    if n != 3:
        raise NOutOfRangeError(f"plot data is defined for n = 3 places, got n={n}")
    _require_places(curve, n)
    m = curve.m
    cubes = []
    for k, bounds in enumerate(_level_bounds(curve, n)):
        count = union_count(bounds)
        for comp in compositions(k, n):
            cubes.append(Cube(tuple(c * m for c in comp), m, count, k))
    maximals = tuple(lambda_star(curve, n)) if _in_window(curve, n) else ()
    return CubeData(tuple(sorted(cubes, key=lambda c: (c.level, c.origin))), maximals)
