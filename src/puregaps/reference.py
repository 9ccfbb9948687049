"""Reference oracles that the tests check the package against.

Each one restates a quantity of the package by plain enumeration or straight
from its definition, so it shares no code with the route it checks.  Among
them are the permutation union of a level box, which lists the cells that
``puregaps.gapsets`` counts and streams; the pure-gap count from the oracle's
residue classes, which checks ``gapsets.pure_gap_count``; the translate
listing of a maximal family, which checks the seeds of ``puregaps.boxes`` and
their count; the glb walk over a list of relative maximal elements, which
checks the family-seeded glb route of ``puregaps.boxes``; and the semigroup
at n places as lubs of closed-form generators, which checks the generating
theorem against the oracle's membership test.  The package does not import
this module; ``import puregaps.reference`` loads it.
"""

from __future__ import annotations

import operator
from itertools import combinations, permutations, product
from math import comb, inf
from typing import Iterable, Sequence

from .maximals import gamma_star, h_one_place


def per_residue_literal(m: int, r: int, coeffs: dict[int, int], a_inf: int) -> list[int]:
    """l_s for s = 0..m-1, term by term from the closed form of riemann_roch.

    l_s = floor((a_inf - s*r) / m) + 1 + sum_j (a_j + s)//m, the branch sum
    written out for every class, in O(m * |coeffs|).  Independent oracle for
    riemann_roch._per_residue, which buckets the same steps in O(m + |coeffs|).
    """
    out = []
    for s in range(m):
        v = (a_inf - s * r) // m + 1
        for c in coeffs.values():
            v += (c + s) // m
        out.append(v)
    return out


def permutation_union(bounds: Sequence[int]) -> list[tuple[int, ...]]:
    """The box prod [1, b_j] united over all coordinate permutations, sorted, no duplicates.

    The box has no point, so the list is empty, when any bound is below 1.
    Independent oracle for the cells of gapsets: the level-k cell at the
    origin is permutation_union(b_k(curve, n, k).bounds).
    """
    box = product(*(range(1, b + 1) for b in bounds))
    return sorted({p for t in box for p in permutations(t)})


def union_count_bruteforce(bounds: Sequence[int]) -> int:
    """|permutation_union(bounds)|, with the input and budget checked first.

    Independent oracle for gapsets.union_count; limited to n <= 5 and bounds
    <= 8 to keep the enumeration budget explicit.
    """
    a = tuple(map(operator.index, bounds))
    n = len(a)
    if n < 1:
        raise ValueError("need at least one bound")
    if any(a[i] < a[i + 1] for i in range(n - 1)) or a[-1] < 1:
        raise ValueError(f"bounds must be non-increasing and positive, got {a}")
    if n > 5 or a[0] > 8:
        raise ValueError(f"enumeration budget exceeded for bounds {a} (n <= 5, max 8)")
    return len(permutation_union(a))


def class_level_count(curve, n: int, level: int) -> int:
    """N_K: the residue tuples (u_1, ..., u_n) of the pure gaps at level K = sum c_j.

    Write alpha_j = c_j*m + u_j with 0 <= u_j < m.  By the class formula of
    riemann_roch, alpha is a pure gap iff every u_j >= 1 and, for every i,
    #{j : u_j >= u_i} <= -(l_{m-u_i}(0) + K), the cap of the value u_i.  The
    tuples are counted by a DP over the values v = m-1 down to 1, whose state j
    counts the coordinates already placed at values above v: placing c >= 1
    more at v weighs C(n - j, c) and needs j + c within v's cap.
    """
    m = curve.m
    ell0 = per_residue_literal(m, curve.r, {}, 0)
    ways = [1] + [0] * n  # ways[j]: the placements of j coordinates above v
    for v in range(m - 1, 0, -1):
        cap = min(n, -(ell0[m - v] + level))
        step = list(ways)
        for j, w in enumerate(ways):
            for c in range(1, cap - j + 1):
                step[j + c] += w * comb(n - j, c)
        ways = step
    return ways[n]


def class_count(curve, n: int) -> int:
    """The number of pure gaps at n places, sum_K C(K + n - 1, n - 1) * N_K.

    N_K is class_level_count.  The caps fall as K grows, so the first empty
    level ends the sum.  Independent oracle for gapsets.pure_gap_count: it
    reads only l_s(0), not the level boxes or their union recursion.
    """
    total, level = 0, 0
    while tuples := class_level_count(curve, n, level):
        total += comb(level + n - 1, n - 1) * tuples
        level += 1
    return total


def translate_box(family, ks: Sequence[int]) -> list[tuple[int, ...]]:
    """The box of a MaximalFamily at indices (k_1, ..., k_n): level sum(ks) shifted by w.

    w = (-pi*(k_2 + ... + k_n), k_2*pi, ..., k_n*pi), so the tuples lie in
    prod_i [k_i*pi, (k_i+1)*pi).  Listed over every composition of every
    level, the boxes are the whole maximal set: the oracle for the seeds of
    boxes, family_cardinality and boxes.pure_gaps_from_family.
    """
    pi = family.period
    w = (-pi * sum(ks[1:]), *(pi * k for k in ks[1:]))
    return [tuple(map(operator.add, e, w)) for e in family.box(sum(ks))]


def semigroup_by_lubs(curve, n: int, box: int) -> list[tuple[int, ...]]:
    """The semigroup at P_1, ..., P_n inside [0, box]^n, as lubs of at most n generators.

    The generators are 0; at each single place, the nonzero elements of the
    one-place semigroup (the complement of h_one_place's gaps); and on each
    set of at least two places, the positive absolute maximal elements
    gamma_star(curve, size); all padded with zeros and clipped to the box.  By
    the generating theorem each member is the lub (coordinatewise max) of n of
    them, so n - 1 rounds of lubs with the generators reach every member.
    Independent check of gamma_star and h_one_place against the oracle's
    riemann_roch.in_generalized_semigroup, which reads neither.
    """
    gaps = set(h_one_place(curve).gaps)
    one_place = [(v,) for v in range(1, box + 1) if v not in gaps]
    gens = {(0,) * n}
    for size in range(1, n + 1):
        elems = one_place if size == 1 else [e for e in gamma_star(curve, size) if max(e) <= box]
        for where in combinations(range(n), size):
            for e in elems:
                t = [0] * n
                for j, v in zip(where, e):
                    t[j] = v
                gens.add(tuple(t))
    found = set(gens)
    for _ in range(n - 1):
        found = {tuple(map(max, a, b)) for a in found for b in gens}
    return sorted(found)


def permutation_closed(tuples: Iterable[Sequence[int]]) -> bool:
    """Whether the set is stable under permuting coordinates."""
    pool = {tuple(t) for t in tuples}
    for t in pool:
        for p in permutations(t):
            if p not in pool:
                return False
    return True


def pure_gaps_from_relative_maximals(
    relative_maximals: Iterable[Sequence[int]], n: int
) -> list[tuple[int, ...]]:
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
    witness list's maximum on that axis.  Each glb comes out once, in
    lexicographic order.  Independent oracle for boxes.pure_gaps_from_family,
    which gets the same glbs from a family's seeds without listing them.
    """
    if n < 1:
        raise ValueError("glbs need at least one coordinate")
    elems = sorted({tuple(e) for e in relative_maximals})
    for e in elems:
        if len(e) != n:
            raise ValueError(f"element {e} does not have dimension {n}")
    out: list[tuple[int, ...]] = []

    def walk(prefix: tuple[int, ...], pool: list, witnesses: list[list]) -> None:
        # pool: the elements above prefix on every fixed coordinate
        j = len(prefix)
        if j == n - 1:
            stop = min([max(b[j] for b in w) for w in witnesses], default=inf)
            out.extend(prefix + (v,) for v in sorted({b[j] for b in pool}) if v < stop)
            return
        carriers: dict[int, list] = {}
        for b in pool:
            carriers.setdefault(b[j], []).append(b)
        for v in sorted(carriers):
            kept = [[b for b in w if b[j] > v] for w in witnesses]
            above = [b for b in pool if b[j] > v]
            if not (above and all(kept)):
                break
            walk(prefix + (v,), above, kept + [carriers[v]])

    walk((), elems, [])
    del walk  # a closure that calls itself is a cycle; unbinding frees it at once
    return out


def carvalho_torres_bound(
    genus: int, degree: int, n: int, alpha: Sequence[int], beta: Sequence[int]
) -> int:
    """Distance floor from a componentwise interval of pure gaps.

    Requires alpha <= beta componentwise and every tuple between them to be a
    pure gap (the caller certifies the box property); the floor is
    deg(G) - (2g-2) + n + sum(beta_i - alpha_i).  codes.design_code reaches
    the same floor from its closed form.
    """
    if len(alpha) != n or len(beta) != n:
        raise ValueError("alpha and beta must have one entry per place")
    if any(a > b for a, b in zip(alpha, beta)):
        raise ValueError(f"need alpha <= beta componentwise, got {tuple(alpha)} and {tuple(beta)}")
    return degree - (2 * genus - 2) + n + sum(b - a for a, b in zip(alpha, beta))
