"""Reference oracles that the tests check the package against.

Each one restates a quantity of the package by plain enumeration or straight
from its definition, so it shares no code with the route it checks.  The
package does not import this module; ``import puregaps.reference`` loads it.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterable, Sequence


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


def union_count_bruteforce(bounds: Sequence[int]) -> int:
    """|union over permutations of the box| by explicit set enumeration.

    Independent oracle for gapsets.union_count; limited to n <= 5 and bounds
    <= 8 to keep the enumeration budget explicit.
    """
    a = tuple(int(x) for x in bounds)
    n = len(a)
    if n < 1:
        raise ValueError("need at least one bound")
    if any(a[i] < a[i + 1] for i in range(n - 1)) or a[-1] < 1:
        raise ValueError(f"bounds must be non-increasing and positive, got {a}")
    if n > 5 or a[0] > 8:
        raise ValueError(f"enumeration budget exceeded for bounds {a} (n <= 5, max 8)")
    box = product(*(range(1, b + 1) for b in a))
    return len({p for t in box for p in permutations(t)})


def permutation_closed(tuples: Iterable[Sequence[int]]) -> bool:
    """Whether the set is stable under permuting coordinates."""
    pool = {tuple(t) for t in tuples}
    for t in pool:
        for p in permutations(t):
            if p not in pool:
                return False
    return True


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
