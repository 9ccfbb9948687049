"""Closed-form gap and maximal-element sets at ramified places of a Kummer curve.

The one-place semigroup, the absolute/relative maximal elements in the
fundamental window (first coordinate free, the rest confined to [0, m)), and
the positive-coordinate maximal sets all have explicit descriptions indexed by
a residue i modulo m.  This module evaluates those descriptions directly; the
Riemann-Roch oracle verifies them independently in the tests.
"""

from __future__ import annotations

import operator
from collections import namedtuple

from .boxes import MaximalFamily, TupleZ, compositions
from .curves import KummerCurve
from .errors import NOutOfRangeError


class OnePlaceGaps(namedtuple("OnePlaceGaps", "gaps at_infinity")):
    """The gap set of the Weierstrass semigroup at a single place.

    Exactly genus-many gaps, all within [1, 2g-1].
    """

    __slots__ = ()


def h_one_place(curve: KummerCurve, at_infinity: bool = False) -> OnePlaceGaps:
    """Gap set at one totally ramified place, or at the place at infinity.

    At a ramified place the gaps are the numbers 1 + i + m*j over the double
    range 0 <= i <= m-2-floor(m/r), 0 <= j <= r-2-floor(r(i+1)/m).  At
    infinity they are the gaps of the numerical semigroup generated by m and r.
    """
    m, r, g = curve.m, curve.r, curve.genus
    if at_infinity:
        top = 2 * g - 1
        representable = [False] * (top + 1)
        for a in range(0, top // m + 1):
            for b in range(0, (top - a * m) // r + 1):
                representable[a * m + b * r] = True
        gaps = tuple(x for x in range(1, top + 1) if not representable[x])
    else:
        found = set()
        for i in range(0, m - 1 - m // r):
            for j in range(0, r - 1 - (r * (i + 1)) // m):
                found.add(1 + i + m * j)
        gaps = tuple(sorted(found))
    return OnePlaceGaps(gaps, at_infinity)


def _require_places(curve: KummerCurve, n: int) -> None:
    if not 2 <= operator.index(n) <= curve.r:
        raise NOutOfRangeError(f"need 2 <= n <= r = {curve.r} branch places, got n={n}")


def _in_window(curve: KummerCurve, n: int) -> bool:
    """Whether 2 <= n <= r - floor(r/m): the place counts the fundamental window describes."""
    return 2 <= n <= curve.r - curve.r // curve.m


def _require_window(curve: KummerCurve, n: int, what: str) -> None:
    if not _in_window(curve, operator.index(n)):
        upper = curve.r - curve.r // curve.m
        raise NOutOfRangeError(
            f"{what} needs 2 <= n <= {upper} on this curve (m={curve.m}, r={curve.r}), got n={n}"
        )


def _hat_box(curve: KummerCurve, n: int, shift: int) -> list[TupleZ]:
    """(shift, 0, ..., 0), and (k*m + shift + i, i, ..., i) with k = r - n - floor(r*i/m), i < m."""
    _require_window(curve, n, "the fundamental-window description")
    m, r = curve.m, curve.r
    out = [(shift,) + (0,) * (n - 1)]
    for i in range(1, m):
        out.append(((r - n - (r * i) // m) * m + shift + i,) + (i,) * (n - 1))
    return sorted(out)


def gamma_hat_box(curve: KummerCurve, n: int) -> list[TupleZ]:
    """Absolute maximal elements in the fundamental window, zero tuple included.

    One element (k*m + i, i, ..., i) per residue i = 1..m-1 with
    k = r - n - floor(r*i/m); for large i the first coordinate goes negative,
    and such elements are still part of the window description (they matter
    for the generalized semigroup, not for the positive sets).
    """
    return _hat_box(curve, n, 0)


def lambda_hat_box(curve: KummerCurve, n: int) -> list[TupleZ]:
    """Relative maximal elements in the fundamental window.

    The residue-zero element is ((n-2)*m, 0, ..., 0); for i = 1..m-1 it is
    ((k+n-2)*m + i, i, ..., i) with k = r - n - floor(r*i/m).
    """
    return _hat_box(curve, n, (n - 2) * curve.m)


def _star(curve: KummerCurve, n: int, top: int) -> list[TupleZ]:
    """(k_1*m + i, ..., k_n*m + i) for 1 <= i <= m-1-floor(m/r), sum k_j = top - floor(r*i/m)."""
    m, r = curve.m, curve.r
    return sorted(
        tuple(k * m + i for k in comp)
        for i in range(1, m - m // r)
        for comp in compositions(top - (r * i) // m, n)
    )


def gamma_star(curve: KummerCurve, n: int) -> list[TupleZ]:
    """Absolute maximal elements with all coordinates positive.

    Tuples (k_1*m + i, ..., k_n*m + i) over residues 1 <= i <= m-1-floor(m/r)
    and compositions k_1 + ... + k_n = r - n - floor(r*i/m).  Empty whenever
    n exceeds r - floor(r/m), since every total is then negative.
    """
    _require_places(curve, n)
    return _star(curve, n, curve.r - n)


def lambda_star(curve: KummerCurve, n: int) -> list[TupleZ]:
    """Relative maximal elements with all coordinates positive.

    Same shape as gamma_star but with composition total r - 2 - floor(r*i/m),
    which is nonnegative throughout the residue range.
    """
    _require_window(curve, n, "the positive relative maximal set")
    return _star(curve, n, curve.r - 2)


def absolute_family(curve: KummerCurve, n: int) -> MaximalFamily:
    """Level-box family generating the positive absolute maximal set."""
    elems = [e for e in gamma_hat_box(curve, n) if min(e) > 0]
    return MaximalFamily.from_window_elements(curve.period, n, elems)


def relative_family(curve: KummerCurve, n: int) -> MaximalFamily:
    """Level-box family generating the positive relative maximal set."""
    elems = [e for e in lambda_hat_box(curve, n) if min(e) > 0]
    return MaximalFamily.from_window_elements(curve.period, n, elems)
