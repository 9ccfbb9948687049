"""Exact Riemann-Roch dimensions on Kummer curves, and the predicates built on them.

Every function regular outside {P_1, ..., P_r, P_infinity} decomposes as
sum_{s=0}^{m-1} h_s(x) * z^s with h_s rational in x, where z is the substitute
generator with z^m = prod_j (x - alpha_j).  The valuations

    v_{P_j}(z) = 1,   v_{P_inf}(z) = -r,   v_{P_j}(x - alpha_j) = m,

are pairwise distinct modulo m across the summands at each supported place, so
the pole constraints separate per residue class s.  Each class contributes a
genus-zero dimension count, giving for D = sum_j a_j P_j + a_inf P_inf:

    l_s = floor((a_inf - s*r) / m) - sum_j ceil((-a_j - s) / m) + 1
    ell(D) = sum_s max(0, l_s)

This closed form is the package's single trust anchor: it is accepted only
because the exact Riemann-Roch identity ell(D) - ell(W - D) = deg(D) + 1 - g
holds on randomized divisor suites (see the tests).  Everything else in the
module reduces membership questions (semigroup, gap, pure gap, maximality,
discrepancy, period) to the classes l_s.

For 0 <= s < m, (a + s)//m = (a - 1)//m + [s >= -a mod m], so each branch
coefficient adds (a - 1)//m to every class and one more to the classes from
-a mod m on.  ell reads each coefficient of D once, buckets these steps and
sums the classes, in O(m + |supp D|) rather than O(m * |supp D|).

Lowering one place by one lowers exactly one class by one: P_j lowers the
s with a_j + s a multiple of m, s = (-a_j) mod m, and P_inf lowers the s with
a_inf - s*r a multiple of m, s = a_inf * r^(-1) mod m as gcd(m, r) = 1.  Hence
the one-residue identity

    ell(D - P) = ell(D) - [l_{s_P}(D) > 0].

For D_alpha = sum_i alpha_i Q_i (a_inf = 0), lowering every coordinate turns
l_s into l_s - c_s, where c_s counts the coordinates in class s.  So alpha is
in the generalized semigroup iff l_{s_i} >= 1 for all i, a non-negative alpha
is a pure gap iff l_{s_i} <= 0 for all i, and both maximality tests read only
the classes {s_i} and their counts: O(n^2), with no O(m) table.

D is a discrepancy for (P_1, P_2), that is ell(D) > ell(D - P_2) and
ell(D - P_1) = ell(D - P_1 - P_2), iff P_1 and P_2 lower the same class s and
l_s(D) = 1: the first condition is l_s(D) >= 1 for the class s of P_2, and
lowering P_1 leaves the class of P_2 as it is and lowers l_s only if P_1 is in
class s too.  That reads one class, in O(|supp D|).  The period search steps
from k - 1 to k by raising class -k and lowering class k - 1 of k*P_i - k*P_j,
in O(1), so it runs in O(m + bound), which is O(bound) at the default bound
2g + m.  ell and its m-class pass remain the reference these shortcuts are
tested against.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from typing import Iterable, Sequence

from .curves import INFINITY, Divisor, KummerCurve, Place
from .errors import PeriodSearchError


class EllResult(namedtuple("EllResult", "dim per_residue")):
    """Dimension of L(D) together with the contribution of each residue class.

    dim equals sum over s of max(0, per_residue[s]); negative entries record
    how far a class is from contributing.
    """

    __slots__ = ()


def _per_residue(m: int, r: int, coeffs: dict[Place, int]) -> tuple[int, list[int]]:
    # ell(D) and [l_0, ..., l_{m-1}], reading the place-keyed coefficients of D once.
    # ceil((-a-s)/m) = -((a+s)//m).  steps[s] counts the branch terms (a + s)//m
    # that step up at class s (see the module docstring); level is l_s less its
    # P_inf term.
    steps = [0] * m
    level = 1
    a_inf = 0
    for place, c in coeffs.items():
        j = place.index
        if j > r:
            raise _off_curve(r, coeffs)
        if j:
            level += (c - 1) // m
            steps[-c % m] += 1
        else:
            a_inf = c
    dim = 0
    out = []
    for step in steps:
        level += step
        v = a_inf // m + level
        out.append(v)
        if v > 0:
            dim += v
        a_inf -= r  # a_inf - s*r for the next class s
    return dim, out


def _off_curve(r: int, places: Iterable[Place]) -> ValueError:
    place = min(p for p in places if p.index > r)
    return ValueError(f"divisor supported on {place}, but the curve has only r={r} branch places")


def ell(curve: KummerCurve, div: Divisor) -> EllResult:
    """Exact dimension of the Riemann-Roch space L(D), in O(m + |supp D|).

    D must be supported on the branch places P_1..P_r and P_infinity.
    """
    dim, per = _per_residue(curve.m, curve.r, div._coeffs)
    return EllResult(dim, tuple(per))


def _check_places(curve: KummerCurve, places: Sequence[Place] | None, n: int) -> None:
    """Refuse places unless they are n pairwise distinct branch places; None means P_1..P_n."""
    if places is None:
        if 1 <= n <= curve.r:
            return
        places = curve.ramified_places(n)  # raises the range error
    if len(places) != n:
        raise ValueError(f"{n}-tuple given with {len(places)} places")
    for p in places:
        if not isinstance(p, Place):
            raise TypeError(f"places must be Place objects, got {p!r}")
        if p.is_infinity or p.index > curve.r:
            raise ValueError(f"{p} is not a branch place of the curve (r={curve.r})")
    if len(set(places)) != len(places):
        raise ValueError("places must be pairwise distinct")


def _class_dims(m: int, r: int, alpha: Sequence[int]) -> dict[int, list[int]]:
    """[l_s(alpha), c_s] for each class s = (-alpha_i) mod m, c_s counting the i in class s.

    These are the only classes that lowering coordinates of alpha can change;
    see the module docstring.  The scans build the same table from a prefix
    table instead (see _window_scan).
    """
    dims: dict[int, list[int]] = {}
    for a in alpha:
        s = -a % m
        if s in dims:
            dims[s][1] += 1
        else:
            ls = (-s * r) // m + 1
            for b in alpha:
                ls += (b + s) // m
            dims[s] = [ls, 1]
    return dims


# Each test reads the class table of an n-tuple alpha.


def _in_semigroup(dims: dict[int, list[int]], n: int) -> bool:
    # ell(D_alpha - Q_i) = ell(D_alpha) - 1 for every i
    for ls, _ in dims.values():
        if ls < 1:
            return False
    return True


def _flat_everywhere(dims: dict[int, list[int]], n: int) -> bool:
    # ell(D_alpha - Q_i) = ell(D_alpha) for every i; for n >= 1 this excludes the semigroup
    for ls, _ in dims.values():
        if ls > 0:
            return False
    return n >= 1


def _absolute(dims: dict[int, list[int]], n: int) -> bool:
    # membership, and lowering every coordinate costs exactly one dimension
    lost = 0
    for ls, c in dims.values():
        if ls < 1:
            return False
        lost += ls if ls < c else c
    return lost == 1


def _relative(dims: dict[int, list[int]], n: int) -> bool:
    # ell(D_{alpha-1} + Q_i) = ell(D_{alpha-1}) for every i,
    # and ell(D_alpha) = ell(D_{alpha-1}) + n - 1
    lost = 0
    for ls, c in dims.values():
        if ls >= c:
            return False
        if ls > 0:
            lost += ls
    return lost == n - 1


def _holds(test, curve: KummerCurve, alpha: Sequence[int], places: Sequence[Place] | None) -> bool:
    _check_places(curve, places, len(alpha))
    alpha = tuple(map(operator.index, alpha))
    return test(_class_dims(curve.m, curve.r, alpha), len(alpha))


def in_generalized_semigroup(
    curve: KummerCurve, alpha: Sequence[int], places: Sequence[Place] | None = None
) -> bool:
    """Whether alpha lies in the generalized Weierstrass semigroup at the places.

    True exactly when ell(D_alpha) = ell(D_alpha - Q_i) + 1 for every i, i.e.
    some function has pole order alpha_i at each Q_i and no other poles.
    """
    return _holds(_in_semigroup, curve, alpha, places)


def is_pure_gap(
    curve: KummerCurve, alpha: Sequence[int], places: Sequence[Place] | None = None
) -> bool:
    """Whether alpha is a pure gap: a gap with ell(D_alpha) = ell(D_alpha - Q_j) for all j."""
    return _holds(_flat_everywhere, curve, alpha, places) and min(alpha, default=0) >= 0


def is_absolute_maximal(
    curve: KummerCurve, alpha: Sequence[int], places: Sequence[Place] | None = None
) -> bool:
    """Absolute maximality of alpha in the generalized semigroup.

    Characterized by membership plus ell(D_alpha) = ell(D_alpha - sum_i Q_i) + 1.
    """
    return _holds(_absolute, curve, alpha, places)


def is_relative_maximal(
    curve: KummerCurve, alpha: Sequence[int], places: Sequence[Place] | None = None
) -> bool:
    """Relative maximality of alpha in the generalized semigroup.

    Uses the two-part characterization: every nabla_i set is empty, and
    ell(D_alpha) = ell(D_{alpha - 1}) + n - 1.  Emptiness of nabla_i(alpha) is
    decided at the shifted tuple alpha - 1 + e_i, where it is equivalent to
    ell staying constant when Q_i is removed.
    """
    return _holds(_relative, curve, alpha, places)


def _lowered_class(curve: KummerCurve, place: Place, coeffs: dict[Place, int], a_inf: int) -> int:
    """The class s whose l_s falls by one when place is lowered by one in coeffs."""
    if not isinstance(place, Place):
        raise TypeError(f"places must be Place objects, got {place!r}")
    if place.is_infinity:
        return a_inf * pow(curve.r, -1, curve.m) % curve.m
    if place.index > curve.r:
        raise _off_curve(curve.r, (place,))
    return -coeffs.get(place, 0) % curve.m


def is_discrepancy(curve: KummerCurve, div: Divisor, p1: Place, p2: Place) -> bool:
    """Whether div is a discrepancy with respect to (p1, p2), in O(|supp D|).

    Requires L(A) != L(A - P_2) while L(A - P_1) = L(A - P_1 - P_2); spaces are
    compared through their dimensions, which is equivalent here because the
    spaces are nested.  That holds iff p1 and p2 lower the same class s and
    l_s(A) = 1 (see the module docstring).
    """
    if p1 == p2:
        raise ValueError("discrepancy needs two distinct places")
    m, r, coeffs = curve.m, curve.r, div._coeffs
    if max(coeffs, default=INFINITY).index > r:
        raise _off_curve(r, coeffs)
    a_inf = coeffs.get(INFINITY, 0)
    s = _lowered_class(curve, p1, coeffs, a_inf)  # checks p1 and p2, even off the support
    if _lowered_class(curve, p2, coeffs, a_inf) != s:
        return False
    ls = (a_inf - s * r) // m + 1 + sum((c + s) // m for p, c in coeffs.items() if p.index)
    return ls == 1


def verify_period(
    curve: KummerCurve, p_i: Place, p_j: Place, bound: int | None = None
) -> int:
    """Smallest k > 0 with k*(P_i - P_j) principal, found by direct search.

    A degree-zero divisor is principal exactly when its space is nonzero, so
    the test is ell(k*P_i - k*P_j) = 1.  The result must equal the curve
    period m; running past the search bound (default 2g + m) signals an
    internal inconsistency.  Each step updates two classes of the previous
    divisor (see the module docstring), so the search runs in O(m + bound).
    """
    if p_i == p_j:
        raise ValueError("period needs two distinct places")
    _check_places(curve, (p_i, p_j), 2)
    if bound is None:
        bound = 2 * curve.genus + curve.m
    m = curve.m
    per = _per_residue(m, curve.r, {})[1]  # the classes of k = 0, where ell = 1
    dim = 1
    for k in range(1, bound + 1):
        up, down = -k % m, (k - 1) % m  # P_i rises to k, P_j falls to -k
        per[up] += 1
        dim += per[up] > 0
        dim -= per[down] > 0  # cancels the line above when up == down
        per[down] -= 1
        if dim == 1:
            return k
    raise PeriodSearchError(
        f"no k <= {bound} makes k*({p_i} - {p_j}) principal; curve data is inconsistent"
    )


# ---------------------------------------------------------------------------
# Oracle sweeps.  They decide membership from the classes l_s alone, so they
# are independent of every closed form they check.  The walks are depth first
# with ascending values, so their output is in lexicographic order.  The window
# scans test each leaf; the pure-gap sweep caps the coordinate sum at 2g - 1 (a
# Riemann-Roch bound) and decides the classes as it goes (see pure_gap_box_scan).
# ---------------------------------------------------------------------------


def _scan_places(curve: KummerCurve, places: Sequence[Place] | int) -> int:
    """The n of a scan: places is the place tuple, or n meaning P_1..P_n; n = 0 is refused."""
    if isinstance(places, int):
        places = curve.ramified_places(places)
    if not places:
        raise ValueError("a scan needs at least one place")
    _check_places(curve, places, len(places))
    return len(places)


def pure_gap_box_scan(
    curve: KummerCurve, places: Sequence[Place] | int, box_max: int | None = None
) -> list[tuple[int, ...]]:
    """All pure gaps inside [1, box_max]^n, by a pruned oracle walk over the box.

    ``places`` is either the place tuple or just n (meaning P_1..P_n).  Only
    tuples with coordinate sum at most 2g - 1 are walked: at sum 2g or more,
    deg(D_alpha - Q_i) >= 2g - 1, so Riemann-Roch gives ell(D_alpha - Q_i) =
    ell(D_alpha) - 1 and alpha is no pure gap.  The default box edge 2g thus
    covers every pure gap.

    Inside that simplex the walk prunes on the classes alone.  A pure gap
    needs l_{s_i} <= 0 for each coordinate's class s_i, and l_s never falls
    as a coordinate rises.  A later coordinate, at least 1, adds at least
    (1 + s)//m = [s = m - 1] to class s, so with `rest` of them to come l_s
    ends at least at least[s] = L[s] + rest*[s = m - 1] (L: the prefix table
    of _window_scan).  The walk carries least in place of L.  Once least[s] > 0
    for a class s of the prefix, no completion passes; the first value to get
    there is a = m*(1 - least[s]) - s.  Each node stops at the least of these,
    the box edge and the sum cap, and below it checks only the value's own
    class, in O(1).  At a leaf rest = 0 and least is L, so a value that passes
    its own class leaves every class at most 0: the walk appends the tuple as
    a pure gap, with no class table and no test.  The work is per pure gap and
    prefix, not per tuple of the simplex: 118 210 pure gaps at (m, r, n) =
    (7, 12, 5), against C(65, 5) = 8 259 888 tuples.
    """
    n = _scan_places(curve, places)
    if box_max is None:
        box_max = 2 * curve.genus
    m, last, top = curve.m, n - 1, curve.m - 1
    out: list[tuple[int, ...]] = []

    def walk(prefix: tuple[int, ...], least: list[int], room: int, fixed: tuple[int, ...]) -> None:
        # room: the values below it keep the sum within 2g - 1 with the later coordinates at 1;
        # fixed: the classes of the prefix, each still able to end at most 0
        stop = min(box_max + 1, room)
        for s in fixed:  # the first value that lifts class s past 0
            stop = min(stop, m * (1 - least[s]) - s)
        leaf = len(prefix) == last
        for a in range(1, stop):
            s = -a % m
            if least[s] + (a + s) // m > 0:
                continue
            if leaf:
                out.append(prefix + (a,))
                continue
            row = [t + (a + q) // m for q, t in enumerate(least)]
            row[top] -= 1  # one coordinate fewer to come
            walk(prefix + (a,), row, room - a + 1, fixed if s in fixed else fixed + (s,))

    root = _per_residue(m, curve.r, {})[1]
    root[top] += last
    walk((), root, 2 * curve.genus - last, ())
    del walk  # a closure that calls itself is a cycle; unbinding frees it at once
    return out


def _window_scan(
    curve: KummerCurve,
    places: Sequence[Place] | int,
    test,
    first_min: int | None,
    first_max: int | None,
) -> list[tuple[int, ...]]:
    """The tuples of [first_min, first_max] x [0, m)^(n - 1) that pass test, in lex order.

    Each node of the walk carries the prefix class table
    L[s] = l_s(0) + sum_{j<d} (a_j + s)//m, and l_s(alpha) is L[s] plus the
    last term, so a leaf builds the [l_s, c_s] table of _class_dims in O(n)
    instead of O(n^2).
    """
    n, m = _scan_places(curve, places), curve.m
    if first_min is None:
        first_min = -(n - 1) * (m - 1)  # deg >= 0 forces this much at the first place
    if first_max is None:
        first_max = 2 * curve.genus
    ranges = [range(first_min, first_max + 1)] + [range(m)] * (n - 1)
    last = n - 1
    out: list[tuple[int, ...]] = []

    def walk(prefix: tuple[int, ...], table: list[int]) -> None:
        d = len(prefix)
        if d < last:
            for a in ranges[d]:
                walk(prefix + (a,), [t + (a + s) // m for s, t in enumerate(table)])
            return
        for a in ranges[last]:
            alpha = prefix + (a,)
            dims: dict[int, list[int]] = {}
            for b in alpha:
                s = -b % m
                if s in dims:
                    dims[s][1] += 1
                else:
                    dims[s] = [table[s] + (a + s) // m, 1]
            if test(dims, n):
                out.append(alpha)

    walk((), _per_residue(m, curve.r, {})[1])
    del walk  # a closure that calls itself is a cycle; unbinding frees it at once
    return out


def absolute_maximals_window_scan(
    curve: KummerCurve,
    places: Sequence[Place] | int,
    first_min: int | None = None,
    first_max: int | None = None,
) -> list[tuple[int, ...]]:
    """Absolute maximal elements in the fundamental window, by brute force.

    The window leaves the first coordinate free in [first_min, first_max] and
    confines the others to [0, m); every maximal element is a translate of one
    found here.
    """
    return _window_scan(curve, places, _absolute, first_min, first_max)


def relative_maximals_window_scan(
    curve: KummerCurve,
    places: Sequence[Place] | int,
    first_min: int | None = None,
    first_max: int | None = None,
) -> list[tuple[int, ...]]:
    """Relative maximal elements in the fundamental window, by brute force."""
    return _window_scan(curve, places, _relative, first_min, first_max)
