"""Differential AG-code parameter design from pure-gap boxes.

A level-k cell of pure gaps with offsets a in B_k (bounds b_j = m -
ceil(m*(k+j)/r)) yields the one-point-per-place divisor

    G = sum_j (2*k_j*m + a_j - 1 + b_j) * P_j,    deg G = 2*k*m + sum(a) - n + sum(b),

for any partition k_1 + ... + k_n = k.  The design is the Goppa parameters of
G (dimension N - deg G - 1 + g, distance floor deg G - (2g - 2)) with the
floor raised by the width n + sum(b) - sum(a) of the pure-gap box between a
and b.  So a cell is read only through k, sum(a) and sum(b).  Only parameters
are designed here: no generator matrices, no field arithmetic, no encoding.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .curves import KummerCurve, _checked_make
from .errors import DegreeWindowError
from .gapsets import BkBox, _box_bounds, b_k


class CodeSpec(namedtuple("CodeSpec", "curve n k partition a length")):
    """Inputs of one design: curve, places used, cell, offsets, and code length.

    a lies in the level box B_k; partition splits k over the n places and is
    validated, but the design reads the cell only through k and sum(a).  length
    counts the evaluation places: all rational points but the n code places.
    """

    __slots__ = ()

    def __new__(cls, curve: KummerCurve, n: int, k: int, partition, a, length: int):
        partition, a = tuple(map(operator.index, partition)), tuple(map(operator.index, a))
        if len(partition) != n or len(a) != n:
            raise ValueError("partition and a must both have one entry per place")
        if any(p < 0 for p in partition):
            raise ValueError("partition entries must be nonnegative")
        if sum(partition) != k:
            raise ValueError(f"partition {partition} does not sum to k={k}")
        box = b_k(curve, n, k)
        if box.empty:
            raise ValueError(f"level k={k} has no pure gaps on this curve")
        if any(not 1 <= ai <= bi for ai, bi in zip(a, box.bounds)):
            raise ValueError(f"offsets {a} leave the level box with bounds {box.bounds}")
        return super().__new__(cls, curve, n, k, partition, a, operator.index(length))

    _make = classmethod(_checked_make)


class CodeParams(
    namedtuple(
        "CodeParams", "length dimension distance_lb degree rate_sum clamped", defaults=(False,)
    )
):
    """Designed parameters [N, k, d>=d_lb] of a differential AG code.

    rate_sum is the exact rational (k + d_lb) / N, a Fraction; clamped marks
    specs whose raw distance bound was nonpositive and got floored at 1.
    """

    __slots__ = ()


def _params(length: int, dimension: int, distance_lb: int, degree: int) -> CodeParams:
    clamped = distance_lb < 1
    d = max(distance_lb, 1)
    return CodeParams(length, dimension, d, degree, Fraction(dimension + d, length), clamped)


def goppa_params(length: int, degree: int, genus: int) -> tuple[int, int]:
    """Goppa (N - deg(G) - 1 + g, deg(G) - (2g-2)); DegreeWindowError unless 2g-2 < deg G < N."""
    length, degree, genus = operator.index(length), operator.index(degree), operator.index(genus)
    if degree <= 2 * genus - 2:
        raise DegreeWindowError(
            f"deg(G) = {degree} must exceed 2g-2 = {2 * genus - 2}", degree, "lower"
        )
    if degree >= length:
        raise DegreeWindowError(
            f"deg(G) = {degree} must stay below N = {length}", degree, "upper"
        )
    return length - degree - 1 + genus, degree - (2 * genus - 2)


def design_code(spec: CodeSpec) -> CodeParams:
    """Parameters of the differential code built on the spec's pure-gap cell."""
    bounds = _box_bounds(spec.curve, spec.k, spec.n)
    return _design(spec.curve, spec.k, sum(spec.a), bounds, spec.length)


def _design(
    curve: KummerCurve, k: int, a_sum: int, bounds: Sequence[int], length: int
) -> CodeParams:
    """design_code on a checked cell: the level-k box bounds, and n <= a_sum <= sum(bounds)."""
    n, b_sum = len(bounds), sum(bounds)
    degree = 2 * k * curve.m + a_sum - n + b_sum
    dimension, floor = goppa_params(length, degree, curve.genus)
    return _params(length, dimension, floor + n + b_sum - a_sum, degree)


def shorten(params: CodeParams, s: int) -> CodeParams:
    """The [N-s, k-s, d] code obtained by shortening s coordinates."""
    s = operator.index(s)
    if s < 0:
        raise ValueError("can only shorten by a nonnegative number of coordinates")
    if s >= params.dimension:
        raise ValueError(f"cannot shorten {s} coordinates out of dimension {params.dimension}")
    return params._replace(
        length=params.length - s,
        dimension=params.dimension - s,
        rate_sum=Fraction(params.dimension - s + params.distance_lb, params.length - s),
    )


def hermitian_subcover_points(q: int, m: int) -> int:
    """Rational points of y^m = x^q + x over the degree-two extension field.

    The curve is maximal there; requires m to divide q + 1.
    """
    if operator.index(m) < 2 or operator.index(q) < 2:
        raise ValueError("need q >= 2 and m >= 2")
    if (q + 1) % m != 0:
        raise ValueError(f"m = {m} must divide q + 1 = {q + 1}")
    return q + 1 + m * (q * q - q)


def norm_trace_like_points(q: int, t: int, m: int) -> int:
    """Rational points of y^m = (x^(q^(t/2)) - x)^(q^(t/2) - 1) over the field with q^t elements."""
    if operator.index(m) < 2 or operator.index(q) < 2:
        raise ValueError("need q >= 2 and m >= 2")
    if operator.index(t) < 2 or t % 2 != 0:
        raise ValueError(f"t must be a positive even integer, got {t}")
    if (q**t - 1) % m != 0:
        raise ValueError(f"m = {m} must divide q^t - 1 = {q**t - 1}")
    root = q ** (t // 2)
    if gcd(m, root - 1) != 1:
        raise ValueError(f"m = {m} must be coprime to q^(t/2) - 1 = {root - 1}")
    return (q**t - root) * m + root + 1


def family_curve_points(family: str, q: int, m: int, t: int | None) -> tuple[KummerCurve, int]:
    """The curve of a code-table family instance and its number of rational points."""
    if family == "hermitian-subcover":
        if t is not None:
            raise ValueError("--t applies only to the norm-trace-like family")
        curve = KummerCurve(m, q)  # checked before the point count
        return curve, hermitian_subcover_points(q, m)
    if family == "norm-trace-like":
        if t is None:
            raise ValueError("the norm-trace-like family needs --t")
        points = norm_trace_like_points(q, t, m)  # checked before the curve
        root = q ** (t // 2)
        return KummerCurve(m, root, root - 1), points
    raise ValueError(f"unknown family {family!r}")


class TableRowSpec(namedtuple("TableRowSpec", "family q m n k a_values t", defaults=(None,))):
    """One family instance and cell choice, expanded into one row per offset sum.

    family is "hermitian-subcover" or "norm-trace-like"; t is None unless the
    family needs it.
    """

    __slots__ = ()


HERMITIAN_SUBCOVER_ROWS = (
    TableRowSpec("hermitian-subcover", 7, 4, 2, 3, (2,)),
    TableRowSpec("hermitian-subcover", 8, 3, 2, 3, (2,)),
    TableRowSpec("hermitian-subcover", 9, 5, 2, 5, (2,)),
    TableRowSpec("hermitian-subcover", 9, 5, 3, 4, (3, 4)),
)

NORM_TRACE_LIKE_ROWS = (
    TableRowSpec("norm-trace-like", 2, 3, 2, 3, (2,), t=6),
    TableRowSpec("norm-trace-like", 2, 9, 2, 5, (2, 3), t=6),
    TableRowSpec("norm-trace-like", 2, 9, 3, 4, (3, 4, 5), t=6),
    TableRowSpec("norm-trace-like", 3, 5, 3, 4, (3, 4), t=4),
)


def _cell_rows(
    spec: TableRowSpec, curve: KummerCurve, points: int, box: BkBox, sweep: bool = False
) -> list[dict]:
    """The rows of one cell: spec.n places at level spec.k, box = b_k(curve, spec.n, spec.k).

    One row per offset sum in spec.a_values.  The offsets of a nonempty box
    (every bound >= 1) sum to each of n, ..., sum(b) and nothing else; other
    sums, or an empty box, raise ValueError.  A sweep skips the sums whose
    degree leaves the code window instead of raising DegreeWindowError.
    """
    length = points - spec.n
    rows = []
    for a_sum in map(operator.index, spec.a_values):
        if box.empty or not spec.n <= a_sum <= sum(box.bounds):
            raise ValueError(f"no offset vector in the level-{box.level} box sums to {a_sum}")
        try:
            params = _design(curve, spec.k, a_sum, box.bounds, length)
        except DegreeWindowError:
            if sweep:
                continue
            raise
        rows.append(dict(
            family=spec.family, q=spec.q, t=spec.t, m=spec.m, n=spec.n, k=spec.k, a=a_sum,
            N=params.length, kdim=params.dimension, dlb=params.distance_lb, degG=params.degree,
            ratesum=str(params.rate_sum),
        ))
    return rows


def generate_tables(row_specs: Iterable[TableRowSpec]) -> list[dict]:
    """Expand row specs into concrete parameter rows, one per offset sum."""
    rows = []
    for spec in row_specs:
        curve, points = family_curve_points(spec.family, spec.q, spec.m, spec.t)
        if spec.a_values:
            rows += _cell_rows(spec, curve, points, b_k(curve, spec.n, spec.k))
    return rows
