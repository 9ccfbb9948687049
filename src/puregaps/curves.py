"""Symbolic model of Kummer extension curves y^m = prod_{j=1}^r (x - alpha_j)^lambda.

Places are purely symbolic: the r totally ramified branch places P_1, ..., P_r
and the single place at infinity.  No field arithmetic happens here, and the
branch points alpha_j are never stored; every computation downstream depends
only on (m, r) and on integer divisor coefficients.  The branch multiplicity
lambda enters the validity check gcd(m, lambda*r) = 1 and nothing else: a
substitute generator z with z^m = prod(x - alpha_j) always exists, so the
valuation data reduces to the lambda = 1 model.

Caveat: the underlying function-field theory assumes the field characteristic
does not divide m.  The model carries no base field, so this is a documented
assumption rather than a validated precondition.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from math import gcd
from typing import Iterator, Mapping, Sequence


def _checked_make(cls, iterable):
    """namedtuple's _make, but through the checks of cls.__new__, which _replace then runs too."""
    return cls(*iterable)


class Place(namedtuple("Place", "index")):
    """A rational place: the branch place P_j (index j >= 1) or P_infinity.

    Index 0 is reserved for the place at infinity; use the module constant
    ``INFINITY`` rather than constructing it by hand.
    """

    __slots__ = ()

    def __new__(cls, index: int):
        index = operator.index(index)  # refuses 1.5 and "2"; True becomes 1
        if index < 0:
            raise ValueError("place index must be >= 0")
        return super().__new__(cls, index)

    _make = classmethod(_checked_make)

    @property
    def is_infinity(self) -> bool:
        return self.index == 0

    def __repr__(self) -> str:
        return "P_inf" if self.index == 0 else f"P_{self.index}"


INFINITY = Place(0)


class Divisor:
    """An integer formal sum of places, immutable.

    Supports addition, subtraction, negation and integer scaling.  Zero
    coefficients are dropped, so ``Divisor()`` is the zero divisor and two
    divisors are equal exactly when all coefficients agree.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[Place, int] | None = None):
        data: dict[Place, int] = {}
        if coeffs:
            for place, c in coeffs.items():
                if not isinstance(place, Place):
                    raise TypeError(f"divisor keys must be places, got {place!r}")
                c = operator.index(c)
                if c:
                    data[place] = c
        self._coeffs = data

    def coefficient(self, place: Place) -> int:
        return self._coeffs.get(place, 0)

    __getitem__ = coefficient

    @property
    def degree(self) -> int:
        return sum(self._coeffs.values())

    @property
    def support(self) -> tuple[Place, ...]:
        return tuple(sorted(self._coeffs))

    def items(self) -> list[tuple[Place, int]]:
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def __iter__(self) -> Iterator[tuple[Place, int]]:
        return iter(self.items())

    def __add__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        return _merged(self._coeffs, other._coeffs, 1)

    def __sub__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        return _merged(self._coeffs, other._coeffs, -1)

    def __neg__(self) -> "Divisor":
        return _wrap({p: -c for p, c in self._coeffs.items()})

    def __mul__(self, scalar: int) -> "Divisor":
        return Divisor({p: scalar * c for p, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Divisor):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for place, c in self.items():
            if c == 1:
                parts.append(f"{place}")
            elif c == -1:
                parts.append(f"-{place}")
            else:
                parts.append(f"{c}*{place}")
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


def _wrap(coeffs: dict[Place, int]) -> Divisor:
    """A Divisor over coeffs, which must already map places to nonzero ints; no copy is made."""
    div = object.__new__(Divisor)
    div._coeffs = coeffs
    return div


def _merged(left: dict[Place, int], right: dict[Place, int], sign: int) -> Divisor:
    """left + sign*right, both valid coefficient dicts, in a new dict without zero entries."""
    out = dict(left)
    for place, c in right.items():
        c = out.get(place, 0) + sign * c
        if c:
            out[place] = c
        else:
            del out[place]
    return _wrap(out)


class KummerCurve(namedtuple("KummerCurve", "m r lam", defaults=(1,))):
    """The curve y^m = prod_{j=1}^r (x - alpha_j)^lambda with gcd(m, lambda*r) = 1.

    Carries the Kummer exponent m, the number of affine branch places r, and
    the branch multiplicity lam.  Genus is (m-1)(r-1)/2, always an integer
    under the gcd condition (which forces gcd(m, r) = 1, so m and r are never
    both even).
    """

    __slots__ = ()

    def __new__(cls, m: int, r: int, lam: int = 1):
        m, r, lam = operator.index(m), operator.index(r), operator.index(lam)  # True becomes 1
        if m < 2:
            raise ValueError(f"Kummer exponent m must be >= 2, got {m}")
        if r < 2:
            raise ValueError(f"number of branch places r must be >= 2, got {r}")
        if lam < 1:
            raise ValueError(f"branch multiplicity lambda must be >= 1, got {lam}")
        g = gcd(m, lam * r)
        if g != 1:
            raise ValueError(f"gcd(m, lambda*r) must be 1, got gcd({m}, {lam * r}) = {g}")
        return super().__new__(cls, m, r, lam)

    _make = classmethod(_checked_make)

    @property
    def genus(self) -> int:
        return (self.m - 1) * (self.r - 1) // 2

    @property
    def period(self) -> int:
        """Least k > 0 with k*(P_i - P_j) principal, for any two branch places.

        Equals m on every Kummer curve; cross-checked against a minimality
        search by riemann_roch.verify_period.
        """
        return self.m

    def place(self, j: int) -> Place:
        if not 1 <= j <= self.r:
            raise ValueError(f"branch place index must be in 1..{self.r}, got {j}")
        return Place(j)

    def ramified_places(self, n: int | None = None) -> tuple[Place, ...]:
        """The first n branch places (all r of them when n is omitted)."""
        if n is None:
            n = self.r
        if not 1 <= n <= self.r:
            raise ValueError(f"can take between 1 and {self.r} branch places, got {n}")
        return tuple(Place(j) for j in range(1, n + 1))

    def canonical_divisor(self) -> Divisor:
        """(2g-2) * P_infinity, which equals (rm - r - m - 1) * P_infinity."""
        return _wrap({INFINITY: 2 * self.genus - 2} if self.genus > 1 else {})

    def to_json(self) -> dict:
        return {"m": self.m, "r": self.r, "lambda": self.lam, "genus": self.genus}


def divisor_from_tuple(alpha: Sequence[int], places: Sequence[Place]) -> Divisor:
    """The divisor alpha_1 * Q_1 + ... + alpha_n * Q_n.

    Places must be pairwise distinct; the map is linear in alpha.
    """
    if len(alpha) != len(places):
        raise ValueError(f"tuple has {len(alpha)} entries but {len(places)} places given")
    if len(set(places)) != len(places):
        raise ValueError("places must be pairwise distinct")
    return Divisor(dict(zip(places, alpha)))
