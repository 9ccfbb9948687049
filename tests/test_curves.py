from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from puregaps import (
    INFINITY,
    Divisor,
    KummerCurve,
    Place,
    divisor_from_tuple,
    ell,
)


@pytest.mark.parametrize(
    "m, r, lam, genus",
    [
        (5, 9, 1, 16),
        (3, 2, 1, 1),
        (4, 7, 1, 9),
    ],
)
def test_genus(m, r, lam, genus):
    assert KummerCurve(m, r, lam).genus == genus


def test_genus_cross_checked_by_ell_of_canonical():
    curve = KummerCurve(4, 7)
    assert ell(curve, curve.canonical_divisor()).dim == curve.genus == 9


@pytest.mark.parametrize(
    "m, r, lam",
    [
        (1, 5, 1),  # m too small
        (3, 1, 1),  # r too small
        (3, 4, 0),  # lambda too small
        (4, 2, 1),  # gcd(m, lam*r) = 2
        (3, 4, 3),  # gcd(m, lam*r) = 3 via lambda
        (6, 9, 1),  # gcd = 3
    ],
)
def test_invalid_curves_rejected(m, r, lam):
    with pytest.raises(ValueError):
        KummerCurve(m, r, lam)


def test_curve_fields_are_integers():
    for bad in [(5.0, 9), (5, 9.0), (5, 9, 1.0), ("5", 9)]:
        with pytest.raises(TypeError):
            KummerCurve(*bad)
    curve = KummerCurve(5, 9, True)  # True counts as 1, as in Place
    assert curve == KummerCurve(5, 9) and type(curve.lam) is int
    assert curve.to_json() == {"m": 5, "r": 9, "lambda": 1, "genus": 16}


def test_gcd_condition_implies_coprime_m_r(corpus):
    from math import gcd

    for curve in corpus:
        assert gcd(curve.m, curve.r) == 1
        assert (curve.m - 1) * (curve.r - 1) % 2 == 0


@pytest.mark.parametrize(
    "m, r, coeff",
    [
        (5, 9, 30),
        (3, 2, 0),
        (3, 4, 4),
    ],
)
def test_canonical_divisor(m, r, coeff):
    curve = KummerCurve(m, r)
    W = curve.canonical_divisor()
    assert W.coefficient(INFINITY) == coeff
    assert W.degree == 2 * curve.genus - 2
    assert coeff == r * m - r - m - 1


@pytest.mark.parametrize("m, r, lam", [(3, 2, 1), (2, 3, 1), (3, 2, 2), (2, 3, 3)])
def test_genus_one_canonical_divisor_is_stored_empty(m, r, lam):
    curve = KummerCurve(m, r, lam)
    assert curve.genus == 1
    W = curve.canonical_divisor()
    assert W.is_zero() and W == Divisor() and W.support == () and repr(W) == "0"
    assert hash(W) == hash(Divisor())
    assert ell(curve, W).dim == 1
    # the Riemann-Roch identity, with W - D cancelling places of D to zero
    places = list(curve.ramified_places()) + [INFINITY]
    for coeffs in product(range(-2, 3), repeat=len(places)):
        D = Divisor(dict(zip(places, coeffs)))
        assert ell(curve, D).dim - ell(curve, W - D).dim == D.degree


def test_canonical_dimension_small_case():
    curve = KummerCurve(3, 4)
    assert ell(curve, curve.canonical_divisor()).dim == curve.genus == 3


def test_canonical_degree_across_corpus(corpus):
    for curve in corpus:
        assert curve.canonical_divisor().degree == 2 * curve.genus - 2


@pytest.mark.parametrize("m, r, period", [(5, 9, 5), (3, 2, 3), (4, 7, 4)])
def test_period(m, r, period):
    assert KummerCurve(m, r).period == period


def test_divisor_from_tuple():
    c = KummerCurve(5, 9)
    p1, p2, p3 = c.ramified_places(3)
    d = divisor_from_tuple((2, -1), [p1, p2])
    assert d.coefficient(p1) == 2 and d.coefficient(p2) == -1
    assert divisor_from_tuple((0, 0, 0), [p1, p2, p3]).is_zero()
    d3 = divisor_from_tuple((26, 1, 1), [p1, p2, p3])
    assert d3.degree == 28 and d3.coefficient(p1) == 26


def test_divisor_from_tuple_rejects_duplicates():
    c = KummerCurve(3, 4)
    p1 = c.place(1)
    with pytest.raises(ValueError):
        divisor_from_tuple((1, 2), [p1, p1])
    with pytest.raises(ValueError):
        divisor_from_tuple((1, 2, 3), [p1, c.place(2)])


coord_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=4)


@given(st.tuples(coord_lists, coord_lists).filter(lambda ab: len(ab[0]) == len(ab[1])))
def test_divisor_from_tuple_is_linear(pair):
    a, b = pair
    places = [Place(j + 1) for j in range(len(a))]
    total = [x + y for x, y in zip(a, b)]
    assert divisor_from_tuple(a, places) + divisor_from_tuple(b, places) == divisor_from_tuple(
        total, places
    )


def test_divisor_algebra():
    p1, p2 = Place(1), Place(2)
    d = Divisor({p1: 2, p2: -1})
    assert (d - d).is_zero()
    assert (-d).coefficient(p1) == -2
    assert (3 * d).degree == 3
    assert d[p1] == 2 and d[INFINITY] == 0
    assert d.support == (p1, p2)
    assert list(d) == d.items() == [(p1, 2), (p2, -1)]
    assert hash(d) == hash(Divisor({p2: -1, p1: 2}))
    assert repr(Divisor()) == "0"
    assert repr(Divisor({p1: 1, p2: -3, INFINITY: 2})) == "2*P_inf + P_1 - 3*P_2"


@pytest.mark.parametrize("c", [1.7, 2.0, "3", None])
def test_divisor_rejects_non_integer_coefficients(c):
    # no silent truncation or parsing: 1.7 is not P_1 and "3" is not 3*P_1
    with pytest.raises(TypeError):
        Divisor({Place(1): c})


@pytest.mark.parametrize("key", [1, 0, "P_1", (1,)])
def test_divisor_rejects_non_place_keys(key):
    with pytest.raises(TypeError, match="^divisor keys must be places"):
        Divisor({key: 1})


# --- the arithmetic fast path: results built without the validating constructor


def test_divisor_results_drop_zero_coefficients():
    p1, p2 = Place(1), Place(2)
    d = Divisor({p1: 2, p2: -1, INFINITY: 3})
    assert (d + (-d)).is_zero() and (d - d).is_zero()
    assert (d + (-d))._coeffs == {} and (d - d)._coeffs == {}
    got = d - Divisor({p1: 2, INFINITY: 1})
    assert got.support == (INFINITY, p2) and got._coeffs == {p2: -1, INFINITY: 2}
    got = d + Divisor({p2: 1, Place(3): 4})
    assert got._coeffs == {p1: 2, INFINITY: 3, Place(3): 4}


def test_divisor_results_share_no_dict_with_an_operand():
    d, zero = Divisor({Place(1): 2, INFINITY: -1}), Divisor()
    for got, operands in [
        (d + zero, (d, zero)),
        (zero + d, (d, zero)),
        (d - zero, (d, zero)),
        (zero - zero, (zero,)),
        (-d, (d,)),
        (-zero, (zero,)),
    ]:
        assert all(got._coeffs is not x._coeffs for x in operands)
    total = d + zero
    assert total == d and total._coeffs is not d._coeffs


def test_divisor_operators_refuse_other_operands():
    d = Divisor({Place(1): 2})
    for other in (1, 0, {Place(1): 1}, Place(1), None):
        assert d.__add__(other) is NotImplemented
        assert d.__sub__(other) is NotImplemented
        assert d.__eq__(other) is NotImplemented
        assert d != other
        with pytest.raises(TypeError):
            d + other
        with pytest.raises(TypeError):
            other - d


divisor_coeffs = st.dictionaries(
    st.sampled_from([INFINITY] + [Place(j) for j in range(1, 6)]), st.integers(-4, 4)
)


@given(divisor_coeffs, divisor_coeffs)
def test_divisor_arithmetic_matches_validating_constructor(a, b):
    A, B = Divisor(a), Divisor(b)
    keys = set(a) | set(b)
    for got, want in [
        (A + B, Divisor({p: a.get(p, 0) + b.get(p, 0) for p in keys})),
        (A - B, Divisor({p: a.get(p, 0) - b.get(p, 0) for p in keys})),
        (-A, Divisor({p: -c for p, c in a.items()})),
    ]:
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert got._coeffs == want._coeffs and 0 not in got._coeffs.values()
        assert got._coeffs is not A._coeffs and got._coeffs is not B._coeffs


def test_place_validation():
    with pytest.raises(ValueError, match="^place index must be >= 0$"):
        Place(-1)
    for index in (1.5, "2"):
        with pytest.raises(TypeError):
            Place(index)
    one = Place(True)
    assert one == Place(1) and type(one.index) is int and repr(one) == "P_1"
    assert INFINITY.is_infinity and not Place(3).is_infinity
    c = KummerCurve(3, 4)
    with pytest.raises(ValueError):
        c.place(5)
    with pytest.raises(ValueError):
        c.place(0)
    assert c.ramified_places(2) == (Place(1), Place(2))


def test_curve_json():
    assert KummerCurve(5, 9).to_json() == {"m": 5, "r": 9, "lambda": 1, "genus": 16}
