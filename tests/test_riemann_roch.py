import gc
import random
from itertools import combinations, permutations, product
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puregaps import (
    INFINITY,
    Divisor,
    KummerCurve,
    PeriodSearchError,
    Place,
    divisor_from_tuple,
    ell,
    h_one_place,
    in_generalized_semigroup,
    is_absolute_maximal,
    is_discrepancy,
    is_pure_gap,
    is_relative_maximal,
    lambda_star,
    pure_gap_count,
    pure_gaps,
    pure_gaps_from_family,
    relative_family,
    verify_period,
)
from puregaps import riemann_roch
from puregaps.reference import per_residue_literal, pure_gaps_from_relative_maximals
from puregaps.riemann_roch import (
    _absolute,
    _class_dims,
    _flat_everywhere,
    _per_residue,
    _relative,
    _window_scan,
    absolute_maximals_window_scan,
    pure_gap_box_scan,
    relative_maximals_window_scan,
)

C34 = KummerCurve(3, 4)
C59 = KummerCurve(5, 9)


def tuple_divisor(curve, alpha):
    return divisor_from_tuple(alpha, curve.ramified_places(len(alpha)))


# --- the dimension formula itself -----------------------------------------


def test_ell_of_zero_divisor():
    res = ell(C34, Divisor())
    assert res.dim == 1
    assert res.per_residue == (1, -1, -2)


def test_ell_of_canonical_is_genus():
    assert ell(C34, C34.canonical_divisor()).dim == C34.genus == 3


def test_ell_drop_by_one_place():
    # hand-evaluated per-residue values for m=3, r=4
    both = ell(C34, tuple_divisor(C34, (1, 1)))
    assert both.dim == 1 and both.per_residue == (1, -1, 0)
    one = ell(C34, tuple_divisor(C34, (1,)))
    assert one.dim == 1 and one.per_residue == (1, -1, -1)


def test_ell_rejects_unsupported_place():
    with pytest.raises(ValueError):
        ell(C34, Divisor({Place(5): 1}))


OFF_CURVE = "divisor supported on P_5, but the curve has only r=4 branch places"


def test_off_curve_error_names_the_least_off_curve_place():
    for coeffs in ({Place(5): 1}, {Place(7): 1, Place(5): 2}, {Place(5): 2, Place(7): 1}):
        div = Divisor({INFINITY: 3, C34.place(1): -1, **coeffs})
        with pytest.raises(ValueError) as err:
            ell(C34, div)
        assert str(err.value) == OFF_CURVE
        with pytest.raises(ValueError) as err:
            is_discrepancy(C34, div, C34.place(1), INFINITY)
        assert str(err.value) == OFF_CURVE
    # on a supported divisor, an off-curve place is named by is_discrepancy itself
    with pytest.raises(ValueError) as err:
        is_discrepancy(C34, Divisor({C34.place(1): 2}), Place(5), C34.place(2))
    assert str(err.value) == OFF_CURVE


def test_ell_evaluates_the_class_formula_once(monkeypatch):
    calls = []
    formula = riemann_roch._per_residue

    def counted(*args):
        calls.append(args)
        return formula(*args)

    monkeypatch.setattr(riemann_roch, "_per_residue", counted)
    W = C59.canonical_divisor()
    divisors = [Divisor(), W, W - Divisor({INFINITY: 30}), Divisor({C59.place(2): 7, INFINITY: -3})]
    for k, div in enumerate(divisors, 1):
        ell(C59, div)
        assert len(calls) == k
    with pytest.raises(ValueError):
        ell(C59, Divisor({Place(10): 1}))
    assert len(calls) == len(divisors) + 1


def test_per_residue_sums_to_dim(corpus):
    rng = random.Random(7)
    for curve in corpus[::5]:
        places = list(curve.ramified_places()) + [INFINITY]
        for _ in range(20):
            D = Divisor({p: rng.randint(-5, 8) for p in places})
            res = ell(curve, D)
            assert res.dim == sum(v for v in res.per_residue if v > 0)


# the bucketed class pass against the term-by-term sum of the closed form


def assert_per_residue_is_literal(m, r, coeffs, a_inf):
    """_per_residue on the place-keyed form of (coeffs, a_inf), P_inf stored even at 0."""
    places = {Place(j): c for j, c in coeffs.items()}
    places[INFINITY] = a_inf
    literal = per_residue_literal(m, r, coeffs, a_inf)
    assert _per_residue(m, r, places) == (sum(v for v in literal if v > 0), literal)


def test_per_residue_matches_literal_sum(corpus):
    rng = random.Random(17)
    for curve in corpus:
        m, r, g = curve.m, curve.r, curve.genus
        # the zero divisor: the class table both oracle walks start from
        zero = _per_residue(m, r, {})
        assert zero == (1, per_residue_literal(m, r, {}, 0))
        assert zero[1] == [(-s * r) // m + 1 for s in range(m)]
        for _ in range(30):
            idx = rng.sample(range(1, r + 1), rng.randint(0, r))
            coeffs = {j: rng.randint(-2 * g - m, 2 * g + m) for j in idx}
            if idx:  # a zero and a multiple of m, which step at no class
                coeffs[idx[0]] = 0
                coeffs[idx[-1]] = m * rng.randint(-3, 3)
            a_inf = rng.randint(-2 * g - m, 2 * g + m)
            assert_per_residue_is_literal(m, r, coeffs, a_inf)


large_coprime_curve = st.tuples(st.integers(2, 101), st.integers(2, 120)).filter(
    lambda mr: gcd(*mr) == 1
)


@settings(max_examples=150, deadline=None)
@given(large_coprime_curve, st.data())
def test_per_residue_matches_literal_sum_random(mr, data):
    m, r = mr
    idx = data.draw(st.lists(st.integers(1, r), max_size=r, unique=True))
    multiple = st.integers(-4, 4).map(lambda k: k * m)
    coeff = st.one_of(st.just(0), multiple, st.integers(-5 * m, 5 * m))
    coeffs = {j: data.draw(coeff) for j in idx}
    a_inf = data.draw(st.one_of(st.just(0), st.integers(-5 * m * r, 5 * m * r)))
    assert_per_residue_is_literal(m, r, coeffs, a_inf)


def test_ell_of_arithmetic_divisors_matches_literal_sum(corpus):
    # K - D and sums that cancel places to zero, so P_inf and branch places drop out of the dict
    rng = random.Random(27)
    for curve in corpus[::3]:
        m, r, g = curve.m, curve.r, curve.genus
        W = curve.canonical_divisor()
        branch = curve.ramified_places()
        for _ in range(10):
            D = Divisor({p: rng.randint(-g - 2, g + 2) for p in rng.sample(branch, min(3, r))})
            P = rng.choice(branch)
            divisors = [
                W - D,
                W - (D + W),  # P_inf cancels to zero
                (D + W) - W,
                W - D + Divisor({P: D[P], INFINITY: 1}),  # P cancels, P_inf present
                W - W,
                D - D,
            ]
            for div in divisors:
                coeffs = {p.index: c for p, c in div.items() if not p.is_infinity}
                literal = per_residue_literal(m, r, coeffs, div[INFINITY])
                res = ell(curve, div)
                assert res.per_residue == tuple(literal)
                assert res.dim == sum(v for v in literal if v > 0)
            assert divisors[2] == D and divisors[4].is_zero() and divisors[5].is_zero()
            assert INFINITY not in divisors[1].support and P not in divisors[3].support


small_curve = st.sampled_from(
    [(2, 3), (2, 5), (3, 2), (3, 4), (3, 5), (4, 3), (5, 2), (5, 4), (4, 7), (5, 9)]
)


@settings(max_examples=200)
@given(small_curve, st.data())
def test_riemann_roch_identity(mr, data):
    curve = KummerCurve(*mr)
    g = curve.genus
    places = list(curve.ramified_places()) + [INFINITY]
    coeffs = data.draw(
        st.lists(st.integers(-g - 2, g + 2), min_size=len(places), max_size=len(places))
    )
    D = Divisor(dict(zip(places, coeffs)))
    W = curve.canonical_divisor()
    assert ell(curve, D).dim - ell(curve, W - D).dim == D.degree + 1 - g


def test_negative_degree_gives_zero(corpus):
    for curve in corpus[::4]:
        assert ell(curve, Divisor({INFINITY: -1})).dim == 0
        assert ell(curve, Divisor({curve.place(1): -3, INFINITY: 2})).dim == 0


def test_large_degree_is_exact(corpus):
    for curve in corpus[::4]:
        g = curve.genus
        for extra in range(3):
            D = Divisor({curve.place(1): 2 * g - 1 + extra})
            assert ell(curve, D).dim == D.degree + 1 - g


def test_monotone_under_adding_a_place(corpus):
    rng = random.Random(11)
    for curve in corpus[::5]:
        places = list(curve.ramified_places()) + [INFINITY]
        for _ in range(25):
            D = Divisor({p: rng.randint(-4, 6) for p in rng.sample(places, 2)})
            base = ell(curve, D).dim
            for p in places[:3]:
                up = ell(curve, D + Divisor({p: 1})).dim
                assert base <= up <= base + 1


def test_degree_2g_tuples_are_in_the_semigroup(corpus):
    # a coordinate sum of at least 2g always lies in the semigroup
    for curve in corpus[::6]:
        g = curve.genus
        for alpha in [(2 * g, 0), (g, g), (0, 2 * g), (2 * g + 3, 1)]:
            assert in_generalized_semigroup(curve, alpha)


def test_one_place_gap_count_is_genus(corpus):
    # oracle route: alpha is a gap at P iff ell stays flat when alpha*P drops to (alpha-1)*P
    for curve in corpus[::4]:
        g = curve.genus
        p = curve.place(1)
        gaps = [
            a
            for a in range(1, 2 * g + 1)
            if ell(curve, Divisor({p: a})).dim == ell(curve, Divisor({p: a - 1})).dim
        ]
        assert len(gaps) == g
        assert tuple(gaps) == h_one_place(curve).gaps


# --- membership predicates -------------------------------------------------


@pytest.mark.parametrize(
    "curve, alpha, expected",
    [
        (C34, (0, 0), True),
        (C34, (1, 1), False),
        (C34, (4, 1), True),
    ],
)
def test_in_generalized_semigroup(curve, alpha, expected):
    assert in_generalized_semigroup(curve, alpha) is expected


@pytest.mark.parametrize(
    "curve, alpha, expected",
    [
        (C34, (1, 1), True),
        (C34, (0, 0), False),
        (C59, (21, 2, 1), True),
    ],
)
def test_is_pure_gap(curve, alpha, expected):
    assert is_pure_gap(curve, alpha) is expected


def test_pure_gap_rejects_negative_coordinates():
    assert is_pure_gap(C34, (-1, 1)) is False


@pytest.mark.parametrize(
    "alpha, expected",
    [
        ((26, 1, 1), True),
        ((0, 0, 0), True),
        ((31, 1, 1), False),  # relative but not absolute
    ],
)
def test_is_absolute_maximal(alpha, expected):
    assert is_absolute_maximal(C59, alpha) is expected


@pytest.mark.parametrize(
    "alpha, expected",
    [
        ((31, 1, 1), True),
        ((5, 0, 0), True),
        ((26, 1, 1), False),  # absolute and relative classes are disjoint for n >= 3
    ],
)
def test_is_relative_maximal(alpha, expected):
    assert is_relative_maximal(C59, alpha) is expected


def test_maximality_notions_coincide_for_two_places():
    assert is_relative_maximal(C34, (4, 1)) and is_absolute_maximal(C34, (4, 1))


def test_predicates_validate_places():
    with pytest.raises(ValueError):
        is_pure_gap(C34, (1, 1), (C34.place(1), C34.place(1)))
    with pytest.raises(ValueError):
        in_generalized_semigroup(C34, (1, 1), (C34.place(1), INFINITY))
    with pytest.raises(ValueError, match="^2-tuple given with 1 places$"):
        is_pure_gap(C34, (1, 1), (C34.place(1),))
    # the default places P_1..P_n need 1 <= n <= r
    for alpha in ((), (1,) * 5):
        with pytest.raises(ValueError, match="^can take between 1 and 4 branch places"):
            is_pure_gap(C34, alpha)


@pytest.mark.parametrize(
    "predicate",
    [in_generalized_semigroup, is_pure_gap, is_absolute_maximal, is_relative_maximal],
)
@pytest.mark.parametrize("alpha", [(1.5, 2), (2, 2.0), ("1", 1), (1, None)])
def test_predicates_reject_non_integer_entries(predicate, alpha):
    # floats with an integral value too: a class index must be an int
    with pytest.raises(TypeError):
        predicate(C34, alpha)


# --- differential checks against literal ell definitions --------------------
#
# The predicates and scans evaluate only the classes a tuple touches; these
# reference versions spell out each characterization with full ell calls.


def ell_at(curve, alpha, places):
    return ell(curve, divisor_from_tuple(alpha, places)).dim


def shifted(alpha, delta):
    return tuple(a + d for a, d in zip(alpha, delta))


def unit(n, i, v=1):
    return tuple(v if j == i else 0 for j in range(n))


def ref_in_semigroup(curve, alpha, places):
    top = ell_at(curve, alpha, places)
    return all(ell_at(curve, shifted(alpha, unit(len(alpha), i, -1)), places) == top - 1
               for i in range(len(alpha)))


def ref_is_pure_gap(curve, alpha, places):
    if any(a < 0 for a in alpha) or ref_in_semigroup(curve, alpha, places):
        return False
    top = ell_at(curve, alpha, places)
    return all(ell_at(curve, shifted(alpha, unit(len(alpha), i, -1)), places) == top
               for i in range(len(alpha)))


def ref_is_absolute_maximal(curve, alpha, places):
    down = ell_at(curve, shifted(alpha, (-1,) * len(alpha)), places)
    return ref_in_semigroup(curve, alpha, places) and down == ell_at(curve, alpha, places) - 1


def ref_is_relative_maximal(curve, alpha, places):
    n = len(alpha)
    below = shifted(alpha, (-1,) * n)
    down = ell_at(curve, below, places)
    if any(ell_at(curve, shifted(below, unit(n, i)), places) != down for i in range(n)):
        return False
    return ell_at(curve, alpha, places) == down + n - 1


PREDICATE_PAIRS = [
    (in_generalized_semigroup, ref_in_semigroup),
    (is_pure_gap, ref_is_pure_gap),
    (is_absolute_maximal, ref_is_absolute_maximal),
    (is_relative_maximal, ref_is_relative_maximal),
]


def check_predicates(curve, alpha, places):
    for fast, ref in PREDICATE_PAIRS:
        assert fast(curve, alpha, places) is ref(curve, alpha, places), (
            fast.__name__, curve, alpha, places,
        )


def test_predicates_match_ell_definitions(corpus):
    check_predicates(C34, (), ())  # the empty tuple: in the semigroup, no pure gap, not maximal
    rng = random.Random(2024)
    for curve in corpus:
        m, g = curve.m, curve.genus
        for n in range(1, min(curve.r, 4) + 1):
            for _ in range(12):
                places = tuple(rng.sample(curve.ramified_places(), n))
                alpha = tuple(rng.randint(-2 * m, 2 * g + 2) for _ in range(n))
                check_predicates(curve, alpha, places)


coprime_curve = st.tuples(st.integers(2, 12), st.integers(2, 12)).filter(
    lambda mr: gcd(*mr) == 1
)


@settings(max_examples=60, deadline=None)
@given(coprime_curve, st.data())
def test_predicates_match_ell_definitions_random(mr, data):
    curve = KummerCurve(*mr)
    m, g = curve.m, curve.genus
    idx = data.draw(
        st.lists(st.integers(1, curve.r), min_size=1, max_size=min(curve.r, 5), unique=True)
    )
    places = tuple(curve.place(j) for j in idx)
    alpha = tuple(
        data.draw(st.lists(st.integers(-2 * m, 2 * g + 2), min_size=len(idx), max_size=len(idx)))
    )
    check_predicates(curve, alpha, places)


def test_scans_match_ell_brute_force(corpus):
    # small boxes on a spread of the corpus, at the first and at the last n places
    for curve in corpus[::3]:
        m = curve.m
        if m > 6:  # the window grows as m^(n-1)
            continue
        for n in range(1, min(curve.r, 3) + 1):
            for places in dict.fromkeys([curve.ramified_places(n), curve.ramified_places()[-n:]]):
                box = min(2 * curve.genus, 6)
                want = [a for a in product(range(1, box + 1), repeat=n)
                        if ref_is_pure_gap(curve, a, places)]
                assert pure_gap_box_scan(curve, places, box_max=box) == want
                lo, hi = -(n - 1) * (m - 1), min(2 * curve.genus, 6)
                window = list(product(range(lo, hi + 1), *[range(m)] * (n - 1)))
                assert absolute_maximals_window_scan(curve, places, lo, hi) == [
                    a for a in window if ref_is_absolute_maximal(curve, a, places)
                ]
                assert relative_maximals_window_scan(curve, places, lo, hi) == [
                    a for a in window if ref_is_relative_maximal(curve, a, places)
                ]


# --- the oracle walk against the full box scan it replaced -------------------
#
# ref_scan is the product-and-_class_dims scan: every tuple of the box, its
# class table rebuilt for every tuple, no cap on the coordinate sum.


def ref_scan(curve, places, test, ranges):
    m, r = curve.m, curve.r
    return [a for a in product(*ranges) if test(_class_dims(m, r, a), len(places))]


def check_window_scans(curve, places, first_min=None, first_max=None):
    n, m = len(places), curve.m
    lo = -(n - 1) * (m - 1) if first_min is None else first_min
    hi = 2 * curve.genus if first_max is None else first_max
    ranges = [range(lo, hi + 1)] + [range(m)] * (n - 1)
    assert absolute_maximals_window_scan(curve, places, first_min, first_max) == ref_scan(
        curve, places, _absolute, ranges
    )
    assert relative_maximals_window_scan(curve, places, first_min, first_max) == ref_scan(
        curve, places, _relative, ranges
    )


def check_box_scan(curve, places, boxes):
    # one full scan at the largest box; smaller boxes are its lex-ordered sublists
    top = ref_scan(curve, places, _flat_everywhere, [range(1, max(boxes) + 1)] * len(places))
    for box in boxes:
        want = [a for a in top if max(a) <= box]
        assert pure_gap_box_scan(curve, places, box_max=box) == want, (curve, places, box)


def test_window_scan_walks_exactly_the_window():
    # with a test that passes everything, the walk returns the whole window in lex order
    def everything(dims, n):
        return True

    for n, lo, hi in ((3, -4, 2), (3, 1, 6), (3, 4, 3), (1, -2, 5), (1, 2, 1), (2, 0, 0)):
        want = list(product(range(lo, hi + 1), *[range(C59.m)] * (n - 1)))
        assert _window_scan(C59, n, everything, lo, hi) == want, (n, lo, hi)


@pytest.mark.parametrize(
    "scan", [pure_gap_box_scan, absolute_maximals_window_scan, relative_maximals_window_scan]
)
def test_scans_refuse_an_empty_place_tuple(scan):
    # n = 0 is refused whether it is given as a count or as the empty tuple
    for places in (0, ()):
        with pytest.raises(ValueError):
            scan(C34, places)


def test_place_arguments_must_be_places():
    # a bare index is refused by name, not by an AttributeError from inside the check
    c59 = KummerCurve(5, 9)
    with pytest.raises(TypeError, match="^places must be Place objects, got 1$"):
        is_pure_gap(c59, (1, 2), places=[1, 2])
    with pytest.raises(TypeError):
        pure_gap_box_scan(c59, [c59.place(1), 2])
    with pytest.raises(TypeError):
        verify_period(c59, 1, 2)
    with pytest.raises(TypeError, match="^places must be Place objects, got 1$"):
        is_discrepancy(c59, Divisor(), 1, 2)
    with pytest.raises(TypeError, match="^places must be Place objects, got 2$"):
        is_discrepancy(c59, Divisor(), Place(1), 2)
    assert is_pure_gap(c59, (1, 2), places=[Place(1), Place(2)])
    # P_inf is a Place, and is_discrepancy still takes it on either side
    for p1, p2 in ((INFINITY, Place(1)), (Place(1), INFINITY)):
        assert is_discrepancy(c59, Divisor(), p1, p2) is ref_is_discrepancy(c59, Divisor(), p1, p2)


def test_box_scan_matches_full_box_scan(corpus):
    for curve in corpus:
        m, g = curve.m, curve.genus
        for n in range(1, min(curve.r, 3 if g > 4 else 4) + 1):
            for places in dict.fromkeys([curve.ramified_places(n), curve.ramified_places()[-n:]]):
                check_box_scan(curve, places, (0, 1, m, g, 2 * g, 3 * g))


def test_window_scans_match_full_window_scan(corpus):
    for curve in corpus:
        for n in range(1, min(curve.r, 3) + 1):
            check_window_scans(curve, curve.ramified_places()[-n:])


def test_window_scan_outputs_lie_in_one_residue_class(corpus):
    # every class adds at least 1 to lost, and lost is 1 (absolute), or n - 1 with at most
    # c_s - 1 per class (relative); so one class occurs, which fixes each trailing
    # coordinate of the window at t[0] mod m
    outputs = 0
    for curve in corpus:
        m = curve.m
        for n in range(2, min(curve.r, 3) + 1):
            for places in dict.fromkeys([curve.ramified_places(n), curve.ramified_places()[-n:]]):
                for scan in (absolute_maximals_window_scan, relative_maximals_window_scan):
                    for t in scan(curve, places):
                        assert all(c == t[0] % m for c in t[1:]), (curve, places, scan, t)
                        outputs += 1
    assert outputs > 1000


@settings(max_examples=40, deadline=None)
@given(coprime_curve, st.data())
def test_scans_match_full_box_scan_random(mr, data):
    curve = KummerCurve(*mr)
    m, g = curve.m, curve.genus
    idx = data.draw(
        st.lists(st.integers(1, curve.r), min_size=1, max_size=min(curve.r, 4), unique=True)
    )
    places = tuple(curve.place(j) for j in idx)
    n = len(places)
    edge = int(20000 ** (1 / n))  # keeps the reference scan near 2e4 tuples
    box = data.draw(st.integers(0, min(3 * g, edge)))
    check_box_scan(curve, places, (box,))
    lo = data.draw(st.integers(-(n - 1) * (m - 1), 2 * g))
    hi = data.draw(st.integers(lo - 1, lo + max(0, edge // m ** (n - 1))))
    check_window_scans(curve, places, lo, hi)


# --- the pruned pure-gap walk against the literal simplex ---------------------


def unpruned_box_scan(curve, places):
    # every tuple of positive coordinates with sum at most 2g - 1, tested one by one: the
    # cut points 0 < c_1 < ... < c_n <= 2g - 1 give alpha_i = c_i - c_{i-1}, in lex order
    m, r, n, top = curve.m, curve.r, len(places), 2 * curve.genus - 1
    simplex = (
        tuple(b - a for a, b in zip((0,) + cuts, cuts))
        for cuts in combinations(range(1, top + 1), n)
    )
    return [a for a in simplex if _flat_everywhere(_class_dims(m, r, a), n)]


def test_pruned_box_scan_matches_unpruned_walk(corpus):
    for curve in corpus:
        for n in range(1, min(curve.r, 5) + 1):
            for places in dict.fromkeys([curve.ramified_places(n), curve.ramified_places()[-n:]]):
                assert pure_gap_box_scan(curve, places) == unpruned_box_scan(curve, places)


genus40_curve = st.integers(2, 41).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(2, 80 // (m - 1) + 1))
).filter(lambda mr: gcd(*mr) == 1)


@settings(max_examples=40, deadline=None)
@given(genus40_curve, st.data())
def test_pruned_box_scan_matches_full_scans_to_genus_40(mr, data):
    curve = KummerCurve(*mr)
    g = curve.genus
    idx = data.draw(
        st.lists(st.integers(1, curve.r), min_size=1, max_size=min(curve.r, 5), unique=True)
    )
    places = tuple(curve.place(j) for j in idx)
    n = len(places)
    edge = int(20000 ** (1 / n))  # keeps the reference scan near 2e4 tuples
    box = data.draw(st.integers(0, min(2 * g, edge)))
    check_box_scan(curve, places, (box,))
    if comb(2 * g - 1, n) <= 20000:
        assert pure_gap_box_scan(curve, places) == unpruned_box_scan(curve, places)


@pytest.mark.parametrize("m,r,n", [(5, 13, 4), (5, 13, 5), (7, 23, 3)])
def test_box_scan_tests_each_output_once(monkeypatch, m, r, n):
    # the stop-bound walk decides each class as it fixes a coordinate, so it
    # runs no pure-gap test, where the unpruned walk tests all C(2g - 1, n) of the simplex
    calls = 0

    def counting(dims, k):
        nonlocal calls
        calls += 1
        return _flat_everywhere(dims, k)

    monkeypatch.setattr(riemann_roch, "_flat_everywhere", counting)
    curve = KummerCurve(m, r)
    found = pure_gap_box_scan(curve, n)
    assert len(found) == pure_gap_count(curve, n)
    assert calls == 0 and len(found) < comb(2 * curve.genus - 1, n)
    assert all(_flat_everywhere(_class_dims(m, r, a), n) for a in found)


def test_walks_leave_no_cyclic_garbage():
    # the scans and the pool glb walk walk with closures that call themselves,
    # and the capped stream and the seed glb walk with memos; each call must
    # free its walk without the cyclic collector
    walks = [
        lambda: list(pure_gaps(C59, 3, 5)),
        lambda: pure_gap_box_scan(C59, 3),
        lambda: absolute_maximals_window_scan(C59, 3),
        lambda: relative_maximals_window_scan(C59, 3),
        lambda: pure_gaps_from_relative_maximals(lambda_star(C59, 3), 3),
        lambda: pure_gaps_from_family(relative_family(C59, 3)),
        lambda: pure_gaps_from_family(relative_family(KummerCurve(5, 13), 4), 9),
    ]
    gc.collect()
    gc.disable()
    try:
        for walk in walks:
            assert walk()
            assert gc.collect() == 0
    finally:
        gc.enable()


# --- discrepancies and periods ---------------------------------------------


def test_discrepancy_examples():
    p = C59.ramified_places(3)
    A = divisor_from_tuple((26, 1, 1), p)
    assert is_discrepancy(C59, A, p[0], p[1])
    assert is_discrepancy(C59, A, p[1], p[2])
    # the zero divisor is a discrepancy; -P_2 is not (both spaces vanish)
    assert is_discrepancy(C59, Divisor(), p[0], p[1])
    assert not is_discrepancy(C59, Divisor({p[1]: -1}), p[0], p[1])


def test_discrepancy_two_place_case():
    p1, p2 = C34.ramified_places(2)
    # ell(P_1+P_2) = ell(P_1) = 1, so the first condition already fails
    assert not is_discrepancy(C34, divisor_from_tuple((1, 1), (p1, p2)), p1, p2)


def test_discrepancy_rejects_equal_places():
    p1 = C34.place(1)
    with pytest.raises(ValueError):
        is_discrepancy(C34, Divisor(), p1, p1)
    with pytest.raises(ValueError, match="^discrepancy needs two distinct places$"):
        is_discrepancy(C34, Divisor({INFINITY: 3}), INFINITY, INFINITY)


def ref_is_discrepancy(curve, div, p1, p2):
    # the definition with four full ell evaluations, all made, so each place is checked:
    # the support first, then p1, then p2
    one, two = Divisor({p1: 1}), Divisor({p2: 1})
    a, c, b, d = (ell(curve, x).dim for x in (div, div - one, div - two, div - one - two))
    return a != b and c == d


def test_discrepancy_matches_four_ell_definition(corpus):
    # P_inf as P_1 or P_2, places in and outside the support, every ordered pair of a pool
    rng = random.Random(31)
    seen = {(got, inf): 0 for got in (False, True) for inf in (False, True)}
    for curve in corpus:
        g = curve.genus
        places = list(curve.ramified_places()) + [INFINITY]
        for _ in range(12):
            support = rng.sample(places, rng.randint(0, min(4, len(places))))
            div = Divisor({p: rng.randint(-g - 2, g + 2) for p in support})
            outside = [p for p in places if p not in support]
            pool = support + rng.sample(outside, min(2, len(outside)))
            pool = list(dict.fromkeys(pool + [INFINITY]))
            for p1, p2 in permutations(pool, 2):
                got = is_discrepancy(curve, div, p1, p2)
                assert got is ref_is_discrepancy(curve, div, p1, p2), (curve, div, p1, p2)
                seen[got, INFINITY in (p1, p2)] += 1
    assert min(seen.values()) >= 20, seen


def test_discrepancy_errors_match_four_ell_definition():
    off = Place(C59.r + 1)
    div = divisor_from_tuple((26, 1, 1), C59.ramified_places(3))
    cases = [
        (div, off, C59.place(1)),
        (div, C59.place(1), off),
        (div, INFINITY, off),
        (div, off, Place(C59.r + 2)),
        (div + Divisor({Place(12): 1, off: -2}), C59.place(1), C59.place(2)),
    ]
    for d, p1, p2 in cases:
        with pytest.raises(ValueError) as fast:
            is_discrepancy(C59, d, p1, p2)
        with pytest.raises(ValueError) as ref:
            ref_is_discrepancy(C59, d, p1, p2)
        assert str(fast.value) == str(ref.value), (d, p1, p2)


@pytest.mark.parametrize(
    "m, r, i, j, expected",
    [
        (5, 9, 1, 2, 5),
        (3, 2, 1, 2, 3),
        (4, 7, 2, 5, 4),
    ],
)
def test_verify_period(m, r, i, j, expected):
    curve = KummerCurve(m, r)
    assert verify_period(curve, curve.place(i), curve.place(j)) == expected


def test_verify_period_matches_curve_period(corpus):
    for curve in corpus:
        assert verify_period(curve, curve.place(1), curve.place(2)) == curve.period


def ref_period(curve, p_i, p_j, bound):
    # the literal search: the least k with ell(k*P_i - k*P_j) = 1
    for k in range(1, bound + 1):
        if ell(curve, Divisor({p_i: k, p_j: -k})).dim == 1:
            return k
    return None


def test_verify_period_matches_literal_search(corpus):
    for curve in corpus:
        bound = 2 * curve.genus + curve.m
        for p_i, p_j in permutations(curve.ramified_places(), 2):
            assert verify_period(curve, p_i, p_j) == ref_period(curve, p_i, p_j, bound), (
                curve, p_i, p_j,
            )
    for curve in corpus[::4]:  # short bounds: the search fails exactly when the literal one does
        p_i, p_j = curve.place(curve.r), curve.place(1)
        for bound in range(curve.m + 2):
            want = ref_period(curve, p_i, p_j, bound)
            if want is None:
                with pytest.raises(PeriodSearchError):
                    verify_period(curve, p_i, p_j, bound)
            else:
                assert verify_period(curve, p_i, p_j, bound) == want


def test_verify_period_validation():
    with pytest.raises(ValueError):
        verify_period(C34, C34.place(1), C34.place(1))
    with pytest.raises(ValueError):
        verify_period(C34, C34.place(1), INFINITY)
    with pytest.raises(PeriodSearchError):
        verify_period(C34, C34.place(1), C34.place(2), bound=2)

