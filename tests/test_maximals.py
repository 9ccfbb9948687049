import json
from itertools import product
from math import comb, gcd

import pytest

from puregaps import (
    KummerCurve,
    NOutOfRangeError,
    absolute_family,
    compositions,
    gamma_hat_box,
    gamma_star,
    h_one_place,
    in_generalized_semigroup,
    is_absolute_maximal,
    is_relative_maximal,
    lambda_hat_box,
    lambda_star,
    pure_gap_count,
    relative_family,
)
from puregaps.cli import main
from puregaps.reference import semigroup_by_lubs, translate_box

C34 = KummerCurve(3, 4)
C59 = KummerCurve(5, 9)


def test_one_place_gaps_ramified():
    got = h_one_place(C59)
    assert got.gaps == (1, 2, 3, 4, 6, 7, 8, 11, 12, 13, 16, 17, 21, 22, 26, 31)
    assert not got.at_infinity
    assert h_one_place(KummerCurve(3, 2)).gaps == (1,)


def test_one_place_gaps_at_infinity():
    got = h_one_place(C59, at_infinity=True)
    assert got.at_infinity and len(got.gaps) == 16
    # gaps of the numerical semigroup generated by 5 and 9
    assert 14 not in got.gaps and 13 in got.gaps
    assert all(g % 5 != 0 and g % 9 != 0 for g in got.gaps)


def test_one_place_gap_count_is_genus(corpus):
    for curve in corpus:
        g = curve.genus
        for at_inf in (False, True):
            gaps = h_one_place(curve, at_infinity=at_inf).gaps
            assert len(gaps) == g
            assert all(1 <= x <= 2 * g - 1 for x in gaps)


def test_gamma_hat_box():
    assert gamma_hat_box(C59, 3) == [
        (-1, 4, 4),
        (0, 0, 0),
        (8, 3, 3),
        (17, 2, 2),
        (26, 1, 1),
    ]
    assert gamma_hat_box(C34, 2) == [(0, 0), (2, 2), (4, 1)]


def test_hat_boxes_coincide_for_two_places(corpus):
    # absolute and relative maximality agree when only two places are used
    for curve in corpus[::3]:
        if 2 <= curve.r - curve.r // curve.m:
            assert gamma_hat_box(curve, 2) == lambda_hat_box(curve, 2)


def test_lambda_hat_box():
    assert lambda_hat_box(C59, 3) == [
        (4, 4, 4),
        (5, 0, 0),
        (13, 3, 3),
        (22, 2, 2),
        (31, 1, 1),
    ]
    assert (0, 0) in lambda_hat_box(C59, 2)


def test_hat_boxes_reject_bad_n():
    for fn in (gamma_hat_box, lambda_hat_box, lambda_star):
        with pytest.raises(NOutOfRangeError):
            fn(C59, 1)
        with pytest.raises(NOutOfRangeError):
            fn(C59, 9)  # r - floor(r/m) = 8


@pytest.mark.parametrize(
    "fn",
    [gamma_hat_box, lambda_hat_box, absolute_family, relative_family, gamma_star, lambda_star,
     pure_gap_count],
)
def test_a_float_place_count_is_a_type_error(fn):
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        fn(C59, 3.0)


def test_lambda_hat_elements_pass_the_oracle():
    for e in lambda_hat_box(C59, 3):
        assert is_relative_maximal(C59, e)
    for e in gamma_hat_box(C59, 3):
        assert is_absolute_maximal(C59, e)


def test_gamma_star():
    assert gamma_star(C34, 2) == [(1, 4), (2, 2), (4, 1)]
    assert gamma_star(C59, 9) == []  # n beyond r - floor(r/m)
    expected = sum(comb(k + 2, 2) for k in (5, 3, 1))  # residues i = 1..3; i = 4 drops out
    assert len(gamma_star(C59, 3)) == expected == 34
    with pytest.raises(NOutOfRangeError):
        gamma_star(C59, 10)


def test_lambda_star():
    assert lambda_star(C34, 2) == gamma_star(C34, 2)
    assert len(lambda_star(C59, 3)) == 50
    assert len(lambda_star(C59, 3)) == sum(comb(k + 2, 2) for k in (6, 4, 2, 0))
    for n in (3.0, "3"):
        with pytest.raises(TypeError):
            lambda_star(C59, n)  # as gamma_star does, not 50 elements for 3.0


def test_lambda_star_smallest_curve():
    # genus-1 case: a single positive relative maximal element, and it checks out
    curve = KummerCurve(3, 2)
    assert lambda_star(curve, 2) == [(1, 1)]
    assert is_relative_maximal(curve, (1, 1))


def test_star_elements_pass_the_oracle_small_sweep():
    for m, r in [(3, 4), (4, 3), (2, 7), (5, 4), (5, 9)]:
        curve = KummerCurve(m, r)
        for n in (2, 3):
            if n > curve.r - curve.r // curve.m:
                continue
            for e in lambda_star(curve, n):
                assert is_relative_maximal(curve, e), (curve, e)
            for e in gamma_star(curve, n):
                assert is_absolute_maximal(curve, e), (curve, e)


def test_star_coordinates_share_a_residue(corpus):
    for curve in corpus[::4]:
        m, r = curve.m, curve.r
        for n in (2, 3):
            if n > r - r // m:
                continue
            for e in lambda_star(curve, n) + gamma_star(curve, n):
                assert len({c % m for c in e}) == 1


@pytest.mark.parametrize("kind", ["absolute", "relative"])
def test_star_sets_equal_family_expansion(corpus, kind):
    # the positive sets are exactly the translates of the fundamental-window boxes
    for curve in corpus[::4]:
        m, r, g = curve.m, curve.r, curve.genus
        for n in (2, 3):
            if n > r - r // m:
                continue
            if kind == "absolute":
                fam, star = absolute_family(curve, n), gamma_star(curve, n)
            else:
                fam, star = relative_family(curve, n), lambda_star(curve, n)
            regenerated = []
            for k in range(-(-(2 * g - 1) // m)):
                for comp in compositions(k, n):
                    regenerated.extend(translate_box(fam, comp))
            assert sorted(regenerated) == star


def test_window_boundary_sweep(capsys):
    # every route that reads the window 2 <= n <= r - floor(r/m) agrees on its edges
    for m in range(2, 14):
        for r in range(2, 14):
            if gcd(m, r) != 1:
                continue
            curve = KummerCurve(m, r)
            top = r - r // m
            edges = {top, top + 1}
            # lambda_star grows to 646 646 elements at (m, r) = (12, 13), so it is
            # built on the window's upper edge of the smaller curves only; verify's
            # glb route reads the window's seeds and runs on every edge
            built = edges if curve.genus <= 14 else set()
            for n in range(1, r + 2):
                inside = 2 <= n <= top
                if 2 <= n <= r:
                    assert (gamma_star(curve, n) == []) == (not inside), (m, r, n)
                else:
                    with pytest.raises(NOutOfRangeError):
                        gamma_star(curve, n)
                for fn in (gamma_hat_box, lambda_hat_box, lambda_star):
                    if not inside:
                        with pytest.raises(NOutOfRangeError):
                            fn(curve, n)
                    elif fn is not lambda_star or n in built:
                        assert fn(curve, n)
                if n in edges:
                    argv = ["verify", "--m", str(m), "--r", str(r), "--n", str(n)]
                    code = main(argv + ["--max-box", "1", "--format", "json"])
                    out = capsys.readouterr().out
                    routes = json.loads(out)["routes"] if n <= r else {}
                    assert code == (0 if n <= r else 3), (m, r, n)  # n = r + 1: a domain error
                    assert ("glb" in routes) == inside, (m, r, n)


def lub_cases(corpus):
    """(curve, n, box) over the genus <= 10 corpus: n = 2..min(r, 4), boxes 2g, min(2g, 8), min(2g, 5)."""
    for curve in corpus:
        g = curve.genus
        for n in range(2, min(curve.r, 4) + 1):
            yield curve, n, min(2 * g, {2: 2 * g, 3: 8, 4: 5}[n])


def test_semigroup_is_the_lubs_of_absolute_maximals(corpus):
    # the generating theorem: every member of the semigroup is a lub of n generators
    for curve, n, box in lub_cases(corpus):
        members = [t for t in product(range(box + 1), repeat=n) if in_generalized_semigroup(curve, t)]
        assert semigroup_by_lubs(curve, n, box) == members, (curve, n, box)


def test_semigroup_membership_reads_only_the_support(corpus):
    # a tuple with zero coordinates is a member iff its restriction to its support is
    for curve, n, box in lub_cases(corpus):
        for t in product(range(box + 1), repeat=n):
            support = [j for j, v in enumerate(t) if v]
            if len(support) == n:
                continue
            places = tuple(curve.place(j + 1) for j in support)
            restricted = not support or in_generalized_semigroup(curve, [t[j] for j in support], places)
            assert in_generalized_semigroup(curve, t) == restricted, (curve, t)
