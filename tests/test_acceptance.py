"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Every check is exact (integer equality); each criterion also carries a wall
clock budget that is asserted.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement
from math import comb, gcd

from conftest import small_curves

from puregaps import (
    HERMITIAN_SUBCOVER_ROWS,
    NORM_TRACE_LIKE_ROWS,
    Divisor,
    INFINITY,
    KummerCurve,
    absolute_maximals_window_scan,
    b_k,
    compositions,
    ell,
    gamma_hat_box,
    gamma_star,
    generate_tables,
    is_absolute_maximal,
    is_relative_maximal,
    lambda_hat_box,
    lambda_star,
    pure_gap_box_scan,
    pure_gap_count,
    pure_gap_count_multiple_plus_one,
    pure_gap_count_two_places,
    pure_gaps,
    pure_gaps_from_family,
    relative_family,
    relative_maximals_window_scan,
    union_count,
    verify_period,
)
from puregaps.reference import (
    permutation_closed,
    permutation_union,
    translate_box,
    union_count_bruteforce,
)

CORPUS = small_curves(max_genus=10)


@contextmanager
def criterion(num: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL — {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num}: PASS — {description} [{elapsed:.2f}s / budget {budget_s:g}s]")
    assert elapsed <= budget_s, f"criterion {num} blew its {budget_s}s budget ({elapsed:.2f}s)"


def _valid_counts(curve):
    return [n for n in (2, 3) if n <= curve.r]


def test_criterion_1_pure_gap_count_reproduction():
    with criterion(1, "pure-gap count 382 with per-box sizes and multiplicities", 1.0):
        curve = KummerCurve(5, 9, 1)
        assert pure_gap_count(curve, 3) == 382
        boxes = [b_k(curve, 3, k).bounds for k in range(5)]
        sizes = [union_count(bounds) for bounds in boxes]
        assert sizes == [54, 26, 20, 7, 4]
        assert [len(permutation_union(bounds)) for bounds in boxes] == [54, 26, 20, 7, 4]
        multiplicities = [len(list(compositions(k, 3))) for k in range(5)]
        assert multiplicities == [1, 3, 6, 10, 15]
        assert sum(s * m for s, m in zip(sizes, multiplicities)) == 382
        assert len(list(pure_gaps(curve, 3))) == 382


def test_criterion_2_table_reproduction():
    with criterion(2, "both reference parameter tables regenerate bit-exactly", 1.0):
        table1 = [(r["N"], r["kdim"], r["dlb"]) for r in generate_tables(HERMITIAN_SUBCOVER_ROWS)]
        assert table1 == [
            (174, 156, 12),
            (175, 161, 10),
            (368, 331, 24),
            (367, 338, 18),  # 341 - a with a = 3
            (367, 337, 18),  # 341 - a with a = 4
        ]
        table2 = [(r["N"], r["kdim"], r["dlb"]) for r in generate_tables(NORM_TRACE_LIKE_ROWS)]
        assert table2 == [
            (175, 161, 10),
            (511, 445, 42),  # 447 - a, a = 2
            (511, 444, 42),  # 447 - a, a = 3
            (510, 459, 30),  # 462 - a, a = 3
            (510, 458, 30),  # 462 - a, a = 4
            (510, 457, 30),  # 462 - a, a = 5
            (367, 338, 18),  # 341 - a, a = 3
            (367, 337, 18),  # 341 - a, a = 4
        ]


def test_criterion_3_oracle_equivalence():
    with criterion(3, "closed forms equal the ell-oracle on the genus<=10 corpus", 300.0):
        for curve in CORPUS:
            m, r, g = curve.m, curve.r, curve.genus
            for n in _valid_counts(curve):
                # pure gaps: enumeration vs exhaustive scan of [1, 2g]^n
                assert sorted(pure_gaps(curve, n)) == pure_gap_box_scan(curve, n), (m, r, n)
                if n > r - r // m:
                    continue
                # pure gaps: the glb route over the family's translates vs the enumeration
                assert pure_gaps_from_family(relative_family(curve, n)) == list(
                    pure_gaps(curve, n)
                ), (m, r, n)
                # every closed-form maximal element passes its oracle predicate
                for e in lambda_star(curve, n):
                    assert is_relative_maximal(curve, e), (m, r, n, e)
                for e in gamma_star(curve, n):
                    assert is_absolute_maximal(curve, e), (m, r, n, e)
                # and no others exist in the fundamental window within the scan box
                lo, hi = -(n - 1) * (m - 1), 2 * g
                assert absolute_maximals_window_scan(curve, n) == sorted(
                    t for t in gamma_hat_box(curve, n) if lo <= t[0] <= hi
                ), (m, r, n)
                assert relative_maximals_window_scan(curve, n) == sorted(
                    t for t in lambda_hat_box(curve, n) if lo <= t[0] <= hi
                ), (m, r, n)


def test_criterion_4_riemann_roch_validation():
    with criterion(4, "Riemann-Roch identity on 1000 random divisors per curve", 10.0):
        rng = random.Random(20260808)
        for curve in CORPUS:
            g = curve.genus
            W = curve.canonical_divisor()
            assert ell(curve, Divisor()).dim == 1
            places = list(curve.ramified_places()) + [INFINITY]
            for _ in range(1000):
                chosen = rng.sample(places, rng.randint(1, len(places)))
                D = Divisor({p: rng.randint(-g - 2, g + 2) for p in chosen})
                dim = ell(curve, D).dim
                assert dim - ell(curve, W - D).dim == D.degree + 1 - g
                bumped = ell(curve, D + Divisor({rng.choice(places): 1})).dim
                assert dim <= bumped <= dim + 1


def test_criterion_5_counting_recursion_oracle():
    with criterion(5, "box union recursion vs brute force, homogeneity, consecutive form", 30.0):
        for n in range(1, 5):
            for tup in combinations_with_replacement(range(6, 0, -1), n):
                a = tuple(sorted(tup, reverse=True))
                assert union_count(a) == union_count_bruteforce(a), a
                for u in (1, 2, 3):
                    scaled = tuple(u * x for x in a)
                    assert union_count(scaled) == u**n * union_count(a), (a, u)
            for last in range(1, 7):
                consecutive = tuple(last + n - i for i in range(1, n + 1))
                assert union_count(consecutive) == last * (last + n) ** (n - 1)


def test_criterion_6_specialization_identities():
    with criterion(6, "two-place and m=u*r+1 closed forms match the general count", 30.0):
        for m in range(2, 13):
            for r in range(2, 13):
                if gcd(m, r) != 1:
                    continue
                curve = KummerCurve(m, r)
                assert pure_gap_count_two_places(curve) == pure_gap_count(curve, 2), (m, r)
        for u in (1, 2, 3):
            for r in range(2, 8):
                curve = KummerCurve(u * r + 1, r)
                for n in range(2, r + 1):
                    assert pure_gap_count_multiple_plus_one(curve, n, u) == pure_gap_count(
                        curve, n
                    ), (u, r, n)


def test_criterion_7_structural_theorems():
    with criterion(7, "disjointness, permutation closure, windows, and periods", 120.0):
        for curve in CORPUS:
            m, r, g = curve.m, curve.r, curve.genus
            for n in _valid_counts(curve):
                gaps = list(pure_gaps(curve, n))
                assert len(gaps) == len(set(gaps)), "cells overlap"
                assert len(gaps) == pure_gap_count(curve, n)
                assert permutation_closed(gaps), (m, r, n)
                if n > r - r // m:
                    continue
                family = relative_family(curve, n)
                expanded = []
                for k in range(-(-(2 * g - 1) // m)):
                    for comp in compositions(k, n):
                        cell = translate_box(family, comp)
                        for t in cell:
                            for ki, c in zip(comp, t):
                                assert ki * m <= c < (ki + 1) * m, "window violation"
                        expanded.extend(cell)
                assert len(expanded) == len(set(expanded)), "family boxes overlap"
                assert permutation_closed(expanded), (m, r, n)
                assert sorted(expanded) == lambda_star(curve, n)
            assert verify_period(curve, curve.place(1), curve.place(2)) == m
            if curve.r >= 3:
                assert verify_period(curve, curve.place(2), curve.place(3)) == m
