import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puregaps import (
    KummerCurve,
    MaximalFamily,
    compositions,
    family_cardinality,
    lambda_star,
    pure_gap_box_scan,
    pure_gaps,
    pure_gaps_from_family,
    relative_family,
)
from puregaps.reference import permutation_closed, pure_gaps_from_relative_maximals, translate_box

C34 = KummerCurve(3, 4)
C59 = KummerCurve(5, 9)


def test_compositions():
    from math import comb

    assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    for total in range(5):
        for parts in range(1, 4):
            comps = list(compositions(total, parts))
            assert len(comps) == comb(total + parts - 1, parts - 1)
            assert all(sum(c) == total for c in comps)
            assert len(set(comps)) == len(comps)
    with pytest.raises(ValueError):
        list(compositions(3, 0))
    for bad in [(2, 2.0), (2.0, 2), (2.0, 1), ("2", 2)]:
        with pytest.raises(TypeError):
            list(compositions(*bad))  # not [(2, 0), (1, 1), (0, 2)] through a float part count
    assert list(compositions(True, True)) == [(1,)]


def test_family_validation():
    with pytest.raises(ValueError):
        MaximalFamily(0, 2, {})
    with pytest.raises(ValueError):
        MaximalFamily(5, 1, {})
    with pytest.raises(ValueError):
        MaximalFamily(5, 2, {-1: ((1, 1),)})
    with pytest.raises(ValueError):
        MaximalFamily(5, 2, {0: ((7, 1),)})  # first axis outside [0, 5)
    with pytest.raises(ValueError):
        MaximalFamily(5, 2, {0: ((1, 6),)})  # trailing axis outside [0, 5)
    with pytest.raises(ValueError):
        MaximalFamily(5, 3, {0: ((1, 1),)})  # a 2-tuple in a 3-place family
    fam = MaximalFamily(5, 2, {1: ((6, 1), (6, 1)), 2: ()})
    assert fam.box(1) == ((6, 1),)
    assert fam.levels == (1,) and fam.max_level == 1
    assert fam.box(2) == () and fam.box(99) == ()
    with pytest.raises(TypeError):
        fam.box0[7] = ((36, 1),)  # the level map is read-only, as the record is
    assert fam.levels == (1,)
    # period, n, level keys and coordinates are integers; True counts as 1
    for bad in [(2.5, 3, {}), (5, 3.0, {}), (5, 3, {1.0: ((6, 1, 1),)}), (5, 3, {1: ((6.5, 1, 1),)}),
                (5, 3, {1: ((6, 1.0, 1),)}), (5, "3", {})]:
        with pytest.raises(TypeError):
            MaximalFamily(*bad)
    ones = MaximalFamily(True, 2, {True: ((True, 0),)})
    assert ones == (1, 2, {1: ((1, 0),)}) and type(ones.period) is int
    assert type(ones.levels[0]) is int and all(type(c) is int for c in ones.box(1)[0])


@pytest.mark.parametrize("elements", [[()], [(3,)], [(1, 2, 3)], [(1, 2), ()]])
def test_window_elements_of_another_dimension_are_refused(elements):
    with pytest.raises(ValueError, match="does not have dimension 2"):
        MaximalFamily.from_window_elements(5, 2, elements)


@pytest.mark.parametrize("period", [0, -3])
@pytest.mark.parametrize("elements", [[], [(1, 1)], [(1, 1), (7, 2)]])
def test_window_elements_with_a_period_below_one_are_refused(period, elements):
    with pytest.raises(ValueError, match="period must be positive"):
        MaximalFamily.from_window_elements(period, 2, elements)
    with pytest.raises(TypeError):
        MaximalFamily.from_window_elements(2.0, 2, elements)  # no float levels either


def test_relative_family_boxes():
    fam = relative_family(C59, 3)
    assert fam.period == 5
    assert {k: fam.box(k) for k in fam.levels} == {
        0: (((4, 4, 4)),),
        2: (((13, 3, 3)),),
        4: (((22, 2, 2)),),
        6: (((31, 1, 1)),),
    }


def test_translate_box_is_a_shift_of_the_level_box():
    fam = relative_family(C59, 3)
    # level 2 box shifted into the (0, 2, 0) cell
    assert translate_box(fam, (0, 2, 0)) == [(3, 13, 3)]
    # zero shift leaves level boxes alone
    assert translate_box(fam, (0, 0, 0)) == list(fam.box(0))
    assert translate_box(fam, (4, 0, 0)) == list(fam.box(4))
    # empty level stays empty after shifting
    assert translate_box(fam, (0, 1, 0)) == []
    assert translate_box(fam, (0, True, True)) == translate_box(fam, (0, 1, 1))


def test_translate_box_window(corpus):
    for curve in corpus[::6]:
        m, r = curve.m, curve.r
        if 3 > r - r // m:
            continue
        fam = relative_family(curve, 3)
        for ks in [(0, 1, 1), (2, 0, 1), (1, 1, 1)]:
            for t in translate_box(fam, ks):
                for k, c in zip(ks, t):
                    assert k * m <= c < (k + 1) * m


def test_family_cardinality():
    assert family_cardinality(relative_family(C59, 3), C59.genus) == 50
    assert family_cardinality(MaximalFamily(5, 3, {}), 16) == 0
    assert family_cardinality(relative_family(C34, 2), C34.genus) == 3
    for genus in (16.5, 16.0, "16"):
        with pytest.raises(TypeError):
            family_cardinality(relative_family(C59, 3), genus)


def test_family_cardinality_equals_exhaustive_union(corpus):
    for curve in corpus[::5]:
        m, r, g = curve.m, curve.r, curve.genus
        for n in (2, 3):
            if n > r - r // m:
                continue
            fam = relative_family(curve, n)
            bound = -(-(2 * g - 1) // m)
            seen = set()
            for k in range(bound):
                for comp in compositions(k, n):
                    cell = translate_box(fam, comp)
                    assert not (set(cell) & seen), "cells must be disjoint"
                    seen.update(cell)
            assert len(seen) == family_cardinality(fam, g)
            assert sorted(seen) == lambda_star(curve, n)


def test_family_cardinality_rejects_too_deep_levels():
    fam = MaximalFamily(3, 2, {40: ((120, 1),)})
    with pytest.raises(ValueError):
        family_cardinality(fam, 2)


def test_pure_gaps_from_relative_maximals():
    assert pure_gaps_from_relative_maximals([(4, 1), (1, 4), (2, 2)], 2) == [
        (1, 1),
        (1, 2),
        (2, 1),
    ]
    assert pure_gaps_from_relative_maximals([], 2) == []
    # a single incomparable-free set yields nothing
    assert pure_gaps_from_relative_maximals([(1, 1)], 2) == []
    with pytest.raises(ValueError):
        pure_gaps_from_relative_maximals([(1, 2, 3)], 2)
    with pytest.raises(ValueError):
        pure_gaps_from_relative_maximals([()], 0)


def ref_glbs(relative_maximals, n):
    # the nested search the decoupled walk replaced: choose beta^1, ..., beta^n
    # one by one, each checked pairwise against the earlier choices
    elems = sorted({tuple(e) for e in relative_maximals})
    out = set()
    chosen = []

    def extend(pos):
        if pos == n:
            out.add(tuple(chosen[j][j] for j in range(n)))
            return
        for cand in elems:
            if all(chosen[j][j] < cand[j] and cand[pos] < chosen[j][pos] for j in range(pos)):
                chosen.append(cand)
                extend(pos + 1)
                chosen.pop()

    extend(0)
    return sorted(out)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(*[st.integers(0, 12)] * n), max_size=25)
    )
))
def test_glb_route_matches_nested_search(case):
    n, elems = case
    got = pure_gaps_from_relative_maximals(elems, n)
    assert got == ref_glbs(elems, n)
    assert all(a < b for a, b in zip(got, got[1:]))


def test_glb_route_matches_oracle_on_small_curves(corpus):
    for curve in corpus:
        m, g = curve.m, curve.genus
        for n in range(2, min(curve.r - curve.r // m, 4) + 1):
            elems = lambda_star(curve, n)
            via_glb = pure_gaps_from_relative_maximals(elems, n)
            assert via_glb == pure_gap_box_scan(curve, n), (curve, n)
            assert via_glb == list(pure_gaps(curve, n)), (curve, n)
            if n <= 3:
                assert via_glb == ref_glbs(elems, n), (curve, n)
            # each capped route, as verify runs it, is the clipped full walk
            fam = relative_family(curve, n)
            assert pure_gaps_from_family(fam) == via_glb, (curve, n)
            for box in (0, 1, m, g, 2 * g):
                want = [t for t in via_glb if max(t) <= box]
                assert pure_gaps_from_family(fam, box) == want, (curve, n, box)
                assert list(pure_gaps(curve, n, box)) == want, (curve, n, box)
                assert pure_gap_box_scan(curve, n, box) == want, (curve, n, box)


@st.composite
def families(draw):
    # any level-box seed data, not only the Kummer windows: zero coordinates,
    # several elements per level and shared residues included
    period, n = draw(st.integers(1, 5)), draw(st.integers(2, 4))
    levels = draw(st.dictionaries(st.integers(0, 4), st.integers(1, 3), max_size=4))
    box0 = {
        k: [
            (k * period + draw(st.integers(0, period - 1)),)
            + tuple(draw(st.integers(0, period - 1)) for _ in range(n - 1))
            for _ in range(size)
        ]
        for k, size in levels.items()
    }
    return MaximalFamily(period, n, box0)


@settings(max_examples=300, deadline=None)
@given(families(), st.one_of(st.none(), st.integers(-1, 13)))
def test_family_route_matches_the_listed_translates(fam, box):
    # the seed walk against the clipped pool walk over every translate, listed
    translates = [
        t
        for k in fam.levels
        for comp in compositions(k, fam.n)
        for t in translate_box(fam, comp)
    ]
    want = pure_gaps_from_relative_maximals(translates, fam.n)
    assert pure_gaps_from_family(fam, box) == [t for t in want if box is None or max(t) <= box]


def test_family_route_inputs():
    fam = relative_family(C59, 3)
    assert pure_gaps_from_family(MaximalFamily(5, 3)) == []
    assert pure_gaps_from_family(fam, -1) == [] and pure_gaps_from_family(fam, True) == [(1, 1, 1)]
    for box in (2.5, "2"):
        with pytest.raises(TypeError):
            pure_gaps_from_family(fam, box)  # as the other routes
    with pytest.raises(TypeError):
        pure_gaps_from_family(MaximalFamily(5, 3), 2.5)  # checked before the empty shortcut


def test_permutation_closed():
    assert permutation_closed({(1, 1), (1, 2), (2, 1)})
    assert not permutation_closed({(1, 2)})
    assert permutation_closed(pure_gaps(C59, 3))
    assert permutation_closed([])
