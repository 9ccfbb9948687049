from itertools import combinations_with_replacement
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from puregaps import (
    KummerCurve,
    NOutOfRangeError,
    b_k,
    compositions,
    is_pure_gap,
    lambda_star,
    max_level,
    plot_data,
    pure_gap_box_scan,
    pure_gap_count,
    pure_gap_count_multiple_plus_one,
    pure_gap_count_two_places,
    pure_gaps,
    union_count,
)
from puregaps import gapsets
from puregaps.gapsets import _BlockWalk, _level_bounds, pure_gap_blocks
from puregaps.reference import (
    class_count,
    class_level_count,
    permutation_closed,
    permutation_union,
    union_count_bruteforce,
)

C34 = KummerCurve(3, 4)
C59 = KummerCurve(5, 9)


# --- level boxes -----------------------------------------------------------


def test_b_k_bounds():
    assert b_k(C59, 3, 0).bounds == (4, 3, 3)
    assert b_k(C59, 3, 4).bounds == (2, 1, 1)
    assert b_k(C34, 2, 0).bounds == (2, 1)


def test_b_k_empty_marker():
    box = b_k(C59, 3, 5)
    assert box.empty and permutation_union(box.bounds) == []
    assert not b_k(C59, 3, 4).empty
    assert max_level(C59, 3) == 4


def test_b_k_bounds_non_increasing(corpus):
    # every level up to max_level has bounds >= 1, every later one is empty
    for curve in corpus:
        for n in range(2, curve.r + 1):
            top = max_level(curve, n)
            for k in range(top + 1):
                box = b_k(curve, n, k)
                bounds = box.bounds
                assert all(bounds[i] >= bounds[i + 1] for i in range(n - 1))
                assert bounds[-1] >= 1
            for k in range(max(top + 1, 0), top + 4):
                box = b_k(curve, n, k)
                assert box.empty and permutation_union(box.bounds) == []
            assert _level_bounds(curve, n) == [b_k(curve, n, k).bounds for k in range(top + 1)]


def test_b_k_validation():
    with pytest.raises(NOutOfRangeError):
        b_k(C59, 1, 0)
    with pytest.raises(NOutOfRangeError):
        b_k(C59, 10, 0)
    with pytest.raises(ValueError):
        b_k(C59, 3, -1)
    for k in (1.5, 2.0, "3", None):
        with pytest.raises(TypeError):
            b_k(C59, 3, k)  # no float bounds, no parsed level
        with pytest.raises(TypeError):
            max_level(C59, k)  # 2.0 would give the float 6.0
    assert max_level(C59, True) == max_level(C59, 1)


def cell(curve, n, k):
    """The pure gaps in the level-k cell on the first axis: (k*m, 0, ..., 0) + the union."""
    union = permutation_union(b_k(curve, n, k).bounds)
    return [(k * curve.m + t[0],) + t[1:] for t in union]


def test_g_k_zero():
    assert cell(C59, 3, 4) == [(21, 1, 1), (21, 1, 2), (21, 2, 1), (22, 1, 1)]
    assert len(cell(C59, 3, 0)) == 54
    assert cell(C34, 2, 0) == [(1, 1), (1, 2), (2, 1)]
    assert cell(C59, 3, 5) == []


# --- the enumeration stream ------------------------------------------------


def test_pure_gaps_small_curve():
    assert list(pure_gaps(C34, 2)) == [(1, 1), (1, 2), (2, 1)]


def test_pure_gaps_count_and_order():
    got = list(pure_gaps(C59, 3))
    assert len(got) == 382
    assert got == sorted(got)
    assert len(set(got)) == len(got)  # cells are disjoint


def test_pure_gaps_empty_for_tiny_curve():
    assert list(pure_gaps(KummerCurve(3, 2), 2)) == []
    assert pure_gap_count(KummerCurve(3, 2), 2) == 0


def test_pure_gaps_rejects_bad_n():
    with pytest.raises(NOutOfRangeError):
        pure_gaps(C59, 1)  # on the call, before the first tuple
    with pytest.raises(NOutOfRangeError):
        pure_gap_blocks(C59, 10, str)
    with pytest.raises(NOutOfRangeError):
        list(pure_gaps(C59, 1))
    with pytest.raises(NOutOfRangeError):
        pure_gap_count(C59, 10)


def test_pure_gaps_match_oracle_small_sweep():
    for m, r in [(3, 4), (2, 5), (4, 3), (3, 5)]:
        curve = KummerCurve(m, r)
        for n in (2, 3):
            if n > curve.r:
                continue
            assert sorted(pure_gaps(curve, n)) == pure_gap_box_scan(curve, n)


def test_pure_gaps_are_pure_gaps():
    for alpha in pure_gaps(C34, 2):
        assert is_pure_gap(C34, alpha)


def cell_union(curve, n):
    """The pure gaps as the sorted union of the translated permutation-union cells."""
    m = curve.m
    out = []
    for k in range(max_level(curve, n) + 1):
        union = permutation_union(b_k(curve, n, k).bounds)
        for comp in compositions(k, n):
            out.extend(tuple(c * m + x for c, x in zip(comp, u)) for u in union)
    return sorted(out)


def assert_stream_is_cell_union(curve, n):
    got = list(pure_gaps(curve, n))
    assert got == cell_union(curve, n)
    assert all(a < b for a, b in zip(got, got[1:]))
    assert len(got) == pure_gap_count(curve, n)


def class_key(prefix, m):
    """A prefix's class as the walk keys it: its residues sorted descending, and its level."""
    cs, us = zip(*(divmod(t - 1, m) for t in prefix)) if prefix else ((), ())
    return tuple(sorted((u + 1 for u in us), reverse=True)), sum(cs)


def tuple_leaf(t):
    return (t,)


def fresh_walk(curve, n, box=None, leaf=tuple_leaf):
    return _BlockWalk(curve.m, n, _level_bounds(curve, n), leaf, box)


ROW_CASES = [(5, 9, 3), (7, 12, 4), (4, 11, 2), (3, 16, 5), (3, 2, 2), (5, 9, 6), (7, 6, 4), (3, 4, 3)]


@pytest.mark.parametrize("m,r,n", ROW_CASES)
def test_pure_gap_rows_and_blocks_are_shared_by_class(m, r, n):
    curve = KummerCurve(m, r)
    assert _level_bounds(curve, n) == [b_k(curve, n, k).bounds for k in range(max_level(curve, n) + 1)]
    walk = fresh_walk(curve, n)
    blocks, rows, listed, deep = {}, {}, [], 0
    for prefix, row in walk.walk((), (), 0):
        pairs = list(row)
        listed.append((prefix, pairs))
        ts = [t for t, _ in pairs]
        assert len(prefix) == n - 2 and ts and ts == sorted(set(ts))
        for t, block in pairs:
            # a block is shared by every (n-1)-prefix of its class
            assert block and blocks.setdefault(class_key(prefix + (t,), m), block) is block
        if len(prefix) >= 2:
            deep += 1
            # the row is kept once, whole, and every later prefix of its class reads that list
            stored = walk.rows[class_key(prefix, m)]
            assert rows.setdefault(class_key(prefix, m), stored) is stored
            assert len(stored) == len(pairs) and all(a is b for a, (_, b) in zip(stored, pairs))
    assert walk.rows.keys() == rows.keys() and walk.blocks.keys() == blocks.keys()
    if n <= 3:
        assert walk.rows == {}  # a 1-prefix is alone in its class, so no row is kept
    elif listed:
        assert len(rows) < deep  # some class has more than one prefix
    public = [(prefix, list(row)) for prefix, row in pure_gap_blocks(curve, n, tuple_leaf)]
    assert public == listed
    tuples = [prefix + (t,) + leaf for prefix, pairs in listed for t, block in pairs for leaf in block]
    assert tuples == list(pure_gaps(curve, n)) == cell_union(curve, n)


@pytest.mark.parametrize("m,r,n", [(5, 9, 3), (7, 12, 4), (5, 9, 6), (4, 11, 2)])
def test_first_tuple_builds_one_block(monkeypatch, m, r, n):
    walks = []

    class Recorded(_BlockWalk):
        def __init__(self, *args):
            super().__init__(*args)
            walks.append(self)

    monkeypatch.setattr(gapsets, "_BlockWalk", Recorded)
    assert next(pure_gaps(KummerCurve(m, r), n)) == (1,) * n
    assert len(walks) == 1 and len(walks[0].blocks) == 1 and walks[0].rows == {}


@pytest.mark.parametrize("m,r,n", [(7, 12, 4), (3, 16, 5), (5, 9, 6)])
def test_an_abandoned_row_is_not_kept(m, r, n):
    curve = KummerCurve(m, r)
    whole = [(prefix, list(row)) for prefix, row in fresh_walk(curve, n).walk((), (), 0)]
    walk = fresh_walk(curve, n)
    abandoned, last, halfway, reread, count = set(), None, 0, 0, 0
    for count, ((prefix, row), want) in enumerate(zip(walk.walk((), (), 0), whole), 1):
        assert last not in walk.rows  # the row left half-way last time was not kept
        key, last = class_key(prefix, m), None
        if key in walk.rows or key in abandoned:
            reread += key in walk.rows
            assert (prefix, list(row)) == want
        else:  # the first prefix of each class reads one pair and moves on
            assert (prefix, [next(row)]) == (want[0], want[1][:1])
            abandoned.add(key)
            last, halfway = key, halfway + (len(want[1]) > 1)
    assert halfway and reread and count == len(whole)


# the curves of the benchmark's stream workload, 1e4 to 4e4 pure gaps each
STREAM_POOL = (
    (9, 13, 3), (11, 12, 3), (7, 23, 3), (13, 12, 3),
    (8, 9, 4), (7, 12, 4), (11, 8, 4), (9, 10, 4),
)


@pytest.mark.parametrize("m,r,n", STREAM_POOL)
def test_pure_gaps_match_cell_union_on_stream_curves(m, r, n):
    assert_stream_is_cell_union(KummerCurve(m, r), n)


COPRIME = [(m, r) for m in range(2, 15) for r in range(2, 17) if gcd(m, r) == 1]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(COPRIME), st.integers(2, 6))
def test_pure_gaps_match_cell_union_random(mr, n):
    curve = KummerCurve(*mr)
    assume(n <= curve.r and pure_gap_count(curve, n) <= 50_000)  # keeps each example well under 1 s
    assert_stream_is_cell_union(curve, n)


def assert_capped_stream_is_clipped(curve, n, full, box):
    want = [t for t in full if max(t) <= box]
    assert list(pure_gaps(curve, n, box)) == want, (curve, n, box)
    rows = [list(row) for _, row in pure_gap_blocks(curve, n, tuple_leaf, box)]
    if box < 1:
        assert rows == [], (curve, n, box)
    else:
        assert all(pairs and all(block for _, block in pairs) for pairs in rows), (curve, n, box)
    # the walk memoizes no empty range and none past the box
    walk = fresh_walk(curve, n, box, str)
    for _, row in walk.walk((), (), 0):
        for _ in row:
            pass
    assert all(lo < hi <= box + 1 for found in walk.memo.values() for lo, hi in found), (curve, n, box)


def test_capped_stream_is_the_clipped_stream(corpus):
    for curve in corpus:
        m, g = curve.m, curve.genus
        for n in range(2, min(curve.r, 5) + 1):
            full = list(pure_gaps(curve, n))
            for box in (0, 1, m, g, 2 * g):
                assert_capped_stream_is_clipped(curve, n, full, box)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(COPRIME), st.integers(2, 6), st.integers(-1, 60))
def test_capped_stream_is_the_clipped_stream_random(mr, n, box):
    curve = KummerCurve(*mr)
    assume(n <= curve.r and pure_gap_count(curve, n) <= 50_000)
    assert_capped_stream_is_clipped(curve, n, list(pure_gaps(curve, n)), box)


# --- the counting recursion -------------------------------------------------


def test_union_count_base_cases():
    assert union_count((7,)) == 7
    assert union_count((2, 1)) == 3
    assert union_count((4, 3, 3)) == 54
    assert union_count((5, 4, 3)) == 108  # consecutive: 3 * 6^2
    assert union_count((True, 1)) == 1
    with pytest.raises(ValueError):
        union_count(())


@pytest.mark.parametrize("bounds", [(2.5, 1.9), (3.0, 2), ("3", "2")])
def test_union_count_rejects_non_integer_bounds(bounds):
    # no truncation to (2, 1) and no parsing to (3, 2)
    with pytest.raises(TypeError):
        union_count(bounds)


def test_union_count_bruteforce():
    assert union_count_bruteforce((2, 1)) == 3
    assert union_count_bruteforce((1, 1, 1, 1)) == 1
    assert union_count_bruteforce((4, 3, 3)) == 54
    for a in ((2, 1), (1, 1, 1, 1), (4, 3, 3), (8, 5, 5, 2, 1)):
        assert union_count_bruteforce(a) == len(permutation_union(a)), a


def test_union_count_bruteforce_budget():
    with pytest.raises(ValueError):
        union_count_bruteforce((9, 1))
    with pytest.raises(ValueError):
        union_count_bruteforce((2, 2, 2, 2, 2, 2))
    with pytest.raises(ValueError):
        union_count_bruteforce((1, 2))  # not non-increasing
    with pytest.raises(ValueError):
        union_count_bruteforce((2, 0))
    for bounds in [("3", "2"), (2.5, 1)]:
        with pytest.raises(TypeError):
            union_count_bruteforce(bounds)  # as union_count: not 8 by parsing, not 3 by truncation


def test_permutation_union_lists_the_union_count(corpus):
    # every level box of the corpus to n = 6: past that, permuting the all-ones box alone
    # walks n! orderings
    boxes = 0
    for curve in corpus:
        for n in range(2, min(curve.r, 6) + 1):
            for k in range(max_level(curve, n) + 1):
                bounds = b_k(curve, n, k).bounds
                union = permutation_union(bounds)
                assert all(a < b for a, b in zip(union, union[1:])), (curve, n, k)
                assert permutation_closed(union), (curve, n, k)
                assert len(union) == union_count(bounds), (curve, n, k)
                boxes += 1
    assert boxes == 237
    assert permutation_union((2, 1)) == [(1, 1), (1, 2), (2, 1)]
    assert permutation_union((3, 0)) == permutation_union((1, -1, 1)) == []


def test_union_count_matches_bruteforce():
    for n in range(1, 4):
        for tup in combinations_with_replacement(range(5, 0, -1), n):
            a = tuple(sorted(tup, reverse=True))
            assert union_count(a) == union_count_bruteforce(a), a


@given(st.lists(st.integers(0, 9), min_size=1, max_size=4), st.integers(1, 3))
def test_union_count_homogeneity(a, u):
    assert union_count([u * x for x in a]) == u ** len(a) * union_count(a)


@given(st.integers(1, 8), st.integers(1, 5))
def test_union_count_consecutive_sequence(last, n):
    a = tuple(last + n - i for i in range(1, n + 1))
    assert union_count(a) == last * (last + n) ** (n - 1)


# --- cardinality closed forms -----------------------------------------------


def test_pure_gap_count_examples():
    assert pure_gap_count(C59, 3) == 382
    assert pure_gap_count(C34, 2) == 3
    assert pure_gap_count(KummerCurve(3, 2), 2) == 0


def test_count_matches_stream(corpus):
    for curve in corpus[::3]:
        for n in (2, 3):
            if n > curve.r:
                continue
            assert pure_gap_count(curve, n) == sum(1 for _ in pure_gaps(curve, n))


def test_two_place_count():
    assert pure_gap_count_two_places(C34) == 3
    assert pure_gap_count_two_places(KummerCurve(3, 2)) == 0


def test_two_place_count_matches_general(corpus):
    for curve in corpus:
        assert pure_gap_count_two_places(curve) == pure_gap_count(curve, 2)


def test_multiple_plus_one_count():
    c54 = KummerCurve(5, 4)
    assert pure_gap_count_multiple_plus_one(c54, 2, 1) == 14 == pure_gap_count(c54, 2)
    # boundary n = r - 1 collapses to a single level
    assert pure_gap_count_multiple_plus_one(c54, 3, 1) == 16 == pure_gap_count(c54, 3)
    with pytest.raises(ValueError):
        pure_gap_count_multiple_plus_one(C59, 3, 1)  # 5 != 9u + 1
    with pytest.raises(ValueError):
        pure_gap_count_multiple_plus_one(c54, 2, 0)
    # u and n are integers: u = 1.0 would turn the count into the float 14.0
    for n, u in ((2, 1.0), (2.0, 1), (2, "1")):
        with pytest.raises(TypeError):
            pure_gap_count_multiple_plus_one(c54, n, u)
    assert pure_gap_count_multiple_plus_one(c54, 2, True) == 14


def test_class_count_matches_pure_gap_count():
    cases = 0
    for m in range(2, 14):
        for r in range(2, 14):
            if gcd(m, r) == 1:
                curve = KummerCurve(m, r)
                for n in range(2, r + 1):
                    assert class_count(curve, n) == pure_gap_count(curve, n), (m, r, n)
                    cases += 1
    assert cases == 603


@pytest.mark.parametrize(
    "m, r, n, u", [(41, 40, 16, 1), (41, 40, 20, 1), (41, 40, 39, 1), (83, 41, 16, 2)]
)
def test_class_count_matches_multiple_plus_one(m, r, n, u):
    curve = KummerCurve(m, r)
    assert class_count(curve, n) == pure_gap_count_multiple_plus_one(curve, n, u)


def test_class_level_count_is_the_level_union_count(corpus):
    levels = 0
    for curve in corpus:
        for n in range(2, curve.r + 1):
            top = max_level(curve, n)
            for k in range(top + 1):
                want = union_count(b_k(curve, n, k).bounds)
                assert class_level_count(curve, n, k) == want, (curve, n, k)
                levels += 1
            assert class_level_count(curve, n, max(top + 1, 0)) == 0, (curve, n)
    assert levels == 258


def test_permutation_closure_of_pure_gaps(corpus):
    for curve in corpus[::4]:
        for n in (2, 3):
            if n > curve.r:
                continue
            assert permutation_closed(pure_gaps(curve, n))


# --- plot payload ------------------------------------------------------------


def test_plot_data_cube_inventory():
    data = plot_data(C59)
    assert len(data.cubes) == 35  # 1 + 3 + 6 + 10 + 15 cells
    by_level = {}
    for cube in data.cubes:
        by_level.setdefault(cube.level, []).append(cube)
        assert cube.side == 5
    assert {k: len(v) for k, v in by_level.items()} == {0: 1, 1: 3, 2: 6, 3: 10, 4: 15}
    assert {k: v[0].count for k, v in by_level.items()} == {0: 54, 1: 26, 2: 20, 3: 7, 4: 4}
    assert sum(c.count for c in data.cubes) == 382
    assert len(data.relative_maximals) == 50


def test_plot_data_counts_match_multiplicities():
    data = plot_data(C59)
    for cube in data.cubes:
        assert sum(o // 5 for o in cube.origin) == cube.level
    levels = [c.level for c in data.cubes]
    for k in range(5):
        assert levels.count(k) == comb(k + 2, 2)


def test_plot_data_empty_case():
    data = plot_data(KummerCurve(3, 4))
    assert data.cubes == ()


def test_plot_data_rejects_other_n():
    with pytest.raises(NOutOfRangeError):
        plot_data(C59, n=2)


def test_plot_data_json_schema():
    payload = plot_data(C59).to_json()
    assert set(payload) == {"cubes", "lambda_star"}
    first = payload["cubes"][0]
    assert set(first) == {"origin", "side", "count", "class"}
    assert first == {"origin": [0, 0, 0], "side": 5, "count": 54, "class": 0}
    assert [26, 1, 1] not in payload["lambda_star"]
    assert [31, 1, 1] in payload["lambda_star"]
