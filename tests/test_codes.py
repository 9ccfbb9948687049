from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from puregaps import (
    HERMITIAN_SUBCOVER_ROWS,
    NORM_TRACE_LIKE_ROWS,
    CodeParams,
    CodeSpec,
    DegreeWindowError,
    KummerCurve,
    TableRowSpec,
    b_k,
    design_code,
    generate_tables,
    goppa_params,
    hermitian_subcover_points,
    is_pure_gap,
    max_level,
    norm_trace_like_points,
    shorten,
)
from puregaps import codes, gapsets
from puregaps.cli import main
from puregaps.codes import _params, family_curve_points
from puregaps.reference import carvalho_torres_bound

DATA = Path(__file__).parent / "data"


# --- baseline and improved distance floors ----------------------------------


def test_goppa_params():
    assert goppa_params(174, 26, 9) == (156, 10)
    assert goppa_params(175, 23, 7) == (158, 11)
    n, g = 100, 5
    assert goppa_params(n, 2 * g - 1, g) == (n - g, 1)
    for bad in [(100.5, 20, 5), (100, 20.0, 5), (100, 20, "5")]:
        with pytest.raises(TypeError):
            goppa_params(*bad)  # not (84.5, 12)


def test_goppa_window_errors():
    with pytest.raises(DegreeWindowError) as err:
        goppa_params(100, 8, 5)
    assert err.value.side == "lower" and err.value.degree == 8
    with pytest.raises(DegreeWindowError) as err:
        goppa_params(100, 100, 5)
    assert err.value.side == "upper"


def test_carvalho_torres_bound():
    assert carvalho_torres_bound(9, 26, 2, (13, 1), (13, 1)) == 26 - 16 + 2
    assert carvalho_torres_bound(16, 30, 3, (21, 1, 1), (22, 1, 1)) == 30 - 30 + 3 + 1
    with pytest.raises(ValueError):
        carvalho_torres_bound(9, 26, 2, (2, 1), (1, 1))
    with pytest.raises(ValueError):
        carvalho_torres_bound(9, 26, 2, (1, 1, 1), (2, 2))


# --- the designer -----------------------------------------------------------


def test_design_code_table_rows():
    c47 = KummerCurve(4, 7)
    got = design_code(CodeSpec(c47, 2, 3, (3, 0), (1, 1), 174))
    assert (got.length, got.dimension, got.distance_lb) == (174, 156, 12)
    assert got.degree == 26 and got.rate_sum == Fraction(28, 29)

    c59 = KummerCurve(5, 9)
    got = design_code(CodeSpec(c59, 3, 4, (4, 0, 0), (1, 1, 1), 367))
    assert (got.length, got.dimension, got.distance_lb) == (367, 338, 18)

    c38 = KummerCurve(3, 8, 7)
    got = design_code(CodeSpec(c38, 2, 3, (3, 0), (1, 1), 175))
    assert (got.length, got.dimension, got.distance_lb) == (175, 161, 10)


def test_design_code_window_errors():
    c47 = KummerCurve(4, 7)
    with pytest.raises(DegreeWindowError) as err:
        design_code(CodeSpec(c47, 2, 0, (0, 0), (1, 1), 174))
    assert err.value.side == "lower" and err.value.degree == 5
    with pytest.raises(DegreeWindowError) as err:
        design_code(CodeSpec(c47, 2, 3, (3, 0), (1, 1), 20))
    assert err.value.side == "upper" and err.value.degree == 26


def test_code_spec_validation():
    c47 = KummerCurve(4, 7)
    with pytest.raises(ValueError):
        CodeSpec(c47, 2, 3, (2, 0), (1, 1), 174)  # partition sum != k
    with pytest.raises(ValueError):
        CodeSpec(c47, 2, 3, (3, -1), (1, 1), 174)
    with pytest.raises(ValueError):
        CodeSpec(c47, 2, 3, (3, 0), (2, 1), 174)  # offsets leave B_3 (bounds (1,1))
    with pytest.raises(ValueError):
        CodeSpec(c47, 2, 5, (5, 0), (1, 1), 174)  # level past the last nonempty box
    with pytest.raises(ValueError):
        CodeSpec(c47, 2, 3, (3, 0, 0), (1, 1), 174)  # one partition entry per place
    # integer fields: no deg(G) = 5.5 from a float offset
    for bad in [(2, 0, (0, 0), (1.5, 1), 100), (2, 0, (0.0, 0), (1, 1), 100),
                (2, 0, (0, 0), (1, 1), 100.0), (2.0, 0, (0, 0), (1, 1), 100)]:
        with pytest.raises(TypeError):
            CodeSpec(c47, *bad)
    spec = CodeSpec(c47, 2, 3, [3, False], [True, 1], 174)
    assert spec == (c47, 2, 3, (3, 0), (1, 1), 174) and type(spec.a[0]) is int


DESIGN_CASES = [
    (KummerCurve(4, 7), 2, 174),
    (KummerCurve(5, 9), 2, 368),
    (KummerCurve(5, 9), 3, 367),
    (KummerCurve(3, 8, 7), 2, 175),
    (KummerCurve(9, 8, 7), 2, 511),
]


def test_design_matches_component_bounds():
    # dimension via the genus-degree count, distance via the pure-gap interval bound
    for curve, n, length in DESIGN_CASES:
        m, r, g = curve.m, curve.r, curve.genus
        by_sum = {}  # a cell is read through its offset sum alone
        for k in range(max_level(curve, n) + 1):
            box = b_k(curve, n, k)
            for a in product(*(range(1, b + 1) for b in box.bounds)):
                partition = (k,) + (0,) * (n - 1)
                try:
                    got = design_code(CodeSpec(curve, n, k, partition, a, length))
                except DegreeWindowError as err:
                    assert by_sum.setdefault((k, sum(a)), err.side) == err.side
                    continue
                assert by_sum.setdefault((k, sum(a)), got) == got, (curve, n, k, a)
                kdim, d_plain = goppa_params(length, got.degree, g)
                assert got.dimension == kdim
                alpha = tuple(p * m + x for p, x in zip(partition, a))
                beta = tuple(p * m + b for p, b in zip(partition, box.bounds))
                assert got.distance_lb == carvalho_torres_bound(g, got.degree, n, alpha, beta)
                assert got.distance_lb >= d_plain
                assert got.dimension + got.distance_lb <= got.length + 1  # Singleton
                assert got.rate_sum == Fraction(got.dimension + got.distance_lb, got.length)


def test_parameters_independent_of_partition():
    c59 = KummerCurve(5, 9)
    rows = set()
    for partition in [(4, 0, 0), (0, 4, 0), (2, 1, 1), (1, 1, 2)]:
        got = design_code(CodeSpec(c59, 3, 4, partition, (1, 1, 1), 367))
        rows.add((got.length, got.dimension, got.distance_lb, got.degree))
    assert len(rows) == 1


def test_interval_of_offsets_is_all_pure_gaps():
    # the box property behind the improved floor, checked against the oracle on every table
    # row and design case: each tuple of [p*m + 1, p*m + b], p = (k, 0, ..., 0), b = B_k's bounds
    cells = [
        (family_curve_points(s.family, s.q, s.m, s.t)[0], s.n, s.k)
        for s in HERMITIAN_SUBCOVER_ROWS + NORM_TRACE_LIKE_ROWS
    ]
    cells += [(c, n, k) for c, n, _ in DESIGN_CASES for k in range(max_level(c, n) + 1)]
    for curve, n, k in cells:
        box = b_k(curve, n, k)
        assert not box.empty, (curve, n, k)
        low = (k * curve.m,) + (0,) * (n - 1)
        for alpha in product(*(range(p + 1, p + b + 1) for p, b in zip(low, box.bounds))):
            assert is_pure_gap(curve, alpha), (curve, n, k, alpha)


def test_distance_floor_clamp():
    params = _params(100, 90, -3, 50)
    assert params.distance_lb == 1 and params.clamped
    assert not _params(100, 90, 5, 50).clamped


# --- shortening --------------------------------------------------------------


def test_shorten():
    base = CodeParams(367, 338, 18, 44, Fraction(356, 367))
    assert shorten(base, 0) == base
    got = shorten(base, 7)
    assert (got.length, got.dimension, got.distance_lb) == (360, 331, 18)
    long = CodeParams(510, 489, 30, 80, Fraction(519, 510))
    got = shorten(long, 110)
    assert (got.length, got.dimension, got.distance_lb) == (400, 379, 30)
    clamped = _params(100, 90, -3, 50)
    got = shorten(clamped, 10)
    assert got == CodeParams(90, 80, 1, 50, Fraction(81, 90), True) and got.clamped
    with pytest.raises(ValueError):
        shorten(base, 338)
    with pytest.raises(ValueError):
        shorten(base, -1)
    for s in (2.0, "2", 2.5):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            shorten(base, s)  # refused at the argument, not inside Fraction


# --- rational point counts ----------------------------------------------------


def test_hermitian_subcover_points():
    assert hermitian_subcover_points(7, 4) == 176
    assert hermitian_subcover_points(9, 5) == 370
    assert hermitian_subcover_points(8, 3) == 177
    with pytest.raises(ValueError):
        hermitian_subcover_points(7, 3)  # 3 does not divide 8
    with pytest.raises(ValueError, match="need q >= 2 and m >= 2"):
        hermitian_subcover_points(1, 2)
    for q, m in [(7.0, 4), (7, 4.0), ("7", 4)]:
        with pytest.raises(TypeError):
            hermitian_subcover_points(q, m)  # not 176.0


def test_norm_trace_like_points():
    assert norm_trace_like_points(2, 6, 3) == 177
    assert norm_trace_like_points(2, 6, 9) == 513
    assert norm_trace_like_points(3, 4, 5) == 370
    with pytest.raises(ValueError):
        norm_trace_like_points(2, 5, 3)  # odd t
    with pytest.raises(ValueError):
        norm_trace_like_points(2, 6, 4)  # 4 does not divide 63
    with pytest.raises(ValueError):
        norm_trace_like_points(2, 6, 7)  # shares a factor with q^(t/2) - 1
    # q and m are checked first, with the message of hermitian_subcover_points
    for q, t, m in [(-1, 2, 3), (0, 2, 1), (1, 2, 3), (2, 6, 1), (3, 4, 0)]:
        with pytest.raises(ValueError, match="need q >= 2 and m >= 2"):
            norm_trace_like_points(q, t, m)
    for q, t, m in [(2.0, 6, 3), (2, 6.0, 3), (2, 6, 3.0)]:
        with pytest.raises(TypeError):
            norm_trace_like_points(q, t, m)


# --- table reproduction --------------------------------------------------------


def _render(rows, with_t):
    head = "q,t,m,n,k,a,N,kdim,dlb" if with_t else "q,m,n,k,a,N,kdim,dlb"
    lines = [head]
    for row in rows:
        cells = [row["q"], row["t"], row["m"], row["n"], row["k"], row["a"],
                 row["N"], row["kdim"], row["dlb"]]
        if not with_t:
            cells.pop(1)
        lines.append(",".join(str(c) for c in cells))
    return "\n".join(lines) + "\n"


def test_tables_reproduce_fixtures_exactly():
    got1 = _render(generate_tables(HERMITIAN_SUBCOVER_ROWS), with_t=False)
    assert got1 == (DATA / "table1.csv").read_text()
    got2 = _render(generate_tables(NORM_TRACE_LIKE_ROWS), with_t=True)
    assert got2 == (DATA / "table2.csv").read_text()


def test_table_rows_design_the_first_box_vector_with_each_sum():
    # a one-sum row is refused exactly when no box vector has the sum, and is otherwise the
    # design of the lexicographically first such vector at partition (k, 0, ..., 0)
    def outcome(call):
        try:
            return [(p.length, p.dimension, p.distance_lb, p.degree, p.rate_sum) for p in call()]
        except DegreeWindowError as err:
            return err.side, err.degree

    for spec in HERMITIAN_SUBCOVER_ROWS + NORM_TRACE_LIKE_ROWS:
        curve, points = family_curve_points(spec.family, spec.q, spec.m, spec.t)
        for n in range(2, min(curve.r, 5) + 1):
            for k in range(max_level(curve, n) + 2):  # one level past the last is empty
                box = b_k(curve, n, k)
                first = {}
                for a in product(*(range(1, b + 1) for b in box.bounds)):
                    first.setdefault(sum(a), a)
                for target in range(n - 1, max(sum(box.bounds), n) + 2):
                    row = TableRowSpec(spec.family, spec.q, spec.m, n, k, (target,), spec.t)
                    if target not in first:
                        with pytest.raises(ValueError, match=f"sums to {target}$"):
                            generate_tables([row])
                        continue
                    got = outcome(lambda: [
                        CodeParams(d["N"], d["kdim"], d["dlb"], d["degG"], Fraction(d["ratesum"]))
                        for d in generate_tables([row])
                    ])
                    partition = (k,) + (0,) * (n - 1)
                    spec_a = CodeSpec(curve, n, k, partition, first[target], points - n)
                    assert got == outcome(lambda: [design_code(spec_a)]), (spec, n, k, target)


def test_table_rows_refuse_a_float_offset_sum():
    for k, a_values in [(1, (2.5,)), (2, (2.5,)), (3, (2.0,)), (3, (2, 3.0))]:
        with pytest.raises(TypeError):
            generate_tables([TableRowSpec("hermitian-subcover", 7, 4, 2, k, a_values)])


def test_generate_tables_empty():
    assert generate_tables([]) == []


def test_tables_build_each_cell_box_once(monkeypatch, capsys):
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return b_k(*args)

    monkeypatch.setattr(gapsets, "b_k", counting)
    monkeypatch.setattr(codes, "b_k", counting)
    # the norm-trace-like (2, 9, 6) sweep: 21 cells, 252 offset sums, 46 rows in the code window
    argv = ["codes", "table", "--family", "norm-trace-like", "--q", "2", "--m", "9", "--t", "6"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 46
    assert calls == 21
    calls = 0
    generate_tables(NORM_TRACE_LIKE_ROWS)
    assert calls == len(NORM_TRACE_LIKE_ROWS)


def test_family_curve_points():
    # point counts are N + n of the rows in tests/data
    assert family_curve_points("hermitian-subcover", 7, 4, None) == (KummerCurve(4, 7), 174 + 2)
    assert family_curve_points("norm-trace-like", 2, 9, 6) == (KummerCurve(9, 8, 7), 511 + 2)
    assert family_curve_points("norm-trace-like", 3, 5, 4) == (KummerCurve(5, 9, 8), 367 + 3)
    with pytest.raises(ValueError, match="unknown family"):
        family_curve_points("hermitian", 7, 4, None)
    # an instance bad on both counts: hermitian checks the curve first, norm-trace-like the points
    with pytest.raises(ValueError, match="gcd"):
        family_curve_points("hermitian-subcover", 4, 2, None)
    with pytest.raises(ValueError, match="coprime"):
        family_curve_points("norm-trace-like", 4, 3, 2)


@pytest.mark.parametrize(
    "family, q, m, t, message",
    [
        ("hermitian-subcover", 7, 4, 6, "--t applies only to the norm-trace-like family"),
        ("hermitian-subcover", 4, 2, 6, "--t applies only to the norm-trace-like family"),
        ("norm-trace-like", 2, 9, None, "the norm-trace-like family needs --t"),
        ("norm-trace-like", 4, 3, None, "the norm-trace-like family needs --t"),
    ],
)
def test_family_t_rule_is_checked_first(family, q, m, t, message):
    # the second instance of each family also fails its curve or point-count check
    with pytest.raises(ValueError, match=f"^{message}$"):
        family_curve_points(family, q, m, t)
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate_tables([TableRowSpec(family, q, m, 2, 3, (2,), t=t)])
