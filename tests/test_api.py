"""The public surface: what ``puregaps`` exports, and the names the benchmark reads."""

import argparse
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import puregaps
from puregaps import (
    HERMITIAN_SUBCOVER_ROWS,
    INFINITY,
    CodeSpec,
    KummerCurve,
    MaximalFamily,
    Place,
    b_k,
    design_code,
    ell,
    h_one_place,
    plot_data,
)

SRC = Path(__file__).resolve().parent.parent / "src"

API = [
    "BkBox",
    "CodeParams",
    "CodeSpec",
    "Cube",
    "CubeData",
    "DegreeWindowError",
    "Divisor",
    "HERMITIAN_SUBCOVER_ROWS",
    "INFINITY",
    "KummerCurve",
    "MaximalFamily",
    "NORM_TRACE_LIKE_ROWS",
    "NOutOfRangeError",
    "OnePlaceGaps",
    "PeriodSearchError",
    "Place",
    "TableRowSpec",
    "absolute_family",
    "absolute_maximals_window_scan",
    "b_k",
    "compositions",
    "design_code",
    "divisor_from_tuple",
    "ell",
    "family_cardinality",
    "gamma_hat_box",
    "gamma_star",
    "generate_tables",
    "goppa_params",
    "h_one_place",
    "hermitian_subcover_points",
    "in_generalized_semigroup",
    "is_absolute_maximal",
    "is_discrepancy",
    "is_pure_gap",
    "is_relative_maximal",
    "lambda_hat_box",
    "lambda_star",
    "max_level",
    "norm_trace_like_points",
    "plot_data",
    "pure_gap_box_scan",
    "pure_gap_count",
    "pure_gap_count_multiple_plus_one",
    "pure_gap_count_two_places",
    "pure_gaps",
    "pure_gaps_from_family",
    "relative_family",
    "relative_maximals_window_scan",
    "shorten",
    "union_count",
    "verify_period",
]

# The names the benchmark (perfbench/) and its tracer look up, by module.  They
# stay where they are until a change to the benchmark moves them.
BENCHMARK_NAMES = {
    "curves": ["Divisor", "KummerCurve", "INFINITY"],
    "riemann_roch": [
        "ell",
        "is_pure_gap",
        "is_discrepancy",
        "verify_period",
        "absolute_maximals_window_scan",
        "relative_maximals_window_scan",
        "_per_residue",
        "is_absolute_maximal",
        "is_relative_maximal",
        "in_generalized_semigroup",
    ],
    "boxes": ["family_cardinality"],
    "maximals": [
        "gamma_hat_box", "lambda_hat_box", "h_one_place", "absolute_family", "relative_family",
        "gamma_star", "lambda_star",
    ],
    "gapsets": [
        "pure_gaps",
        "pure_gap_count",
        "pure_gap_count_two_places",
        "pure_gap_count_multiple_plus_one",
        "plot_data",
        "b_k",
        "union_count",
    ],
    "codes": ["generate_tables", "HERMITIAN_SUBCOVER_ROWS", "NORM_TRACE_LIKE_ROWS"],
    "cli": ["main", "build_parser"],
}


def fresh_process_output(code: str) -> str:
    """The stdout of ``python -c code`` in a new interpreter that imports puregaps from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


def test_public_surface():
    assert sorted(puregaps.__all__) == API
    for name in API:
        assert getattr(puregaps, name) is not None, name

    # the test oracles are not loaded with the package, its CLI included
    probe = "import sys, puregaps.cli; print('puregaps.reference' in sys.modules)"
    assert fresh_process_output(probe) == "False"

    for module_name, names in BENCHMARK_NAMES.items():
        module = importlib.import_module(f"puregaps.{module_name}")
        for name in names:
            assert hasattr(module, name), f"puregaps.{module_name}.{name}"
    # the tracer counts union_count through a global defined in its own module
    assert puregaps.gapsets.union_count.__module__ == "puregaps.gapsets"
    # setup_s times a fresh import plus build_parser() with no arguments
    assert not inspect.signature(puregaps.cli.build_parser).parameters
    assert isinstance(puregaps.cli.build_parser(), argparse.ArgumentParser)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each dataclass costs about 0.85 ms to create, and dataclasses pulls in inspect
    probe = "import puregaps.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert fresh_process_output(probe) == "[]"
    for path in sorted((SRC / "puregaps").glob("*.py")):
        assert not re.search(r"^\s*(from|import)\s+dataclasses\b", path.read_text(), re.M), path


def test_sources_parse_at_the_declared_python_floor():
    # pyproject.toml promises requires-python >= floor; the suite itself runs on a newer Python
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    found = re.fullmatch(r">=\s*(\d+)\.(\d+)", pyproject["project"]["requires-python"])
    floor = (int(found[1]), int(found[2]))
    for path in sorted((SRC / "puregaps").glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
    # the guard is live: 3.11 syntax parses at 3.11 and is refused at the floor
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=floor)


# --- records -----------------------------------------------------------------

C59 = KummerCurve(5, 9)
SPEC = CodeSpec(C59, 3, 4, (4, 0, 0), (1, 1, 1), 367)


def test_records_are_immutable_named_tuples():
    data = plot_data(C59)
    recs = [
        Place(1),
        C59,
        ell(C59, C59.canonical_divisor()),
        MaximalFamily(5, 2, {0: [(1, 2)]}),
        h_one_place(C59),
        b_k(C59, 3, 0),
        data.cubes[0],
        data,
        SPEC,
        design_code(SPEC),
        HERMITIAN_SUBCOVER_ROWS[0],
    ]
    assert sorted(type(rec).__name__ for rec in recs) == [
        "BkBox", "CodeParams", "CodeSpec", "Cube", "CubeData", "EllResult", "KummerCurve",
        "MaximalFamily", "OnePlaceGaps", "Place", "TableRowSpec",
    ]
    for rec in recs:
        assert rec == tuple(rec) == tuple(getattr(rec, f) for f in rec._fields)
        assert not hasattr(rec, "__dict__"), type(rec)
        for field in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            rec.extra = 1


def test_place_order_hash_and_checks():
    assert sorted([Place(3), INFINITY, Place(1)]) == [INFINITY, Place(1), Place(3)]
    assert Place(1) < Place(2) and Place(2) == Place(2) and Place(2) != Place(3)
    assert hash(Place(2)) == hash(Place(2)) and {Place(2): "P_2"}[Place(2)] == "P_2"
    assert (repr(Place(2)), repr(INFINITY)) == ("P_2", "P_inf")
    with pytest.raises(ValueError, match=r"^place index must be >= 0$"):
        Place(-1)


def test_curve_equality_and_defaults():
    assert KummerCurve(5, 9) == KummerCurve(5, 9, 1) != KummerCurve(5, 9, 2)
    assert {KummerCurve(5, 9): "C59"}[KummerCurve(5, 9, 1)] == "C59"
    assert repr(KummerCurve(5, 9)) == "KummerCurve(m=5, r=9, lam=1)"
    assert KummerCurve(5, 9)._replace(m=7) == KummerCurve(7, 9)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: KummerCurve(5, 9)._replace(m=3), "gcd(m, lambda*r) must be 1, got gcd(3, 9) = 3"),
        (lambda: KummerCurve._make((5, 1, 1)), "number of branch places r must be >= 2, got 1"),
        (lambda: Place._make([-1]), "place index must be >= 0"),
        (lambda: Place(1)._replace(index=-1), "place index must be >= 0"),
        (lambda: MaximalFamily._make((0, 2, {})), "period must be positive"),
        (lambda: MaximalFamily(5, 2)._replace(n=1), "families need n >= 2 places"),
        (lambda: SPEC._replace(partition=(3, 0, 0)), "partition (3, 0, 0) does not sum to k=4"),
        (
            lambda: SPEC._replace(a=(9, 1, 1)),
            "offsets (9, 1, 1) leave the level box with bounds (2, 1, 1)",
        ),
    ],
    ids=["curve-replace", "curve-make", "place-make", "place-replace", "family-make",
         "family-replace", "spec-partition", "spec-offsets"],
)
def test_replace_and_make_run_the_checks(make, message):
    # namedtuple's own _make skips __new__; the validated records route it through
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_family_defaults_are_not_shared():
    one, two = MaximalFamily(5, 2), MaximalFamily(5, 2)
    assert one.box0 == two.box0 == {} and one.box0 is not two.box0
    # levels are normalized before the tuple is built, so _replace normalizes too
    got = one._replace(box0={1: [[6, 2], (5, 0), (6, 2)], 2: []})
    assert got.box0 == {1: ((5, 0), (6, 2))} and got.levels == (1,)
