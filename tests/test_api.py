"""The public surface: what ``puregaps`` exports, and the names the benchmark reads."""

import argparse
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import puregaps

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
    "g_k_zero",
    "gamma_hat_box",
    "gamma_star",
    "generate_tables",
    "glb",
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
    "pure_gaps_from_relative_maximals",
    "relative_family",
    "relative_maximals_window_scan",
    "shorten",
    "translate_box",
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


def test_public_surface():
    assert sorted(puregaps.__all__) == API
    for name in API:
        assert getattr(puregaps, name) is not None, name

    # the test oracles are not loaded with the package
    probe = "import sys, puregaps; print('puregaps.reference' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"

    for module_name, names in BENCHMARK_NAMES.items():
        module = importlib.import_module(f"puregaps.{module_name}")
        for name in names:
            assert hasattr(module, name), f"puregaps.{module_name}.{name}"
    # the tracer counts union_count through a global defined in its own module
    assert puregaps.gapsets.union_count.__module__ == "puregaps.gapsets"
    # setup_s times a fresh import plus build_parser() with no arguments
    assert not inspect.signature(puregaps.cli.build_parser).parameters
    assert isinstance(puregaps.cli.build_parser(), argparse.ArgumentParser)
