"""Pure gaps, semigroup maximal elements, and AG-code parameters on Kummer curves.

The package models curves y^m = prod_{j=1}^r (x - alpha_j)^lambda symbolically,
computes exact Riemann-Roch dimensions for divisors supported on the ramified
places and the place at infinity, and uses them both to evaluate closed-form
descriptions of gap/pure-gap/maximal-element sets and to verify every such
closed form by brute force.  A parameter designer turns pure-gap boxes into
differential AG-code parameter tables.  The test oracles live in
``puregaps.reference``, which the package does not import.
"""

from .boxes import (
    MaximalFamily,
    compositions,
    family_cardinality,
    pure_gaps_from_family,
)
from .codes import (
    HERMITIAN_SUBCOVER_ROWS,
    NORM_TRACE_LIKE_ROWS,
    CodeParams,
    CodeSpec,
    TableRowSpec,
    design_code,
    generate_tables,
    goppa_params,
    hermitian_subcover_points,
    norm_trace_like_points,
    shorten,
)
from .curves import INFINITY, Divisor, KummerCurve, Place, divisor_from_tuple
from .errors import DegreeWindowError, NOutOfRangeError, PeriodSearchError
from .gapsets import (
    BkBox,
    Cube,
    CubeData,
    b_k,
    max_level,
    plot_data,
    pure_gap_count,
    pure_gap_count_multiple_plus_one,
    pure_gap_count_two_places,
    pure_gaps,
    union_count,
)
from .maximals import (
    OnePlaceGaps,
    absolute_family,
    gamma_hat_box,
    gamma_star,
    h_one_place,
    lambda_hat_box,
    lambda_star,
    relative_family,
)
from .riemann_roch import (
    absolute_maximals_window_scan,
    ell,
    in_generalized_semigroup,
    is_absolute_maximal,
    is_discrepancy,
    is_pure_gap,
    is_relative_maximal,
    pure_gap_box_scan,
    relative_maximals_window_scan,
    verify_period,
)

__all__ = [
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

__version__ = "0.1.0"
