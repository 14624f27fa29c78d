"""Exact counting of standard Young tableaux of ordinary, shifted, and
truncated shapes: brute-force oracles, product formulas, splitting
bijections, and a command-line front end.
"""

from types import ModuleType as _ModuleType

from .arith import (
    FactoredRatio,
    Factorization,
    NotAnInteger,
    binomial,
    factorial_ratio,
    factorize,
    is_smooth,
)
from .count import (
    LabelSetMismatch,
    count_syt,
    count_syt_dfs,
    enumerate_syt,
    is_valid_tableau,
)
from .formulas import (
    PartTooSmall,
    coeff_c,
    coeff_d,
    frobenius_young,
    rectangle_count,
    schur_count,
    staircase_count,
    sum_identity_rect,
    sum_identity_shifted,
)
from .pivot import (
    IncompatibleShapes,
    NotOnBoundary,
    PivotReport,
    SplitResult,
    UnsupportedRegion,
    pivot_shape_histogram,
    split_pivot,
    split_threshold,
    unsplit_threshold,
    verify_pivot_identity_rect,
    verify_pivot_identity_staircase,
)
from .shapes import (
    CellRegion,
    InvalidSpec,
    InvalidTruncation,
    NotContained,
    Partition,
    ShapeError,
    StrictPartition,
    StrictnessViolation,
    Tableau,
    build_region,
    complement_in_rectangle,
    complement_in_staircase,
    ordinary_region,
    parse_descriptor,
    partitions_in_box,
    rotate180,
    shifted_region,
    staircase,
    strict_partitions_in_staircase,
    truncated_rectangle_region,
    truncated_staircase_region,
    union,
)
from .truncated import (
    conjecture_square_minus_two,
    count_rect_minus_corner,
    count_rect_minus_square,
    count_rect_minus_square_plus1,
    count_stair_minus_corner,
    count_stair_minus_square,
    count_stair_minus_square_plus1,
    count_stair_minus_substaircase2,
    theorem_rect_sum,
    theorem_rect_sum_direct,
    theorem_staircase_sum,
    theorem_staircase_sum_direct,
)

# Every public name imported above, and none of the submodules.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
