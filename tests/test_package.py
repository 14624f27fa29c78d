"""The package's public namespace."""

import types

import sytcount

# The names the package exports, in the order it imports them.
EXPORTED = """
    FactoredRatio Factorization NotAnInteger binomial factorial_ratio
    factorize is_smooth LabelSetMismatch count_syt count_syt_dfs
    enumerate_syt is_valid_tableau PartTooSmall coeff_c coeff_d
    frobenius_young rectangle_count schur_count staircase_count
    sum_identity_rect sum_identity_shifted IncompatibleShapes NotOnBoundary
    PivotReport SplitResult UnsupportedRegion pivot_shape_histogram
    split_pivot split_threshold unsplit_threshold verify_pivot_identity_rect
    verify_pivot_identity_staircase CellRegion InvalidSpec InvalidTruncation
    NotContained Partition ShapeError StrictPartition StrictnessViolation
    Tableau build_region complement_in_rectangle complement_in_staircase
    ordinary_region parse_descriptor partitions_in_box rotate180
    shifted_region staircase strict_partitions_in_staircase
    truncated_rectangle_region truncated_staircase_region union
    conjecture_square_minus_two count_rect_minus_corner
    count_rect_minus_square count_rect_minus_square_plus1
    count_stair_minus_corner count_stair_minus_square
    count_stair_minus_square_plus1 count_stair_minus_substaircase2
    theorem_rect_sum theorem_rect_sum_direct theorem_staircase_sum
    theorem_staircase_sum_direct
""".split()


def test_all_names_exist_and_are_not_modules():
    for name in sytcount.__all__:
        assert not isinstance(getattr(sytcount, name), types.ModuleType), name


def test_all_is_every_public_name_imported():
    assert sytcount.__all__ == EXPORTED
