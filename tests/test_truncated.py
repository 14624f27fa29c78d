"""Summation theorems and closed forms for the truncated families."""

import pytest

from sytcount.count import count_syt
from sytcount.formulas import PartTooSmall, rectangle_count, staircase_count
from sytcount.shapes import Partition, StrictPartition, partitions_in_box
from sytcount.truncated import (
    conjecture_square_minus_two,
    count_rect_minus_corner,
    count_rect_minus_square,
    count_rect_minus_square_plus1,
    count_stair_minus_corner,
    count_stair_minus_square,
    count_stair_minus_square_plus1,
    count_stair_minus_substaircase2,
    rect_minus_square_plus1_region,
    rect_minus_square_region,
    square_minus_two_region,
    stair_minus_square_plus1_region,
    stair_minus_square_region,
    stair_plus1_mu,
    stair_sq_mu,
    theorem_rect_sum,
    theorem_rect_sum_direct,
    theorem_staircase_sum,
    theorem_staircase_sum_direct,
)


def staircase_prefixes(m, reach=4, max_parts=2):
    """Strict partitions with at most max_parts parts from (m, m + reach]."""
    out = [StrictPartition()]
    hi = range(m + reach, m, -1)
    out += [StrictPartition((a,)) for a in hi]
    if max_parts >= 2:
        out += [
            StrictPartition((a, b)) for a in hi for b in range(a - 1, m, -1)
        ]
    return out


class TestStaircaseTheorem:
    @pytest.mark.parametrize("m", range(4))
    def test_closed_form_equals_direct_sum(self, m):
        for mu in staircase_prefixes(m):
            assert theorem_staircase_sum(mu, m) == theorem_staircase_sum_direct(
                mu, m
            ), (m, mu)

    def test_rejects_small_parts(self):
        with pytest.raises(PartTooSmall):
            theorem_staircase_sum(StrictPartition((2,)), 3)
        with pytest.raises(PartTooSmall):
            theorem_staircase_sum_direct(StrictPartition((3, 1)), 3)


class TestRectangleTheorem:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_closed_form_equals_direct_sum(self, m, n, k):
        for mu in partitions_in_box(k, 2):
            assert theorem_rect_sum(mu, k, m, n) == theorem_rect_sum_direct(
                mu, k, m, n
            ), (m, n, k, mu)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            theorem_rect_sum(Partition(), 0, 2, 2)
        with pytest.raises(ValueError):
            theorem_rect_sum(Partition((1, 1)), 1, 2, 2)


class TestPrefixPatterns:
    def test_plus1_prefix(self):
        assert stair_plus1_mu(2, 3) == StrictPartition((5, 4, 3))
        assert stair_plus1_mu(0, 1) == StrictPartition((1,))

    def test_sq_prefix(self):
        assert stair_sq_mu(2, 3) == StrictPartition((6, 5, 3))
        assert stair_sq_mu(0, 2) == StrictPartition((3, 1))


class TestRegions:
    @pytest.mark.parametrize("m,k", [(0, 1), (0, 2), (1, 2), (2, 2), (1, 3)])
    def test_plus1_staircase_size(self, m, k):
        region = stair_minus_square_plus1_region(m, k)
        full = (m + 2 * k) * (m + 2 * k + 1) // 2
        assert region.size == full - (k * k - 1)

    @pytest.mark.parametrize("m,k", [(0, 2), (1, 2), (2, 2), (0, 3), (1, 3)])
    def test_sq_staircase_size(self, m, k):
        region = stair_minus_square_region(m, k)
        full = (m + 2 * k) * (m + 2 * k + 1) // 2
        assert region.size == full - (k - 1) ** 2

    @pytest.mark.parametrize("m,n,k", [(0, 0, 1), (1, 2, 1), (2, 2, 2), (0, 3, 2)])
    def test_plus1_rect_size(self, m, n, k):
        region = rect_minus_square_plus1_region(m, n, k)
        assert region.size == (m + k) * (n + k) - k * k + 1

    @pytest.mark.parametrize("m,n,k", [(0, 0, 2), (1, 2, 2), (2, 2, 3)])
    def test_sq_rect_size(self, m, n, k):
        region = rect_minus_square_region(m, n, k)
        assert region.size == (m + k) * (n + k) - (k - 1) ** 2

    def test_square_minus_two(self):
        assert square_minus_two_region(2).size == 2
        assert square_minus_two_region(4).rows == ((1, 2), (1, 4), (1, 4), (1, 4))
        with pytest.raises(ValueError):
            square_minus_two_region(1)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            stair_minus_square_plus1_region(1, 0)
        with pytest.raises(ValueError):
            stair_minus_square_region(1, 1)
        with pytest.raises(ValueError):
            rect_minus_square_region(1, 1, 1)


class TestClosedFormsAgainstOracle:
    @pytest.mark.parametrize("m", range(3))
    @pytest.mark.parametrize("k", [1, 2])
    def test_stair_plus1(self, m, k):
        want = count_syt(stair_minus_square_plus1_region(m, k))
        assert count_stair_minus_square_plus1(m, k) == want

    @pytest.mark.parametrize("m", range(3))
    @pytest.mark.parametrize("k", [2, 3])
    def test_stair_sq(self, m, k):
        want = count_syt(stair_minus_square_region(m, k))
        assert count_stair_minus_square(m, k) == want

    @pytest.mark.parametrize("m", range(4))
    def test_stair_corner(self, m):
        import sytcount.shapes as shapes

        region = shapes.truncated_staircase_region(m + 4, Partition((1,)))
        assert count_stair_minus_corner(m) == count_syt(region)

    @pytest.mark.parametrize("m", range(4))
    def test_stair_substaircase2(self, m):
        import sytcount.shapes as shapes

        region = shapes.truncated_staircase_region(m + 4, Partition((2, 1)))
        assert count_stair_minus_substaircase2(m) == count_syt(region)

    @pytest.mark.parametrize("m,n", [(0, 0), (0, 2), (1, 1), (1, 2), (2, 2), (2, 3)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_rect_plus1(self, m, n, k):
        want = count_syt(rect_minus_square_plus1_region(m, n, k))
        assert count_rect_minus_square_plus1(m, n, k) == want

    @pytest.mark.parametrize("m,n", [(0, 0), (0, 2), (1, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("k", [2, 3])
    def test_rect_sq(self, m, n, k):
        want = count_syt(rect_minus_square_region(m, n, k))
        assert count_rect_minus_square(m, n, k) == want

    @pytest.mark.parametrize("m,n", [(0, 0), (0, 3), (1, 2), (2, 2), (3, 3)])
    def test_rect_corner(self, m, n):
        import sytcount.shapes as shapes

        region = shapes.truncated_rectangle_region(m + 2, n + 2, Partition((1,)))
        assert count_rect_minus_corner(m, n) == count_syt(region)

    # Criterion 7 stops at n = 7; n = 8..10 extend the check of the
    # unproved closed form.
    @pytest.mark.parametrize("n", range(2, 11))
    def test_conjecture(self, n):
        assert conjecture_square_minus_two(n) == count_syt(square_minus_two_region(n))


class TestKnownValues:
    def test_anchors(self):
        assert count_stair_minus_corner(0) == 4
        assert count_stair_minus_corner(1) == 70
        assert count_stair_minus_substaircase2(0) == 1
        assert count_stair_minus_square(2, 2) == 6384
        assert count_rect_minus_corner(1, 1) == 12
        assert conjecture_square_minus_two(2) == 1
        assert conjecture_square_minus_two(3) == 5
        assert conjecture_square_minus_two(4) == 1176
        assert conjecture_square_minus_two(5) == 17532900
        assert conjecture_square_minus_two(6) == 24256712752272
        assert conjecture_square_minus_two(7) == 4357690921810288494432


class TestDegenerateEquivalences:
    # Three of the factored forms restate a square family at k = 2, and the
    # k = 1 sq+1 truncation is no truncation at all.  The redundant routes
    # must agree wherever both apply.

    @pytest.mark.parametrize("m", range(7))
    def test_corner_is_sq_at_k2(self, m):
        assert count_stair_minus_corner(m) == count_stair_minus_square(m, 2)

    @pytest.mark.parametrize("m", range(7))
    def test_substaircase2_is_plus1_at_k2(self, m):
        assert count_stair_minus_substaircase2(m) == count_stair_minus_square_plus1(
            m, 2
        )

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("n", range(5))
    def test_rect_corner_is_sq_at_k2(self, m, n):
        assert count_rect_minus_corner(m, n) == count_rect_minus_square(m, n, 2)

    @pytest.mark.parametrize("m", range(5))
    def test_plus1_at_k1_is_full_staircase(self, m):
        assert count_stair_minus_square_plus1(m, 1) == staircase_count(m + 2)

    @pytest.mark.parametrize("m,n", [(0, 0), (1, 2), (2, 2), (3, 4)])
    def test_rect_plus1_at_k1_is_full_rectangle(self, m, n):
        assert count_rect_minus_square_plus1(m, n, 1) == rectangle_count(m + 1, n + 1)
