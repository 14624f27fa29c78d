"""Summation theorems and closed forms for the truncated families."""

import re
import sys

import pytest

from sytcount.cli import NoFormulaAvailable, resolve
from sytcount.count import count_syt
from sytcount.arith import factorial_ratio
from sytcount.formulas import (
    PartTooSmall,
    coeff_d,
    frobenius_young_ratio,
    rect_pair_terms,
    rectangle_count,
    rectangle_ratio,
    stair_pair_terms,
    staircase_count,
    staircase_ratio,
)
from sytcount.pivot import (
    pivot_shape_histogram,
    verify_pivot_identity_rect,
    verify_pivot_identity_staircase,
)
from sytcount.shapes import (
    CellRegion,
    Partition,
    StrictPartition,
    TooLarge,
    complement_in_rectangle,
    parse_descriptor,
    partitions_in_box,
    staircase,
    truncated_rectangle_region,
    truncated_staircase_region,
)
from sytcount.truncated import (
    FAMILIES,
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


# Least value of each parameter of each family in the table.
LEAST = {
    "stair-sq": (0, 2),
    "stair-sq+1": (0, 1),
    "rect-sq": (0, 0, 2),
    "rect-sq+1": (0, 0, 1),
    "stair-corner": (0,),
    "rect-corner": (0, 0),
    "square-minus-two": (2,),
}
CELL_CAP = 40


def members(family, cap=CELL_CAP, top=CELL_CAP):
    """Every parameter tuple of ``family``, each parameter at most ``top``,
    whose region has at most ``cap`` cells.  No region shrinks as one
    parameter grows, so each parameter stops at the first value past the cap.
    """
    least = LEAST[family.name]

    def extend(prefix):
        if len(prefix) == len(least):
            yield prefix
            return
        for value in range(least[len(prefix)], top + 1):
            if family.region(*prefix, value, *least[len(prefix) + 1 :]).size > cap:
                return
            yield from extend(prefix + (value,))

    return list(extend(()))


class TestFamilyTable:
    def test_names_and_order(self):
        assert list(FAMILIES) == list(LEAST)
        for name, family in FAMILIES.items():
            assert family.name == name
            assert len(family.params) == len(LEAST[name])
            assert family.least == LEAST[name]
            assert family.geometry == ("stair" if name.startswith("stair") else "rect")
        conjectural = [f.name for f in FAMILIES.values() if f.conjectural]
        assert conjectural == ["square-minus-two"]

    def test_least_parameters_are_the_bounds(self):
        for family in FAMILIES.values():
            least = LEAST[family.name]
            for i in range(len(least)):
                below = least[:i] + (least[i] - 1,) + least[i + 1 :]
                with pytest.raises(ValueError):
                    family.ratio(*below)

    @pytest.mark.parametrize("name", list(LEAST))
    def test_ratio_equals_oracle(self, name):
        family = FAMILIES[name]
        params_seen = members(family)
        assert len(params_seen) >= 4
        for params in params_seen:
            region = family.region(*params)
            assert family.ratio(*params).to_integer() == count_syt(region), params

    @pytest.mark.parametrize("name", list(LEAST))
    def test_cells_are_the_region_size(self, name):
        family = FAMILIES[name]
        seen_n0 = False
        for params in members(family, cap=60, top=60):
            assert family.cells(*params) == family.region(*params).size, params
            seen_n0 |= name == "rect-sq+1" and params[1] == 0 and params[2] > 1
        assert seen_n0 == (name == "rect-sq+1")

    @pytest.mark.parametrize("name", ["rect-sq", "rect-sq+1", "rect-corner"])
    def test_symmetric_in_m_and_n(self, name):
        family = FAMILIES[name]
        for params in members(family, cap=80):
            m, n, *rest = params
            assert family.ratio(*params) == family.ratio(n, m, *rest), params

    @pytest.mark.parametrize("name", ["stair-sq", "stair-sq+1", "rect-sq", "rect-sq+1"])
    def test_pivot_identity_at_the_table_entry(self, name):
        family = FAMILIES[name]
        verify = (
            verify_pivot_identity_staircase
            if family.geometry == "stair"
            else verify_pivot_identity_rect
        )
        seen = set()
        for params in members(family, cap=24):
            mu = family.mu(*params)
            if family.geometry == "stair":
                report = verify(mu, params[0])
            else:
                m, n, k = params
                report = verify(mu, k, m, n)
                seen.add(("n=0", n == 0))
            seen.add(("k", params[-1]))
            assert report.region == family.region(*params), params
            assert report.pivot == family.pivot(*params), params
            assert report.tableau_count == report.identity_sum, params
        least_k = LEAST[name][-1]
        assert ("k", least_k) in seen and ("k", least_k + 1) in seen
        if family.geometry == "rect":
            assert ("n=0", True) in seen

    @pytest.mark.parametrize("name", ["stair-sq", "stair-sq+1", "rect-sq", "rect-sq+1"])
    def test_split_at_the_pivot_gives_the_pair_terms(self, name):
        """Splitting every tableau at the table's pivot cell gives each pair
        (a, b) of the summation theorem as often as its product says."""
        family = FAMILIES[name]
        seen = set()
        for params in members(family, cap=20):
            if count_syt(family.region(*params)) > 500:
                continue
            got, want = split_histograms(family, params)
            assert got == want, params
            seen.add(("k", params[-1]))
            seen.add(("n=0", family.geometry == "rect" and params[1] == 0))
        least_k = LEAST[name][-1]
        assert ("k", least_k) in seen and ("k", least_k + 1) in seen
        if family.geometry == "rect":
            assert ("n=0", True) in seen

    def test_stair_sq_pivot_above_k2(self):
        # The pivot (k, m + k + 1) and the cell (k, m + 2k - 1) coincide at
        # k = 2; at k = 3, where they first differ, only the pivot splits.
        family = FAMILIES["stair-sq"]
        for params in [(0, 3), (1, 3)]:
            got, want = split_histograms(family, params)
            assert got == want, params

    @pytest.mark.parametrize("name", list(LEAST))
    def test_builder_and_ratio_reject_below_the_range(self, name):
        family, least = FAMILIES[name], LEAST[name]
        for i in range(len(least)):
            params = least[:i] + (least[i] - 1,) + least[i + 1 :]
            with pytest.raises(ValueError):
                family.region(*params)
            with pytest.raises(ValueError):
                family.ratio(*params)

    def test_square_builders_reject_negative_sides(self):
        with pytest.raises(ValueError, match="m must be nonnegative, got -1"):
            stair_minus_square_region(-1, 2)
        with pytest.raises(ValueError, match="m must be nonnegative, got -1"):
            stair_minus_square_plus1_region(-1, 1)
        with pytest.raises(ValueError, match="m must be nonnegative, got -1"):
            rect_minus_square_plus1_region(-1, 0, 1)
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            rect_minus_square_region(0, -1, 2)

    def test_substaircase2_rejects_a_negative_order(self):
        with pytest.raises(ValueError, match="m must be nonnegative, got -1"):
            count_stair_minus_substaircase2(-1)

    def test_sq_prefix_is_none_where_sq_plus1_owns_it(self):
        assert FAMILIES["stair-sq"].mu(3, 1) is None
        assert stair_sq_mu(3, 1) == FAMILIES["stair-sq+1"].mu(3, 1)
        assert FAMILIES["rect-sq"].mu(2, 2, 1) is None
        assert FAMILIES["stair-corner"].mu is None
        assert FAMILIES["rect-corner"].propose is None

    def test_matchers_claim_only_what_they_count(self):
        """Every stair:/rect: descriptor that a matcher claims is counted
        right, and each family with a matcher claims some descriptor."""
        claimed = set()
        descriptors = [
            f"stair:{m}/{k}" for m in range(1, 8) for k in kappas(m - 1, m - 1)
        ]
        descriptors += [
            f"rect:{m}x{n}/{k}"
            for m in range(1, 6)
            for n in range(1, 6)
            for k in kappas(m, n)
        ]
        for text in descriptors:
            desc = parse_descriptor(text)
            try:
                region = desc.region()
            except ValueError:
                continue
            try:
                hit = resolve(desc, "formula")
            except NoFormulaAvailable:
                continue
            claimed.add(hit.route)
            assert hit.conjectural == FAMILIES[hit.route].conjectural
            assert hit.value == count_syt(region), text
            assert desc.size == region.size, text
        assert claimed == {name for name, f in FAMILIES.items() if f.propose}

    @pytest.mark.parametrize("name", [n for n, f in FAMILIES.items() if f.propose])
    def test_matchers_claim_every_member(self, name):
        """Each member with a truncation is counted by its own family, at
        its own parameters."""
        family = FAMILIES[name]
        seen = 0
        for params in members(family):
            sides, kappa = family.shape(*params)
            if not kappa:
                continue
            text = f"{family.geometry}:{'x'.join(map(str, sides))}/{','.join(map(str, kappa))}"
            desc = parse_descriptor(text)
            hit = resolve(desc, "formula")
            assert hit.route == name, text
            assert family.match(desc) == params, text
            assert hit.ratio == family.ratio(*params), text
            seen += 1
        assert seen >= 4



class TestOrdersPastAnyList:
    """A size past the longest list Python can build raises ``TooLarge``, a
    ValueError that names it, where a factorial list of that length would
    raise ``OverflowError``."""

    BIG = sys.maxsize + 1

    @pytest.mark.parametrize(
        "ratio, args, message",
        [
            (staircase_ratio, (BIG,), f"staircase order is too large to count: {BIG}"),
            (rectangle_ratio, (BIG, BIG + 1), f"rectangle side is too large to count: {BIG}"),
            (staircase, (BIG,), f"staircase order is too large to count: {BIG}"),
            (FAMILIES["stair-corner"].ratio, (BIG,), f"m is too large to count: {BIG}"),
            (FAMILIES["rect-corner"].ratio, (1, BIG), f"n is too large to count: {BIG}"),
            (FAMILIES["rect-sq"].ratio, (0, 0, BIG + 1), f"k - 1 is too large to count: {BIG}"),
            (FAMILIES["rect-sq+1"].ratio, (1, BIG, 1), f"n is too large to count: {BIG}"),
            (FAMILIES["square-minus-two"].ratio, (BIG + 2,), f"n - 2 is too large to count: {BIG}"),
            # the sieve would need one entry for each of 0..sys.maxsize
            (factorial_ratio, ((BIG - 1,), ()), f"factorial argument is too large to count: {BIG - 1}"),
            (frobenius_young_ratio, ((BIG, BIG),), f"factorial argument is too large to count: {2 * BIG}"),
            (theorem_staircase_sum, ((BIG,), 1), f"factorial argument is too large to count: {BIG + 1}"),
            # main-rect and pivot-rect meet the rectangle prefix first
            (theorem_rect_sum_direct, ((1,), BIG, 1, 1), f"k is too large to count: {BIG}"),
            (verify_pivot_identity_rect, ((), BIG, 1, 1), f"k is too large to count: {BIG}"),
            (coeff_d, ((1,), BIG, 1, 1, 0), f"k is too large to count: {BIG}"),
            (stair_sq_mu, (1, BIG), f"k is too large to count: {BIG}"),
            (stair_plus1_mu, (1, BIG), f"k is too large to count: {BIG}"),
            # sum-rect and main-rect complement in the staircase of order m + n
            (complement_in_rectangle, ((), 1, BIG), f"staircase order is too large to count: {BIG + 1}"),
            # the region builders, before any row or cell is listed
            (truncated_staircase_region, (BIG, (5, 5)), f"staircase order is too large to count: {BIG}"),
            (truncated_rectangle_region, (BIG, 1, (1,)), f"rectangle side is too large to count: {BIG}"),
            (CellRegion, (((1, BIG),),), f"region size is too large to count: {BIG}"),
        ],
    )
    def test_raises_too_large_naming_the_size(self, ratio, args, message):
        with pytest.raises(TooLarge, match=f"^{re.escape(message)}$"):
            ratio(*args)
        assert issubclass(TooLarge, ValueError)

    def test_the_longest_list_still_counts_where_it_is_small(self):
        assert staircase_ratio(3).to_integer() == 2
        assert FAMILIES["rect-sq+1"].ratio(1, 1, 1).to_integer() == count_syt(
            FAMILIES["rect-sq+1"].region(1, 1, 1)
        )

def split_histograms(family, params):
    """Piece shape pairs over the tableaux split at the table's pivot cell,
    and the pairs (a, b) with their products from the summation theorem."""
    region, pivot = family.region(*params), family.pivot(*params)
    if family.geometry == "stair":
        terms = stair_pair_terms(family.mu(*params), params[0])
    else:
        m, n, k = params
        terms = rect_pair_terms(family.mu(*params), k, m, n)
    want = {(a, b): prod for _, _, a, b, prod in terms if prod}
    return pivot_shape_histogram(region, pivot), want


def kappas(rows, cols):
    """Every nonempty partition in the box, as descriptor text."""
    boxed = partitions_in_box(rows, cols)
    return [",".join(map(str, lam.parts)) for lam in boxed if lam.parts]
