"""Command-line interface: count, enumerate, factor, verify, scan.

Exit codes: 0 on success or a passing verification, 1 when a verification
fails, 2 on usage errors (bad descriptors, missing parameters, scans past
the brute-force budget).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from itertools import product
from typing import Sequence

from .arith import FactoredRatio
from .count import count_syt, enumerate_syt
from .formulas import (
    binomial,
    binomial_convolution_lhs,
    coeff_c,
    coeff_d,
    frobenius_young,
    frobenius_young_ratio,
    rectangle_count,
    rectangle_ratio,
    schur_count,
    schur_ratio,
    staircase_count,
    staircase_ratio,
    sum_identity_rect,
    sum_identity_shifted,
)
from .pivot import verify_pivot_identity_rect, verify_pivot_identity_staircase
from .shapes import (
    Partition,
    ShapeDescriptor,
    ShapeError,
    StrictPartition,
    complement_in_rectangle,
    complement_in_staircase,
    parse_descriptor,
    partitions_in_box,
    strict_partitions_in_staircase,
    truncated_rectangle_region,
    truncated_staircase_region,
    union,
)
from .truncated import (
    conjecture_square_minus_two,
    conjecture_square_minus_two_ratio,
    rect_minus_corner_ratio,
    rect_minus_square_plus1_ratio,
    rect_minus_square_plus1_region,
    rect_minus_square_ratio,
    rect_minus_square_region,
    square_minus_two_region,
    stair_minus_corner_ratio,
    stair_minus_square_plus1_ratio,
    stair_minus_square_plus1_region,
    stair_minus_square_ratio,
    stair_minus_square_region,
    theorem_rect_sum,
    theorem_rect_sum_direct,
    theorem_staircase_sum,
    theorem_staircase_sum_direct,
)

ORACLE_LIMIT_ENV = "SYTCOUNT_ORACLE_LIMIT"
DEFAULT_ORACLE_LIMIT = 48
WIDE_COUNT_DIGITS = 80


class NoFormulaAvailable(ValueError):
    """The shape matches no closed-form family."""


class UnknownIdentity(ValueError):
    """No verifier is registered under this name."""


class RangeTooLarge(ValueError):
    """A scan asks for a brute-force count past the configured budget."""


def _oracle_budget() -> int:
    raw = os.environ.get(ORACLE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_ORACLE_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise RangeTooLarge(f"{ORACLE_LIMIT_ENV} must be an integer, got {raw!r}")


def _check_budget(n_cells: int) -> None:
    budget = _oracle_budget()
    if n_cells > budget:
        raise RangeTooLarge(
            f"brute-force count over {n_cells} cells exceeds the budget of "
            f"{budget}; raise {ORACLE_LIMIT_ENV} to allow it"
        )


def _decimal(v: int) -> str:
    """Decimal digits of ``v`` at any length: the int-to-str digit limit is
    lifted for this one conversion and then put back as it was."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        return str(v)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(v)
    finally:
        sys.set_int_max_str_digits(limit)


def _fmt_count(v: int) -> str:
    s = _decimal(v)
    if len(s) > WIDE_COUNT_DIGITS:
        return f"{s} ({len(s)} digits)"
    return s


def _match_sq(kappa: tuple[int, ...]) -> int | None:
    # ((k-1)^(k-1)) for some k >= 2
    if kappa and len(set(kappa)) == 1 and len(kappa) == kappa[0]:
        return kappa[0] + 1
    return None


def _match_plus1(kappa: tuple[int, ...]) -> int | None:
    # (k^(k-1), k-1) for some k >= 2
    k = kappa[0] if kappa else 0
    if k >= 2 and kappa == (k,) * (k - 1) + (k - 1,):
        return k
    return None


def formula_count(desc: ShapeDescriptor) -> tuple[str, FactoredRatio] | None:
    """Closed-form count for a descriptor, as (family label, ratio), or
    None when the shape matches no known family.
    """
    if desc.family == "part":
        return ("frobenius-young", frobenius_young_ratio(desc.lam))
    if desc.family == "shifted":
        return ("schur", schur_ratio(desc.lam))
    kappa = desc.kappa.parts
    if desc.family == "stair":
        m = desc.m
        if not kappa:
            return ("staircase", staircase_ratio(m))
        k = _match_sq(kappa)
        if k is not None and m - 2 * k >= 0:
            return ("stair-sq", stair_minus_square_ratio(m - 2 * k, k))
        k = _match_plus1(kappa)
        if k is not None and m - 2 * k >= 0:
            return ("stair-sq+1", stair_minus_square_plus1_ratio(m - 2 * k, k))
        return None
    if desc.family == "rect":
        m, n = desc.m, desc.n
        if not kappa:
            return ("rectangle", rectangle_ratio(m, n))
        if kappa == (2,) and m == n and n >= 2:
            return ("square-minus-two CONJECTURE", conjecture_square_minus_two_ratio(n))
        k = _match_sq(kappa)
        if k is not None and m - k >= 0 and n - k >= 0:
            return ("rect-sq", rect_minus_square_ratio(m - k, n - k, k))
        k = _match_plus1(kappa)
        if k is not None and m - k >= 0 and n - k >= 0:
            return ("rect-sq+1", rect_minus_square_plus1_ratio(m - k, n - k, k))
        return None
    return None


def _mu_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def _int_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N or LO..HI, got {text!r}"
        )


def cmd_count(args: argparse.Namespace) -> int:
    desc = parse_descriptor(args.shape)
    if args.check:
        region = desc.region()
        hit = formula_count(desc)
        if hit is None:
            raise NoFormulaAvailable(f"no closed form for {desc.text}")
        label, formula_value = hit[0], hit[1].to_integer()
        oracle_value = count_syt(region)
        print(f"formula[{label}] {_fmt_count(formula_value)}")
        print(f"oracle {_fmt_count(oracle_value)}")
        if formula_value != oracle_value:
            print("MISMATCH")
            return 1
        print("OK")
        return 0
    if args.method == "oracle":
        print(_fmt_count(count_syt(desc.region())))
        return 0
    # The formula route never needs the cells.  Every descriptor a closed
    # form matches builds a region, so an invalid one reaches desc.region()
    # below and fails there with the same message as on the other routes.
    hit = formula_count(desc)
    if hit is not None:
        print(_fmt_count(hit[1].to_integer()))
        return 0
    region = desc.region()
    if args.method == "formula":
        raise NoFormulaAvailable(f"no closed form for {desc.text}")
    # auto: brute force when no closed form applies
    print(_fmt_count(count_syt(region)))
    return 0


def cmd_factor(args: argparse.Namespace) -> int:
    desc = parse_descriptor(args.shape)
    region = desc.region()
    hit = None if args.method == "oracle" else formula_count(desc)
    if args.method == "formula" and hit is None:
        raise NoFormulaAvailable(f"no closed form for {desc.text}")
    # Only an oracle count has to be factored; a closed form carries its primes.
    ratio = hit[1] if hit is not None else FactoredRatio.from_integer(count_syt(region))
    value, fac = ratio.to_integer(), ratio.factorization()
    n_cells = region.size
    print(f"count {_fmt_count(value)}")
    print(f"factorization {fac}")
    print(f"largest_prime {fac.largest_prime}")
    print(f"N {n_cells}")
    print(f"N_smooth {'yes' if fac.largest_prime <= n_cells else 'no'}")
    return 0


def _print_check(label: str, lhs: int, rhs: int) -> int:
    print(label)
    print(f"LHS {_fmt_count(lhs)}")
    print(f"RHS {_fmt_count(rhs)}")
    print("PASS" if lhs == rhs else "FAIL")
    return 0 if lhs == rhs else 1


def _verify_sum_shifted(args) -> int:
    m = _require(args, "m")
    want = staircase_count(m)
    if args.t is not None:
        return _print_check(
            f"identity sum-shifted m={m} t={args.t}",
            sum_identity_shifted(m, args.t),
            want,
        )
    bad = [
        t for t in range(m * (m + 1) // 2 + 1) if sum_identity_shifted(m, t) != want
    ]
    print(f"identity sum-shifted m={m} all t")
    print(f"RHS {_decimal(want)}")
    print("PASS" if not bad else f"FAIL at t={bad}")
    return 0 if not bad else 1


def _verify_sum_rect(args) -> int:
    m, n = _require(args, "m"), _require(args, "n")
    want = rectangle_count(m, n)
    if args.t is not None:
        return _print_check(
            f"identity sum-rect m={m} n={n} t={args.t}",
            sum_identity_rect(m, n, args.t),
            want,
        )
    bad = [t for t in range(m * n + 1) if sum_identity_rect(m, n, t) != want]
    print(f"identity sum-rect m={m} n={n} all t")
    print(f"RHS {_decimal(want)}")
    print("PASS" if not bad else f"FAIL at t={bad}")
    return 0 if not bad else 1


def _verify_coeff_c(args) -> int:
    mu = StrictPartition(_require(args, "mu"))
    m, t = _require(args, "m"), _require(args, "t")
    c = coeff_c(mu, m, t)
    failures = []
    n_seen = 0
    for lam in strict_partitions_in_staircase(m, size=t):
        lam_c = complement_in_staircase(lam, m)
        lhs = schur_count(union(mu, lam)) * schur_count(union(mu, lam_c))
        rhs = (c * schur_ratio(lam) * schur_ratio(lam_c)).to_integer()
        n_seen += 1
        if lhs != rhs:
            failures.append((lam, lhs, rhs))
    print(f"identity coeff-c mu={mu} m={m} t={t}")
    print(f"coefficient {c.to_fraction()}")
    print(f"instances {n_seen}")
    for lam, lhs, rhs in failures:
        print(f"FAIL at lam={lam}: {lhs} != {rhs}")
    print("PASS" if not failures else "FAIL")
    return 0 if not failures else 1


def _verify_coeff_d(args) -> int:
    mu = Partition(_require(args, "mu"))
    k, m, n, t = (
        _require(args, "k"),
        _require(args, "m"),
        _require(args, "n"),
        _require(args, "t"),
    )
    d = coeff_d(mu, k, m, n, t)
    alpha = mu + Partition((n,) * k)
    beta = mu + Partition((m,) * k)
    failures = []
    n_seen = 0
    for lam in partitions_in_box(m, n, size=t):
        lam_c = complement_in_rectangle(lam, m, n)
        lhs = frobenius_young(union(alpha, lam)) * frobenius_young(
            union(beta, lam_c)
        )
        rhs = (
            d * frobenius_young_ratio(lam) * frobenius_young_ratio(lam_c)
        ).to_integer()
        n_seen += 1
        if lhs != rhs:
            failures.append((lam, lhs, rhs))
    print(f"identity coeff-d mu={mu} k={k} m={m} n={n} t={t}")
    print(f"coefficient {d.to_fraction()}")
    print(f"instances {n_seen}")
    for lam, lhs, rhs in failures:
        print(f"FAIL at lam={lam}: {lhs} != {rhs}")
    print("PASS" if not failures else "FAIL")
    return 0 if not failures else 1


def _verify_main_stair(args) -> int:
    mu = StrictPartition(_require(args, "mu"))
    m = _require(args, "m")
    return _print_check(
        f"identity main-stair mu={mu} m={m}",
        theorem_staircase_sum_direct(mu, m),
        theorem_staircase_sum(mu, m),
    )


def _verify_main_rect(args) -> int:
    mu = Partition(_require(args, "mu"))
    k, m, n = _require(args, "k"), _require(args, "m"), _require(args, "n")
    return _print_check(
        f"identity main-rect mu={mu} k={k} m={m} n={n}",
        theorem_rect_sum_direct(mu, k, m, n),
        theorem_rect_sum(mu, k, m, n),
    )


def _verify_binomial(args) -> int:
    t1, t2, upper = _require(args, "t1"), _require(args, "t2"), _require(args, "N")
    return _print_check(
        f"identity binomial t1={t1} t2={t2} N={upper}",
        binomial_convolution_lhs(t1, t2, upper),
        binomial(t1 + t2 + upper + 1, t1 + t2 + 1),
    )


def _verify_pivot_stair(args) -> int:
    mu = StrictPartition(_require(args, "mu"))
    m = _require(args, "m")
    report = verify_pivot_identity_staircase(mu, m)
    print(f"identity pivot-stair mu={mu} m={m}")
    print(f"region cells {report.region.size} pivot {report.pivot}")
    return _finish_report(report)


def _verify_pivot_rect(args) -> int:
    mu = Partition(_require(args, "mu"))
    k, m, n = _require(args, "k"), _require(args, "m"), _require(args, "n")
    report = verify_pivot_identity_rect(mu, k, m, n)
    print(f"identity pivot-rect mu={mu} k={k} m={m} n={n}")
    print(f"region cells {report.region.size} pivot {report.pivot}")
    return _finish_report(report)


def _finish_report(report) -> int:
    print(f"LHS {_fmt_count(report.tableau_count)}")
    print(f"RHS {_fmt_count(report.identity_sum)}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _verify_conjecture(args) -> int:
    n = _require(args, "n")
    region = square_minus_two_region(n)
    _check_budget(region.size)
    print("CONJECTURE: the closed form below is unproved")
    return _print_check(
        f"identity conjecture n={n}",
        count_syt(region),
        conjecture_square_minus_two(n),
    )


_IDENTITIES = {
    "sum-shifted": _verify_sum_shifted,
    "sum-rect": _verify_sum_rect,
    "coeff-c": _verify_coeff_c,
    "coeff-d": _verify_coeff_d,
    "main-stair": _verify_main_stair,
    "main-rect": _verify_main_rect,
    "binomial": _verify_binomial,
    "pivot-stair": _verify_pivot_stair,
    "pivot-rect": _verify_pivot_rect,
    "conjecture": _verify_conjecture,
}


def _require(args: argparse.Namespace, name: str):
    value = getattr(args, name)
    if value is None:
        raise UnknownIdentity(
            f"identity {args.identity!r} needs --{name}"
        )
    return value


def cmd_verify(args: argparse.Namespace) -> int:
    handler = _IDENTITIES.get(args.identity)
    if handler is None:
        raise UnknownIdentity(f"unknown identity {args.identity!r}")
    return handler(args)


# Scan family -> (parameter names, region builder, closed form).  The two
# families without a closed form take a truncation and count by the oracle.
_SCAN_FAMILIES = {
    "stair-sq": (("m", "k"), stair_minus_square_region, stair_minus_square_ratio),
    "stair-sq+1": (
        ("m", "k"), stair_minus_square_plus1_region, stair_minus_square_plus1_ratio
    ),
    "rect-sq": (("m", "n", "k"), rect_minus_square_region, rect_minus_square_ratio),
    "rect-sq+1": (
        ("m", "n", "k"), rect_minus_square_plus1_region, rect_minus_square_plus1_ratio
    ),
    "stair-corner": (
        ("m",), lambda m: stair_minus_square_region(m, 2), stair_minus_corner_ratio
    ),
    "rect-corner": (
        ("m", "n"),
        lambda m, n: rect_minus_square_region(m, n, 2),
        rect_minus_corner_ratio,
    ),
    "square-minus-two": (
        ("n",), square_minus_two_region, conjecture_square_minus_two_ratio
    ),
    "stair-trunc": (("m",), truncated_staircase_region, None),
    "rect-trunc": (("m", "n"), truncated_rectangle_region, None),
}


def _scan_rows(args) -> list[tuple[dict, int, FactoredRatio]]:
    names, region_of, ratio_of = _SCAN_FAMILIES[args.family]
    if ratio_of is None:
        kappa = Partition(args.kappa or ())
    for name in names:
        if getattr(args, name) is None:
            raise UnknownIdentity(f"family {args.family!r} needs --{name}")
    rows = []
    for values in product(*(getattr(args, name) for name in names)):
        params = dict(zip(names, values))
        if ratio_of is None:
            region = region_of(*values, kappa)
            _check_budget(region.size)
            params["kappa"] = list(kappa.parts)
            ratio = FactoredRatio.from_integer(count_syt(region))
        else:
            region = region_of(*values)
            ratio = ratio_of(*values)
        rows.append((params, region.size, ratio))
    return rows


def _fmt_params(params: dict) -> str:
    chunks = []
    for key, value in params.items():
        if isinstance(value, list):
            chunks.append(f"{key}=({','.join(str(v) for v in value)})")
        else:
            chunks.append(f"{key}={value}")
    return " ".join(chunks)


def cmd_scan(args: argparse.Namespace) -> int:
    rows = _scan_rows(args)
    header = ("family", "params", "N", "count", "largest_prime", "n_smooth")
    table = []
    records = []
    for params, n_cells, ratio in rows:
        fac = ratio.factorization()
        digits = _decimal(ratio.to_integer())
        smooth = fac.largest_prime <= n_cells
        table.append(
            (
                args.family,
                _fmt_params(params),
                str(n_cells),
                digits,
                str(fac.largest_prime),
                "yes" if smooth else "no",
            )
        )
        records.append(
            {
                "family": args.family,
                "params": params,
                "N": n_cells,
                "count": digits,
                "largest_prime": fac.largest_prime,
                "n_smooth": smooth,
            }
        )
    if args.format == "json":
        print(json.dumps(records, indent=2))
        return 0
    if args.format == "csv":
        print(",".join(header))
        for row in table:
            print(",".join(_csv_field(x) for x in row))
        return 0
    widths = [
        max(len(header[i]), *(len(row[i]) for row in table)) if table else len(header[i])
        for i in range(len(header))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in table:
        print("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip())
    return 0


def _csv_field(text: str) -> str:
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def cmd_enumerate(args: argparse.Namespace) -> int:
    region = parse_descriptor(args.shape).region()
    width = len(str(region.size))
    first = True
    for t in enumerate_syt(region, limit=args.limit):
        if not first:
            print()
        first = False
        for (s, _), row in zip(region.rows, t.rows):
            indent = " " * ((s - 1) * (width + 1))
            print(indent + " ".join(str(x).rjust(width) for x in row))
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``sytcount`` argument parser, built once per process.

    Every default is immutable and no action appends to one, so parsing
    leaves the parser as it was and each call to :func:`main` can share it.
    """
    parser = argparse.ArgumentParser(
        prog="sytcount",
        description="Exact counting of standard Young tableaux of ordinary, "
        "shifted, and truncated shapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count tableaux of a shape")
    p_count.add_argument("shape", help="part:..., shifted:..., stair:m[/k1,...], rect:mxn[/k1,...]")
    p_count.add_argument(
        "--method", choices=("auto", "formula", "oracle"), default="auto"
    )
    p_count.add_argument(
        "--check", action="store_true", help="compare formula against brute force"
    )
    p_count.set_defaults(func=cmd_count)

    p_factor = sub.add_parser("factor", help="factor a tableau count")
    p_factor.add_argument("shape")
    p_factor.add_argument(
        "--method", choices=("auto", "formula", "oracle"), default="auto"
    )
    p_factor.set_defaults(func=cmd_factor)

    p_verify = sub.add_parser("verify", help="check an identity instance")
    p_verify.add_argument("identity", choices=sorted(_IDENTITIES))
    p_verify.add_argument("--mu", type=_mu_tuple, default=None)
    p_verify.add_argument("--m", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--t", type=int, default=None)
    p_verify.add_argument("--t1", type=int, default=None)
    p_verify.add_argument("--t2", type=int, default=None)
    p_verify.add_argument("--N", dest="N", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="tabulate counts over a family")
    p_scan.add_argument("--family", choices=_SCAN_FAMILIES, required=True)
    p_scan.add_argument("--m", type=_int_range, default=None)
    p_scan.add_argument("--n", type=_int_range, default=None)
    p_scan.add_argument("--k", type=_int_range, default=None)
    p_scan.add_argument("--kappa", type=_mu_tuple, default=None)
    p_scan.add_argument(
        "--format", choices=("text", "csv", "json"), default="text"
    )
    p_scan.set_defaults(func=cmd_scan)

    p_enum = sub.add_parser("enumerate", help="print tableaux as grids")
    p_enum.add_argument("shape")
    p_enum.add_argument("--limit", type=int, default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ShapeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
