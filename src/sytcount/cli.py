"""Command-line interface: count, enumerate, factor, verify, scan.

Exit codes: 0 on success or a passing verification, 1 when a verification
fails, 2 on usage errors (bad descriptors, missing parameters, scans past
the brute-force budget).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import lru_cache
from typing import Sequence

from .arith import FactoredRatio
from .count import count_syt, enumerate_syt
from .formulas import (
    binomial,
    binomial_convolution_lhs,
    coeff_c,
    coeff_d,
    frobenius_young_ratio,
    rect_pair_terms,
    rectangle_count,
    rectangle_ratio,
    schur_ratio,
    stair_pair_terms,
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
    parse_descriptor,
    truncated_rectangle_region,
    truncated_staircase_region,
)
from .truncated import (
    FAMILIES,
    conjecture_square_minus_two,
    square_minus_two_region,
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


def formula_count(desc: ShapeDescriptor) -> tuple[str, FactoredRatio, bool] | None:
    """Closed-form count for a descriptor, as (family name, ratio, whether
    the form is conjectural), or None when the shape matches no family.
    """
    if desc.family == "part":
        return ("frobenius-young", frobenius_young_ratio(desc.lam), False)
    if desc.family == "shifted":
        return ("schur", schur_ratio(desc.lam), False)
    if not desc.kappa.parts:
        if desc.family == "stair":
            return ("staircase", staircase_ratio(desc.m), False)
        return ("rectangle", rectangle_ratio(desc.m, desc.n), False)
    for family in FAMILIES.values():
        params = family.match(desc) if family.match else None
        if params is not None:
            return (family.name, family.ratio(*params), family.conjectural)
    return None


def _note_conjecture(name: str, conjectural: bool) -> None:
    if conjectural:
        print(f"note: {name} closed form is a CONJECTURE (unproved)", file=sys.stderr)


def _mu_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def _int_range(text: str) -> range:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return range(int(lo), int(hi) + 1)
        return range(int(text), int(text) + 1)
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
        name, ratio, conjectural = hit
        formula_value, oracle_value = ratio.to_integer(), count_syt(region)
        label = f"{name} CONJECTURE" if conjectural else name
        print(f"formula[{label}] {_fmt_count(formula_value)}")
        print(f"oracle {_fmt_count(oracle_value)}")
        _note_conjecture(name, conjectural)
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
        _note_conjecture(hit[0], hit[2])
        return 0
    region = desc.region()
    if args.method == "formula":
        raise NoFormulaAvailable(f"no closed form for {desc.text}")
    # auto: brute force when no closed form applies
    print(_fmt_count(count_syt(region)))
    return 0


def cmd_factor(args: argparse.Namespace) -> int:
    desc = parse_descriptor(args.shape)
    # As in cmd_count, only the routes that need the cells build the region;
    # the formula route reads the cell count off the descriptor.
    hit = None if args.method == "oracle" else formula_count(desc)
    if hit is not None:
        ratio, n_cells = hit[1], desc.size
    else:
        region = desc.region()
        if args.method == "formula":
            raise NoFormulaAvailable(f"no closed form for {desc.text}")
        # Only an oracle count has to be factored; a closed form carries its primes.
        ratio, n_cells = FactoredRatio.from_integer(count_syt(region)), region.size
    value, fac = ratio.to_integer(), ratio.factorization()
    print(f"count {_fmt_count(value)}")
    print(f"factorization {fac}")
    print(f"largest_prime {fac.largest_prime}")
    print(f"N {n_cells}")
    print(f"N_smooth {'yes' if fac.largest_prime <= n_cells else 'no'}")
    if hit is not None:
        _note_conjecture(hit[0], hit[2])
    return 0


def _print_check(label: str, lhs: int, rhs: int) -> int:
    print(label)
    print(f"LHS {_fmt_count(lhs)}")
    print(f"RHS {_fmt_count(rhs)}")
    print("PASS" if lhs == rhs else "FAIL")
    return 0 if lhs == rhs else 1


def _verify_sum(label: str, want: int, top: int, sum_at, t: int | None) -> int:
    """Check ``sum_at(t) == want`` at size ``t``, or at every size up to ``top``."""
    if t is not None:
        return _print_check(f"{label} t={t}", sum_at(t), want)
    bad = [s for s in range(top + 1) if sum_at(s) != want]
    print(f"{label} all t")
    print(f"RHS {_decimal(want)}")
    print("PASS" if not bad else f"FAIL at t={bad}")
    return 0 if not bad else 1


def _verify_sum_shifted(args) -> int:
    m = _require(args, "m")
    return _verify_sum(
        f"identity sum-shifted m={m}", staircase_count(m), m * (m + 1) // 2,
        lambda t: sum_identity_shifted(m, t), args.t,
    )


def _verify_sum_rect(args) -> int:
    m, n = _require(args, "m"), _require(args, "n")
    return _verify_sum(
        f"identity sum-rect m={m} n={n}", rectangle_count(m, n), m * n,
        lambda t: sum_identity_rect(m, n, t), args.t,
    )


def _verify_coeff(label: str, coefficient: FactoredRatio, terms, count_of) -> int:
    """Check each pair term against ``coefficient * f(lam) * f(lam_c)``."""
    checked = [
        (lam, lhs, (coefficient * count_of(lam) * count_of(lam_c)).to_integer())
        for lam, lam_c, _, _, lhs in terms
    ]
    failures = [(lam, lhs, rhs) for lam, lhs, rhs in checked if lhs != rhs]
    print(label)
    print(f"coefficient {coefficient.to_fraction()}")
    print(f"instances {len(checked)}")
    for lam, lhs, rhs in failures:
        print(f"FAIL at lam={lam}: {lhs} != {rhs}")
    print("PASS" if not failures else "FAIL")
    return 0 if not failures else 1


def _verify_coeff_c(args) -> int:
    mu = StrictPartition(_require(args, "mu"))
    m, t = _require(args, "m"), _require(args, "t")
    return _verify_coeff(
        f"identity coeff-c mu={mu} m={m} t={t}", coeff_c(mu, m, t),
        stair_pair_terms(mu, m, size=t), schur_ratio,
    )


def _verify_coeff_d(args) -> int:
    mu = Partition(_require(args, "mu"))
    k, (m, n), t = _require(args, "k"), _sides(args), _require(args, "t")
    return _verify_coeff(
        f"identity coeff-d mu={mu} k={k} m={m} n={n} t={t}", coeff_d(mu, k, m, n, t),
        rect_pair_terms(mu, k, m, n, size=t), frobenius_young_ratio,
    )


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
    k, (m, n) = _require(args, "k"), _sides(args)
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
    return _finish_report(f"identity pivot-stair mu={mu} m={m}", report)


def _verify_pivot_rect(args) -> int:
    mu = Partition(_require(args, "mu"))
    k, (m, n) = _require(args, "k"), _sides(args)
    report = verify_pivot_identity_rect(mu, k, m, n)
    return _finish_report(f"identity pivot-rect mu={mu} k={k} m={m} n={n}", report)


def _finish_report(label: str, report) -> int:
    print(label)
    return _print_check(
        f"region cells {report.region.size} pivot {report.pivot}",
        report.tableau_count,
        report.identity_sum,
    )


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


def _sides(args: argparse.Namespace) -> tuple[int, int]:
    """The box sides ``--m`` and ``--n`` of a rectangle identity."""
    m, n = _require(args, "m"), _require(args, "n")
    for name, value in (("m", m), ("n", n)):
        if value < 0:
            raise ValueError(f"--{name} must be nonnegative, got {value}")
    return m, n


def cmd_verify(args: argparse.Namespace) -> int:
    handler = _IDENTITIES.get(args.identity)
    if handler is None:
        raise UnknownIdentity(f"unknown identity {args.identity!r}")
    return handler(args)


# Scan family -> (parameter names, region builder, closed form): the family
# table, and two families that count a given truncation by the oracle.
_SCAN_FAMILIES = {
    **{f.name: (f.params, f.region, f.ratio) for f in FAMILIES.values()},
    "stair-trunc": (("m",), truncated_staircase_region, None),
    "rect-trunc": (("m", "n"), truncated_rectangle_region, None),
}


def _grid(axes: list[range]):
    """The tuples of ``itertools.product(*axes)``, in its order, without
    first copying each axis: a huge range fails on its first bad row."""
    if not axes:
        yield ()
        return
    for value in axes[0]:
        for rest in _grid(axes[1:]):
            yield (value, *rest)


def _scan_rows(args) -> list[tuple[dict, int, FactoredRatio]]:
    names, region_of, ratio_of = _SCAN_FAMILIES[args.family]
    if ratio_of is None:
        kappa = Partition(args.kappa or ())
    for name in names:
        if getattr(args, name) is None:
            raise UnknownIdentity(f"family {args.family!r} needs --{name}")
    rows = []
    for values in _grid([getattr(args, name) for name in names]):
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
    if args.family in FAMILIES:
        _note_conjecture(args.family, FAMILIES[args.family].conjectural)
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
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be nonnegative, got {args.limit}")
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


# A ``LO..HI`` value led by a minus sign, which argparse would read as an
# option rather than as the value of ``--m``, ``--n`` or ``--k``.
_NEGATIVE_RANGE = re.compile(r"-\d+\.\..*")


def _attach_negative_ranges(argv: Sequence[str]) -> list[str]:
    """Join ``--m -1..2`` into ``--m=-1..2``, the form argparse accepts."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--m", "--n", "--k") and _NEGATIVE_RANGE.fullmatch(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_negative_ranges(sys.argv[1:] if argv is None else argv)
    )
    try:
        return args.func(args)
    except (ShapeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
