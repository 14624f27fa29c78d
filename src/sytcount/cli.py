"""Command-line interface: count, enumerate, factor, verify, scan.

Exit codes: 0 on success or a passing verification, 1 when a verification
fails or the reader closes the pipe early, 2 on usage errors (bad
descriptors, missing parameters, scans past the brute-force budget), 130
on an interrupt.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .arith import FactoredRatio, Factorization, exact_quotient
from .count import count_syt, enumerate_syt
from .formulas import (
    binomial,
    binomial_convolution_lhs,
    coeff_c,
    coeff_d,
    frobenius_young,
    frobenius_young_ratio,
    rect_pair_terms,
    rectangle_count,
    rectangle_ratio,
    schur_count,
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
    StrictPartition,
    parse_descriptor,
)
from .truncated import (
    FAMILIES,
    conjecture_square_minus_two,
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
    try:
        return DEFAULT_ORACLE_LIMIT if raw is None else int(raw)
    except ValueError:
        raise RangeTooLarge(f"{ORACLE_LIMIT_ENV} must be an integer, got {raw!r}")


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


@dataclass(frozen=True)
class Count:
    """A tableau count and how it was obtained.

    ``route`` names the closed form, or is ``oracle`` for the profile DP;
    ``ratio`` is the closed form's factored value (None on the oracle
    route), and ``cells`` the size of the shape.
    """

    route: str
    cells: int
    value: int
    ratio: FactoredRatio | None = None
    conjectural: bool = False


def _closed_form(route: str, ratio: FactoredRatio, cells: int, conjectural: bool = False) -> Count:
    """The count of a closed form, from its factored value."""
    return Count(route, cells, ratio.to_integer(), ratio, conjectural)


def resolve(desc: ShapeDescriptor, method: str) -> Count:
    """Count ``desc`` by ``method``: ``formula`` takes the closed form and
    raises :class:`NoFormulaAvailable` without one, ``oracle`` runs the DP,
    and ``auto`` takes the closed form when there is one, else the DP.

    The formula route never needs the cells.  Every descriptor a closed
    form matches builds a region, so an invalid one reaches
    ``desc.region()`` and fails there with the same message on every route.
    """
    if method != "oracle":
        if desc.family == "part":
            return _closed_form("frobenius-young", frobenius_young_ratio(desc.lam), desc.size)
        if desc.family == "shifted":
            return _closed_form("schur", schur_ratio(desc.lam), desc.size)
        if not desc.kappa.parts:
            if desc.family == "stair":
                return _closed_form("staircase", staircase_ratio(desc.m), desc.size)
            return _closed_form("rectangle", rectangle_ratio(desc.m, desc.n), desc.size)
        for family in FAMILIES.values():
            params = family.match(desc)
            if params is not None:
                return _closed_form(family.name, family.ratio(*params), desc.size,
                                    family.conjectural)
    region = desc.region()
    if method == "formula":
        raise NoFormulaAvailable(f"no closed form for {desc.text}")
    return Count("oracle", region.size, count_syt(region))


def _factored(count: Count) -> tuple[Factorization, bool]:
    """The count's prime factorization, and whether it is N-smooth for N
    its number of cells.  Only an oracle count has to be factored; a closed
    form carries its primes."""
    ratio = FactoredRatio.from_integer(count.value) if count.ratio is None else count.ratio
    fac = ratio.factorization()
    return fac, fac.is_smooth(count.cells)


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
    if not args.check:
        count = resolve(desc, args.method)
        print(_fmt_count(count.value))
        _note_conjecture(count.route, count.conjectural)
        return 0
    formula, oracle = resolve(desc, "formula"), resolve(desc, "oracle")
    label = f"{formula.route} CONJECTURE" if formula.conjectural else formula.route
    print(f"formula[{label}] {_fmt_count(formula.value)}")
    print(f"oracle {_fmt_count(oracle.value)}")
    _note_conjecture(formula.route, formula.conjectural)
    if formula.value != oracle.value:
        print("MISMATCH")
        return 1
    print("OK")
    return 0


def cmd_factor(args: argparse.Namespace) -> int:
    count = resolve(parse_descriptor(args.shape), args.method)
    fac, smooth = _factored(count)
    print(f"count {_fmt_count(count.value)}")
    print(f"factorization {fac}")
    print(f"largest_prime {fac.largest_prime}")
    print(f"N {count.cells}")
    print(f"N_smooth {'yes' if smooth else 'no'}")
    _note_conjecture(count.route, count.conjectural)
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
        return _print_check(label, sum_at(t), want)
    bad = [s for s in range(top + 1) if sum_at(s) != want]
    print(f"{label} all t")
    print(f"RHS {_decimal(want)}")
    print("PASS" if not bad else f"FAIL at t={bad}")
    return 0 if not bad else 1


def _verify_coeff(label: str, coefficient: FactoredRatio, terms, count_of) -> int:
    """Check each pair term against ``coefficient * f(lam) * f(lam_c)``, in integers."""
    value = coefficient.to_fraction()
    num, den = value.numerator, value.denominator
    checked = [
        (lam, lhs, exact_quotient(num * count_of(lam) * count_of(lam_c), den))
        for lam, lam_c, _, _, lhs in terms
    ]
    failures = [(lam, lhs, rhs) for lam, lhs, rhs in checked if lhs != rhs]
    print(label)
    over = "" if den == 1 else f"/{_decimal(den)}"
    print(f"coefficient {_decimal(num)}{over}")
    print(f"instances {len(checked)}")
    for lam, lhs, rhs in failures:
        print(f"FAIL at lam={lam}: {_decimal(lhs)} != {_decimal(rhs)}")
    print("PASS" if not failures else "FAIL")
    return 0 if not failures else 1


def _verify_pivot(label: str, report) -> int:
    head = f"{label}\nregion cells {report.region.size} pivot {report.pivot}"
    return _print_check(head, report.tableau_count, report.identity_sum)


def _oracle_counter(geometry: str, kappa: Partition) -> Callable[[Sequence[int]], Count]:
    """``sides -> resolve(desc, "oracle")`` for the descriptor ``desc`` that
    ``count`` reads for that ``stair`` or ``rect`` less ``kappa``, once the
    budget (read at the first row checked) allows ``desc.size`` cells; a
    negative side skips the budget and gets the builder's message."""
    budget = None

    def count(sides: Sequence[int]) -> Count:
        nonlocal budget
        desc = ShapeDescriptor("", geometry, None, *sides, kappa=kappa)
        if min(sides) >= 0:
            budget = _oracle_budget() if budget is None else budget
            if desc.size > budget:
                raise RangeTooLarge(f"brute-force count over {desc.size} cells exceeds the "
                                    f"budget of {budget}; raise {ORACLE_LIMIT_ENV} to allow it")
        return resolve(desc, "oracle")
    return count


def _verify_conjecture(label: str, n: int) -> int:
    family = FAMILIES["square-minus-two"]
    family.check(n)
    sides, kappa = family.shape(n)
    count = _oracle_counter(family.geometry, Partition(kappa))(sides)
    print("CONJECTURE: the closed form below is unproved")
    return _print_check(label, count.value, conjecture_square_minus_two(n))


@dataclass(frozen=True)
class _Identity:
    """How ``verify`` reads one identity's options and checks them.

    ``options`` are read in order, so a missing one is reported before any
    later one.  ``--mu`` is read as a ``mu`` (strict or ordinary) partition,
    the ``nonnegative`` options are checked once the last of them is read,
    and ``--t`` may be left out where ``t_optional``.  ``check`` takes the
    label and the values and calls the library by module-level name, so a
    wrapper put there is seen.
    """

    options: tuple[str, ...]
    check: Callable[..., int]
    mu: type | None = None
    nonnegative: tuple[str, ...] = ()
    t_optional: bool = False


_BOX = ("m", "n")  # the box sides of a rectangle identity
_ORDER = ("m",)  # the order of a staircase identity

_IDENTITIES = {
    "sum-shifted": _Identity(
        ("m", "t"), nonnegative=_ORDER, t_optional=True, check=lambda label, m, t: (
            _verify_sum(label, staircase_count(m), m * (m + 1) // 2,
                        lambda s: sum_identity_shifted(m, s), t))),
    "sum-rect": _Identity(
        ("m", "n", "t"), nonnegative=_BOX, t_optional=True, check=lambda label, m, n, t: (
            _verify_sum(label, rectangle_count(m, n), m * n,
                        lambda s: sum_identity_rect(m, n, s), t))),
    "coeff-c": _Identity(
        ("mu", "m", "t"), mu=StrictPartition, nonnegative=_ORDER, check=lambda label, *v: (
            _verify_coeff(label, coeff_c(*v), stair_pair_terms(*v), schur_count))),
    "coeff-d": _Identity(
        ("mu", "k", "m", "n", "t"), mu=Partition, nonnegative=_BOX, check=lambda label, *v: (
            _verify_coeff(label, coeff_d(*v), rect_pair_terms(*v), frobenius_young))),
    "main-stair": _Identity(
        ("mu", "m"), mu=StrictPartition, nonnegative=_ORDER, check=lambda label, *v: (
            _print_check(label, theorem_staircase_sum_direct(*v), theorem_staircase_sum(*v)))),
    "main-rect": _Identity(
        ("mu", "k", "m", "n"), mu=Partition, nonnegative=_BOX, check=lambda label, *v: (
            _print_check(label, theorem_rect_sum_direct(*v), theorem_rect_sum(*v)))),
    "binomial": _Identity(
        ("t1", "t2", "N"), nonnegative=("t1", "t2", "N"), check=lambda label, t1, t2, up: (
            _print_check(label, binomial_convolution_lhs(t1, t2, up),
                         binomial(t1 + t2 + up + 1, t1 + t2 + 1)))),
    "pivot-stair": _Identity(
        ("mu", "m"), mu=StrictPartition, nonnegative=_ORDER, check=lambda label, *v: (
            _verify_pivot(label, verify_pivot_identity_staircase(*v)))),
    "pivot-rect": _Identity(
        ("mu", "k", "m", "n"), mu=Partition, nonnegative=_BOX, check=lambda label, *v: (
            _verify_pivot(label, verify_pivot_identity_rect(*v)))),
    "conjecture": _Identity(("n",), check=_verify_conjecture),
}


def _option(args: argparse.Namespace, name: str, owner: str):
    """The value of ``--name``, which ``owner`` (an identity or a family) needs."""
    value = getattr(args, name)
    if value is None:
        raise UnknownIdentity(f"{owner} needs --{name}")
    return value


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _IDENTITIES[args.identity]
    owner = f"identity {args.identity!r}"
    values = {}
    for name in spec.options:
        value = args.t if name == "t" and spec.t_optional else _option(args, name, owner)
        values[name] = spec.mu(value) if name == "mu" else value
        if spec.nonnegative and name == spec.nonnegative[-1]:
            for key in spec.nonnegative:
                if values[key] < 0:
                    raise ValueError(f"--{key} must be nonnegative, got {values[key]}")
    words = [f"{key}={value}" for key, value in values.items() if value is not None]
    return spec.check(" ".join(["identity", args.identity, *words]), *values.values())


# Scan families that count a given ``--kappa`` by the oracle: (outline, parameter names).
_ORACLE_SCANS = {
    "stair-trunc": ("stair", ("m",)),
    "rect-trunc": ("rect", ("m", "n")),
}
_SCAN_FAMILIES = [*FAMILIES, *_ORACLE_SCANS]
_SCAN_FIELDS = ("family", "params", "N", "count", "largest_prime", "n_smooth")


def _grid(axes: list[range]):
    """The tuples of ``itertools.product(*axes)``, in its order, without
    first copying each axis: a huge range fails on its first bad row, and
    an empty axis gives no rows however long the others are."""
    if not axes:
        yield ()
    elif all(axes):  # bool, not len: len overflows on a huge range
        for value in axes[0]:
            for rest in _grid(axes[1:]):
                yield (value, *rest)


def _scan_records(args) -> list[dict]:
    """One record of ``_SCAN_FIELDS`` per row of the scan."""
    family = FAMILIES.get(args.family)
    if family is None:
        geometry, names = _ORACLE_SCANS[args.family]
        kappa = Partition(args.kappa or ())
        oracle_count = _oracle_counter(geometry, kappa)
    else:
        names = family.params
    axes = [_option(args, name, f"family {args.family!r}") for name in names]
    records = []
    for values in _grid(axes):
        params = dict(zip(names, values))
        if family is None:
            count = oracle_count(values)
            params["kappa"] = list(kappa.parts)
        else:  # the ratio checks the range first
            count = _closed_form(family.name, family.ratio(*values), family.cells(*values),
                                 family.conjectural)
        fac, smooth = _factored(count)
        fields = (args.family, params, count.cells, _decimal(count.value),
                  fac.largest_prime, smooth)
        records.append(dict(zip(_SCAN_FIELDS, fields)))
    return records


def _scan_field(value) -> str:
    """A field of a scan record as the text and csv formats print it."""
    if isinstance(value, dict):  # the parameters
        return " ".join(f"{key}={_scan_field(v)}" for key, v in value.items())
    if isinstance(value, list):  # a truncation
        return f"({','.join(map(str, value))})"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def cmd_scan(args: argparse.Namespace) -> int:
    records = _scan_records(args)
    if args.family in FAMILIES:
        _note_conjecture(args.family, FAMILIES[args.family].conjectural)
    if args.format == "json":
        print(json.dumps(records, indent=2))
        return 0
    table = [_SCAN_FIELDS, *([_scan_field(v) for v in r.values()] for r in records)]
    if args.format == "csv":
        import csv  # here, so that process start does not pay for it
        csv.writer(sys.stdout, lineterminator="\n").writerows(table)
        return 0
    widths = [max(map(len, column)) for column in zip(*table)]
    for row in table:
        print("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip())
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be nonnegative, got {args.limit}")
    region = parse_descriptor(args.shape).region()
    width = len(str(region.size))
    layout = "".join(  # one tableau's text, each row ending in a newline
        " " * ((s - 1) * (width + 1)) + " ".join([f"{{:>{width}}}"] * (hi - lo)) + "\n"
        for _, s, lo, hi in region.order.rows
    )
    gap = ""  # a blank line before each tableau after the first
    for t in enumerate_syt(region, limit=args.limit):
        print(gap + layout.format(*t.flat), end="")
        gap = "\n"
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


# A ``LO..HI`` range or comma list led by a minus sign, which argparse
# would read as an option rather than as the value of the option before it.
_NEGATIVE_LIST = re.compile(r"-\d+(\.\.|,).*")
_LIST_OPTIONS = ("--m", "--n", "--k", "--mu", "--kappa")


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """Join ``--m -1..2`` into ``--m=-1..2`` and ``--mu -3,1`` into
    ``--mu=-3,1``, the forms argparse accepts."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _LIST_OPTIONS and _NEGATIVE_LIST.fullmatch(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv)
    )
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    """Run :func:`main` as the process: a reader that closes the pipe early
    ends it with exit 1 and nothing on stderr, Ctrl-C with one line and 130."""
    try:
        try:
            code = main()
        finally:  # also when argparse exits after --help
            sys.stdout.flush()
    except BrokenPipeError:
        # Python's note on SIGPIPE: the flush at exit must not meet the pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = 130
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
