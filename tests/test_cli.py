"""End-to-end checks of the command-line interface via main(argv)."""

import contextlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from sytcount import arith, cli
from sytcount.arith import factorize
from sytcount.cli import (
    ORACLE_LIMIT_ENV, NoFormulaAvailable, _print_check, entry_point, main, resolve,
)
from sytcount.count import count_syt, enumerate_syt
from sytcount.formulas import (
    coeff_c, coeff_d, frobenius_young, frobenius_young_ratio, rect_pair_terms, rectangle_count,
    schur_count, schur_ratio, stair_pair_terms, staircase_count,
)
from sytcount.shapes import CellRegion, ShapeDescriptor, ShapeError, parse_descriptor
from sytcount.truncated import FAMILIES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_auto(self, capsys):
        code, out, _ = run(capsys, "count", "part:3,3")
        assert code == 0 and out == "5\n"

    def test_huge_part_with_a_small_one_needs_no_big_sieve(self):
        # 10000005! / 10000001! is the product of four integers, factored
        # directly instead of sieving the primes up to 10^7.
        script = (
            "import io, time, contextlib\n"
            "from sytcount.cli import main\n"
            "out = io.StringIO()\n"
            "t0 = time.process_time()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = main(['count', 'part:10000000,5'])\n"
            "print(code, out.getvalue().strip(), time.process_time() - t0)\n"
            "try:\n"
            "    with open('/proc/self/status') as fh:\n"
            "        print([l.split()[1] for l in fh if l.startswith('VmHWM:')][0])\n"
            "except OSError:\n"
            "    print(0)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        first, peak_kb = result.stdout.splitlines()
        code, count, cpu_s = first.split()
        assert (code, count) == ("0", "833334166666791666558333291999996")
        assert float(cpu_s) < 0.1
        assert int(peak_kb) < 25 * 1024

    @pytest.mark.parametrize(
        "shape, count",
        [
            ("part:10000000000000000000,1", "10000000000000000000"),
            ("shifted:10000000000000000000,1", "9999999999999999999"),
        ],
    )
    def test_part_past_any_list_with_a_small_one_still_counts(self, capsys, shape, count):
        # Two close factorial arguments are divided out before the sieve
        # would be asked for primes up to them, so no TooLarge is raised.
        code, out, _ = run(capsys, "count", shape)
        assert code == 0 and out == count + "\n"

    @pytest.mark.parametrize("method", ["formula", "oracle"])
    def test_methods_agree(self, capsys, method):
        code, out, _ = run(capsys, "count", "stair:6/1", "--method", method)
        assert code == 0 and out == "6384\n"

    def test_check_ok(self, capsys):
        code, out, _ = run(capsys, "count", "part:3,2,1", "--check")
        assert code == 0
        assert out == "formula[frobenius-young] 16\noracle 16\nOK\n"

    def test_check_reports_a_mismatch(self, capsys, monkeypatch):
        wrong = arith.FactoredRatio.from_integer(17)
        monkeypatch.setattr(cli, "frobenius_young_ratio", lambda lam: wrong)
        code, out, _ = run(capsys, "count", "part:3,2,1", "--check")
        assert code == 1
        assert out == "formula[frobenius-young] 17\noracle 16\nMISMATCH\n"

    def test_check_conjecture_label(self, capsys):
        code, out, _ = run(capsys, "count", "rect:3x3/2", "--check")
        assert code == 0
        assert out.splitlines()[0] == "formula[square-minus-two CONJECTURE] 5"
        assert out.splitlines()[-1] == "OK"

    def test_no_formula_family_falls_back(self, capsys):
        # a truncation outside every family still counts via brute force
        code, out, _ = run(capsys, "count", "stair:6/3,1")
        assert code == 0 and out.strip().isdigit()

    def test_no_formula_family_strict_method_fails(self, capsys):
        code, _, err = run(capsys, "count", "stair:6/3,1", "--method", "formula")
        assert code == 2 and "no closed form" in err

    def test_family_match_beats_brute_force(self, capsys):
        # kappa (2,1) is the k=2 sq+1 truncation, so formula mode works
        code, out, _ = run(capsys, "count", "stair:5/2,1", "--method", "formula")
        assert code == 0 and out == "8\n"

    def test_wide_counts_get_digit_suffix(self, capsys):
        value = rectangle_count(20, 20)
        assert len(str(value)) > 80
        code, out, _ = run(capsys, "count", "rect:20x20", "--method", "formula")
        assert code == 0
        assert out == f"{value} ({len(str(value))} digits)\n"

    def test_counts_past_the_int_str_limit_print(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "count", "rect:70x70")
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        digits, suffix = out.rstrip("\n").split(" ", 1)
        assert len(digits) == 7157 and suffix == "(7157 digits)"
        sys.set_int_max_str_digits(0)
        try:
            assert int(digits) == rectangle_count(70, 70)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_bad_shape_exits_2(self, capsys):
        code, _, err = run(capsys, "count", "blob:3")
        assert code == 2 and err.startswith("error:")
        code, _, err = run(capsys, "count", "part:1,a")
        assert code == 2 and err.startswith("error:")

    INVALID = [
        ("rect:3x3/4", "truncation (4) does not fit inside 3x3"),
        ("stair:4/4", "truncation (4) would empty row 1 of the staircase of order 4"),
        ("rect:3x3/1,1,1,1", "truncation (1,1,1,1) does not fit inside 3x3"),
        ("part:3,4", "parts must be weakly decreasing: (3, 4)"),
        ("shifted:2,2", "parts must be strictly decreasing: (2, 2)"),
        ("stair:-1", "staircase order must be nonnegative: -1"),
        ("rect:-1x3", "rectangle sides must be nonnegative: -1x3"),
    ]

    @pytest.mark.parametrize("method", ["auto", "formula"])
    @pytest.mark.parametrize("shape,message", INVALID)
    def test_invalid_descriptor_message(self, capsys, shape, message, method):
        result = run(capsys, "count", shape, "--method", method)
        assert result == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("method", ["auto", "formula"])
    @pytest.mark.parametrize("shape", ["rect:0x0", "stair:0"])
    def test_empty_shapes(self, capsys, shape, method):
        assert run(capsys, "count", shape, "--method", method) == (0, "1\n", "")

    def test_formula_route_builds_no_region(self, capsys, monkeypatch):
        def no_region(desc):
            raise AssertionError(f"built the region of {desc.text}")

        monkeypatch.setattr(ShapeDescriptor, "region", no_region)
        for shape in ("rect:70x70", "stair:6/1", "part:3,3", "shifted:3,1", "rect:3x3/2"):
            for method in ("auto", "formula"):
                code, out, _ = run(capsys, "count", shape, "--method", method)
                assert code == 0 and out.strip(), (shape, method)


class TestFactor:
    def test_smooth_count(self, capsys):
        code, out, _ = run(capsys, "factor", "stair:6/1")
        assert code == 0
        assert out == (
            "count 6384\n"
            "factorization 2^4 * 3 * 7 * 19\n"
            "largest_prime 19\n"
            "N 20\n"
            "N_smooth yes\n"
        )

    def test_non_smooth_count(self, capsys):
        code, out, _ = run(capsys, "factor", "rect:6x7/2")
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert lines["count"] == "107368143474415824"
        assert lines["largest_prime"] == "5333"
        assert lines["N"] == "40"
        assert lines["N_smooth"] == "no"

    def test_formula_route_builds_no_region(self, capsys, monkeypatch):
        shapes = ("rect:70x70", "stair:6/1", "part:3,3", "shifted:3,1", "rect:3x3/2")
        want = {shape: str(parse_descriptor(shape).region().size) for shape in shapes}

        def no_region(desc):
            raise AssertionError(f"built the region of {desc.text}")

        monkeypatch.setattr(ShapeDescriptor, "region", no_region)
        for shape, cells in want.items():
            for method in ("auto", "formula"):
                fields = _factor_fields(capsys, shape, "--method", method)
                assert fields["N"] == cells, (shape, method)

    @pytest.mark.parametrize("method", ["auto", "formula", "oracle"])
    @pytest.mark.parametrize("shape,message", TestCount.INVALID)
    def test_invalid_descriptor_message(self, capsys, shape, message, method):
        result = run(capsys, "factor", shape, "--method", method)
        assert result == (2, "", f"error: {message}\n")


class TestResolve:
    # A descriptor per route that auto and formula take.  The corner
    # families have no matcher: their shapes are the sq families' at k = 2.
    ROUTES = {
        "part:4,2,1": "frobenius-young",
        "shifted:5,3": "schur",
        "stair:5": "staircase",
        "rect:3x4": "rectangle",
        "stair:6/1": "stair-sq",
        "stair:6/2,1": "stair-sq+1",
        "rect:4x5/1": "rect-sq",
        "rect:4x4/3,3,2": "rect-sq+1",
        "rect:4x4/2": "square-minus-two",
    }

    def test_routes_cover_every_matched_family(self):
        assert set(self.ROUTES.values()) >= {n for n, f in FAMILIES.items() if f.propose}

    @pytest.mark.parametrize("method", ["auto", "formula", "oracle"])
    @pytest.mark.parametrize("shape", sorted(ROUTES))
    def test_route_and_value(self, shape, method):
        desc = parse_descriptor(shape)
        count = resolve(desc, method)
        oracle = method == "oracle"
        assert count.route == ("oracle" if oracle else self.ROUTES[shape])
        assert count.value == count_syt(desc.region())
        assert (count.ratio is None) == oracle
        assert count.conjectural == (count.route == "square-minus-two")

    @pytest.mark.parametrize("shape", ["rect:3x3/1,1", "stair:6/3,1", "rect:3x3/1,1,1"])
    def test_no_closed_form(self, shape):
        desc = parse_descriptor(shape)
        count = resolve(desc, "auto")
        assert count.route == "oracle" and not count.conjectural
        assert (count.cells, count.value) == (desc.region().size, count_syt(desc.region()))
        with pytest.raises(NoFormulaAvailable):
            resolve(desc, "formula")

    @pytest.mark.parametrize("method", ["auto", "formula", "oracle"])
    def test_shape_error_comes_before_no_formula(self, method):
        with pytest.raises(ShapeError):
            resolve(parse_descriptor("rect:3x3/4"), method)

    def test_formula_route_reads_cells_off_the_descriptor(self, monkeypatch):
        cells = {shape: parse_descriptor(shape).region().size for shape in self.ROUTES}

        def no_region(desc):
            raise AssertionError(f"built the region of {desc.text}")

        monkeypatch.setattr(ShapeDescriptor, "region", no_region)
        for shape, size in cells.items():
            for method in ("auto", "formula"):
                assert resolve(parse_descriptor(shape), method).cells == size, shape


def _family_kappa(sq: bool, k: int) -> str:
    kappa = (k - 1,) * (k - 1) if sq else (k,) * (k - 1) + (k - 1,)
    return ",".join(str(p) for p in kappa if p)


def _with_kappa(base: str, kappa: str) -> str:
    return f"{base}/{kappa}" if kappa else base


# Descriptors of shapes the closed forms cover, by family.
FAMILY_SHAPES = {
    "stair-sq": [
        _with_kappa(f"stair:{m + 2 * k}", _family_kappa(True, k))
        for m in range(7) for k in range(2, 5)
    ],
    "stair-sq+1": [
        _with_kappa(f"stair:{m + 2 * k}", _family_kappa(False, k))
        for m in range(7) for k in range(1, 5)
    ],
    "rect-sq": [
        _with_kappa(f"rect:{m + k}x{n + k}", _family_kappa(True, k))
        for m in range(5) for n in range(5) for k in range(2, 5)
    ],
    "rect-sq+1": [
        _with_kappa(f"rect:{m + k}x{n + k}", _family_kappa(False, k))
        for m in range(5) for n in range(5) for k in range(1, 5)
    ],
    "stair-corner": [f"stair:{m + 4}/1" for m in range(11)],
    "rect-corner": [f"rect:{m + 2}x{n + 2}/1" for m in range(6) for n in range(6)],
    "square-minus-two": [f"rect:{n}x{n}/2" for n in range(2, 13)],
    "part-shifted": [
        "part:5,3,1", "part:12,12,7,3", "part:30,20,10,5,1",
        "shifted:5,3,1", "shifted:12,9,4", "shifted:20,15,11,6,2",
    ],
}


def _factor_fields(capsys, *argv: str) -> dict[str, str]:
    code, out, _ = run(capsys, "factor", *argv)
    assert code == 0
    return dict(line.split(" ", 1) for line in out.splitlines())


class TestFactorFromClosedForm:
    @pytest.mark.parametrize("family", sorted(FAMILY_SHAPES))
    def test_factorization_matches_factorize(self, capsys, family):
        for shape in FAMILY_SHAPES[family]:
            fields = _factor_fields(capsys, shape)
            count = int(fields["count"].split(" ", 1)[0])
            assert fields["factorization"] == str(factorize(count)), shape

    def test_counts_never_refactored(self, capsys, monkeypatch):
        seen = []
        real = arith.factorize
        monkeypatch.setattr(arith, "factorize", lambda v: seen.append(v) or real(v))
        counts = set()
        for shapes in FAMILY_SHAPES.values():
            for shape in shapes:
                counts.add(int(_factor_fields(capsys, shape)["count"].split(" ", 1)[0]))
        for argv in (
            ("--family", "stair-sq", "--m", "0..6", "--k", "2..4"),
            ("--family", "stair-sq+1", "--m", "0..6", "--k", "1..4"),
            ("--family", "rect-sq", "--m", "0..4", "--n", "0..4", "--k", "2..4"),
            ("--family", "rect-sq+1", "--m", "0..4", "--n", "0..4", "--k", "1..4"),
            ("--family", "stair-corner", "--m", "0..10"),
            ("--family", "rect-corner", "--m", "0..5", "--n", "0..5"),
            ("--family", "square-minus-two", "--n", "2..12"),
        ):
            code, out, _ = run(capsys, "scan", *argv, "--format", "json")
            assert code == 0
            counts.update(int(r["count"]) for r in json.loads(out))
        assert not counts & set(seen)
        # an oracle count is still factored, which shows the patch is live
        oracle = _factor_fields(capsys, "rect:5x5/2", "--method", "oracle")
        assert int(oracle["count"]) in seen

    @pytest.mark.parametrize("family", sorted(FAMILY_SHAPES))
    def test_cell_count_is_the_region_size(self, capsys, family):
        for shape in FAMILY_SHAPES[family]:
            fields = _factor_fields(capsys, shape)
            assert fields["N"] == str(parse_descriptor(shape).region().size), shape


class TestConjectureNote:
    NOTE = "note: square-minus-two closed form is a CONJECTURE (unproved)\n"

    @pytest.mark.parametrize(
        "argv,out",
        [
            (("count", "rect:4x4/2"), "1176\n"),
            (("count", "rect:4x4/2", "--method", "formula"), "1176\n"),
            (
                ("count", "rect:4x4/2", "--check"),
                "formula[square-minus-two CONJECTURE] 1176\noracle 1176\nOK\n",
            ),
            (
                ("factor", "rect:4x4/2"),
                "count 1176\nfactorization 2^3 * 3 * 7^2\nlargest_prime 7\n"
                "N 14\nN_smooth yes\n",
            ),
            (
                (
                    "scan", "--family", "square-minus-two",
                    "--n", "2..3", "--format", "csv",
                ),
                "family,params,N,count,largest_prime,n_smooth\n"
                "square-minus-two,n=2,2,1,1,yes\nsquare-minus-two,n=3,7,5,5,yes\n",
            ),
        ],
    )
    def test_conjectural_form_notes_on_stderr(self, capsys, argv, out):
        assert run(capsys, *argv) == (0, out, self.NOTE)

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "rect:4x4/2", "--method", "oracle"),
            ("factor", "rect:4x4/2", "--method", "oracle"),
            ("count", "rect:4x4/2,1"),
            ("count", "stair:6/1", "--check"),
            ("count", "part:3,3"),
            ("factor", "rect:4x5/1"),
            ("scan", "--family", "stair-corner", "--m", "0..2"),
            ("scan", "--family", "rect-trunc", "--m", "3", "--n", "3", "--kappa", "2"),
        ],
    )
    def test_proved_forms_and_the_oracle_write_no_stderr(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("family", sorted(FAMILY_SHAPES))
    def test_only_the_conjectural_family_notes(self, capsys, family):
        for shape in FAMILY_SHAPES[family]:
            code, _, err = run(capsys, "count", shape)
            assert code == 0
            assert err == (self.NOTE if family == "square-minus-two" else ""), shape


class TestVerify:
    PASSING = [
        ("sum-shifted", "--m", "4"),
        ("sum-shifted", "--m", "4", "--t", "3"),
        ("sum-rect", "--m", "3", "--n", "3"),
        ("sum-rect", "--m", "3", "--n", "3", "--t", "4"),
        ("sum-rect", "--m", "1000", "--n", "1", "--t", "1000"),
        ("coeff-c", "--mu", "4", "--m", "3", "--t", "3"),
        ("coeff-d", "--mu", "1", "--k", "2", "--m", "2", "--n", "2", "--t", "2"),
        ("coeff-d", "--mu", "0", "--k", "1", "--m", "1000", "--n", "1", "--t", "1000"),
        ("main-stair", "--mu", "4,2", "--m", "1"),
        ("main-rect", "--mu", "1", "--k", "2", "--m", "1", "--n", "1"),
        ("binomial", "--t1", "2", "--t2", "3", "--N", "4"),
        ("pivot-stair", "--mu", "3,1", "--m", "0"),
        ("pivot-rect", "--mu", "1", "--k", "2", "--m", "1", "--n", "1"),
        ("conjecture", "--n", "3"),
    ]
    # coefficients past the default int-to-str limit of 4,300 digits
    LONG_COEFFICIENT = [
        ("coeff-c", "--mu", "12000,6000", "--m", "2", "--t", "1"),
        ("coeff-d", "--mu", "9000,4000", "--k", "2", "--m", "1", "--n", "1", "--t", "1"),
    ]

    @pytest.mark.parametrize("argv", PASSING + LONG_COEFFICIENT, ids=lambda a: " ".join(a))
    def test_passing_instances(self, capsys, argv):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert out.splitlines()[-1] == "PASS"
        if argv in self.LONG_COEFFICIENT:
            assert len(out.splitlines()[1].removeprefix("coefficient ")) > 4300

    def test_sum_shifted_single_t_sums_once(self, capsys, monkeypatch):
        calls = []
        real = cli.sum_identity_shifted
        monkeypatch.setattr(
            cli, "sum_identity_shifted", lambda m, t: calls.append((m, t)) or real(m, t)
        )
        code, out, _ = run(capsys, "verify", "sum-shifted", "--m", "5", "--t", "3")
        assert code == 0 and out.splitlines()[-1] == "PASS"
        assert calls == [(5, 3)]

    def test_coeff_c_reports_instances(self, capsys):
        _, out, _ = run(capsys, "verify", "coeff-c", "--mu", "4", "--m", "3", "--t", "3")
        assert "instances 2" in out

    def test_pivot_stair_reports_cell(self, capsys):
        _, out, _ = run(capsys, "verify", "pivot-stair", "--mu", "3,1", "--m", "0")
        assert "region cells 9 pivot (2, 3)" in out

    def test_conjecture_banner(self, capsys):
        _, out, _ = run(capsys, "verify", "conjecture", "--n", "3")
        assert out.splitlines()[0] == "CONJECTURE: the closed form below is unproved"

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "verify", "main-stair", "--m", "2")
        assert code == 2 and "needs --mu" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("pivot-rect", "--mu", "0", "--k", "1"),
            ("main-rect", "--mu", "0", "--k", "1"),
            ("coeff-d", "--mu", "0", "--k", "1", "--t", "0"),
        ],
        ids=lambda a: a[0],
    )
    @pytest.mark.parametrize("name", ["m", "n"])
    def test_negative_rectangle_side_names_the_option(self, capsys, argv, name):
        sides = {"m": "2", "n": "2", name: "-1"}
        code, out, err = run(
            capsys, "verify", *argv, "--m", sides["m"], "--n", sides["n"]
        )
        assert (code, out) == (2, "")
        assert err == f"error: --{name} must be nonnegative, got -1\n"

    def test_missing_side_is_reported_before_a_negative_one(self, capsys):
        code, _, err = run(
            capsys, "verify", "main-rect", "--mu", "0", "--k", "1", "--m", "-1"
        )
        assert code == 2 and err == "error: identity 'main-rect' needs --n\n"

    @pytest.mark.parametrize(
        "argv,name,value",
        [
            (("binomial", "--t1", "2", "--t2", "3", "--N", "-5"), "N", -5),
            (("binomial", "--t1", "-1", "--t2", "3", "--N", "4"), "t1", -1),
            (("binomial", "--t1", "0", "--t2", "-2", "--N", "0"), "t2", -2),
            (("sum-rect", "--m", "-1", "--n", "2"), "m", -1),
            (("sum-rect", "--m", "2", "--n", "-3", "--t", "1"), "n", -3),
            (("sum-shifted", "--m", "-1"), "m", -1),
            (("coeff-c", "--mu", "1", "--m", "-1", "--t", "0"), "m", -1),
            (("main-stair", "--mu", "1", "--m", "-2"), "m", -2),
            (("pivot-stair", "--mu", "1", "--m", "-1"), "m", -1),
        ],
        ids=lambda a: " ".join(a) if isinstance(a, tuple) else str(a),
    )
    def test_negative_size_names_the_option(self, capsys, argv, name, value):
        assert run(capsys, "verify", *argv) == (
            2, "", f"error: --{name} must be nonnegative, got {value}\n"
        )

    def test_missing_size_is_reported_before_a_negative_one(self, capsys):
        code, out, err = run(capsys, "verify", "binomial", "--t1", "-1", "--t2", "3")
        assert (code, out, err) == (2, "", "error: identity 'binomial' needs --N\n")

    def test_check_helper_reports_failures(self, capsys):
        assert _print_check("demo", 1, 2) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL"

    def test_coeff_reports_each_failing_instance(self, capsys, monkeypatch):
        real = cli.coeff_d
        monkeypatch.setattr(cli, "coeff_d", lambda *v: real(*v).times(2))
        code, out, _ = run(capsys, "verify", "coeff-d", "--mu", "1", "--k", "2",
                           "--m", "2", "--n", "2", "--t", "2")
        assert code == 1
        lines = out.splitlines()
        assert lines[1:3] == ["coefficient 1470", "instances 2"]  # twice 735
        fails = lines[3:-1]
        assert len(fails) == 2 and lines[-1] == "FAIL"
        for line in fails:
            lam, _, rest = line.removeprefix("FAIL at lam=").partition(": ")
            lhs, rhs = rest.split(" != ")
            assert lam in ("(2)", "(1,1)") and int(rhs) == 2 * int(lhs)

    def test_coeff_failure_past_the_digit_limit_is_reported(self, capsys, monkeypatch):
        real = cli.coeff_c
        monkeypatch.setattr(cli, "coeff_c", lambda *v: real(*v).times(2))
        code, out, _ = run(capsys, "verify", *self.LONG_COEFFICIENT[0])
        assert code == 1
        *_, fail, verdict = out.splitlines()
        lhs, _, rhs = fail.removeprefix("FAIL at lam=(1): ").partition(" != ")
        assert verdict == "FAIL" and lhs.isdigit() and rhs.isdigit()
        assert 4300 < len(lhs) <= len(rhs) <= len(lhs) + 1
        # int() refuses the whole numbers, so compare their last 50 digits
        assert int(rhs[-50:]) == 2 * int(lhs[-50:]) % 10**50

    def test_non_integral_right_side_is_one_error(self, capsys, monkeypatch):
        real = cli.coeff_d
        monkeypatch.setattr(cli, "coeff_d", lambda *v: real(*v).over(1000003))
        code, out, err = run(capsys, "verify", "coeff-d", "--mu", "1", "--k", "2",
                             "--m", "2", "--n", "2", "--t", "2")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "leaves remainder" in err
        assert "Traceback" not in err

    def test_non_integral_right_side_past_the_digit_limit_names_the_remainder(self, capsys, monkeypatch):
        # the right side's numerator has about 10,000 digits, past the int-to-str
        # limit: the message gives its size and the remainder in digits
        real = cli.coeff_c
        monkeypatch.setattr(cli, "coeff_c", lambda *v: real(*v).over(1000003))
        code, out, err = run(capsys, "verify", *self.LONG_COEFFICIENT[0])
        assert (code, out) == (2, "")
        head, _, remainder = err.removeprefix("error: a ").partition("-bit integer / ")
        den, _, remainder = remainder.partition(" leaves remainder ")
        assert int(head) > 14_300 and int(den) % 1000003 == 0
        assert remainder.endswith("\n") and 0 < int(remainder) < int(den)
        assert err.count("\n") == 1 and "Traceback" not in err

    # (identity, its coefficient, its pair terms, the factored and the integer count)
    COEFF_GRID = [
        ("coeff-c", coeff_c, stair_pair_terms, schur_ratio, schur_count,
         [(mu, m, t) for m in range(4) for mu in ((), (m + 1,), (m + 3, m + 1))
          for t in range(m * (m + 1) // 2 + 1)]),
        ("coeff-d", coeff_d, rect_pair_terms, frobenius_young_ratio, frobenius_young,
         [(mu, k, m, n, t) for mu, k in (((), 1), ((1,), 1), ((2, 1), 2)) for m in range(3)
          for n in range(3) for t in range(m * n + 1)]),
    ]

    @pytest.mark.parametrize("name,coefficient,pair_terms,ratio,count,grid", COEFF_GRID,
                             ids=[row[0] for row in COEFF_GRID])
    def test_integer_right_side_equals_the_factored_product(
        self, capsys, name, coefficient, pair_terms, ratio, count, grid
    ):
        # every left side set to -1, so each line reports the right side
        for v in grid:
            terms = [(lam, lam_c, a, b, -1) for lam, lam_c, a, b, _ in pair_terms(*v)]
            assert cli._verify_coeff(name, coefficient(*v), terms, count) == (1 if terms else 0)
            fails = capsys.readouterr().out.splitlines()[3:-1]
            assert len(fails) == len(terms), v
            for (lam, lam_c, *_), line in zip(terms, fails):
                want = (coefficient(*v) * ratio(lam) * ratio(lam_c)).to_integer()
                assert line == f"FAIL at lam={lam}: -1 != {want}", v


class TestBudget:
    def test_conjecture_over_budget(self, capsys, monkeypatch):
        monkeypatch.delenv(ORACLE_LIMIT_ENV, raising=False)
        code, _, err = run(capsys, "verify", "conjecture", "--n", "8")
        assert code == 2 and "budget" in err

    def test_env_raises_budget(self, capsys, monkeypatch):
        monkeypatch.setenv(ORACLE_LIMIT_ENV, "70")
        code, out, _ = run(capsys, "verify", "conjecture", "--n", "8")
        assert code == 0 and out.splitlines()[-1] == "PASS"

    def test_env_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv(ORACLE_LIMIT_ENV, "plenty")
        code, _, err = run(capsys, "scan", "--family", "stair-trunc", "--m", "3")
        assert code == 2 and ORACLE_LIMIT_ENV in err

    def test_scan_over_budget(self, capsys, monkeypatch):
        monkeypatch.delenv(ORACLE_LIMIT_ENV, raising=False)
        code, _, err = run(capsys, "scan", "--family", "stair-trunc", "--m", "10")
        assert code == 2 and "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [("scan", "--family", "rect-trunc", "--m", "1", "--n", "1000000"),
         ("scan", "--family", "stair-trunc", "--m", "10", "--kappa", "1"),
         ("verify", "conjecture", "--n", "8")],
    )
    def test_budget_is_checked_before_any_region_is_built(self, capsys, monkeypatch, argv):
        def refuse(region):
            raise AssertionError("a region was built")

        monkeypatch.setenv(ORACLE_LIMIT_ENV, "20")
        monkeypatch.setattr(CellRegion, "__post_init__", refuse)
        code, _, err = run(capsys, *argv)
        assert code == 2 and "exceeds the budget of 20" in err

    def test_scan_within_raised_budget(self, capsys, monkeypatch):
        monkeypatch.setenv(ORACLE_LIMIT_ENV, "60")
        code, out, _ = run(capsys, "scan", "--family", "stair-trunc", "--m", "10")
        assert code == 0
        assert str(staircase_count(10)) in out


class TestScan:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "stair-corner", "--m", "0..2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == [
            "family", "params", "N", "count", "largest_prime", "n_smooth",
        ]
        assert len(lines) == 4
        assert lines[2].split() == ["stair-corner", "m=1", "14", "70", "7", "yes"]

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--family", "rect-trunc",
            "--m", "3", "--n", "3", "--kappa", "2,1",
        )
        assert code == 0  # text mode works with kappa too
        code, out, _ = run(
            capsys, "scan", "--family", "rect-trunc",
            "--m", "3", "--n", "3", "--kappa", "2,1", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family,params,N,count,largest_prime,n_smooth"
        assert lines[1] == 'rect-trunc,"m=3 n=3 kappa=(2,1)",6,2,2,yes'

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--family", "rect-sq",
            "--m", "1", "--n", "1..2", "--k", "2", "--format", "json",
        )
        assert code == 0
        records = json.loads(out)
        assert [r["params"] for r in records] == [
            {"m": 1, "n": 1, "k": 2},
            {"m": 1, "n": 2, "k": 2},
        ]
        first = records[0]
        assert first["family"] == "rect-sq"
        assert first["N"] == 8
        assert first["count"] == "12"  # strings survive arbitrary width
        assert first["largest_prime"] == 3
        assert first["n_smooth"] is True

    def test_missing_family_parameter(self, capsys):
        code, _, err = run(capsys, "scan", "--family", "stair-sq")
        assert code == 2 and "needs --m" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--family", "stair-sq", "--m", f"0..{10**20}", "--k", "1"),
             "k must be at least 2, got 1"),
            (("--family", "stair-corner", f"--m=-{10**20}..0"),
             f"m must be nonnegative, got -{10**20}"),
            (("--family", "rect-sq", "--m", "0..2", f"--n=-{10**20}..0", "--k", "2"),
             f"n must be nonnegative, got -{10**20}"),
        ],
    )
    def test_huge_range_fails_on_its_first_row(self, capsys, argv, message):
        code, out, err = run(capsys, "scan", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "fmt, out",
        [("text", "family  params  N  count  largest_prime  n_smooth\n"),
         ("csv", "family,params,N,count,largest_prime,n_smooth\n"),
         ("json", "[]\n")],
    )
    @pytest.mark.parametrize(
        "argv",
        [("--family", "rect-corner", "--m", f"0..{10**20}", "--n", "2..1"),
         ("--family", "rect-trunc", f"--m=-{10**20}..0", "--n", "2..1")],
    )
    def test_empty_axis_after_a_huge_one_gives_no_rows_at_once(self, capsys, argv, fmt, out):
        def too_slow(signum, frame):
            raise TimeoutError("the scan walked the huge axis")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(5)
        try:
            result = run(capsys, "scan", *argv, "--format", fmt)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert result == (0, out, "")

    @pytest.mark.parametrize("option", ["--m", "--n", "--k"])
    @pytest.mark.parametrize("value", ["-1..2", "-0..2", "-3..-1", "-1..", "-1..x"])
    def test_range_led_by_a_minus_sign(self, capsys, option, value):
        """``--m -1..2`` reaches the program as ``--m=-1..2`` does."""

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the value
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        argv = ["scan", "--family", "rect-sq", "--m", "1", "--n", "1", "--k", "2"]
        at = argv.index(option) + 1
        spaced = outcome(argv[:at] + [value] + argv[at + 1 :])
        joined = outcome(argv[: at - 1] + [f"{option}={value}"] + argv[at + 1 :])
        assert spaced == joined
        assert "expected one argument" not in spaced[2]

    @pytest.mark.parametrize(
        "argv, option, value",
        [
            (["verify", "pivot-stair", "--mu", "X", "--m", "0"], "--mu", "-3,1"),
            (["verify", "coeff-d", "--mu", "X", "--k", "2", "--m", "1", "--n", "1", "--t", "0"],
             "--mu", "-1,-2"),
            (["verify", "main-rect", "--mu", "X", "--k", "1", "--m", "1", "--n", "1"], "--mu", "-1,"),
            (["scan", "--family", "rect-trunc", "--m", "3", "--n", "3", "--kappa", "X"],
             "--kappa", "-1,1"),
            (["scan", "--family", "stair-trunc", "--m", "3", "--kappa", "X"], "--kappa", "-2,x"),
            (["scan", "--family", "stair-corner", "--m", "X"], "--m", "-1,2"),
        ],
    )
    def test_list_led_by_a_minus_sign(self, capsys, argv, option, value):
        """``--mu -3,1`` reaches the program as ``--mu=-3,1`` does."""

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the value
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        at = argv.index(option)
        spaced = outcome(argv[:at + 1] + [value] + argv[at + 2 :])
        joined = outcome(argv[:at] + [f"{option}={value}"] + argv[at + 2 :])
        assert spaced == joined
        assert "expected one argument" not in spaced[2]

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["stair-trunc", "rect-trunc"]),
        m=st.tuples(st.integers(-1, 6), st.integers(-1, 6)),
        n=st.tuples(st.integers(-1, 6), st.integers(-1, 6)),
        kappa=st.lists(st.integers(1, 4), max_size=3).map(lambda ks: sorted(ks, reverse=True)),
    )
    def test_oracle_rows_are_factor_of_their_descriptor(self, family, m, n, kappa):
        """Each ``stair-trunc``/``rect-trunc`` row reads what ``factor
        --method oracle`` reads for the row's descriptor, and a scan that
        fails does so with the message of its first bad row."""

        def quiet(*argv):
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                os.environ.pop(ORACLE_LIMIT_ENV, None)
                code = main(list(argv))
            return code, out.getvalue(), err.getvalue()

        axes = [range(m[0], m[1] + 1)]
        argv = ["scan", "--family", family, f"--m={m[0]}..{m[1]}", "--format", "json"]
        if family == "rect-trunc":
            axes.append(range(n[0], n[1] + 1))
            argv.append(f"--n={n[0]}..{n[1]}")
        cut = ",".join(map(str, kappa))
        if kappa:
            argv.append(f"--kappa={cut}")
        code, out, err = quiet(*argv)
        rows = []
        for sides in itertools.product(*axes):
            text = f"{family.partition('-')[0]}:{'x'.join(map(str, sides))}"
            text += f"/{cut}" if kappa else ""
            factor = quiet("factor", text, "--method", "oracle")
            if factor[0] != 0:
                assert (code, out, err) == (2, "", factor[2]), text
                return
            fields = dict(line.split(" ", 1) for line in factor[1].splitlines())
            rows.append((int(fields["N"]), fields["count"], int(fields["largest_prime"]),
                         fields["N_smooth"] == "yes"))
        assert (code, err) == (0, "")
        got = [(r["N"], r["count"], r["largest_prime"], r["n_smooth"]) for r in json.loads(out)]
        assert got == rows

    def test_negative_range_values(self, capsys):
        code, out, err = run(capsys, "scan", "--family", "stair-corner", "--m", "-1..2")
        assert (code, out, err) == (2, "", "error: m must be nonnegative, got -1\n")
        code, out, err = run(capsys, "scan", "--family", "stair-corner", "--m", "-0..2")
        assert (code, err) == (0, "")
        assert out == run(capsys, "scan", "--family", "stair-corner", "--m", "0..2")[1]


class TestEnumerate:
    def test_full_output(self, capsys):
        code, out, _ = run(capsys, "enumerate", "stair:4/1")
        assert code == 0
        blocks = out.rstrip("\n").split("\n\n")
        assert len(blocks) == 4
        assert blocks[0] == "1 2 3\n  4 5 6\n    7 8\n      9"

    def test_limit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "part:2,2", "--limit", "1")
        assert code == 0 and out == "1 2\n3 4\n"
        code, out, _ = run(capsys, "enumerate", "rect:10x10", "--limit", "0")
        assert code == 0 and out == ""

    @pytest.mark.parametrize("limit", ["-1", "-5"])
    def test_negative_limit_rejected(self, capsys, limit):
        result = run(capsys, "enumerate", "part:3", "--limit", limit)
        assert result == (2, "", f"error: --limit must be nonnegative, got {limit}\n")

    def test_wide_labels_align(self, capsys):
        code, out, _ = run(capsys, "enumerate", "part:6,6", "--limit", "1")
        assert code == 0
        assert out == " 1  2  3  4  5  6\n 7  8  9 10 11 12\n"

    @staticmethod
    def reference_output(region, limit) -> str:
        """What ``enumerate`` prints, rendered one row at a time."""
        width = len(str(region.size))
        rows = [(" " * ((s - 1) * (width + 1)), lo, hi) for _, s, lo, hi in region.order.rows]
        out = io.StringIO()
        for i, t in enumerate(enumerate_syt(region, limit=limit)):
            if i:
                print(file=out)
            for indent, lo, hi in rows:
                print(indent + " ".join(str(x).rjust(width) for x in t.flat[lo:hi]), file=out)
        return out.getvalue()

    @staticmethod
    @st.composite
    def small_shapes(draw) -> str:
        """An ordinary, shifted or truncated shape of at most 16 cells."""
        family = draw(st.sampled_from(["part", "shifted", "stair", "rect"]))
        if family in ("part", "shifted"):
            if family == "part":
                parts = draw(st.lists(st.integers(1, 16), max_size=16))
            else:
                parts = draw(st.sets(st.integers(1, 16), max_size=5))
            parts = sorted(parts, reverse=True)
            while sum(parts) > 16:
                parts.pop(0)
            return f"{family}:{','.join(map(str, parts or [0]))}"
        if family == "stair":
            m = draw(st.integers(0, 5))
            sides, most = str(m), max(m - 1, 0)
        else:
            m = draw(st.integers(0, 16))
            n = draw(st.integers(0, 16 // max(m, 1)))
            sides, most = f"{m}x{n}", m
        cuts = draw(st.lists(st.integers(0, n if family == "rect" else m), max_size=most))
        if family == "stair":  # row i keeps at least one cell; sorting keeps that
            cuts = [min(c, m - i) for i, c in enumerate(cuts, start=1)]
        kappa = ",".join(map(str, sorted(cuts, reverse=True)))
        return f"{family}:{sides}" + (f"/{kappa}" if kappa else "")

    @settings(max_examples=150, deadline=None)
    @given(shape=small_shapes(), limit=st.none() | st.integers(0, 40))
    @example(shape="rect:0x0", limit=None)
    @example(shape="part:3,2", limit=None)  # labels of one digit
    @example(shape="rect:3x4/2", limit=None)  # and of two
    @example(shape="shifted:5,4,3", limit=3)
    @example(shape="stair:5/3,1", limit=None)
    def test_output_equals_the_row_by_row_rendering(self, shape, limit):
        region = parse_descriptor(shape).region()
        if limit is None:
            assume(count_syt(region) <= 3000)
        argv = ["enumerate", shape] + ([] if limit is None else ["--limit", str(limit)])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == self.reference_output(region, limit)
        event(f"label width {len(str(region.size))}")


class TestEntryPoint:
    def test_raises_system_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["sytcount", "count", "part:2,1"])
        with pytest.raises(SystemExit) as info:
            entry_point()
        assert info.value.code == 0
        assert capsys.readouterr().out == "2\n"


class TestParserReuse:
    # Each call must see only its own arguments: the plain count after
    # --check prints no check, and the bare verify after one with --m and
    # --n still misses them.
    SEQUENCE = [
        ("count", "part:3,2,1", "--check"),
        ("count", "part:3,2,1"),
        ("verify", "sum-rect", "--m", "2", "--n", "3", "--t", "2"),
        ("verify", "sum-rect"),
        ("count", "part:3,2", "--method", "bogus"),
        ("scan", "--family", "stair-corner", "--m", "0..2"),
    ]

    @staticmethod
    def outcomes(capsys, fresh: bool) -> list:
        results = []
        for argv in TestParserReuse.SEQUENCE:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejects the arguments
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_shared_parser_matches_fresh_parsers(self, capsys):
        fresh = self.outcomes(capsys, fresh=True)
        cli.build_parser.cache_clear()
        shared = self.outcomes(capsys, fresh=False)
        assert cli.build_parser.cache_info().misses == 1
        assert shared == fresh
        codes = [code for code, _, _ in shared]
        assert codes == [0, 0, 0, 2, ("exit", 2), 0]
        assert shared[1][1] == "16\n"
        assert "needs --m" in shared[3][2]
