"""Record the CLI outputs that ``test_golden.py`` replays.

Run from the repository root to rewrite ``tests/golden_cli.json``::

    PYTHONPATH=src python3 tests/capture_golden.py

Each record holds a command line, the environment it needs, its exit code,
standard output and standard error.  Commands run in-process through
``sytcount.cli.main`` with ``COLUMNS=80``, so argparse wraps its usage and
help text the same way on every terminal.  Records whose text argparse
wrote (``--help`` and usage errors) are marked, because that text depends
on the Python version; the file stores the version it was captured with.

Rewrite the file only when a change of output is intended, and say which
commands changed and why.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_cli.json")
BUDGET_ENV = "SYTCOUNT_ORACLE_LIMIT"

# Shapes for count and factor: every closed-form family at small sizes and
# at its edges (zero extra rows or columns, k = 1 and k = 2), shapes next
# to a family that only the oracle counts, and invalid descriptors.
SHAPES = [
    # full shapes
    "part:3,3", "part:4,4,4", "part:3,2,1", "part:5", "part:1,1,1,1",
    "shifted:5,3", "shifted:4,3,1", "shifted:1",
    "stair:0", "stair:1", "stair:5", "rect:0x0", "rect:3x4", "rect:1x1", "rect:0x3",
    # stair-sq: ((k-1)^(k-1)) cut from a staircase of order m + 2k
    "stair:4/1", "stair:5/1", "stair:6/1", "stair:6/2,2", "stair:7/2,2",
    "stair:8/3,3,3",
    # stair-sq+1: (k^(k-1), k-1)
    "stair:4/2,1", "stair:5/2,1", "stair:6/2,1", "stair:6/3,3,2", "stair:7/3,3,2",
    # rect-sq
    "rect:2x2/1", "rect:3x3/1", "rect:3x4/1", "rect:4x3/1", "rect:2x5/1",
    "rect:3x3/2,2", "rect:4x4/2,2", "rect:5x4/2,2", "rect:4x4/3,3,3",
    # rect-sq+1
    "rect:2x2/2,1", "rect:3x3/2,1", "rect:4x5/2,1", "rect:3x3/3,3,2",
    "rect:4x4/3,3,2", "rect:5x4/3,3,2",
    # square-minus-two (conjectural) and its non-square neighbours
    "rect:2x2/2", "rect:3x3/2", "rect:4x4/2", "rect:5x5/2", "rect:3x4/2",
    "rect:4x3/2",
    # near a family, counted only by the oracle
    "stair:3/1", "stair:3/2,1", "stair:6/3,1", "stair:5/2", "stair:6/2,2,1",
    "rect:1x3/1", "rect:3x1/1", "rect:3x3/1,1", "rect:4x4/3,2", "rect:3x4/3,3,2",
    "rect:2x3/3", "rect:3x3/3,3,3",
    # invalid descriptors
    "rect:3x3/4", "stair:4/4", "rect:3x3/1,1,1,1", "part:3,4", "shifted:2,2",
    "stair:-1", "rect:-1x3", "rect:3x-1", "blob:3", "part:1,a", "part:",
    "stair:x", "rect:3", "rect:3xq", "stair:3/1,a", "part:-1", "stair:2/1",
    "shifted:0",
]

COUNT_ROUTES = [(), ("--method", "auto"), ("--method", "formula"),
                ("--method", "oracle"), ("--check",)]
FACTOR_ROUTES = [(), ("--method", "formula"), ("--method", "oracle")]

SCANS = [
    ("stair-sq", ("--m", "0..2", "--k", "2..3")),
    ("stair-sq+1", ("--m", "0..2", "--k", "1..3")),
    ("rect-sq", ("--m", "0..1", "--n", "0..2", "--k", "2..3")),
    ("rect-sq+1", ("--m", "0..1", "--n", "0..2", "--k", "1..2")),
    ("stair-corner", ("--m", "0..3")),
    ("rect-corner", ("--m", "0..2", "--n", "0..1")),
    ("rect-corner", ("--m", "0..2", "--n", "2..1")),
    ("square-minus-two", ("--n", "2..6")),
    ("stair-trunc", ("--m", "3..6", "--kappa", "1")),
    ("rect-trunc", ("--m", "2..4", "--n", "3", "--kappa", "2,1")),
]
SCAN_EDGES = [
    ("scan", "--family", "stair-trunc", "--m", "4..5"),
    ("scan", "--family", "rect-trunc", "--m", "3", "--n", "3..4"),
    ("scan", "--family", "stair-sq", "--m", "0"),
    ("scan", "--family", "rect-sq", "--m", "1", "--k", "2"),
    ("scan", "--family", "square-minus-two"),
    ("scan", "--family", "stair-sq", "--m", "0", "--k", "1"),
    ("scan", "--family", "rect-sq+1", "--m", "0", "--n", "0", "--k", "0"),
    ("scan", "--family", "stair-corner", "--m", "-1"),
    ("scan", "--family", "square-minus-two", "--n", "1..3"),
    ("scan", "--family", "rect-sq", "--m", "-1", "--n", "0", "--k", "2"),
    ("scan", "--family", "stair-corner", "--m", "3..2"),
    ("scan", "--family", "square-minus-two", "--n", "3..2"),
    ("scan", "--family", "stair-trunc", "--m", "3", "--kappa", "3"),
    ("scan", "--family", "stair-trunc", "--m", "10", "--kappa", "1"),
    # the oracle scans' empty, negative and non-fitting rows
    ("scan", "--family", "rect-trunc", "--m", "-1", "--n", "2"),
    ("scan", "--family", "stair-trunc", "--m", "-1..1"),
    ("scan", "--family", "rect-trunc", "--m", "2", "--n", "2", "--kappa", "1,1,1"),
    ("scan", "--family", "stair-trunc", "--m", "0..2"),
    ("scan", "--family", "rect-trunc", "--m", "2", "--n", "0..1", "--format", "csv"),
    ("scan", "--family", "rect-trunc", "--m", "3", "--n", "3", "--kappa", "3,3,3",
     "--format", "json"),
    ("scan", "--family", "stair-corner", "--m", "a..b"),
    ("scan", "--family", "bogus", "--m", "1"),
    ("scan", "--help"),
    ("scan",),
]

VERIFIES = [
    ("sum-shifted", "--m", "0"), ("sum-shifted", "--m", "4"),
    ("sum-shifted", "--m", "5", "--t", "3"), ("sum-shifted", "--m", "3", "--t", "7"),
    ("sum-shifted", "--m", "3", "--t", "-1"), ("sum-shifted",),
    ("sum-shifted", "--m", "3", "--t", "2", "--mu", "5", "--k", "9"),
    ("sum-shifted", "--m", "-1"),
    ("sum-rect", "--m", "2", "--n", "3"), ("sum-rect", "--m", "3", "--n", "3", "--t", "4"),
    ("sum-rect", "--m", "0", "--n", "4"), ("sum-rect", "--m", "2", "--n", "2", "--t", "5"),
    ("sum-rect", "--m", "2"), ("sum-rect", "--m", "-1", "--n", "2"),
    ("coeff-c", "--mu", "4", "--m", "3", "--t", "3"),
    ("coeff-c", "--mu", "5,4", "--m", "3", "--t", "2"),
    ("coeff-c", "--mu", "6,5,4", "--m", "3", "--t", "6"),
    ("coeff-c", "--mu", "3", "--m", "3", "--t", "1"),
    ("coeff-c", "--mu", "5", "--m", "3", "--t", "7"),
    ("coeff-c", "--mu", "4,4", "--m", "2", "--t", "1"),
    ("coeff-c", "--mu", "4", "--m", "3"),
    ("coeff-c", "--mu", "1", "--m", "-1", "--t", "0"),
    ("coeff-d", "--mu", "1", "--k", "2", "--m", "2", "--n", "2", "--t", "2"),
    ("coeff-d", "--mu", "2,1", "--k", "2", "--m", "2", "--n", "3", "--t", "3"),
    ("coeff-d", "--mu", "0", "--k", "1", "--m", "3", "--n", "2", "--t", "4"),
    ("coeff-d", "--mu", "1,1", "--k", "1", "--m", "2", "--n", "2", "--t", "1"),
    ("coeff-d", "--mu", "1", "--k", "-1", "--m", "2", "--n", "2", "--t", "1"),
    ("coeff-d", "--mu", "1", "--k", "1", "--m", "2", "--n", "2", "--t", "5"),
    ("coeff-d", "--mu", "1", "--k", "1", "--m", "2", "--n", "2"),
    ("coeff-d", "--mu", "0", "--k", "1", "--m", "-1", "--n", "2"),
    ("main-stair", "--mu", "4,2", "--m", "1"), ("main-stair", "--mu", "5,4", "--m", "3"),
    ("main-stair", "--mu", "0", "--m", "2"), ("main-stair", "--mu", "2", "--m", "2"),
    ("main-stair", "--mu", "3,3", "--m", "1"), ("main-stair", "--m", "2"),
    ("main-stair", "--mu", "3,3"), ("main-stair", "--mu", "1", "--m", "-1"),
    ("main-rect", "--mu", "1", "--k", "2", "--m", "1", "--n", "1"),
    ("main-rect", "--mu", "2,1", "--k", "2", "--m", "2", "--n", "3"),
    ("main-rect", "--mu", "0", "--k", "1", "--m", "0", "--n", "2"),
    ("main-rect", "--mu", "1", "--k", "0", "--m", "1", "--n", "1"),
    ("main-rect", "--mu", "0", "--k", "0", "--m", "1", "--n", "1"),
    ("main-rect", "--mu", "1,1", "--k", "1", "--m", "1", "--n", "1"),
    ("main-rect", "--mu", "1", "--k", "1", "--m", "1"),
    ("main-rect", "--mu", "0", "--k", "1", "--m", "-1"),
    ("binomial", "--t1", "2", "--t2", "3", "--N", "4"),
    ("binomial", "--t1", "0", "--t2", "0", "--N", "0"),
    ("binomial", "--t1", "2", "--t2", "3"),
    ("binomial", "--t1", "2", "--t2", "3", "--N", "-5"),
    # pivot-stair: sq+1 at k = 1, 2, 3, sq at k = 2, 3, and prefixes of no family
    ("pivot-stair", "--mu", "1", "--m", "0"), ("pivot-stair", "--mu", "3", "--m", "2"),
    ("pivot-stair", "--mu", "2,1", "--m", "0"), ("pivot-stair", "--mu", "4,3", "--m", "2"),
    ("pivot-stair", "--mu", "4,3,2", "--m", "1"),
    ("pivot-stair", "--mu", "3,1", "--m", "0"), ("pivot-stair", "--mu", "4,2", "--m", "1"),
    ("pivot-stair", "--mu", "4,3,1", "--m", "0"),
    ("pivot-stair", "--mu", "5,4", "--m", "3"), ("pivot-stair", "--mu", "4", "--m", "1"),
    ("pivot-stair", "--mu", "0", "--m", "2"), ("pivot-stair", "--mu", "2", "--m", "2"),
    ("pivot-stair", "--mu", "3,3", "--m", "1"), ("pivot-stair", "--mu", "3,1"),
    ("pivot-stair", "--mu", "1", "--m", "-1"),
    # pivot-rect: sq+1 (mu empty) at k = 1, 2, 3 with n = 0 and m = 0, sq at k = 2, 3
    ("pivot-rect", "--mu", "0", "--k", "1", "--m", "1", "--n", "1"),
    ("pivot-rect", "--mu", "0", "--k", "1", "--m", "2", "--n", "0"),
    ("pivot-rect", "--mu", "0", "--k", "2", "--m", "1", "--n", "1"),
    ("pivot-rect", "--mu", "0", "--k", "2", "--m", "1", "--n", "0"),
    ("pivot-rect", "--mu", "0", "--k", "3", "--m", "0", "--n", "0"),
    ("pivot-rect", "--mu", "0", "--k", "2", "--m", "0", "--n", "2"),
    ("pivot-rect", "--mu", "1", "--k", "2", "--m", "1", "--n", "1"),
    ("pivot-rect", "--mu", "1", "--k", "2", "--m", "2", "--n", "0"),
    ("pivot-rect", "--mu", "1", "--k", "2", "--m", "0", "--n", "1"),
    ("pivot-rect", "--mu", "1,1", "--k", "3", "--m", "1", "--n", "1"),
    ("pivot-rect", "--mu", "1", "--k", "1", "--m", "1", "--n", "1"),
    ("pivot-rect", "--mu", "2", "--k", "2", "--m", "1", "--n", "1"),
    ("pivot-rect", "--mu", "0", "--k", "0", "--m", "1", "--n", "1"),
    ("pivot-rect", "--mu", "1", "--k", "0", "--m", "1", "--n", "1"),
    ("pivot-rect", "--mu", "1,1", "--k", "1", "--m", "1", "--n", "1"),
    ("pivot-rect", "--mu", "0", "--k", "-1", "--m", "1", "--n", "1"),
    ("pivot-rect", "--mu", "0", "--k", "1", "--m", "1"),
    ("conjecture", "--n", "2"), ("conjecture", "--n", "3"), ("conjecture", "--n", "5"),
    ("conjecture", "--n", "1"), ("conjecture", "--n", "8"), ("conjecture", "--n", "4"),
    ("conjecture",),
    ("nonsense",), ("main-stair", "--mu", "4,x", "--m", "1"),
]

ENUMERATES = [
    ("enumerate", "part:2,2"), ("enumerate", "stair:4/1"), ("enumerate", "rect:2x3"),
    ("enumerate", "shifted:3,1"), ("enumerate", "rect:3x3/2,1"),
    ("enumerate", "part:6,6", "--limit", "2"), ("enumerate", "stair:5", "--limit", "3"),
    ("enumerate", "part:3", "--limit", "0"), ("enumerate", "rect:0x0"),
    ("enumerate", "stair:4/4"), ("enumerate", "blob:3"), ("enumerate", "part:2", "--limit", "x"),
]

OTHER = [
    ("count", "part:3,2", "--method", "bogus"), ("count",), (), ("bogus",),
    ("factor",), ("verify",), ("--help",),
]

# The order and sign messages of both partition kinds, raised through a
# shape, a truncation and the --mu of verify.
PARTITION_ERRORS = [
    ("count", "shifted:3,-1"), ("count", "shifted:-2"), ("count", "part:2,0,1"),
    ("factor", "shifted:3,0,1"), ("count", "stair:4/1,2"), ("count", "rect:3x3/-1"),
    ("verify", "main-stair", "--mu", "9,9", "--m", "1"),
    ("verify", "main-rect", "--mu", "1,2", "--k", "2", "--m", "1", "--n", "1"),
    ("verify", "coeff-c", "--mu", "5,-1", "--m", "1", "--t", "0"),
]

# Orders past the longest list Python can build.
TOO_LARGE = [
    ("count", "stair:" + str(10**19)),
    ("verify", "sum-shifted", "--m", str(10**19), "--t", "1"),
    ("verify", "sum-shifted", "--m", "9" * 3000, "--t", "1"),
    ("verify", "main-stair", "--mu", str(10**19), "--m", "1"),
    ("count", f"part:{10**19},{10**19}"),
    ("verify", "main-rect", "--mu", "1", "--k", str(10**19), "--m", "1", "--n", "1"),
    ("verify", "pivot-rect", "--mu", "0", "--k", str(10**19), "--m", "1", "--n", "1"),
    ("verify", "coeff-d", "--mu", "1", "--k", str(10**19), "--m", "1", "--n", "1", "--t", "0"),
    ("scan", "--family", "stair-sq", "--m", "1", "--k", str(10**19)),
    ("scan", "--family", "stair-sq+1", "--m", "1", "--k", str(10**19)),
    ("verify", "sum-rect", "--m", "1", "--n", str(10**19), "--t", "1"),
    ("verify", "sum-rect", "--m", str(10**19), "--n", "1", "--t", "1"),
    ("verify", "main-rect", "--mu", "1", "--k", "1", "--m", str(10**19), "--n", "1"),
    ("count", f"stair:{10**19}/5,5"),
    ("count", f"rect:{10**19}x1/1"),
    ("count", f"rect:1x{10**19}/1"),
    ("enumerate", f"rect:1x{10**19}"),
    ("verify", "pivot-rect", "--mu", "0", "--k", "1", "--m", "1", "--n", str(10**19)),
]

# Counts with a prime factor above 2**16, which factoring splits by rho:
# rect:7x8/3,3,1 holds 106273 * 2262437, stair:11/5,3 holds 402947 * 85325291.
RHO_ROUTE = [
    ("factor", "--method", "oracle", "rect:7x8/3,3,1"),
    ("factor", "stair:11/5,3"),
] + [
    ("scan", "--family", "rect-trunc", "--m", "6..7", "--n", "7", "--kappa", "3,1",
     "--format", fmt)
    for fmt in ("text", "csv", "json")
]


def commands() -> list[tuple[tuple[str, ...], dict[str, str]]]:
    cmds: list[tuple[tuple[str, ...], dict[str, str]]] = []
    for shape in SHAPES:
        cmds += [(("count", shape) + route, {}) for route in COUNT_ROUTES]
        cmds += [(("factor", shape) + route, {}) for route in FACTOR_ROUTES]
    for family, params in SCANS:
        for fmt in ("text", "csv", "json"):
            cmds.append((("scan", "--family", family) + params + ("--format", fmt), {}))
    cmds += [(argv, {}) for argv in SCAN_EDGES]
    cmds.append((("scan", "--family", "stair-trunc", "--m", "5..6", "--kappa", "1"),
                 {BUDGET_ENV: "15"}))
    cmds.append((("scan", "--family", "rect-trunc", "--m", "8", "--n", "7", "--kappa", "1"),
                 {BUDGET_ENV: "55"}))
    cmds.append((("verify", "conjecture", "--n", "7"), {BUDGET_ENV: "47"}))
    cmds.append((("verify", "conjecture", "--n", "3"), {BUDGET_ENV: "many"}))
    cmds += [(("verify",) + argv, {}) for argv in VERIFIES]
    cmds += [(argv, {}) for argv in
             ENUMERATES + OTHER + PARTITION_ERRORS + TOO_LARGE + RHO_ROUTE]
    return cmds


def run(argv: tuple[str, ...], env: dict[str, str]) -> dict:
    """Run one command in-process and return its record."""
    from sytcount import cli

    saved = {key: os.environ.get(key) for key in (*env, "COLUMNS", BUDGET_ENV)}
    os.environ.pop(BUDGET_ENV, None)
    os.environ.update(env, COLUMNS="80")
    out, err = io.StringIO(), io.StringIO()
    from_argparse = False
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code, from_argparse = exc.code, True
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    record = {"argv": list(argv), "env": env, "code": code,
              "out": out.getvalue(), "err": err.getvalue()}
    if from_argparse:
        record["argparse"] = True
    return record


def main() -> None:
    records = [run(argv, env) for argv, env in commands()]
    payload = {"python": "%d.%d" % sys.version_info[:2], "commands": records}
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(records)} commands to {GOLDEN}")


if __name__ == "__main__":
    main()
