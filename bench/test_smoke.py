"""Smoke test of the benchmark: its independent answers, one tiny run of
every workload with checks on, and a refusal to run without the program.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def test_hook_formulas_match_corner_removal():
    for lam in [(3, 2), (4, 4, 1), (5, 3, 3, 2), (2, 2, 2, 2)]:
        rows = [(1, p) for p in lam]
        assert checks.expected("part", list(lam)) == checks.count_region(rows, [])
    for lam in [(3, 1), (4, 2, 1), (5, 3, 2), (6, 4, 3, 1)]:
        rows = [(i, i + p - 1) for i, p in enumerate(lam, start=1)]
        diag = [((i, i), (i + 1, i + 1)) for i in range(1, len(lam))]
        assert checks.expected("shifted", list(lam)) == checks.count_region(rows, diag)


def test_family_formulas_match_corner_removal():
    for m, k in [(0, 2), (1, 2), (2, 3), (1, 1), (2, 2), (0, 3)]:
        for family in ("stair-sq", "stair-sq+1"):
            if family == "stair-sq" and k < 2:
                continue
            desc, _ = workloads.family_shape(family, [m, k])
            order, _, kappa = desc[len("stair:"):].partition("/")
            kappa = tuple(int(x) for x in kappa.split(",")) if kappa else ()
            assert checks.expected(family, [m, k]) == checks.count_truncated_staircase(int(order), kappa)
    for m in range(3):
        assert checks.expected("stair-corner", [m]) == checks.count_truncated_staircase(m + 4, (1,))
    for m, n, k in [(0, 1, 2), (1, 2, 2), (2, 1, 3), (1, 1, 1), (2, 3, 2)]:
        for family in ("rect-sq", "rect-sq+1"):
            kappa = (k - 1,) * (k - 1) if family == "rect-sq" else (k,) * (k - 1) + (k - 1,)
            lengths = [n + k - (kappa[i] if i < len(kappa) else 0) for i in range(m + k)]
            rows = [(1, ln) for ln in lengths if ln]
            assert checks.expected(family, [m, n, k]) == checks.count_region(rows, [])
    for m, n in [(0, 0), (1, 2)]:
        rows = [(1, n + 1)] + [(1, n + 2)] * (m + 1)
        assert checks.expected("rect-corner", [m, n]) == checks.count_region(rows, [])
    for n in (2, 3, 4):
        rows = [(1, n - 2)] + [(1, n)] * (n - 1)
        rows = [r for r in rows if r[1] >= 1]
        assert checks.expected("square-minus-two", [n]) == checks.count_region(rows, [])


def test_failing_job_passes_its_check_once_fixed():
    import run

    job = next(workloads.rounds("formula", 7))[-1]
    assert job["argv"] == workloads.FAILING_JOB and job["check"]["may_fail"]
    value = checks.expected("part", [70] * 70)
    reply = {"rc": 0, "out": f"{value} ({len(str(value))} digits)\n"}
    run.check_job(job, reply, [reply])
    assert run.check_all([([job], [reply])]) == (1, 0, [])


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    proc = bench_run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert sorted(result["metrics"]) == spans.PER_LAYER
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench_run("verify", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
