"""Benchmark for sytcount: closed-loop workloads timed in reference units.

    python3 bench/run.py --workload oracle|formula|verify --seed N \
        --seconds S --trace 0|1

One client (this process) drives one worker process at a time and sends
the next job only when the previous answer is back.  The worker runs each
job through the program's public entry points and, between jobs, a fixed
integer reference loop.  Both are timed in the worker's CPU seconds, and
job times are divided by the loop's time, taken as the median over the
neighbouring jobs, so the figures follow the program rather than the share
of the shared machine it happens to get.  Set-up (spawn to the end of the
first job) is measured on several fresh workers as the CPU seconds the
worker has used by then; wall seconds are printed beside it.

Every output is checked after the timed part against a computation made
apart from the program (``checks.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics).  With ``--trace 1`` the run is instead a fixed number
of rounds, run once untraced and once traced, whatever ``--seconds`` says,
so that the counts repeat exactly; ``metrics`` then holds the per-layer
metrics of the traced pass.  Per-job raw seconds and, when traced, the
spans are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the client writes nothing outside bench/out
# The checks read counts of any size; the worker keeps the program's default
# limit, so a count the program cannot print still fails there.
sys.set_int_max_str_digits(0)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_WORKERS = 5
SETUP_JOB = workloads.cli(["factor", "stair:6/1"], {"type": "factor", "family": "stair-corner",
                                                   "params": [2], "cells": 20, "smooth": True})
REF_WINDOW = 4  # a job's ref unit: median of the 5 loop times before it and the 5 after
TRACE_ROUNDS = {"oracle": 3, "formula": 2, "verify": 4}
WORKER_TIMEOUT_S = 120
TAIL_BEYOND = 10


class WorkerDied(RuntimeError):
    pass


class Worker:
    """A worker process and its request/answer pipe."""

    def __init__(self) -> None:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT), env=env, text=True,
        )

    def ask(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerDied(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def job(self, job: dict) -> dict:
        req = {k: v for k, v in job.items() if k != "check"}
        return self.ask(dict(req, op="job"))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# --- timing -----------------------------------------------------------------


def ref_units(replies: list[dict]) -> list[float]:
    """Reference seconds for each job in a sequence.

    ``replies[i]["ref_s"]`` was measured just before job i; the loop after
    job i is ``replies[i + 1]["ref_s"]``.  The median over a window of
    neighbours ignores a loop that the scheduler interrupted.
    """
    refs = [r["ref_s"] for r in replies]
    units = []
    for i in range(len(replies)):
        window = [x for x in refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 2] if x is not None]
        units.append(statistics.median(window))
    return units


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and its level."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# --- checking ---------------------------------------------------------------


def job_ok(reply: dict) -> bool:
    return reply["rc"] == 0


def check_job(job: dict, reply: dict, round_replies: list[dict]) -> None:
    """Raise CheckFailed unless the output of a job that ran is right."""
    check, out = job["check"], reply["out"]
    kind = check["type"]
    if kind == "value":
        got = checks.parse_count(out)
        checks.require(got == checks.expected(check["family"], check["params"]),
                       f"{' '.join(job['argv'])}: count differs from the independent value")
    elif kind == "pair":
        other = round_replies[check["with"]]
        checks.require(job_ok(other), "pair: the transposed shape failed")
        checks.require(checks.parse_count(out) == checks.parse_count(other["out"]),
                       f"{' '.join(job['argv'])}: differs from the count of the transposed truncation")
    elif kind == "stair_dp":
        want = checks.count_truncated_staircase(check["m"], tuple(check["kappa"]))
        checks.require(checks.parse_count(out) == want,
                       f"{' '.join(job['argv'])}: differs from the corner-removal count")
    elif kind == "factor":
        want = checks.expected(check["family"], check["params"])
        checks.check_factor_output(out, want, check["cells"], check["smooth"])
    elif kind == "scan":
        check_scan(check, out)
    elif kind == "verify":
        check_verify(check, out)
    elif kind == "enumerate":
        want = checks.expected(*check["count"])
        checks.check_enumeration(out, [tuple(r) for r in check["rows"]], want)
    elif kind == "roundtrip":
        summary = json.loads(out)
        checks.require(summary["tableaux"] == checks.expected(*check["count"]),
                       "roundtrip: tableau count differs from the hook-length count")
        checks.require(summary["mismatches"] == 0, "roundtrip: a split did not undo")
    else:
        raise ValueError(kind)


def check_scan(check: dict, out: str) -> None:
    family = check["family"]
    if check["format"] == "json":
        rows = json.loads(out)
    else:
        lines = out.strip().split("\n")
        checks.require(lines[0] == "family,params,N,count,largest_prime,n_smooth", "scan: csv header")
        rows = []
        for line in lines[1:]:
            fam, params, n_cells, count, largest, smooth = line.split(",")
            rows.append({"family": fam, "params": dict(p.split("=") for p in params.split()),
                         "N": int(n_cells), "count": count, "largest_prime": int(largest),
                         "n_smooth": smooth == "yes"})
    checks.require(len(rows) == len(check["rows"]), "scan: wrong number of rows")
    for row, params in zip(rows, check["rows"]):
        checks.require(row["family"] == family, "scan: wrong family")
        checks.require({k: int(v) for k, v in row["params"].items()} == params, "scan: wrong params")
        fam_params = [params[k] for k in ("m", "n", "k") if k in params]
        _, cells = workloads.family_shape(family, fam_params)
        count = int(row["count"])
        checks.require(count == checks.expected(family, fam_params), f"scan {family} {params}: wrong count")
        checks.require(row["N"] == cells, f"scan {family} {params}: wrong N")
        checks.check_smooth_factor(count, row["largest_prime"], cells)
        checks.require(row["n_smooth"] is True, f"scan {family} {params}: n_smooth should be yes")


def check_verify(check: dict, out: str) -> None:
    lines = out.strip().split("\n")
    checks.require(lines[-1] == "PASS", f"verify: {lines[0]} printed {lines[-1]!r}")
    fields = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines if " " in line}
    if "rhs" in check:
        kind, params = check["rhs"]
        if kind == "binomial":
            t1, t2, upper = params
            want = math.comb(t1 + t2 + upper + 1, t1 + t2 + 1)
        elif kind == "theorem":
            want = checks.staircase_theorem(tuple(params[0]), params[1]).value()
        else:
            want = checks.expected(kind, params)
        checks.require(int(fields["RHS"].split(" ")[0]) == want, f"verify: {lines[0]} RHS differs")
    if "lhs" in check:
        want = checks.expected(*check["lhs"])
        checks.require(int(fields["LHS"].split(" ")[0]) == want, f"verify: {lines[0]} LHS differs")


def check_all(rounds: list[tuple[list[dict], list[dict]]]) -> tuple[int, int, list[str]]:
    """Check every job; returns (attempted, failed, problems)."""
    attempted = failed = 0
    problems = []
    for jobs, replies in rounds:
        for job, reply in zip(jobs, replies):
            attempted += 1
            what = " ".join(job.get("argv") or ["roundtrip", job.get("shape", "")])
            if not job_ok(reply):
                failed += 1
                if not job["check"].get("may_fail"):
                    problems.append(f"{what}: failed with {reply['rc']}: {reply['err'].strip()[-300:]}")
                continue
            try:
                check_job(job, reply, replies)
            except (checks.CheckFailed, ValueError, KeyError) as exc:
                problems.append(f"{what}: {type(exc).__name__}: {exc}")
    return attempted, failed, problems


# --- the run ----------------------------------------------------------------


def run_rounds(worker: Worker, stream, stop) -> list[tuple[list[dict], list[dict]]]:
    done = []
    while not stop(done):
        jobs = next(stream)
        done.append((jobs, [worker.job(job) for job in jobs]))
    return done


def flat(rounds):
    return [(job, reply) for jobs, replies in rounds for job, reply in zip(jobs, replies)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sytcount" / "__init__.py").is_file():
        print(f"error: no sytcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setup_s, setup_wall_s = [], []
    setup_rounds = []
    worker = None
    try:
        for _ in range(SETUP_WORKERS):
            worker = Worker()
            reply = worker.job(SETUP_JOB)
            setup_wall_s.append(time.perf_counter() - worker.spawned)
            setup_s.append(reply["cpu_since_start"])
            setup_rounds.append(([SETUP_JOB], [reply]))
            worker.close()

        # A fresh worker, so its peak memory holds only what the workload needs.
        worker = Worker()
        t_start = time.perf_counter()

        def stop(done: list) -> bool:
            if args.trace:  # the untraced rounds are only the tracing overhead's baseline
                return len(done) >= TRACE_ROUNDS[args.workload]
            return bool(done) and time.perf_counter() - t_start >= args.seconds

        timed = run_rounds(worker, workloads.rounds(args.workload, args.seed), stop)
        wall_s = time.perf_counter() - t_start
        peak_rss_kb = worker.ask({"op": "rss"})["peak_rss_kb"]
        traced = []
        if args.trace:
            worker.ask({"op": "trace"})
            traced = run_rounds(worker, workloads.rounds(args.workload, args.seed), stop)
            OUT_DIR.mkdir(exist_ok=True)
            span_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv"
            n_spans = worker.ask({"op": "dump", "path": str(span_path)})["spans"]
    finally:
        if worker is not None:
            worker.close()

    attempted, failed, problems = check_all(timed + traced)
    _, setup_failed, setup_problems = check_all(setup_rounds)
    problems += setup_problems

    timed_flat = flat(timed)
    units = ref_units([r for _, r in timed_flat])
    job_ref = [r["cpu_s"] / u for (_, r), u in zip(timed_flat, units)]
    done_ref = [x for x, (_, r) in zip(job_ref, timed_flat) if job_ok(r)]
    completed = len(done_ref)
    raw_s = [r["wall_s"] for _, r in timed_flat]

    OUT_DIR.mkdir(exist_ok=True)
    jobs_path = OUT_DIR / f"jobs-{args.workload}-{args.seed}-trace{args.trace}.tsv"
    with open(jobs_path, "w") as fh:
        fh.write("job\tphase\trc\twall_s\tcpu_s\tref_unit_cpu_s\tjob_ref\n")
        rows = [("timed", jr, u, x) for jr, u, x in zip(timed_flat, units, job_ref)]
        if traced:
            traced_flat = flat(traced)
            t_units = ref_units([r for _, r in traced_flat])
            rows += [("traced", jr, u, jr[1]["cpu_s"] / u) for jr, u in zip(traced_flat, t_units)]
        for phase, (job, reply), unit, x in rows:
            what = " ".join(job.get("argv") or ["roundtrip", job.get("shape", "")])
            fh.write(f"{what}\t{phase}\t{reply['rc']}\t{reply['wall_s']:.9f}\t{reply['cpu_s']:.9f}\t"
                     f"{unit:.9f}\t{x:.6f}\n")

    print(f"workload {args.workload} seed {args.seed}: {len(timed)} rounds, {len(timed_flat)} jobs "
          f"in {wall_s:.2f} s wall; {attempted} attempted, {failed} failed")
    print(f"raw wall seconds per job: median {statistics.median(raw_s):.6f}, max {max(raw_s):.6f}, "
          f"total {sum(raw_s):.3f}; reference loop median {statistics.median(units):.6f} CPU s; "
          f"per-job figures in {jobs_path.name}")
    print("raw wall ms of every job, in order: " + " ".join(f"{s * 1e3:.2f}" for s in raw_s))

    if args.trace:
        metrics = layer_metrics(traced, timed, n_spans, span_path, problems)
    else:
        tail_value, tail_level = tail(done_ref)
        print(f"job_ref_tail is p{tail_level:.1f} over {completed} completed jobs")
        metrics = {
            "jobs_per_ref": (completed / sum(job_ref), "1/ref"),
            "job_ref_p50": (statistics.median(done_ref), "ref"),
            "job_ref_tail": (tail_value, "ref"),
            "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
            "setup_s": (statistics.median(setup_s), "s"),
        }
        print("setup CPU seconds: " + " ".join(f"{s:.4f}" for s in setup_s)
              + "; wall: " + " ".join(f"{s:.4f}" for s in setup_wall_s))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    correct = not problems and not setup_failed
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def layer_metrics(traced, untraced, n_spans, span_path, problems: list[str]) -> dict:
    """Per-job self times (in ref) and counts from the traced pass; a
    tracer inconsistency is added to ``problems``."""
    traced_flat = flat(traced)
    units = ref_units([r for _, r in traced_flat])
    n = len(traced_flat)
    totals = {name: 0.0 for name in spans.PER_LAYER + [spans.PARTITIONS_YIELDED]}
    for (_, reply), unit in zip(traced_flat, units):
        for name, value in reply["layers"].items():
            totals[name] += value / unit if name.endswith("_ref") else value
    base_flat = flat(untraced)
    base_units = ref_units([r for _, r in base_flat])
    base = sum(r["cpu_s"] / u for (_, r), u in zip(base_flat, base_units))
    with_trace = sum(r["cpu_s"] / u for (_, r), u in zip(traced_flat, units))
    print(f"traced {len(traced)} rounds ({n} jobs, {n_spans} spans in {span_path.name}); "
          f"tracing overhead {100.0 * (with_trace / base - 1.0):+.1f}% of untraced job time")
    built, yielded = totals[spans.PARTITIONS_BUILT], totals[spans.PARTITIONS_YIELDED]
    print(f"partition generators built {built:.0f} partitions and yielded {yielded:.0f}")
    if built < yielded:
        problems.append("trace: the partition generators yielded more partitions than were counted as built")
    return {name: (totals[name] / n, "ref" if name.endswith("_ref") else "count")
            for name in spans.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
