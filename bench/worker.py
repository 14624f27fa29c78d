"""Worker process: runs one job at a time for the benchmark client.

Reads one JSON request per line on stdin and answers one JSON line on
stdout.  CLI jobs go through ``sytcount.cli.main(argv)`` with stdout and
stderr captured; round-trip jobs call ``sytcount`` directly.  After each
reply the worker times the reference loop, and the next reply carries that
time, so job times can be given in reference units.

Jobs and the loop are timed in CPU seconds of this process
(``time.process_time``): on a shared machine a process can wait for a core
for tens of milliseconds, and that wait belongs to the machine, not to the
program.  Wall seconds are measured too and kept for reference.

Peak memory is the worker's ``VmHWM`` from ``/proc/self/status``: the
high-water resident size of its own address space since ``exec``.
``ru_maxrss`` would not do, since Linux carries the client's peak (the
interpreter the worker was forked from, with sympy loaded) across ``exec``.

Run it only from ``run.py``, which puts the program's ``src`` directory on
``PYTHONPATH``.
"""

from __future__ import annotations

import io
import json
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import sytcount
import sytcount.cli

REF_ITERS = 10_000


def ref_loop() -> float:
    """CPU seconds for a fixed loop of small-integer arithmetic.

    It touches no sytcount code, builds no list, dict or tuple, and keeps
    its state in locals, so no setting the program makes at import (GC
    thresholds, the int-to-str limit, recursion limit) changes its speed;
    only the machine does.
    """
    x = 1
    i = REF_ITERS
    t0 = time.process_time()
    while i:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i -= 1
    return time.process_time() - t0


def peak_rss_kb() -> int:
    """High-water resident size of this process since exec, in kB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def cli_main(argv: list[str]):
    try:
        return sytcount.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1


def roundtrip(shape: str, step: int) -> list:
    """Split every tableau of ``shape`` at two thresholds and put it back."""
    region = sytcount.build_region(shape)
    n = region.size
    pairs = []
    for i, tab in enumerate(sytcount.enumerate_syt(region)):
        k = (i * step) % (n + 1)
        for thresh in (k, n - k):
            piece = sytcount.split_threshold(tab, thresh)
            pairs.append((tab, sytcount.unsplit_threshold(piece, region)))
    return pairs


def run_job(req: dict) -> dict:
    """Run one job; only the program's work is inside the timed part."""
    out, err = io.StringIO(), io.StringIO()
    pairs, crash = None, None
    w0, t0 = time.perf_counter(), time.process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if req["kind"] == "cli":
                rc = cli_main(req["argv"])
            else:
                rc, pairs = 0, roundtrip(req["shape"], req["step"])
    except Exception:
        # A crash is a failed job; the worker keeps serving.
        rc, crash = "exception", traceback.format_exc()
    cpu_s, wall_s = time.process_time() - t0, time.perf_counter() - w0
    if crash:
        err.write(crash)
    if pairs is not None:
        out.write(json.dumps({
            "tableaux": len(pairs) // 2,
            "splits": len(pairs),
            "mismatches": sum(1 for a, b in pairs if a.rows != b.rows),
        }))
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "cpu_s": cpu_s, "wall_s": wall_s,
            "cpu_since_start": time.process_time()}


def main() -> None:
    proto_in, proto_out = sys.stdin, sys.stdout
    tracer = None
    last_ref = None
    for line in proto_in:
        req = json.loads(line)
        op = req["op"]
        if op == "job":
            reply = run_job(req)
            reply["ref_s"] = last_ref
            if tracer is not None:
                reply["layers"] = tracer.job_summary()
        elif op == "trace":
            import spans  # only traced runs load it, so it stays out of setup_s

            tracer = spans.Tracer()
            tracer.install()
            reply = {"ok": True}
        elif op == "dump":
            reply = {"spans": tracer.dump(req["path"]) if tracer else 0}
        elif op == "rss":
            reply = {"peak_rss_kb": peak_rss_kb()}
        else:
            raise ValueError(f"unknown op {op!r}")
        proto_out.write(json.dumps(reply) + "\n")
        proto_out.flush()
        if op == "job":
            last_ref = ref_loop()


if __name__ == "__main__":
    main()
