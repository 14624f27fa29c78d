"""Seeded inputs for the three workloads.

A workload is a list of rounds.  Every round of a workload has the same
jobs in the same order; the seed only picks their parameters, so the share
of jobs that fail is fixed and a run of any length attempts whole rounds.
Each job carries the check that the client applies to its output after the
timed part of the run.  Sizes are kept inside bands: DP work by the number
of order ideals of the region, closed-form jobs by the digit count of the
answer (estimated from the independent product formula), so a seed changes
which shapes run but not how heavy a round is.
"""

from __future__ import annotations

import random

import checks

# Counts above 4,300 digits hit the interpreter's int-to-str limit, which
# only the named failing job is meant to hit.
MAX_DIGITS = 4000
FAILING_JOB = ["count", "rect:70x70"]


def fmt(parts) -> str:
    return ",".join(str(p) for p in parts)


def cli(argv, check) -> dict:
    return {"kind": "cli", "argv": list(argv), "check": check}


def rand_partition(rng: random.Random, max_parts: int, max_part: int) -> tuple[int, ...]:
    n = rng.randint(1, max_parts)
    return tuple(sorted((rng.randint(1, max_part) for _ in range(n)), reverse=True))


def family_k(kappa: tuple[int, ...]) -> int | None:
    """k when kappa is ((k-1)^(k-1)) or (k^(k-1), k-1), the two truncations
    the CLI routes to a closed form."""
    if kappa and len(set(kappa)) == 1 and kappa[0] == len(kappa):
        return len(kappa) + 1
    k = kappa[0] if kappa else 0
    if k >= 2 and kappa == (k,) * (k - 1) + (k - 1,):
        return k
    return None


def is_stair_family(m: int, kappa: tuple[int, ...]) -> bool:
    k = family_k(kappa)
    return k is not None and m - 2 * k >= 0


def is_rect_family(kappa: tuple[int, ...]) -> bool:
    # (2) and its conjugate (1,1) are kept out too: on a square, (2) is the
    # conjectured square-minus-two form.
    return family_k(kappa) is not None or kappa in ((2,), (1, 1))


def ideal_count(rows: list[tuple[int, int]]) -> int:
    """Order ideals of a region given as 1-based column intervals, top to
    bottom, where a cell needs the cell to its left and the cell above it.
    For shifted rows this also covers the diagonal order pairs."""
    ways = {0: 1}
    prev = None
    for s, e in rows:
        nxt: dict[int, int] = {}
        for f_prev, w in ways.items():
            for f in range(e - s + 2):
                if f and prev is not None:
                    reach = min(s + f - 1, prev[1])
                    if reach >= prev[0] and f_prev < reach - prev[0] + 1:
                        break
                nxt[f] = nxt.get(f, 0) + w
        ways, prev = nxt, (s, e)
    return sum(ways.values())


def rect_rows(m: int, n: int, kappa) -> list[tuple[int, int]]:
    return [(1, n - (kappa[i] if i < len(kappa) else 0)) for i in range(m)]


# --- oracle -----------------------------------------------------------------

# One slot per job of a round: the shape's dimensions are fixed and the seed
# picks a truncation whose number of order ideals (the DP's states) falls
# in a narrow band (the last two numbers), so each slot costs about the same
# for every seed.
RECT_SLOTS = ((5, 16, 5700, 6500), (7, 11, 4400, 5000))
STAIR_SLOTS = ((14, ["--method", "oracle"], 3328, 3584), (13, [], 2176, 2432),
               (12, ["--method", "oracle"], 1088, 1216))
PART_SLOTS = ((7, 14, 21500, 24500), (5, 18, 6200, 7200))


def pick_rect(rng, m, n, lo, hi):
    while True:
        kappa = rand_partition(rng, min(4, m - 1), min(n - 1, 6))
        if sum(kappa) < 2 or is_rect_family(kappa):
            continue
        if lo <= ideal_count(rect_rows(m, n, kappa)) <= hi:
            return kappa


def pick_stair(rng, m, lo, hi):
    while True:
        kappa = rand_partition(rng, 4, 5)
        if any(c > m - i for i, c in enumerate(kappa, start=1)) or is_stair_family(m, kappa):
            continue
        if lo <= ideal_count(checks.stair_rows(m, kappa)[0]) <= hi:
            return kappa


def pick_oracle_part(rng, rows, max_part, lo, hi):
    while True:
        lam = tuple(sorted((rng.randint(1, max_part) for _ in range(rows)), reverse=True))
        if lo <= ideal_count([(1, p) for p in lam]) <= hi:
            return lam


def oracle_round(rng, index: int) -> list[dict]:
    """Two rectangle pairs, three staircases, two ordinary shapes.

    Two slots cost about 10-20 ref, five about 20-30, one about 50 and one
    about 120, so the median lies inside the middle five and the tail inside
    the heaviest slot.
    """
    jobs = []
    for m, n, lo, hi in RECT_SLOTS:
        kappa = pick_rect(rng, m, n, lo, hi)
        at = len(jobs)
        jobs.append(cli(["count", f"rect:{m}x{n}/{fmt(kappa)}", "--method", "oracle"],
                        {"type": "pair", "with": at + 1}))
        jobs.append(cli(["count", f"rect:{n}x{m}/{fmt(checks.conjugate(kappa))}"],
                        {"type": "pair", "with": at}))
    for m, method, lo, hi in STAIR_SLOTS:
        kappa = pick_stair(rng, m, lo, hi)
        jobs.append(cli(["count", f"stair:{m}/{fmt(kappa)}"] + method,
                        {"type": "stair_dp", "m": m, "kappa": list(kappa)}))
    for rows, max_part, lo, hi in PART_SLOTS:
        lam = pick_oracle_part(rng, rows, max_part, lo, hi)
        jobs.append(cli(["count", f"part:{fmt(lam)}", "--method", "oracle"],
                        {"type": "value", "family": "part", "params": list(lam)}))
    return jobs


# --- formula ----------------------------------------------------------------

def family_shape(family: str, params) -> tuple[str, int]:
    """Shape descriptor and cell count of a family member, by parameters."""
    if family in ("stair-sq", "stair-sq+1"):
        m, k = params
        kappa = (k - 1,) * (k - 1) if family == "stair-sq" else (k,) * (k - 1) + (k - 1,)
        order = m + 2 * k
        kappa = tuple(p for p in kappa if p)
        desc = f"stair:{order}/{fmt(kappa)}" if kappa else f"stair:{order}"
        return desc, order * (order + 1) // 2 - sum(kappa)
    if family in ("rect-sq", "rect-sq+1"):
        m, n, k = params
        kappa = (k - 1,) * (k - 1) if family == "rect-sq" else (k,) * (k - 1) + (k - 1,)
        kappa = tuple(p for p in kappa if p)
        desc = f"rect:{m + k}x{n + k}/{fmt(kappa)}" if kappa else f"rect:{m + k}x{n + k}"
        return desc, (m + k) * (n + k) - sum(kappa)
    if family == "stair-corner":
        (m,) = params
        return f"stair:{m + 4}/1", (m + 4) * (m + 5) // 2 - 1
    if family == "rect-corner":
        m, n = params
        return f"rect:{m + 2}x{n + 2}/1", (m + 2) * (n + 2) - 1
    if family == "square-minus-two":
        (n,) = params
        return f"rect:{n}x{n}/2", n * n - 2
    if family == "part":
        return f"part:{fmt(params)}", sum(params)
    if family == "shifted":
        return f"shifted:{fmt(params)}", sum(params)
    raise ValueError(family)


def digits(family: str, params) -> float:
    return checks.FAMILIES[family](*params).log10()


def pick_family(rng, family, ranges, lo_digits, hi_digits):
    while True:
        params = [rng.randint(a, b) for a, b in ranges]
        if lo_digits <= digits(family, params) <= hi_digits:
            return params


def pick_part(rng, n_parts, lo_digits, hi_digits, ceiling=(2, 30)):
    """n_parts parts, each at most a ceiling drawn per shape."""
    while True:
        lam = tuple(sorted((rng.randint(1, rng.randint(*ceiling)) for _ in range(rng.randint(*n_parts))),
                           reverse=True))
        if lo_digits <= digits("part", lam) <= hi_digits:
            return list(lam)


def pick_shifted(rng, n_parts, lo_digits, hi_digits, spare=(0, 40)):
    """n distinct parts drawn from 1..n + spare, so spare bounds the size."""
    while True:
        n = rng.randint(*n_parts)
        lam = tuple(sorted(rng.sample(range(1, n + rng.randint(*spare) + 1), n), reverse=True))
        if lo_digits <= digits("shifted", lam) <= hi_digits:
            return list(lam)


SCAN_RANGES = {
    "stair-sq": {"m": (0, 6), "k": (2, 4)},
    "stair-sq+1": {"m": (0, 6), "k": (1, 4)},
    "rect-sq": {"m": (0, 3), "n": (0, 3), "k": (2, 3)},
    "rect-sq+1": {"m": (0, 3), "n": (0, 3), "k": (1, 3)},
    "stair-corner": {"m": (0, 10)},
    "rect-corner": {"m": (0, 5), "n": (0, 5)},
    "square-minus-two": {"n": (2, 12)},
}


def scan_job(rng) -> dict:
    family = rng.choice(sorted(SCAN_RANGES))
    argv = ["scan", "--family", family]
    axes = {}
    for name, (lo, hi) in SCAN_RANGES[family].items():
        a = rng.randint(lo, hi)
        b = rng.randint(a, min(hi, a + 3))
        axes[name] = (a, b)
        argv += [f"--{name}", f"{a}..{b}"]
    fmt_name = rng.choice(["csv", "json"])
    argv += ["--format", fmt_name]
    rows = [{}]
    for name, (a, b) in axes.items():
        rows = [dict(r, **{name: v}) for r in rows for v in range(a, b + 1)]
    return cli(argv, {"type": "scan", "family": family, "format": fmt_name, "rows": rows})


def count_job(family, params) -> dict:
    desc, _ = family_shape(family, params)
    return cli(["count", desc], {"type": "value", "family": family, "params": params})


def factor_job(family, params) -> dict:
    desc, cells = family_shape(family, params)
    return cli(["factor", desc], {"type": "factor", "family": family, "params": params,
                                  "cells": cells, "smooth": True})


def formula_round(rng, index: int) -> list[dict]:
    """Six cheap jobs, six middle jobs, three heavy jobs and the failing one.

    Of the 15 jobs that complete, the 8th by cost sets job_ref_p50.  The
    first three middle jobs cost about the same (~35 ref), so the 8th is
    the middle of three similar slots rather than the edge of a cluster.
    The three heavy jobs also cost about the same, so the tail (ten jobs
    beyond it) falls inside their class for any run of four rounds or more.
    The staircase families, Frobenius-Young and Schur cost O(parts^2) ratio
    operations and factorize's cost climbs steeply with the count's size,
    so those slots have narrow ranges; the rectangle families are cheap at
    any size and span hundreds to 4,000 digits.
    """
    jobs = []
    for family, ranges in (
        ("rect-sq", ((5, 45), (5, 45), (2, 6))),
        ("rect-sq+1", ((5, 45), (5, 45), (1, 6))),
        ("square-minus-two", ((10, 50),)),
        ("rect-corner", ((5, 50), (5, 50))),
    ):
        jobs.append(count_job(family, pick_family(rng, family, ranges, 200, MAX_DIGITS)))
    jobs.append(scan_job(rng))
    jobs.append(count_job("part", pick_part(rng, (10, 30), 50, MAX_DIGITS)))

    family = rng.choice(["stair-sq", "stair-sq+1"])
    jobs.append(factor_job(family, pick_family(rng, family, ((15, 28), (2, 4)), 315, 335)))
    jobs.append(count_job("shifted", pick_shifted(rng, (36, 36), 50, MAX_DIGITS, spare=(15, 25))))
    jobs.append(factor_job("part", pick_part(rng, (30, 40), 395, 415, ceiling=(15, 30))))
    for family, ranges in (("stair-sq", ((42, 44), (3, 5))), ("stair-sq+1", ((44, 46), (3, 5)))):
        jobs.append(count_job(family, pick_family(rng, family, ranges, 0, MAX_DIGITS)))
    family = rng.choice(["rect-sq", "rect-sq+1"])
    jobs.append(factor_job(family, pick_family(rng, family, ((16, 24), (16, 24), (2, 4)), 450, 500)))

    jobs.append(count_job("stair-corner", pick_family(rng, "stair-corner", ((59, 61),), 0, MAX_DIGITS)))
    jobs.append(count_job("part", pick_part(rng, (115, 119), 50, MAX_DIGITS)))
    jobs.append(count_job("shifted", pick_shifted(rng, (60, 62), 50, MAX_DIGITS)))
    # Fails today (int-to-str limit); kept so that a fix shows up.
    jobs.append(cli(FAILING_JOB, {"type": "value", "family": "part", "params": [70] * 70,
                                  "may_fail": True}))
    return jobs


# --- verify -----------------------------------------------------------------


def strict_above(rng, floor: int, n_parts: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(floor + 1, floor + 7), n_parts), reverse=True))


def partition_le(rng, n_parts: int, max_part: int) -> tuple[int, ...]:
    return tuple(sorted((rng.randint(1, max_part) for _ in range(n_parts)), reverse=True))


def mu_arg(mu) -> str:
    return fmt(mu) if mu else "0"


def pick_by_count(rng, make, family, lo, hi):
    """A shape from ``make(rng)`` whose tableau count lies in [lo, hi]."""
    while True:
        lam = make(rng)
        if lo <= checks.expected(family, list(lam)) <= hi:
            return lam


def verify_round(rng, index: int) -> list[dict]:
    """Every identity once, two enumerations and two round trips.

    Sizes are fixed per slot and the seed picks the free parameters (the
    prefix mu, the size t, the shape among ones with about as many
    tableaux).  The pivot identities alternate between their two families
    from round to round, since the families differ in cost.  The slots
    cost from ~5 to ~40 ref, dense around the median, with the two round
    trips well above.
    """
    jobs = []

    def verify(args, check=None):
        argv = ["verify"] + [str(a) for a in args]
        jobs.append(cli(argv, dict({"type": "verify"}, **(check or {}))))

    m, n = rng.choice([(3, 5), (5, 3)])
    verify(["sum-rect", "--m", m, "--n", n], {"rhs": ["part", [n] * m]})
    verify(["sum-shifted", "--m", 8, "--t", rng.randint(16, 20)],
           {"rhs": ["shifted", list(range(8, 0, -1))]})
    verify(["sum-shifted", "--m", 7], {"rhs": ["shifted", list(range(7, 0, -1))]})
    verify(["coeff-c", "--mu", fmt(strict_above(rng, 8, 2)), "--m", 8, "--t", rng.randint(16, 20)])
    verify(["coeff-d", "--mu", mu_arg(partition_le(rng, 2, 3)), "--k", 2, "--m", 5, "--n", 5,
            "--t", rng.randint(11, 14)])
    mu = strict_above(rng, 5, 2)
    verify(["main-stair", "--mu", fmt(mu), "--m", 5], {"rhs": ["theorem", [list(mu), 5]]})
    m, n = rng.choice([(3, 4), (4, 3)])
    verify(["main-rect", "--mu", mu_arg(partition_le(rng, 2, 3)), "--k", 2, "--m", m, "--n", n])
    m, k = 3, 3
    if index % 2:
        mu, family = tuple(range(m + k + 1, m + 2, -1)) + (m + 1,), "stair-sq"
    else:
        mu, family = tuple(range(m + k, m, -1)), "stair-sq+1"
    verify(["pivot-stair", "--mu", fmt(mu), "--m", m], {"lhs": [family, [m, k]]})
    k, (m, n) = 2, rng.choice([(3, 4), (4, 3)])
    if index % 2:
        mu, family = (1,) * (k - 1), "rect-sq"
    else:
        mu, family = (), "rect-sq+1"
    verify(["pivot-rect", "--mu", mu_arg(mu), "--k", k, "--m", m, "--n", n],
           {"lhs": [family, [m, n, k]]})
    t1, t2, upper = rng.randint(60, 80), rng.randint(60, 80), rng.randint(1200, 1500)
    verify(["binomial", "--t1", t1, "--t2", t2, "--N", upper], {"rhs": ["binomial", [t1, t2, upper]]})

    # enumerate: an ordinary shape with 300-500 tableaux, a shifted one with 100-200
    lam = pick_by_count(rng, lambda r: rand_partition(r, 5, 5), "part", 300, 500)
    jobs.append(cli(["enumerate", f"part:{fmt(lam)}"],
                    {"type": "enumerate", "rows": [(1, p) for p in lam], "count": ["part", list(lam)]}))
    lam = pick_by_count(rng, lambda r: tuple(sorted(r.sample(range(1, 8), r.randint(2, 4)), reverse=True)),
                        "shifted", 100, 200)
    jobs.append(cli(["enumerate", f"shifted:{fmt(lam)}"],
                    {"type": "enumerate", "rows": [(i, i + p - 1) for i, p in enumerate(lam, start=1)],
                     "count": ["shifted", list(lam)]}))

    # split/unsplit round trips over every tableau of a 3 x 4 or 4 x 3
    # rectangle (462 tableaux) and of the order-5 staircase (286)
    for shape, fam in (rng.choice([("rect:3x4", ["part", [4, 4, 4]]), ("rect:4x3", ["part", [3, 3, 3, 3]])]),
                       ("stair:5", ["shifted", [5, 4, 3, 2, 1]])):
        jobs.append({"kind": "roundtrip", "shape": shape, "step": rng.randint(1, 7),
                     "check": {"type": "roundtrip", "count": fam}})
    return jobs


ROUNDS = {"oracle": oracle_round, "formula": formula_round, "verify": verify_round}


def rounds(workload: str, seed: int):
    """Endless stream of rounds; the same seed gives the same stream."""
    rng = random.Random(f"{workload}:{seed}")
    make = ROUNDS[workload]
    index = 0
    while True:
        yield make(rng, index)
        index += 1
