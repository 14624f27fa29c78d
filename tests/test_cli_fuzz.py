"""Argv fuzzing: every command line ends in an answer or a one-line error.

Hypothesis draws argv from the CLI's grammar: every subcommand, identity and
scan family, shape descriptors with zero, negative, huge and malformed
numbers, malformed ranges, and options that are missing, repeated, joined
to their value by ``=`` or left without one.  Whatever is drawn, ``main`` must exit 0, 1 or 2 without a
Python traceback, and an exit 2 must explain itself in exactly one
``error:`` line: ours alone, or argparse's after its usage text.

Numbers that size a shape stay small, since a huge shape is a valid (and
slow) request; huge numbers go where the CLI must reject them, or where
they cost nothing: truncation parts, ``--t``, ``--limit``, negative sizes,
and scan ranges that are empty or fail on their first row.
"""

import contextlib
import io
import os
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from sytcount.cli import _IDENTITIES, _SCAN_FAMILIES, ORACLE_LIMIT_ENV, main

HUGE = str(10**20)
GARBAGE = st.sampled_from(["", "x", "1.5", "-", "+2", "-0", " 3", "0x10"])


def one_in(n):
    """True about once in ``n`` draws.  Hypothesis leans to the ends of an
    integer range, so the rare case is a value from the middle."""
    return st.integers(0, n - 1).map(lambda i: i == n // 2)


def mostly(valid, *rare):
    """``valid`` seven times in eight, else one of the ``rare`` strategies."""
    rare = st.one_of(*rare)
    return one_in(8).flatmap(lambda rare_one: rare if rare_one else valid)


def num(lo, hi, *extra):
    """A decimal in ``lo..hi``, or now and then one of the ``extra`` tokens."""
    return mostly(st.integers(lo, hi).map(str), st.sampled_from(extra))


def joined(token, min_size=0, max_size=3):
    return st.lists(token, min_size=min_size, max_size=max_size).map(",".join)


# Truncations: none, the square-family cuts (k^(k-1), k-1) and ((k-1)^(k-1)),
# the square-minus-two cut, or anything, huge parts included.
kappas = st.one_of(
    st.just(""),
    st.integers(1, 3).map(lambda k: "/" + ",".join(map(str, (k,) * (k - 1) + (k - 1,)))),
    st.integers(2, 3).map(lambda k: "/" + ",".join([str(k - 1)] * (k - 1))),
    st.just("/2"),
    joined(num(0, 5, "-1", HUGE, str(2**64))).map(lambda k: "/" + k),
)

descriptors = mostly(
    st.one_of(
        joined(num(1, 4, "0", "-1", "-" + HUGE), 1).map(lambda p: "part:" + p),
        joined(num(1, 5, "0", "-1", "-" + HUGE), 1).map(lambda p: "shifted:" + p),
        st.tuples(num(0, 5, "-1", "-" + HUGE), kappas).map(lambda t: "stair:" + "".join(t)),
        st.tuples(num(0, 3, "-1", "-" + HUGE), num(0, 3, "-1"), kappas).map(
            lambda t: f"rect:{t[0]}x{t[1]}{t[2]}"
        ),
    ),
    GARBAGE,
    st.sampled_from(
        ["part", "part:", ":3", "cube:3", "rect:3", "rect:2x2x2", "stair:2/",
         "stair:/1", "rect:x/1", "shifted:2,2", "part:1,2", "part:1,,1"]
    ),
)

ranges = mostly(
    st.one_of(
        num(0, 4, "-1", "-" + HUGE),
        st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map(lambda t: "%d..%d" % t),
    ),
    GARBAGE,
    st.sampled_from(["..", "1..", "..2", "3..1", "1..2..3", "a..b", "1...2", HUGE + "..1"]),
    # Each row is built when the scan reaches it, so a huge range whose
    # first row is out of every family's range fails at once.
    st.just("-" + HUGE + "..0"),
)

METHODS = mostly(st.sampled_from(["auto", "formula", "oracle"]), st.just("bogus"))

# Values of each option of a subcommand; None marks a flag.
OPTION_VALUES = {
    "count": {"--method": METHODS, "--check": st.none()},
    "factor": {"--method": METHODS},
    "verify": {
        "--mu": mostly(joined(num(0, 6, "-1"), 1, 4), GARBAGE),
        "--m": mostly(num(0, 4, "-1", "-" + HUGE), GARBAGE),
        "--n": mostly(num(0, 4, "-1", "-" + HUGE), GARBAGE),
        "--k": mostly(num(0, 3, "-1", "-" + HUGE), GARBAGE),
        "--t": mostly(num(0, 12, "-1", HUGE, "-" + HUGE), GARBAGE),
        "--t1": mostly(num(0, 6, "-1"), GARBAGE),
        "--t2": mostly(num(0, 6, "-1"), GARBAGE),
        "--N": mostly(num(0, 8, "-1"), GARBAGE),
    },
    "scan": {
        "--family": mostly(st.sampled_from(list(_SCAN_FAMILIES)), st.just("bogus")),
        "--m": ranges, "--n": ranges, "--k": ranges,
        "--kappa": mostly(joined(num(0, 3, "-1", HUGE), 1), GARBAGE),
        "--format": mostly(st.sampled_from(["text", "csv", "json"]), st.just("bogus")),
    },
    "enumerate": {"--limit": mostly(num(0, 3, "-1", HUGE, "-" + HUGE), GARBAGE)},
}

POSITIONAL = {
    "count": descriptors,
    "factor": descriptors,
    "verify": mostly(st.sampled_from(list(_IDENTITIES)), st.just("bogus")),
    "scan": st.none(),
    "enumerate": descriptors,
}


@st.composite
def argvs(draw):
    command = draw(mostly(st.sampled_from(list(POSITIONAL)), st.just("bogus")))
    if command == "bogus":
        return draw(st.sampled_from([[], ["bogus"], ["--help"], ["-x", "count"]]))
    argv = [command]
    positional = draw(POSITIONAL[command])
    if positional is not None and not draw(one_in(20)):
        argv.append(positional)
    values = OPTION_VALUES[command]
    # Each option is present 3 times in 4, so an identity usually has what
    # it needs; a few more are drawn again, to repeat some of them.
    names = [name for name in values if not draw(one_in(4))]
    names += draw(st.lists(st.sampled_from(list(values)), max_size=1))
    for name in draw(st.permutations(names)):
        value = draw(values[name])
        if value is None:
            argv.append(name)
        elif draw(one_in(2)):  # the only way to pass a value such as -1..2
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    if draw(one_in(30)):  # a stray token, or an option without value
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--help", "--m"])))
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop(ORACLE_LIMIT_ENV, None)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help or a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=160, deadline=None)
@given(argvs())
# A later axis that is empty after a huge first one: no rows, at once.
@example(["scan", "--n", "2..-1", "--k", "-" + HUGE, "--m=-" + HUGE + "..0",
          "--family", "rect-trunc", "--format", "json", "--format", "json"])
# A box a thousand rows tall: the partition walk keeps no frame per part.
@example(["verify", "sum-rect", "--m", "1000", "--n", "1", "--t", "1000"])
@example(["verify", "coeff-d", "--mu", "0", "--k", "1", "--m", "1000", "--n", "1", "--t", "1000"])
# An order past the longest list Python can build: one exit-2 line, not an
# OverflowError from the factorial arguments.
@example(["count", "stair:" + str(10**19)])
@example(["verify", "sum-shifted", "--m", str(10**19), "--t", "1"])
@example(["verify", "sum-shifted", "--m", "9" * 3000, "--t", "1"])
@example(["verify", "main-stair", "--mu", str(10**19), "--m", "1"])
@example(["count", f"part:{10**19},{10**19}"])
@example(["verify", "main-rect", "--mu", "1", "--k", str(10**19), "--m", "1", "--n", "1"])
@example(["verify", "pivot-rect", "--mu", "0", "--k", str(10**19), "--m", "1", "--n", "1"])
@example(["verify", "coeff-d", "--mu", "1", "--k", str(10**19), "--m", "1", "--n", "1",
          "--t", "0"])
@example(["scan", "--family", "stair-sq", "--m", "1", "--k", str(10**19)])
@example(["scan", "--family", "stair-sq+1", "--m", "1", "--k", str(10**19)])
@example(["verify", "sum-rect", "--m", "1", "--n", str(10**19), "--t", "1"])
@example(["verify", "sum-rect", "--m", str(10**19), "--n", "1", "--t", "1"])
@example(["verify", "main-rect", "--mu", "1", "--k", "1", "--m", str(10**19), "--n", "1"])
# Regions past sys.maxsize rows or cells: refused before any cell is listed.
@example(["count", f"stair:{10**19}/5,5"])
@example(["count", f"rect:{10**19}x1/1"])
@example(["count", f"rect:1x{10**19}/1"])
@example(["enumerate", f"rect:1x{10**19}"])
@example(["verify", "pivot-rect", "--mu", "0", "--k", "1", "--m", "1", "--n", str(10**19)])
def test_every_argv_ends_in_an_answer_or_one_error_line(argv):
    code, _, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:], argv
        assert len(lines) == 1 and lines[0].startswith("error: ") or (
            lines[0].startswith("usage: ") and ": error: " in lines[-1]
        ), argv
