"""The CLI as a process: a closed pipe, an interrupt and a size past any
list end in an exit code and at most one line on stderr, never a traceback.

Each command runs ``python -m sytcount.cli`` in a child process with a
timeout and an address-space cap set in the child alone, so a size that
the program fails to refuse ends in a ``MemoryError`` there instead of
filling the machine's memory.
"""

import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
CAP = 1 << 30  # bytes of address space for each child
TIMEOUT = 20  # seconds for each child
BIG = str(10**19)  # past sys.maxsize


def _in_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))
    # a shell may start the tests with SIGINT ignored, which the child would inherit
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def start(argv, stdout=subprocess.PIPE) -> subprocess.Popen:
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)  # stdout is block-buffered, as in a shell pipeline
    return subprocess.Popen(
        [sys.executable, "-m", "sytcount.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, preexec_fn=_in_child, text=True,
    )


def finish(child: subprocess.Popen) -> tuple[str, str]:
    """The child's remaining stdout (empty if closed) and its stderr."""
    try:
        out, err = child.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise
    assert "Traceback" not in err
    return out or "", err


@pytest.mark.parametrize("argv, out", [
    (["count", "rect:3x4/2"], "33\n"),
    (["enumerate", "rect:2x2"], "1 2\n3 4\n\n1 3\n2 4\n"),
], ids=["count", "enumerate"])
def test_an_answer_exits_0(argv, out):
    child = start(argv)
    assert finish(child) == (out, "") and child.returncode == 0


@pytest.mark.parametrize("argv, message", [
    (["count", f"stair:{BIG}/5,5"], f"staircase order is too large to count: {BIG}"),
    (["count", f"rect:{BIG}x1/1"], f"rectangle side is too large to count: {BIG}"),
    (["count", f"rect:1x{BIG}/1"], f"region size is too large to count: {int(BIG) - 1}"),
    (["enumerate", f"rect:1x{BIG}"], f"region size is too large to count: {BIG}"),
    (["verify", "pivot-rect", "--mu", "0", "--k", "1", "--m", "1", "--n", BIG],
     f"region size is too large to count: {2 * int(BIG) + 2}"),
], ids=["stair-order", "rect-rows", "rect-cells", "enumerate", "pivot-rect"])
def test_a_size_past_any_list_exits_2_with_one_line(argv, message):
    child = start(argv)
    assert finish(child) == ("", f"error: {message}\n") and child.returncode == 2


def test_a_reader_closing_after_one_line_ends_it_quietly():
    # far more output than the pipe holds, so the child is still writing
    child = start(["enumerate", "rect:4x4"])
    assert child.stdout.readline() == " 1  2  3  4\n"
    child.stdout.close()
    assert finish(child) == ("", "") and child.returncode == 1


@pytest.mark.parametrize("argv", [
    ["factor", "--method", "oracle", "rect:7x8/3,3,1"],
    ["--help"],  # argparse exits before main returns
], ids=["factor", "help"])
def test_a_reader_gone_before_the_first_write_ends_it_quietly(argv):
    # The output leaves in one buffered write at exit, so a reader that took
    # one line would already hold it all; the read end is closed before the start.
    read, write = os.pipe()
    os.close(read)
    try:
        child = start(argv, stdout=write)
    finally:
        os.close(write)
    assert finish(child) == ("", "") and child.returncode == 1


def test_an_interrupt_exits_130_with_one_line():
    child = start(["count", "stair:30/2"])  # runs for minutes
    time.sleep(1)
    child.send_signal(signal.SIGINT)
    assert finish(child) == ("", "error: interrupted\n") and child.returncode == 130
