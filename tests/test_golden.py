"""Replay the recorded CLI commands of ``golden_cli.json`` in-process.

Every command must give its recorded exit code, standard output and
standard error, whatever the exit code.  Text that argparse
wrote (``--help`` and usage errors) is compared only on the Python version
the file was captured with; its exit code is compared everywhere.
``capture_golden.py`` says how the file is made.
"""

import json
import sys
from pathlib import Path

import pytest

from sytcount.cli import main

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
SAME_PYTHON = GOLDEN["python"] == "%d.%d" % sys.version_info[:2]


@pytest.mark.parametrize(
    "record", GOLDEN["commands"], ids=lambda r: " ".join(r["argv"]) or "(none)"
)
def test_replay(record, capsys, monkeypatch):
    monkeypatch.delenv("SYTCOUNT_ORACLE_LIMIT", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    for key, value in record["env"].items():
        monkeypatch.setenv(key, value)
    try:
        code = main(list(record["argv"]))
    except SystemExit as exc:  # argparse: --help or a usage error
        code = exc.code
    captured = capsys.readouterr()
    assert code == record["code"]
    if record.get("argparse") and not SAME_PYTHON:
        return
    assert captured.out == record["out"]
    assert captured.err == record["err"]
