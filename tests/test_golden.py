"""The benchmark's golden outputs, checked in-process.

Runs every command recorded in perfbench/golden.json through
``main(cmd.split() + ["--format", "json"])`` with SYMPLIE_DEGREE_CAP
unset and compares the exit code and the sha256 of stdout.  The file is
only read here; it is rewritten only by ``perfbench/run.py
--record-golden`` after a deliberate output change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from symplie.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("cmd", sorted(GOLDEN))
def test_golden_output(cmd, capsys, monkeypatch):
    monkeypatch.delenv("SYMPLIE_DEGREE_CAP", raising=False)
    code = main(cmd.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == GOLDEN[cmd]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[cmd]["sha256"]
