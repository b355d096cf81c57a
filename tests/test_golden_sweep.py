"""A wider byte gate than the benchmark's goldens, checked in-process.

tests/golden_sweep.json records the exit code and the sha256 of stdout
for fast commands covering every claim in text and JSON, ``verify`` at
g = 2 and with ``--inverse-twist``, ``bracket-31`` at g = 5, 6 and 8,
the ``dims`` tables at g = 2 to 5 and ``decompose`` tables of L, p,
hom, der, outder, lambda_k and sym2lambda2, up to g = 10 for the
character-only modules (g = 20 for sym2lambda2).  Every ``decompose
--twists`` table is kept as JSON and as text, so the text renderer's
multiplicities, twist tags (-1 to 3; a twist of 0 or None prints no tag),
empty partition and sym2lambda2 name are pinned too.

It also holds the fast commands of bench/frontier.py, in JSON and under
the frontier's own arguments: ``outer-bracket`` at g = 8 and 12;
``bracket-31``, ``no-map``, ``theta-square-lemma`` and
``dehn-twist-image`` at g = 12; ``phi-kills-lambda4``, ``magnus-oracle``
and ``dims-oracle`` at g = 8; ``dims`` at g = 6; and ``decompose`` of
p(6) at g = 14, of lambda_k degree 2 at g = 300 and of lambda_k degree 1
at g = 16000.

Each key is the full argument list, its format included.
Rewrite the file only after a deliberate output change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from symplie.cli import main

SWEEP = json.loads((Path(__file__).resolve().parent / "golden_sweep.json").read_text())


@pytest.mark.parametrize("cmd", sorted(SWEEP))
def test_sweep_output(cmd, capsys, monkeypatch):
    monkeypatch.delenv("SYMPLIE_DEGREE_CAP", raising=False)
    code = main(cmd.split())
    out = capsys.readouterr().out
    assert code == SWEEP[cmd]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP[cmd]["sha256"]
