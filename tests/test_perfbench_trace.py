"""The benchmark's trace mode, run as the benchmark runs it.

``perfbench/tracer.py`` wraps the library from outside and, after the
CLI returns, reads the ideal rows of every quotient basis it saw
(``PBasis.blocks``, weight -> ``EchelonSpan``, and each span's rows).
A library change that drops a name it reads breaks only that mode, so
this runs it as a subprocess and checks its exit code, the golden
stdout and the one-line JSON snapshot on stderr.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = ('{"claim":"outer-bracket","g":3,"status":"pass","witness":{"coefficient":"-9/16",'
          '"full_images_commute":true,"inner_preimage_terms":2,"nested_class_nonzero":true}}\n')


def test_traced_outer_bracket_keeps_stdout_and_writes_a_snapshot():
    env = {k: v for k, v in os.environ.items() if k != "SYMPLIE_DEGREE_CAP"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "perfbench/tracer.py", "verify", "--claim", "outer-bracket", "--g", "3",
         "--format", "json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("perfbench-trace ")
    snap = json.loads(last[len("perfbench-trace "):])
    assert snap["max_coeff_bits"] >= 1
    assert "cli.main" in snap["fns"]
