"""Fresh interpreters: which modules a command runs, and the exit contract
of ``python -m symplie.cli``.

Importing :mod:`symplie.cli` registers every library module lazily, so a
module runs only when a command first reads a name from it.  A module
that has not run is still a lazy module; ``type(m) is types.ModuleType``
tells the two apart without reading an attribute, which would run it.
This test session has loaded every module already, so each check starts
its own interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ["linalg", "reps", "freelie", "surface", "johnson", "magnus", "claims"]

# Imports the CLI, runs main on sys.argv[1:] (if any) with its output
# discarded, and prints as JSON the symplie modules bound on the package
# and the ones that had run, after the import and after the command.
PROBE = """
import contextlib, io, json, sys, types
import symplie.cli

def modules():
    return {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "symplie"}

def ran(mods):
    return sorted(n for n, m in mods.items() if type(m) is types.ModuleType)

package = vars(sys.modules["symplie"])
report = {
    "bound": sorted(n for n, m in modules().items() if package.get(n.partition(".")[2]) is m),
    "ran_at_import": ran(modules()),
    "code": None,
}
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        report["code"] = symplie.cli.main(sys.argv[1:])
report["ran"] = ran(modules())
print(json.dumps(report))
"""


def _run(args, cap=None):
    env = {k: v for k, v in os.environ.items() if k != "SYMPLIE_DEGREE_CAP"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if cap is not None:
        env["SYMPLIE_DEGREE_CAP"] = cap
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _probe(*argv):
    proc = _run(["-c", PROBE, *argv])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _symplie(*names):
    return sorted(["symplie", "symplie.cli"] + [f"symplie.{n}" for n in names])


def test_importing_the_cli_registers_every_layer_and_runs_none():
    report = _probe()
    assert report["bound"] == _symplie(*LAYERS)[1:]
    assert report["ran"] == _symplie()


# (command, the library modules it runs, its exit code)
COMMANDS = [
    ("decompose --g 10 --module lambda_k --degree 3", ["reps", "linalg"], 0),
    ("decompose --g 5 --module L --degree 4", ["reps", "linalg"], 0),
    ("decompose --module p --degree 4", ["reps", "linalg"], 0),
    ("decompose --module hom --degree 3", ["reps", "linalg"], 0),
    ("decompose --g 8 --module sym2lambda2", ["reps", "linalg"], 0),
    ("decompose --module bogus", ["reps", "linalg"], 2),
    ("decompose --module der --degree 2", ["reps", "linalg"], 0),
    ("decompose --module outder --degree 2", ["reps", "linalg"], 0),
    ("dims --g 3", ["reps", "linalg", "freelie", "surface"], 0),
    ("verify --claim outer-bracket --g 3", LAYERS, 0),
]


@pytest.mark.parametrize("argv, ran, code", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_a_command_runs_only_the_modules_it_reads(argv, ran, code):
    report = _probe(*argv.split())
    assert report["ran_at_import"] == _symplie()
    assert report["code"] == code
    assert report["ran"] == _symplie(*ran)


def test_an_import_after_the_cli_runs_the_module():
    proc = _run(["-c", "import symplie.cli\nimport symplie.magnus\nimport symplie.johnson\n"
                       "print(callable(symplie.magnus.magnus), len(symplie.johnson.der_basis(3, 2)))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True 104\n"


@pytest.mark.parametrize("argv", [
    "decompose --module lambda_k --degree 2",
    "dims",
    "verify",
])
def test_malformed_degree_cap_exits_2_in_one_line(argv):
    proc = _run(["-m", "symplie.cli", *argv.split()], cap="abc")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "symplie: SYMPLIE_DEGREE_CAP must be an integer >= 1, got 'abc'"]


def test_unknown_module_exits_2_in_one_line():
    proc = _run(["-m", "symplie.cli", "decompose", "--module", "bogus"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("symplie: unknown module 'bogus'")
