"""Fixed frontier workloads, each a fresh child process, timed end to end.

    python3 bench/frontier.py LABEL

runs every command below five times, round by round, and writes
BENCH_<LABEL>.json at the root of the checkout, with sorted keys.  The
file holds a stamp (Python version, CPU count, git commit, sha256 of the
library source, and whether the source differs from the commit) and,
for each command, the median and spread (max - min) of its wall times,
its peak RSS from ``wait4`` (median over the runs), the sha256 of its
stdout and its exit code.  A command whose stdout or
exit code changes between runs makes the script exit 1 after writing.

A child's peak RSS starts at this script's own, which it inherits
through the spawn, so the ``python -c pass`` row is the floor of that
column: only values above it measure the command.

The children run this checkout's ``src`` with ``PYTHONDONTWRITEBYTECODE=1``,
and with ``SYMPLIE_DEGREE_CAP=10`` only where a command names it.  The
timer is the one of CI's "Genus and characters frontier" step: wall clock
around one child, killed after its time limit, reaped by ``os.wait4``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = 5

CLI = [sys.executable, "-m", "symplie.cli"]
# der_basis prints the sha256 of its vectors, by key order, key, value and
# value type, so the stdout digest pins the basis itself
DER_BASIS = (
    "import hashlib\n"
    "from symplie.johnson import der_basis\n"
    "h = hashlib.sha256()\n"
    "for d in der_basis({}, {}):\n"
    "    h.update(repr([(k, type(c).__name__, c) for k, c in d.coords.items()]).encode())\n"
    "print(h.hexdigest())\n"
)

# (name, argv, degree cap or None, time limit in seconds)
COMMANDS = [
    *((f"outer-bracket g={g}", CLI + ["verify", "--claim", "outer-bracket", "--g", str(g),
                                      "--format", "json"], None, 120)
      for g in (8, 12, 20, 40)),
    *((f"der_basis({g}, {n}) cap 10", [sys.executable, "-c", DER_BASIS.format(g, n)], "10", 120)
      for g, n in ((4, 4), (3, 5))),
    ("verify all", CLI + ["verify", "--claim", "all", "--format", "json"], None, 60),
    ("dims g=3", CLI + ["dims", "--g", "3", "--format", "json"], None, 60),
    ("python -c pass", [sys.executable, "-c", "pass"], None, 30),
]


def child_env(cap: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SYMPLIE_DEGREE_CAP"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if cap is not None:
        env["SYMPLIE_DEGREE_CAP"] = cap
    return env


def timed(argv: list, limit: float, env: dict) -> tuple:
    """Run argv, killed after limit seconds: (wall seconds, peak RSS in KB,
    stdout bytes, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, out, proc.returncode


def git(*args: str) -> str | None:
    """The stripped stdout of a git command in the checkout, or None
    outside a git checkout."""
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "symplie").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def main(argv: list) -> int:
    if len(argv) != 1 or not re.fullmatch(r"[A-Za-z0-9_.-]+", argv[0]):
        print("usage: python3 bench/frontier.py LABEL (letters, digits, '_', '.', '-')",
              file=sys.stderr)
        return 2
    label = argv[0]
    runs: dict = {name: [] for name, *_ in COMMANDS}
    for _ in range(RUNS):
        for name, cmd, cap, limit in COMMANDS:
            runs[name].append(timed(cmd, limit, child_env(cap)))
    stable = True
    results = {}
    for name, cmd, cap, limit in COMMANDS:
        walls = [r[0] for r in runs[name]]
        outputs = {(hashlib.sha256(r[2]).hexdigest(), r[3]) for r in runs[name]}
        stable &= len(outputs) == 1
        (sha, code), *_ = sorted(outputs)
        results[name] = {
            "argv": cmd[1:], "degree_cap": cap, "limit_s": limit,
            "wall_s": {"median": statistics.median(walls), "spread": max(walls) - min(walls),
                       "runs": walls},
            "peak_rss_kb": statistics.median(r[1] for r in runs[name]),
            "stdout_sha256": sha, "exit": code, "stable": len(outputs) == 1,
        }
        print(f"{name}: {results[name]['wall_s']['median']:.3f} s "
              f"(spread {results[name]['wall_s']['spread']:.3f}) "
              f"{results[name]['peak_rss_kb']} KB exit {code}")
    report = {
        "stamp": {"python": platform.python_version(), "nproc": os.cpu_count(),
                  "commit": git("rev-parse", "HEAD"), "src_sha256": src_sha256(),
                  "src_changed_since_commit": bool(git("status", "--porcelain", "--", "src")),
                  "runs": RUNS},
        "commands": results,
    }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0 if stable else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
