"""Fixed frontier workloads, each a fresh child process, timed end to end.

    python3 bench/frontier.py LABEL

runs every command below five times, round by round, and writes
BENCH_<LABEL>.json at the root of the checkout, with sorted keys.  The
file holds a stamp (Python version, CPU count, git commit, sha256 of the
library source, whether the source differs from the commit, and the RSS
floor) and, for each command, its time limit, the median and spread
(max - min) of its wall times, its peak RSS from ``wait4`` (median over
the runs), the sha256 of its stdout and its exit code.  Each child is
killed after its time limit, and its stderr passes through.  After
writing, the script exits 1 if any command exited nonzero, was killed
(a negative exit) or printed a different stdout or exit code between
runs; the CI frontier step runs it so.

A child's peak RSS starts at this script's own peak, which it inherits
through the spawn.  The stamp's ``rss_floor_kb`` is that peak after the
last spawn; a command with ``rss_above_floor`` false read only the floor,
so its own memory is not measured.  On Linux the floor is ``VmHWM``:
``ru_maxrss`` of the script itself also keeps the peak of the process
that started it, which no child inherits.

The children run this checkout's ``src`` with ``PYTHONDONTWRITEBYTECODE=1``,
and with ``SYMPLIE_DEGREE_CAP=10`` only where a command names it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import resource
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


def claim(name: str, g: int, limit: float) -> tuple:
    return (f"{name} g={g}", CLI + ["verify", "--claim", name, "--g", str(g), "--format", "json"],
            None, limit)


def decompose(name: str, g: int, module: str, degree: int, limit: float) -> tuple:
    return (f"decompose {name} g={g}", CLI + ["decompose", "--format", "json", "--g", str(g),
                                              "--module", module, "--degree", str(degree)],
            None, limit)


# (name, argv, degree cap or None, time limit in seconds)
COMMANDS = [
    *(claim("outer-bracket", g, limit)
      for g, limit in ((8, 120), (12, 120), (16, 60), (20, 60), (40, 120))),
    *((f"der_basis({g}, {n}) cap 10", [sys.executable, "-c", DER_BASIS.format(g, n)], "10", 120)
      for g, n in ((4, 4), (3, 5), (5, 4))),
    decompose("p(6)", 14, "p", 6, 60),
    decompose("lambda_2", 300, "lambda_k", 2, 30),
    decompose("lambda_1", 16000, "lambda_k", 1, 30),
    claim("dims-oracle", 8, 30),
    ("dims g=6", CLI + ["dims", "--g", "6", "--format", "json"], None, 30),
    claim("magnus-oracle", 8, 30),
    claim("no-map", 12, 30),
    *(claim(name, g, 30) for name, g in (("bracket-31", 12), ("phi-kills-lambda4", 8),
                                         ("theta-square-lemma", 12), ("pi-p-identity", 20),
                                         ("dehn-twist-image", 12), ("bracket-31", 40))),
    ("verify all", CLI + ["verify", "--claim", "all", "--format", "json"], None, 60),
    ("dims g=3", CLI + ["dims", "--g", "3", "--format", "json"], None, 60),
    ("python -c pass", [sys.executable, "-c", "pass"], None, 30),
    ("python -S -c pass", [sys.executable, "-S", "-c", "pass"], None, 30),
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
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE)
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


def rss_floor_kb() -> int:
    """This process's own peak RSS in KB, the value each child's peak RSS
    starts at."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


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
    floor = rss_floor_kb()
    passed = True
    results = {}
    for name, cmd, cap, limit in COMMANDS:
        walls = [r[0] for r in runs[name]]
        outputs = {(hashlib.sha256(r[2]).hexdigest(), r[3]) for r in runs[name]}
        (sha, code), *_ = sorted(outputs)
        passed &= len(outputs) == 1 and all(r[3] == 0 for r in runs[name])
        rss = statistics.median(r[1] for r in runs[name])
        results[name] = {
            "argv": cmd[1:], "degree_cap": cap, "limit_s": limit,
            "wall_s": {"median": statistics.median(walls), "spread": max(walls) - min(walls),
                       "runs": walls},
            "peak_rss_kb": rss, "rss_above_floor": rss > floor,
            "stdout_sha256": sha, "exit": code, "stable": len(outputs) == 1,
        }
        print(f"{name}: {results[name]['wall_s']['median']:.3f} s "
              f"(spread {results[name]['wall_s']['spread']:.3f}) "
              f"{rss} KB{'' if rss > floor else ' (floor)'} exit {code}")
    report = {
        "stamp": {"python": platform.python_version(), "nproc": os.cpu_count(),
                  "commit": git("rev-parse", "HEAD"), "src_sha256": src_sha256(),
                  "src_changed_since_commit": bool(git("status", "--porcelain", "--", "src")),
                  "runs": RUNS, "rss_floor_kb": floor},
        "commands": results,
    }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name} (RSS floor {floor} KB)")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
