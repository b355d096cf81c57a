"""The symplie benchmark: one workload per run, outputs checked, metrics printed.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1 [--out FILE]
    python3 perfbench/run.py --record-golden

Run from the root of a source checkout; the package is imported from
``src/`` with nothing installed.  Workloads (see perfbench/README.md):

- ``cli-tables``: the CLI's end-to-end tables, one fresh interpreter per command;
- ``characters``: Sp(2g) character tables that build no quotient;
- ``session``: the library as a warm workbench at g = 3 (perfbench/session.py).

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured;
with ``--trace 1`` a separate traced run gives its per-layer metrics.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records how the run was made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"

sys.path.insert(0, str(BENCH))
from reference import Reference  # noqa: E402
from tracer import TRACE_MARK, layer_metrics, merge  # noqa: E402

CLI_TABLES = [
    ["verify", "--claim", "all"],
    ["dims", "--g", "3"],
    *[["decompose", "--g", str(g), "--module", mod, "--degree", str(deg)]
      for mod, deg in (("p", 5), ("der", 3), ("outder", 3)) for g in (3, 4)],
]
CHARACTERS = [
    *[["decompose", "--g", "10", "--module", "lambda_k", "--degree", str(k)] for k in (2, 3, 4)],
    ["decompose", "--g", "9", "--module", "lambda_k", "--degree", "4"],
    ["decompose", "--g", "5", "--module", "L", "--degree", "6"],
    ["decompose", "--g", "6", "--module", "L", "--degree", "5"],
    ["decompose", "--g", "8", "--module", "sym2lambda2"],
]
COMMANDS = {"cli-tables": CLI_TABLES, "characters": CHARACTERS}
WORKLOADS = (*COMMANDS, "session")

CLI = [sys.executable, "-m", "symplie.cli"]
CLI_TRACED = [sys.executable, str(BENCH / "tracer.py")]
CLI_READY = [sys.executable, "-c", "import symplie.cli; print('ready', flush=True)"]
SESSION = [sys.executable, str(BENCH / "session.py")]

# Set-up is short next to the noise of process start, so it is repeated in
# every run and the median reported.
CLI_SETUPS = 9
SESSION_SETUPS = 3
ROUND_MIN_S = 1.0
# Reference-loop iterations run after every CLI command (about 30 ms).
PROBE_ITERATIONS = 60
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    """The children's environment: the package from src/, no degree cap, and
    one fixed hash seed, so that every run lays out the same sets and dicts
    (a different seed per process moves op times by several per cent)."""
    env = {k: v for k, v in os.environ.items() if k != "SYMPLIE_DEGREE_CAP"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One finished child process, reaped with os.wait4 for its rusage."""

    def __init__(self, argv, ready=False):
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        watchdog.start()
        err: list = []
        reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
        reader.start()
        try:
            self.ready_s = None
            if ready:
                line = p.stdout.readline()
                if line == b"ready\n":
                    self.ready_s = time.perf_counter() - t0
            self.out = p.stdout.read()
        finally:
            reader.join()
            _, status, ru = os.wait4(p.pid, 0)
            self.wall_s = time.perf_counter() - t0
            watchdog.cancel()
            p.returncode = self.code = os.waitstatus_to_exitcode(status)
            p.stdout.close()
            p.stderr.close()
        self.err = err[0] if err else b""
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def command_key(args) -> str:
    return " ".join(args)


def run_command(args, golden: dict, traced=False):
    """Run one CLI command; returns (child, failure message or None, trace)."""
    child = Child((CLI_TRACED if traced else CLI) + args + ["--format", "json"])
    trace = None
    if traced:
        lines = child.err.decode(errors="replace").splitlines()
        marks = [ln for ln in lines if ln.startswith(TRACE_MARK)]
        trace = json.loads(marks[-1][len(TRACE_MARK):]) if marks else None
    want = golden.get(command_key(args))
    if want is None:
        return child, f"{command_key(args)}: no golden output", trace
    if child.code != want["exit"]:
        tail = child.err.decode(errors="replace").strip().splitlines()[-1:]
        return child, f"{command_key(args)}: exit {child.code}, expected {want['exit']} {tail}", trace
    if hashlib.sha256(child.out).hexdigest() != want["sha256"]:
        return child, f"{command_key(args)}: stdout differs from the golden output", trace
    if traced and trace is None:
        return child, f"{command_key(args)}: traced run wrote no trace", trace
    return child, None, trace


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rss_mb = 0.0

    def add(self, child, failure) -> None:
        self.attempted += 1
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        if failure:
            self.failed += 1
            print(f"FAIL {failure}", file=sys.stderr)


def setup_samples(argv, repeats, tally) -> list:
    out = []
    for _ in range(repeats):
        child = Child(argv, ready=True)
        tally.rss_mb = max(tally.rss_mb, child.rss_mb)
        if child.code != 0 or child.ready_s is None:
            tally.add(child, f"set-up {argv[1:]} exited {child.code}")
        else:
            out.append(child.ready_s)
    return out


def cli_workload(cmds, seed, seconds, golden) -> tuple:
    """Whole rounds over the command list, each in seeded random order, until
    `seconds` have passed at the end of a round.

    Within a round a command shorter than ROUND_MIN_S repeats until it used
    that long, so short commands get enough samples against the machine's
    drift.  Only whole rounds run, so every seed gives each command the
    same share of the run.  wall_s and cpu_s sum the per-command means over
    the whole run.  One operation is one pass over the list, the task a user
    regenerating the tables waits for; every round gives one pass time (the
    sum of its per-command means), and p50/p99 are taken over those.

    The reference loop is probed before the first command and after every
    command, and every time metric, setup_s too, is scaled by it
    (perfbench/reference.py).
    """
    tally = Tally()
    setups = setup_samples(CLI_READY, CLI_SETUPS, tally)
    rng = random.Random(seed)
    walls: list = [[] for _ in cmds]
    cpus: list = [[] for _ in cmds]
    passes: list = []
    reference = Reference()
    reference.probe(PROBE_ITERATIONS)
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        order = list(range(len(cmds)))
        rng.shuffle(order)
        this_round: list = [[] for _ in cmds]
        for i in order:
            used = 0.0
            while used < ROUND_MIN_S:
                child, failure, _ = run_command(cmds[i], golden)
                tally.add(child, failure)
                walls[i].append(child.wall_s)
                cpus[i].append(child.cpu_s)
                this_round[i].append(child.wall_s)
                used += child.wall_s
                reference.probe(PROBE_ITERATIONS)
        passes.append(sum(statistics.fmean(w) for w in this_round))
    scale = reference.scale()
    wall = sum(statistics.fmean(w) for w in walls)
    passes.sort()
    metrics = {
        "setup_s": scale * statistics.median(setups) if setups else 0.0,
        "wall_s": scale * wall,
        "cpu_s": scale * sum(statistics.fmean(c) for c in cpus),
        "peak_rss_mb": tally.rss_mb,
        "ops_per_s": 1 / (scale * wall),
        "op_p50_ms": scale * statistics.median(passes) * 1e3,
        "op_p99_ms": scale * quantile(passes, 0.99) * 1e3,
    }
    detail = {"per_command_s": {command_key(c): w for c, w in zip(cmds, walls)},
              "pass_s": passes, "reference_scale": scale, "unscaled_wall_s": wall,
              "unscaled_setup_s": setups}
    return tally, metrics, detail


def cli_workload_traced(cmds, golden) -> tuple:
    """One untraced and one traced pass; same golden bytes required of both."""
    tally = Tally()
    passes = []
    snaps = []
    for traced in (False, True):
        t0 = time.perf_counter()
        for args in cmds:
            child, failure, trace = run_command(args, golden, traced=traced)
            tally.add(child, failure)
            if trace is not None:
                snaps.append(trace)
        passes.append(time.perf_counter() - t0)
    layers = layer_metrics(merge(snaps))
    layers["trace.overhead_ratio"] = passes[1] / passes[0]
    return tally, layers, {"untraced_pass_s": passes[0], "traced_pass_s": passes[1]}


# ---------------------------------------------------------------------------
# session workload
# ---------------------------------------------------------------------------

def run_session(tally, seed, *extra):
    """One session child; returns (child, parsed result or None)."""
    child = Child(SESSION + ["--seed", str(seed), *extra], ready=True)
    try:
        res = json.loads(child.out.decode().splitlines()[-1])
    except (IndexError, ValueError):
        res = None
    if child.code != 0 or res is None or child.ready_s is None:
        tail = child.err.decode(errors="replace").strip().splitlines()[-1:]
        tally.add(child, f"session {extra} exited {child.code} {tail}")
        return child, None
    tally.attempted += res["ops"]
    tally.failed += res["failed"]
    tally.rss_mb = max(tally.rss_mb, child.rss_mb)
    if res["failed"]:
        print(f"FAIL session: {res['failed']} ops failed, first: {res['error']}", file=sys.stderr)
    return child, res


def quantile(sorted_xs, q) -> float:
    """Nearest-rank quantile of an ascending list."""
    return sorted_xs[min(len(sorted_xs), max(1, math.ceil(q * len(sorted_xs)))) - 1]


def session_workload(seed, seconds) -> tuple:
    """One op is one identity check on one of the session's inputs; each
    input repeats through the window and its op time is its best repeat.
    wall_s and cpu_s are one pass over all inputs at those times.  Every
    time metric, setup_s too, is scaled by the reference loop probed in the
    window (perfbench/reference.py)."""
    tally = Tally()
    setups = []
    for _ in range(SESSION_SETUPS - 1):
        child, _ = run_session(tally, seed, "--ops", "0")
        if child.ready_s is not None:
            setups.append(child.ready_s)
    child, res = run_session(tally, seed, "--seconds", str(seconds))
    if res is None:
        return tally, None, {}
    setups.append(child.ready_s)
    scale = res["reference_scale"]
    best = sorted(res["best_s"])
    wall = sum(best)
    metrics = {
        "setup_s": scale * statistics.median(setups),
        "wall_s": scale * wall,
        "cpu_s": scale * sum(res["best_cpu_s"]),
        "peak_rss_mb": tally.rss_mb,
        "ops_per_s": len(best) / (scale * wall),
        "op_p50_ms": scale * statistics.median(best) * 1e3,
        "op_p99_ms": scale * quantile(best, 0.99) * 1e3,
    }
    detail = {"ops": res["ops"], "inputs": len(best), "window_s": res["window_s"],
              "window_cpu_s": res["cpu_s"], "window_ops_per_s": res["ops"] / res["window_s"],
              "reference_scale": scale, "unscaled_wall_s": wall, "unscaled_setup_s": setups}
    return tally, metrics, detail


def session_workload_traced(seed, seconds) -> tuple:
    """An untraced window a third as long as a measured one, then the same
    ops (same seed and count) traced."""
    tally = Tally()
    _, base = run_session(tally, seed, "--seconds", str(seconds / 3))
    if base is None:
        return tally, None, {}
    n = base["ops"]
    _, traced = run_session(tally, seed, "--ops", str(n), "--trace")
    if traced is None:
        return tally, None, {}
    layers = layer_metrics(traced["trace"])
    layers["trace.overhead_ratio"] = traced["window_s"] / base["window_s"]
    return tally, layers, {"ops": n}


# ---------------------------------------------------------------------------
# result
# ---------------------------------------------------------------------------

def git_head():
    """The commit of a git checkout, read from .git without running git (which
    would search the directories above a checkout that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args) -> dict:
    """How and where the run was made."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = git_head()
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def record_golden() -> int:
    golden = {}
    for name, cmds in COMMANDS.items():
        for args in cmds:
            child = Child(CLI + args + ["--format", "json"])
            golden[command_key(args)] = {"workload": name, "exit": child.code,
                                         "sha256": hashlib.sha256(child.out).hexdigest(),
                                         "bytes": len(child.out)}
            print(f"{child.code} {golden[command_key(args)]['sha256'][:16]} {command_key(args)}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="symplie benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the stamped result to this JSON-lines file")
    ap.add_argument("--record-golden", action="store_true",
                    help="rewrite golden.json from the current source (only for a deliberate output change)")
    args = ap.parse_args(argv)

    if not (SRC / "symplie" / "cli.py").is_file():
        print(f"no symplie source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        ap.error("--workload is required")
    spec = load_spec()
    golden = json.loads(GOLDEN.read_text())

    if args.workload == "session":
        run = session_workload_traced if args.trace else session_workload
        tally, values, detail = run(args.seed, args.seconds)
    elif args.trace:
        tally, values, detail = cli_workload_traced(COMMANDS[args.workload], golden)
    else:
        tally, values, detail = cli_workload(COMMANDS[args.workload], args.seed, args.seconds, golden)
    if values is None:
        print("the workload could not run; no result", file=sys.stderr)
        return 1

    if args.trace:
        values["fail_ratio"] = tally.failed / max(tally.attempted, 1)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not args.trace:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    result = {"correct": tally.failed == 0, "attempted": max(tally.attempted, 1),
              "failed": tally.failed, "metrics": metrics}
    record = {"stamp": stamp(args), "detail": detail,
              "unlisted": {k: v for k, v in values.items() if k not in metrics}}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({**record, "result": result}, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
