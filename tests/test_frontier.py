"""bench/frontier.py: its fixed command list, pinned with each limit and
cap, and, on tiny command lists in a scratch directory, the report's
layout, the stamp, the RSS floor, the pass rule (nonzero exit, kill at the
limit, unstable stdout) and the label check."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# frontier CLI commands with no golden_sweep.json entry: those above g = 12,
# and verify all
NO_GOLDEN = {"outer-bracket g=16", "outer-bracket g=20", "outer-bracket g=40",
             "bracket-31 g=40", "pi-p-identity g=20", "verify all"}


@pytest.fixture
def frontier(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("frontier", ROOT / "bench" / "frontier.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "RUNS", 2)
    return module


def verify(claim, g):
    return ["-m", "symplie.cli", "verify", "--claim", claim, "--g", str(g), "--format", "json"]


def decompose(g, module, degree):
    return ["-m", "symplie.cli", "decompose", "--format", "json", "--g", str(g),
            "--module", module, "--degree", str(degree)]


def test_the_command_list_is_the_fixed_frontier(frontier):
    der = {(g, n): ["-c", frontier.DER_BASIS.format(g, n)] for g, n in ((4, 4), (3, 5), (5, 4))}
    # name: (argv after the interpreter, degree cap, time limit in seconds)
    assert {name: (argv[1:], cap, limit) for name, argv, cap, limit in frontier.COMMANDS} == {
        "outer-bracket g=8": (verify("outer-bracket", 8), None, 120),
        "outer-bracket g=12": (verify("outer-bracket", 12), None, 120),
        "outer-bracket g=16": (verify("outer-bracket", 16), None, 60),
        "outer-bracket g=20": (verify("outer-bracket", 20), None, 60),
        "outer-bracket g=40": (verify("outer-bracket", 40), None, 120),
        "der_basis(4, 4) cap 10": (der[4, 4], "10", 120),
        "der_basis(3, 5) cap 10": (der[3, 5], "10", 120),
        "der_basis(5, 4) cap 10": (der[5, 4], "10", 120),
        "decompose p(6) g=14": (decompose(14, "p", 6), None, 60),
        "decompose lambda_2 g=300": (decompose(300, "lambda_k", 2), None, 30),
        "decompose lambda_1 g=16000": (decompose(16000, "lambda_k", 1), None, 30),
        "dims-oracle g=8": (verify("dims-oracle", 8), None, 30),
        "dims g=6": (["-m", "symplie.cli", "dims", "--g", "6", "--format", "json"], None, 30),
        "magnus-oracle g=8": (verify("magnus-oracle", 8), None, 30),
        "no-map g=12": (verify("no-map", 12), None, 30),
        "bracket-31 g=12": (verify("bracket-31", 12), None, 30),
        "phi-kills-lambda4 g=8": (verify("phi-kills-lambda4", 8), None, 30),
        "theta-square-lemma g=12": (verify("theta-square-lemma", 12), None, 30),
        "pi-p-identity g=20": (verify("pi-p-identity", 20), None, 30),
        "dehn-twist-image g=12": (verify("dehn-twist-image", 12), None, 30),
        "bracket-31 g=40": (verify("bracket-31", 40), None, 30),
        "verify all": (["-m", "symplie.cli", "verify", "--claim", "all", "--format", "json"],
                       None, 60),
        "dims g=3": (["-m", "symplie.cli", "dims", "--g", "3", "--format", "json"], None, 60),
        "python -c pass": (["-c", "pass"], None, 30),
        "python -S -c pass": (["-S", "-c", "pass"], None, 30),
    }
    assert len(frontier.COMMANDS) == 25
    assert all(argv[0] == sys.executable for _, argv, *_ in frontier.COMMANDS)
    assert all(f"der_basis({g}, {n})" in argv[1] for (g, n), argv in der.items())
    assert frontier.child_env("10")["SYMPLIE_DEGREE_CAP"] == "10"
    assert "SYMPLIE_DEGREE_CAP" not in frontier.child_env(None)
    assert frontier.child_env(None)["PYTHONDONTWRITEBYTECODE"] == "1"


def test_the_fast_frontier_commands_have_goldens(frontier):
    """The CLI commands at g <= 12, and the decompose and dims ones, are
    golden_sweep.json entries under the same arguments, so the
    in-process sweep pins the digests the frontier reports."""
    sweep = json.loads((ROOT / "tests" / "golden_sweep.json").read_text())
    fast = {name: argv[3:] for name, argv, *_ in frontier.COMMANDS
            if argv[1:3] == ["-m", "symplie.cli"] and name not in NO_GOLDEN}
    assert len(fast) == 14
    assert all(" ".join(args) in sweep for args in fast.values())


def test_report_holds_stamp_medians_rss_and_digests(frontier, monkeypatch, tmp_path):
    monkeypatch.setattr(frontier, "COMMANDS", [
        ("hello", [sys.executable, "-c", "print('hello')"], None, 30),
        ("exit 3", [sys.executable, "-c", "raise SystemExit(3)"], None, 30),
    ])
    assert frontier.main(["t"]) == 1
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert set(report["stamp"]) == {"python", "nproc", "commit", "src_sha256",
                                      "src_changed_since_commit", "runs", "rss_floor_kb"}
    assert report["stamp"]["src_sha256"] == frontier.src_sha256()
    hello, failed = report["commands"]["hello"], report["commands"]["exit 3"]
    assert hello["stdout_sha256"] == \
        "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03"
    assert (hello["exit"], failed["exit"]) == (0, 3)
    assert len(hello["wall_s"]["runs"]) == 2 and hello["peak_rss_kb"] > 0
    assert hello["wall_s"]["spread"] == max(hello["wall_s"]["runs"]) - min(hello["wall_s"]["runs"])
    assert isinstance(hello["rss_above_floor"], bool)


def test_a_command_over_its_limit_is_killed_and_fails(frontier, monkeypatch, tmp_path):
    monkeypatch.setattr(frontier, "COMMANDS", [
        ("sleep", [sys.executable, "-c", "import time; time.sleep(30)"], None, 0.5),
    ])
    assert frontier.main(["k"]) == 1
    sleep = json.loads((tmp_path / "BENCH_k.json").read_text())["commands"]["sleep"]
    assert sleep["exit"] < 0 and max(sleep["wall_s"]["runs"]) < 15


def test_a_failing_command_shows_its_stderr_and_fails(frontier, monkeypatch, capfd):
    monkeypatch.setattr(frontier, "COMMANDS", [
        ("boom", [sys.executable, "-c", "import sys; sys.exit('boom')"], None, 30),
    ])
    assert frontier.main(["b"]) == 1
    assert "boom" in capfd.readouterr().err


# runs the script in a small interpreter, whose own peak RSS (the floor
# every child inherits) is far below the 64 MB command's
FLOOR_DRIVER = """
import importlib.util, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("frontier", sys.argv[1])
frontier = importlib.util.module_from_spec(spec)
spec.loader.exec_module(frontier)
frontier.ROOT, frontier.RUNS = Path(sys.argv[2]), 2
frontier.COMMANDS = [
    ("64 MB", [sys.executable, "-c", "x = b'x' * (64 << 20)"], None, 30),
    ("hello", [sys.executable, "-c", "print('hello')"], None, 30),
]
sys.exit(frontier.main(["f"]))
"""


# starts its arguments after writing 96 MB: the script's ru_maxrss keeps
# that peak, but its children do not inherit it, so the floor must not
BIG_PARENT = """
import subprocess, sys
b"x" * (96 << 20)
sys.exit(subprocess.run(sys.argv[1:]).returncode)
"""


def test_commands_at_the_rss_floor_are_marked(tmp_path):
    run = subprocess.run([sys.executable, "-c", BIG_PARENT, sys.executable, "-c", FLOOR_DRIVER,
                          str(ROOT / "bench" / "frontier.py"), str(tmp_path)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    report = json.loads((tmp_path / "BENCH_f.json").read_text())
    floor = report["stamp"]["rss_floor_kb"]
    big, hello = report["commands"]["64 MB"], report["commands"]["hello"]
    assert big["rss_above_floor"] and big["peak_rss_kb"] > floor + 32 * 1024
    assert not hello["rss_above_floor"] and hello["peak_rss_kb"] <= floor
    lines = run.stdout.splitlines()
    assert lines[0].startswith("64 MB: ") and "(floor)" not in lines[0]
    assert lines[1].startswith("hello: ") and lines[1].endswith(" KB (floor) exit 0")


def test_an_unstable_stdout_fails_after_writing(frontier, monkeypatch, tmp_path):
    monkeypatch.setattr(frontier, "COMMANDS", [
        ("clock", [sys.executable, "-c", "import time; print(time.perf_counter_ns())"], None, 30),
    ])
    assert frontier.main(["u"]) == 1
    assert json.loads((tmp_path / "BENCH_u.json").read_text())["commands"]["clock"]["stable"] is False


@pytest.mark.parametrize("argv", [[], ["a", "b"], ["../x"], ["a b"]])
def test_the_label_is_the_one_argument(frontier, argv, tmp_path):
    assert frontier.main(argv) == 2
    assert not list(tmp_path.iterdir())
