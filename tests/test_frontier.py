"""bench/frontier.py, on a tiny command list in a scratch directory: the
report's layout, the stamp, the stability check and the label check."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def frontier(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("frontier", ROOT / "bench" / "frontier.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "RUNS", 2)
    return module


def test_the_command_list_is_the_fixed_frontier(frontier):
    names = [name for name, *_ in frontier.COMMANDS]
    assert names == [f"outer-bracket g={g}" for g in (8, 12, 20, 40)] + [
        "der_basis(4, 4) cap 10", "der_basis(3, 5) cap 10", "verify all", "dims g=3",
        "python -c pass"]
    caps = {name: cap for name, _, cap, _ in frontier.COMMANDS}
    assert {name for name, cap in caps.items() if cap is not None} == {
        "der_basis(4, 4) cap 10", "der_basis(3, 5) cap 10"}
    assert frontier.child_env("10")["SYMPLIE_DEGREE_CAP"] == "10"
    assert "SYMPLIE_DEGREE_CAP" not in frontier.child_env(None)
    assert frontier.child_env(None)["PYTHONDONTWRITEBYTECODE"] == "1"


def test_report_holds_stamp_medians_rss_and_digests(frontier, monkeypatch, tmp_path):
    monkeypatch.setattr(frontier, "COMMANDS", [
        ("hello", [sys.executable, "-c", "print('hello')"], None, 30),
        ("exit 3", [sys.executable, "-c", "raise SystemExit(3)"], None, 30),
    ])
    assert frontier.main(["t"]) == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert set(report["stamp"]) == {"python", "nproc", "commit", "src_sha256",
                                      "src_changed_since_commit", "runs"}
    assert report["stamp"]["src_sha256"] == frontier.src_sha256()
    hello, failed = report["commands"]["hello"], report["commands"]["exit 3"]
    assert hello["stdout_sha256"] == \
        "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03"
    assert (hello["exit"], failed["exit"]) == (0, 3)
    assert len(hello["wall_s"]["runs"]) == 2 and hello["peak_rss_kb"] > 0
    assert hello["wall_s"]["spread"] == max(hello["wall_s"]["runs"]) - min(hello["wall_s"]["runs"])


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
