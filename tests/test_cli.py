import json

import pytest

from symplie.cli import CLAIMS, main, run_claim


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_p4(capsys):
    code, out, _ = _run(capsys, "decompose", "--g", "3", "--module", "p", "--degree", "4")
    assert code == 0
    for part in ("[2,1,1]", "[2]", "[3,1]"):
        assert part in out
    assert "dim 280" in out


def test_decompose_outder2(capsys):
    code, out, _ = _run(capsys, "decompose", "--g", "3", "--module", "outder", "--degree", "2")
    assert code == 0
    assert "[2,2]" in out and "dim 90" in out


def test_decompose_L1(capsys):
    code, out, _ = _run(capsys, "decompose", "--g", "3", "--module", "L", "--degree", "1")
    assert code == 0
    assert "[1]" in out


def test_decompose_twist_tags(capsys):
    code, out, _ = _run(capsys, "decompose", "--g", "3", "--module", "outder",
                        "--degree", "2", "--twists")
    assert code == 0
    assert "[2,2](-1)" in out


def test_decompose_unknown_module(capsys):
    code, _, err = _run(capsys, "decompose", "--g", "3", "--module", "nope", "--degree", "2")
    assert code == 2
    assert "unknown module" in err


def test_decompose_degree_beyond_cap(capsys):
    code, _, err = _run(capsys, "decompose", "--g", "3", "--module", "p", "--degree", "9")
    assert code == 2


def test_decompose_json_roundtrip(capsys):
    code, out, _ = _run(capsys, "decompose", "--g", "3", "--module", "p",
                        "--degree", "2", "--format", "json")
    assert code == 0
    line = out.strip()
    parsed = json.loads(line)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == line
    assert parsed["summands"] == [{"partition": [1, 1], "multiplicity": 1,
                                   "twist": 0, "dim": 14}]


def test_dims_table(capsys):
    code, out, _ = _run(capsys, "dims", "--g", "3", "--max-degree", "4")
    assert code == 0
    assert "1554" not in out  # degree 5 not requested
    assert "315" in out and "280" in out and "104" in out


def test_dims_g2_row(capsys):
    code, out, err = _run(capsys, "dims", "--g", "2", "--max-degree", "1")
    assert code == 0
    assert "4" in out
    assert "warning" in err


def test_verify_single_claim_text(capsys):
    code, out, _ = _run(capsys, "verify", "--claim", "no-map", "--g", "3")
    assert code == 0
    assert out.startswith("PASS no-map g=3")
    assert "4/3" in out


def test_verify_unknown_claim(capsys):
    code, _, err = _run(capsys, "verify", "--claim", "bogus")
    assert code == 2
    assert "unknown claim" in err


def test_verify_json_stream_roundtrip_and_determinism(capsys):
    args = ["verify", "--claim", "projection-scalars", "--format", "json"]
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # identical bytes across runs
    for line in out1.strip().splitlines():
        parsed = json.loads(line)
        assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == line
        assert parsed["status"] == "pass"
        assert "elapsed_ms" not in parsed


def test_verify_timings_flag(capsys):
    code, out, _ = _run(capsys, "verify", "--claim", "pi-p-identity", "--g", "3",
                        "--format", "json", "--timings")
    assert code == 0
    parsed = json.loads(out.strip().splitlines()[0])
    assert "elapsed_ms" in parsed


def test_verify_reports_ordered_by_claim_then_g(capsys):
    code, out, _ = _run(capsys, "verify", "--claim", "pi-p-identity", "--g", "4",
                        "--g", "3", "--format", "json")
    assert code == 0
    gs = [json.loads(l)["g"] for l in out.strip().splitlines()]
    assert gs == [3, 4]


def test_verify_failure_exit_code(monkeypatch, capsys):
    from symplie.surface import VerificationError

    def boom(g, args):
        raise VerificationError("synthetic failure")

    monkeypatch.setitem(CLAIMS, "no-map", ((3,), boom))
    code, out, _ = _run(capsys, "verify", "--claim", "no-map", "--g", "3")
    assert code == 1
    assert "FAIL" in out and "synthetic failure" in out


def test_verify_library_failure_is_claim_failure(monkeypatch, capsys):
    from symplie.johnson import NotADerivation

    def boom(g, args):
        raise NotADerivation("synthetic non-derivation")

    monkeypatch.setitem(CLAIMS, "no-map", ((3,), boom))
    code, out, _ = _run(capsys, "verify", "--claim", "no-map", "--g", "3")
    assert code == 1
    assert "FAIL" in out and "synthetic non-derivation" in out


@pytest.mark.parametrize("claim", ["outer-bracket", "bracket-31", "no-map", "all"])
def test_verify_claim_outside_its_genus_range_is_usage_error(capsys, claim):
    code, out, err = _run(capsys, "verify", "--claim", claim, "--g", "2")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "symplie: stated for g >= 3"


def test_malformed_degree_cap_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("SYMPLIE_DEGREE_CAP", "abc")
    code, out, err = _run(capsys, "dims")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["symplie: SYMPLIE_DEGREE_CAP must be an integer >= 1, got 'abc'"]


def test_bad_genus(capsys):
    code, _, err = _run(capsys, "dims", "--g", "1")
    assert code == 2


class _Args:
    timings = False


def test_run_claim_reports_shape():
    report = run_claim("pi-p-identity", 3, _Args())
    assert report["claim"] == "pi-p-identity"
    assert report["status"] == "pass"
    assert report["g"] == 3
    assert "elapsed_ms" not in report
