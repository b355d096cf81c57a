import importlib
import json
from fractions import Fraction

import pytest

import symplie
from symplie.claims import CLAIMS
from symplie.cli import main, run_claim
from symplie.linalg import EchelonSpan


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

    def boom(g, **options):
        raise VerificationError("synthetic failure")

    monkeypatch.setitem(CLAIMS, "no-map", ((3,), boom))
    code, out, _ = _run(capsys, "verify", "--claim", "no-map", "--g", "3")
    assert code == 1
    assert "FAIL" in out and "synthetic failure" in out


def test_verify_library_failure_is_claim_failure(monkeypatch, capsys):
    from symplie.johnson import NotADerivation

    def boom(g, **options):
        raise NotADerivation("synthetic non-derivation")

    monkeypatch.setitem(CLAIMS, "no-map", ((3,), boom))
    code, out, _ = _run(capsys, "verify", "--claim", "no-map", "--g", "3")
    assert code == 1
    assert "FAIL" in out and "synthetic non-derivation" in out


def test_dims_oracle_mismatch_exits_1_with_one_stderr_line(monkeypatch, capsys):
    from symplie import surface

    labute_dim = surface.labute_dim
    monkeypatch.setattr(surface, "labute_dim", lambda g, m: labute_dim(g, m) + 1)
    code, out, err = _run(capsys, "dims", "--g", "3")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["dimension oracle mismatch: Shirshov count 6 vs formula 7 at m=1"]
    code, out, err = _run(capsys, "verify", "--claim", "dims-oracle", "--g", "3")
    assert (code, err) == (1, "")
    assert out.splitlines() == ["FAIL dims-oracle g=3  error=Shirshov count 6 vs formula 7 at m=1"]


def test_failure_witness_reprs_are_one_line():
    from symplie.freelie import LieElement, theta
    from symplie.johnson import Sym2Lambda2, WedgeElement, sym_mul, wedge_theta
    from symplie.magnus import FreeWord
    from symplie.surface import ConfigDeg2Element, PElement, config_bracket

    g = 3
    pairs = (
        (PElement(g, 3), PElement(g, 3, {(0, 0, 1): Fraction(1, 2)})),
        (LieElement(g, 2), theta(g)),
        (WedgeElement(g, 2), wedge_theta(g)),
        (Sym2Lambda2(g), sym_mul(wedge_theta(g), wedge_theta(g))),
        (ConfigDeg2Element(g, 2), config_bracket(g, 2, (1, {0: 1}), (1, {1: 1}))),
        (FreeWord(()), FreeWord(((0, 1), (1, -1)))),
    )
    for zero, nonzero in pairs:
        assert repr(zero) in ("0", "1", "PElement(g=3, m=3, 0)"), repr(zero)
        assert repr(nonzero) != repr(zero)
        assert all(repr(x) and "\n" not in repr(x) for x in (zero, nonzero))


def test_outer_bracket_clause_i_failure_shows_the_value(monkeypatch, capsys):
    from symplie import claims, johnson

    monkeypatch.setattr(claims, "derivation_bracket",
                        lambda d1, d2: -johnson.derivation_bracket(d1, d2))
    code, out, err = _run(capsys, "verify", "--claim", "outer-bracket", "--g", "3")
    assert (code, err) == (1, "")
    [line] = out.splitlines()
    assert line.startswith(
        "FAIL outer-bracket g=3  error=clause (i): value on a_2 is PElement(g=3, m=5, ")
    assert line.endswith(")") and "*" in line


def test_no_map_failure_shows_both_normal_forms(monkeypatch, capsys):
    from symplie import claims, surface

    pair_class = surface.config_pair_class
    monkeypatch.setattr(claims, "config_pair_class",
                        lambda g, n, i, j, coeff=1: pair_class(g, n, i, j, 2 * coeff))
    code, out, err = _run(capsys, "verify", "--claim", "no-map", "--g", "3")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "FAIL no-map g=3  error=diagonal image normal form 4/3*T12, expected 8/3*T12"]


def test_verify_all_with_every_claim_skipped_is_one_usage_line(monkeypatch, capsys):
    def out_of_range(g, **options):
        raise ValueError(f"no genus works, not even {g}")

    monkeypatch.setattr("symplie.claims.CLAIMS", {"only": ((3, 4), out_of_range)})
    for argv, g in (([], 3), (["--format", "json"], 3), (["--g", "6", "--g", "5"], 5)):
        code, out, err = _run(capsys, "verify", "--claim", "all", *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"symplie: no claim ran; skipped only at g={g}: no genus works, not even {g}"
            " and 1 more"
        ]


@pytest.mark.parametrize("claim", ["outer-bracket", "bracket-31", "no-map"])
def test_verify_claim_outside_its_genus_range_is_usage_error(capsys, claim):
    code, out, err = _run(capsys, "verify", "--claim", claim, "--g", "2")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "symplie: stated for g >= 3"


def test_verify_all_skips_claims_outside_their_genus_range(capsys):
    code, out, err = _run(capsys, "verify", "--claim", "all", "--g", "2", "--format", "json")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["claim"] for r in reports] == [
        "dehn-twist-image", "dims-oracle", "magnus-oracle", "phi-kills-lambda4",
        "pi-p-identity", "projection-scalars", "theta-square-lemma",
    ]
    assert all(r["g"] == 2 and r["status"] == "pass" for r in reports)
    skips = [line for line in err.splitlines() if line.startswith("symplie: ")]
    assert skips == [
        f"symplie: skipped {claim} at g=2: stated for g >= 3"
        for claim in ("bracket-31", "no-map", "outer-bracket")
    ]


def test_verify_all_below_every_genus_range_is_usage_error(capsys):
    code, out, err = _run(capsys, "verify", "--claim", "all", "--g", "1")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["symplie: need genus g >= 2"]


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


# the witness keys that hold rationals; every other value is a count, a flag or a name
RATIONAL_WITNESS_KEYS = {"factor", "coefficient", "primitive_scalar", "line_scalar",
                         "square_terms"}


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_claim_witness_rationals_are_fractions(claim):
    genera, fn = CLAIMS[claim]
    for g in genera:
        for key, value in fn(g).items():
            items = value if isinstance(value, list) else [value]
            if key in RATIONAL_WITNESS_KEYS:
                assert all(type(v) is Fraction for v in items), (claim, g, key, value)
            else:
                assert all(type(v) in (int, bool, str) for v in items), (claim, g, key, value)


def test_claims_solve_no_kernel_and_grow_no_span(monkeypatch):
    # every claim checks its certificate in closed form: with kernel_basis
    # (wherever a module bound it) and EchelonSpan.insert both raising, each
    # passes at its default genera on bases built afresh; the quotient
    # residue reduces on stored Shirshov rows with EchelonSpan.reduce alone
    def refuse(*_args, **_kwargs):
        raise RuntimeError("elimination on a claim path")

    symplie.clear_caches()
    monkeypatch.setattr(EchelonSpan, "insert", refuse)
    for name in ("linalg", "reps", "freelie", "surface", "johnson", "magnus", "claims"):
        module = importlib.import_module(f"symplie.{name}")
        if hasattr(module, "kernel_basis"):
            monkeypatch.setattr(module, "kernel_basis", refuse)
    for claim, (genera, fn) in sorted(CLAIMS.items()):
        for g in genera:
            assert fn(g), (claim, g)


@pytest.mark.parametrize("argv,option", [
    (["dims", "--max-degree", "0"], "--max-degree"),
    (["dims", "--max-degree", "-2"], "--max-degree"),
    (["verify", "--claim", "dims-oracle", "--degree", "0"], "--degree"),
    (["verify", "--claim", "dims-oracle", "--degree", "-1"], "--degree"),
])
def test_degree_below_one_is_usage_error(capsys, argv, option):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"symplie: need {option} >= 1"]


def test_repeated_genus_runs_once(capsys):
    code, out, _ = _run(capsys, "verify", "--claim", "pi-p-identity", "--g", "3", "--g", "3")
    assert code == 0
    assert out.splitlines() == ["PASS pi-p-identity g=3  basis_vectors=15"]


def test_sym2lambda2_has_degree_four_only(capsys):
    code, out, err = _run(capsys, "decompose", "--module", "sym2lambda2", "--degree", "9")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    for argv in ([], ["--degree", "4"]):
        code, out, _ = _run(capsys, "decompose", "--module", "sym2lambda2", *argv)
        assert code == 0
        assert out.startswith("sym2lambda2 at g=3: [2,2] + 2*[1,1] + 2*[]")


@pytest.mark.parametrize("argv", [
    ["dims", "--g", "x"],
    ["bogus"],
    ["decompose", "--degree", "3"],
    ["dims", "--g", "2", "--max-degree", "9"],
    ["decompose", "--g", "2", "--module", "bogus", "--degree", "3"],
    ["verify", "--claim", "outer-bracket", "--g", "2", "--g", "2"],
    ["verify", "--claim", "dims-oracle", "--g", "3", "--degree", "9"],
    ["decompose", "--g", "3", "--module", "p"],
])
def test_bad_usage_is_one_stderr_line(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "warning" not in err


def test_verify_all_skips_dims_oracle_beyond_cap(monkeypatch, capsys):
    monkeypatch.delenv("SYMPLIE_DEGREE_CAP", raising=False)
    code, out, err = _run(capsys, "verify", "--claim", "all", "--degree", "9")
    assert code == 0
    assert "dims-oracle" not in out
    assert err.splitlines() == [
        f"symplie: skipped dims-oracle at g={g}: degree 9 outside 1..6" for g in (2, 3, 4)
    ]


def test_argparse_error_is_one_symplie_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--g", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "symplie: argument --g: invalid int value: 'x'\n"


def test_g2_warning_is_printed_once_and_only_when_asked_for(capsys):
    code, _, err = _run(capsys, "verify", "--claim", "all", "--g", "2", "--g", "2")
    assert code == 0
    assert sum("warning" in line for line in err.splitlines()) == 1
    code, _, err = _run(capsys, "verify", "--claim", "dims-oracle", "--degree", "2")
    assert code == 0
    assert err == ""  # the default genera include 2
