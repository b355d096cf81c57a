"""Fuzzing of the command line: every input keeps the exit contract.

Generated argument lists mix valid and invalid subcommands, modules,
claims, genera and degrees, under assorted SYMPLIE_DEGREE_CAP values.
Whatever the input, ``main`` returns (or argparse exits with) 0, 1 or 2,
no exception escapes, and exit 2 comes with exactly one stderr line, which
starts with ``symplie: ``.  Runs are derandomized, so every run draws the
same examples.  Genera stay at most 5, where every table is cheap.
"""

import contextlib
import io
import os

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from symplie.cli import CLAIMS, main  # noqa: E402
from symplie.reps import MODULES  # noqa: E402

FUZZ_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

genera = st.integers(-1, 5).map(str)
degrees = st.integers(-2, 8).map(str)
formats = st.sampled_from([[], [], ["--format", "json"], ["--format", "xml"]])


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def argvs(draw) -> list:
    command = draw(st.sampled_from(["decompose", "decompose", "dims", "verify", "verify", "bogus"]))
    argv = [command] + draw(formats)
    if command == "decompose":
        argv += ["--module", draw(st.sampled_from(MODULES + ("nope",)))]
        argv += draw(_option("--g", genera)) + ["--degree", draw(degrees)]
        argv += draw(st.sampled_from([[], ["--twists"]]))
    elif command == "dims":
        argv += draw(_option("--g", genera)) + draw(_option("--max-degree", degrees))
    elif command == "verify":
        argv += draw(_option("--claim", st.sampled_from(sorted(CLAIMS) + ["all", "bogus"])))
        for _ in range(draw(st.integers(0, 2))):
            argv += ["--g", draw(genera)]
        argv += draw(_option("--degree", degrees))
        argv += draw(st.sampled_from([[], ["--inverse-twist"]]))
    return argv


@contextlib.contextmanager
def _degree_cap(value):
    old = os.environ.pop("SYMPLIE_DEGREE_CAP", None)
    if value is not None:
        os.environ["SYMPLIE_DEGREE_CAP"] = value
    try:
        yield
    finally:
        os.environ.pop("SYMPLIE_DEGREE_CAP", None)
        if old is not None:
            os.environ["SYMPLIE_DEGREE_CAP"] = old


@FUZZ_SETTINGS
@given(argvs(), st.sampled_from([None, None, None, "", "abc", "0", "-1", "3", "6"]))
def test_cli_keeps_the_exit_contract(argv, cap):
    out, err = io.StringIO(), io.StringIO()
    with _degree_cap(cap), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 1, 2), (argv, cap, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, cap, lines)
        assert lines[0].startswith("symplie: "), (argv, cap, lines)
