"""Tests of the benchmark itself (not of symplie).

    python3 perfbench/selftest.py

Kept out of the repository's pytest collection on purpose: they start
symplie child processes and guard the benchmark, not the library.
"""

from __future__ import annotations

import hashlib
import random
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import session  # noqa: E402
from tracer import METHODS, Tracer  # noqa: E402

CHEAP = ["decompose", "--g", "3", "--module", "der", "--degree", "1"]


def golden_for(args, out: bytes) -> dict:
    return {run.command_key(args): {"exit": 0, "sha256": hashlib.sha256(out).hexdigest()}}


class FailureAccounting(unittest.TestCase):
    def test_wrong_digest_counts_as_failed(self):
        child, failure, _ = run.run_command(CHEAP, {})
        self.assertEqual(child.code, 0)
        tally = run.Tally()
        tally.add(child, run.run_command(CHEAP, golden_for(CHEAP, child.out))[1])
        self.assertEqual(tally.failed, 0)
        wrong = golden_for(CHEAP, child.out + b"x")
        _, failure, _ = run.run_command(CHEAP, wrong)
        self.assertIn("differs", failure)
        tally.add(child, failure)
        self.assertEqual((tally.failed, tally.attempted), (1, 2))

    def test_wrong_exit_code_counts_as_failed(self):
        child, _, _ = run.run_command(CHEAP, {})
        golden = golden_for(CHEAP, child.out)
        golden[run.command_key(CHEAP)]["exit"] = 1
        self.assertIn("exit 0, expected 1", run.run_command(CHEAP, golden)[1])

    def test_false_identity_and_exception_count_as_failed(self):
        def holds(lib):
            return True

        def false(lib):
            return False

        def raises(lib):
            raise ArithmeticError("boom")

        instances = [[(holds, ())], [(false, ())], [(raises, ())]]
        records, failed, first = session.run_ops(None, instances, random.Random(1), count=6)
        self.assertEqual((len(records), failed), (6, 4))
        self.assertRegex(first, "false is false|raises raised ArithmeticError: boom")


class SessionInputs(unittest.TestCase):
    def test_every_input_runs_once_per_pass_and_keeps_its_best_time(self):
        def holds(lib):
            return True

        instances = [[(holds, ())] * 2, [(holds, ())] * 3]
        records, failed, _ = session.run_ops(None, instances, random.Random(2), count=15)
        self.assertEqual(failed, 0)
        for p in range(3):
            self.assertEqual(sorted(k for k, _, _ in records[5 * p:5 * p + 5]), list(range(5)))
        wall, cpu = session.best_times([(0, 3.0, 2.0), (1, 1.0, 1.0), (0, 2.0, 2.5)], 2)
        self.assertEqual((wall, cpu), ([2.0, 1.0], [2.0, 1.0]))

    def test_dealer_uses_every_item_before_repeating_one(self):
        dealer = session.Dealer(random.Random(3))
        items = list(range(7))
        self.assertEqual(sorted(dealer.deal("one", items, 1)[0] for _ in range(7)), items)
        pairs = [x for _ in range(3) for x in dealer.deal("two", items, 2)]
        self.assertEqual(len(set(pairs)), 6)
        self.assertEqual(len(set(dealer.deal("two", items, 2))), 2)


class Tracing(unittest.TestCase):
    def test_uninstall_restores_every_original(self):
        import symplie.cli  # noqa: F401

        def bindings():
            out = {}
            for name, mod in list(sys.modules.items()):
                if name == "symplie" or name.startswith("symplie."):
                    out.update({(name, k): v for k, v in vars(mod).items()})
            for layer, classes in METHODS.items():
                mod = sys.modules[f"symplie.{layer}"]
                for cls_name in classes:
                    cls = getattr(mod, cls_name)
                    out.update({(cls_name, k): v for k, v in vars(cls).items()})
            return out

        before = bindings()
        tracer = Tracer()
        tracer.install()
        try:
            during = bindings()
            changed = [k for k in before if during[k] is not before[k]]
            self.assertIn(("symplie.cli", "bracket"), changed)
            self.assertIn(("EchelonSpan", "insert"), changed)
        finally:
            tracer.uninstall()
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        self.assertEqual([k for k in before if after[k] is not before[k]], [])

    def test_traced_cli_output_is_byte_identical(self):
        plain, failure, _ = run.run_command(CHEAP, {})
        golden = golden_for(CHEAP, plain.out)
        traced, failure, trace = run.run_command(CHEAP, golden, traced=True)
        self.assertIsNone(failure)
        self.assertEqual(plain.out, traced.out)
        self.assertGreater(trace["fns"]["johnson.der_character"][0], 0)


if __name__ == "__main__":
    unittest.main()
