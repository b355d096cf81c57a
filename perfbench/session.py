"""The `session` workload: symplie used as a warm workbench at g = 3.

Set-up builds the quotient bases p(3, 1..6) and the derivation bases
Der(3, 1..3), draws INSTANCES inputs per identity from the seed (sparse
elements of 2 basis words, dealt from shuffled decks, with small random
integer coefficients) and runs one warm-up pass over all of them.  The timed window then makes passes over
all the inputs, each pass in a new order drawn from the seed:

- Jacobi for three quotient elements whose degrees sum to at most 6;
- Leibniz, D[x,y] = [Dx,y] + [x,Dy], for a random derivation basis element;
- [e_i,f_i]x = h_i x for the Chevalley action on the quotient.

Each identity holds for every input, so a false one is a failure.  Every
input runs many times in a window; its op time is the best of its repeats
(wall clock and CPU), which the machine's slow spells, lasting seconds,
rarely cover completely.  The reference loop (reference.py) is probed
between ops.  Run by run.py as a child process:

    python3 perfbench/session.py --seed S --seconds T [--ops N] [--trace]

It prints ``ready`` once set-up is done, then one JSON line of results:
the best wall and CPU time of every input, the op count, the window's wall
and CPU time, the reference scale and the failures.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time

from reference import Reference

G = 3
MAX_DEGREE = 6
MAX_DER_DEGREE = 3
INSTANCES = 600
TERMS = 2
COEFFS = (-3, -2, -1, 1, 2, 3)
# One iteration of the reference loop runs after every PROBE_EVERY ops.
PROBE_EVERY = 8

JACOBI_SHAPES = [(a, b, c) for a in range(1, MAX_DEGREE) for b in range(1, MAX_DEGREE)
                 for c in range(1, MAX_DEGREE) if a + b + c <= MAX_DEGREE]
LEIBNIZ_SHAPES = [(n, a, b) for n in range(1, MAX_DER_DEGREE + 1) for a in range(1, MAX_DEGREE)
                  for b in range(1, MAX_DEGREE) if n + a + b <= MAX_DEGREE]
CHEVALLEY_SHAPES = [(i, m) for i in range(1, G + 1) for m in range(1, MAX_DEGREE + 1)]


class Library:
    """The library entry points the session calls, looked up when it is
    created so that a tracer installed first sees every call."""

    def __init__(self):
        from symplie import johnson, reps, surface

        self.p_basis = surface.p_basis
        self.p_bracket = surface.p_bracket
        self.PElement = surface.PElement
        self.der_basis = johnson.der_basis
        self.act_p = reps.act_p


class Dealer:
    """Deals basis words and derivations from decks shuffled by the seed.

    An op's cost depends strongly on which words its inputs hold (by a
    factor of 20 within one shape).  Dealing rather than drawing uses every
    word of a degree about equally often, so seeds differ in how words are
    combined more than in which words are used, and cost about the same."""

    def __init__(self, rng):
        self.rng = rng
        self.decks: dict = {}

    def deal(self, key, items, k) -> list:
        deck = self.decks.get(key)
        if deck is None or len(deck) < k:
            deck = self.decks[key] = list(items)
            self.rng.shuffle(deck)
        return [deck.pop() for _ in range(k)]


def random_element(lib, dealer, m):
    """A sparse quotient element of degree m: TERMS distinct basis words.

    A fixed number of words keeps the cost of an op from swinging with how
    many words its inputs happened to get."""
    words = dealer.deal(("p", m), lib.p_basis(G, m).rep_words, TERMS)
    return lib.PElement(G, m, {w: dealer.rng.choice(COEFFS) for w in words})


def jacobi(lib, x, y, z) -> bool:
    br = lib.p_bracket
    return (br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))).is_zero()


def jacobi_input(lib, dealer, shape):
    return [random_element(lib, dealer, d) for d in shape]


def leibniz(lib, d, x, y) -> bool:
    br = lib.p_bracket
    return d.value(br(x, y)) == br(d.value(x), y) + br(x, d.value(y))


def leibniz_input(lib, dealer, shape):
    n, a, b = shape
    return [dealer.deal(("der", n), lib.der_basis(G, n), 1)[0], random_element(lib, dealer, a),
            random_element(lib, dealer, b)]


def chevalley(lib, i, x) -> bool:
    e, f, h = ("e", i), ("f", i), ("h", i)
    act = lib.act_p
    return act(e, act(f, x)) - act(f, act(e, x)) == act(h, x)


def chevalley_input(lib, dealer, shape):
    i, m = shape
    return [i, random_element(lib, dealer, m)]


OPS = (
    (jacobi, jacobi_input, JACOBI_SHAPES),
    (leibniz, leibniz_input, LEIBNIZ_SHAPES),
    (chevalley, chevalley_input, CHEVALLEY_SHAPES),
)


def set_up(lib, rng) -> list:
    """Build the bases, draw INSTANCES inputs per identity from rng, and run
    the warm-up pass: every instance once.

    A bounded set of inputs is what lets one pass warm every per-word cache
    the timed window will use.  The shapes are dealt out in turn rather than
    drawn, so every seed has the same mix of cheap and expensive shapes and
    only the elements differ."""
    for m in range(1, MAX_DEGREE + 1):
        lib.p_basis(G, m)
    for n in range(1, MAX_DER_DEGREE + 1):
        lib.der_basis(G, n)
    dealer = Dealer(rng)
    instances = [[(op, make(lib, dealer, shapes[j % len(shapes)])) for j in range(INSTANCES)]
                 for op, make, shapes in OPS]
    for per_op in instances:
        for op, args in per_op:
            if not op(lib, *args):
                raise AssertionError(f"warm-up: {op.__name__} is false")
    return instances


def run_ops(lib, instances, rng, seconds=None, count=None, reference=None):
    """Make passes over every instance, each pass in a new order drawn from
    rng, until `count` ops ran, or until a pass ends after `seconds` have
    passed (so every instance repeats equally often).

    Returns (per-op records, failed count, first failure message); a record
    is (instance index, wall seconds, CPU seconds), the index into the
    instances of all identities in turn.  A false identity and an exception
    both count as a failed op.  With a `reference`, its loop is probed
    after every PROBE_EVERY ops, outside the op times.
    """
    flat = [inst for per_op in instances for inst in per_op]
    records: list = []
    failed = 0
    first_error = None
    start = time.perf_counter()
    order: list = []
    while count is None or len(records) < count:
        if not order:
            if count is None and records and time.perf_counter() - start >= seconds:
                break
            order = list(range(len(flat)))
            rng.shuffle(order)
        k = order.pop()
        op, args = flat[k]
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            error = None if op(lib, *args) else f"{op.__name__} is false"
        except Exception as exc:  # the op counts as failed; the window goes on
            error = f"{op.__name__} raised {type(exc).__name__}: {exc}"
        records.append((k, time.perf_counter() - t0, time.process_time() - c0))
        if error:
            failed += 1
            first_error = first_error or error
        if reference is not None and len(records) % PROBE_EVERY == 0:
            reference.probe(1)
    return records, failed, first_error


def best_times(records, n) -> tuple:
    """The best wall and CPU time of each of the n instances over its repeats."""
    wall = [math.inf] * n
    cpu = [math.inf] * n
    for k, w, c in records:
        wall[k] = min(wall[k], w)
        cpu[k] = min(cpu[k], c)
    return wall, cpu


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, help="run exactly this many ops instead of a timed window")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    lib = Library()
    rng = random.Random(args.seed)
    instances = set_up(lib, rng)
    print("ready", flush=True)

    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    reference = Reference()
    records, failed, error = run_ops(lib, instances, rng, seconds=args.seconds, count=args.ops,
                                     reference=reference)
    window = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    best_wall, best_cpu = best_times(records, sum(map(len, instances)))
    out = {
        "window_s": window,
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        "ops": len(records),
        "best_s": best_wall,
        "best_cpu_s": best_cpu,
        "reference_scale": reference.scale() if reference.times else None,
        "failed": failed,
        "error": error,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.snapshot()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
