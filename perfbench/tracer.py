"""Per-layer tracing of the symplie package, applied from outside.

A :class:`Tracer` replaces the public functions of each symplie module
(and a few methods) with wrappers, in every symplie namespace that holds
a reference to them, and puts the originals back on :meth:`uninstall`.
The program itself is not edited, so its output bytes stay the same.

A span is opened where control crosses from one module into another,
and on every call of the functions whose self time is reported
(:data:`SPANNED`); any other call that stays inside a module is counted
but not timed.  A function's self time is the length of its spans minus the spans of
the calls they made into other modules, and a layer's self time is the
sum over its functions.  Private helpers are never wrapped: their cost
lands in the self time of the public function that called them.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("linalg", "freelie", "surface", "reps", "johnson", "magnus", "cli")

# Leaf helpers called millions of times per run with almost no work inside;
# a wrapper would cost more than the call, so their time stays with the caller.
UNWRAPPED = frozenset({
    "vec_axpy", "vec_scaled", "vec_sum",
    "gen_a", "gen_b", "letter_name", "sp_form", "word_weight", "is_lyndon",
    "mobius", "pad_partition", "strip_weight", "is_dominant", "dominant_rep",
    "in_cone", "degree_cap",
})

# Methods wrapped on their class (class name -> method names), per layer.
METHODS = {
    "linalg": {"EchelonSpan": ("insert", "reduce", "contains")},
    "johnson": {"Derivation": ("value",)},
}

# Functions whose call counts are reported.
COUNTED = (
    "linalg.EchelonSpan.insert", "linalg.EchelonSpan.reduce", "linalg.kernel_basis",
    "freelie.ad_word", "freelie.lie_from_tensor", "freelie.bracket",
    "surface.reduce_lie", "reps.weyl_orbit", "reps.act_p",
    "johnson.Derivation.value", "magnus.magnus",
)

# Functions whose own self time is reported.  They get a span on every call,
# also from inside their own module, so that a same-module caller does not
# absorb their time; every other function gets one only at a module boundary.
SPANNED = (
    "linalg.EchelonSpan.insert", "linalg.EchelonSpan.reduce", "linalg.kernel_basis",
    "freelie.ad_word", "freelie.lie_from_tensor", "freelie.bracket",
    "freelie.lyndon_words", "surface.p_basis", "surface.reduce_lie",
    "reps.weyl_orbit", "reps.irr_character", "reps.decompose",
    "reps.module_character", "reps.act_p", "reps.raising_highest_weight_witness",
    "johnson.der_character", "johnson.der_basis", "johnson.Derivation.value",
    "johnson.derivation_bracket", "johnson.phi", "johnson.inner_preimage",
    "magnus.series_log", "magnus.lcs_class", "cli.main",
)

# Functions whose repeated keys are counted as hits (key seen before in this
# process); for the lru-cached ones among them a hit is a cache hit.
KEYED = frozenset({
    "freelie.ad_word", "surface.p_basis", "reps.irr_character", "johnson.der_character",
})


class FnStats:
    __slots__ = ("calls", "self_s", "hits", "elems", "nnz_in", "useful")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0
        self.elems = 0
        self.nnz_in = 0
        self.useful = 0


def _is_public_function(name, obj, modname) -> bool:
    return (
        not name.startswith("_")
        and name not in UNWRAPPED
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == modname
    )


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return int(c).bit_length()


class Tracer:
    """Wraps symplie's public functions; collects counters and self times."""

    def __init__(self):
        self.stats: dict = defaultdict(FnStats)
        self.stack: list = []
        self.seen: dict = defaultdict(set)
        self.builds: dict = {}          # (g, m) -> [misses, inclusive seconds]
        self.bases: list = []           # PBasis objects built while tracing
        self._restore: list = []        # (owner, attribute, original)
        self._bracketing_tensor = None
        self._lru_start = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import symplie  # noqa: F401  (loads every module but cli)
        import symplie.cli  # noqa: F401

        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "symplie" or n.startswith("symplie."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"symplie.{layer}"]
            for name, obj in list(vars(mod).items()):
                if _is_public_function(name, obj, mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
            for cls_name, meths in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in meths:
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(layer, f"{layer}.{cls_name}.{meth}", orig))
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((ns, name, obj))
                    setattr(ns, name, hit[1])
        bt = sys.modules["symplie.freelie"].bracketing_tensor
        self._bracketing_tensor = getattr(bt, "__wrapped_original__", bt)
        self._lru_start = self._bracketing_tensor.cache_info()

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    def _wrap(self, layer: str, qual: str, fn):
        stat = self.stats[qual]
        stack = self.stack
        always = qual in SPANNED

        def timed(*args, **kwargs):
            if not always and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        inner = self._hook(qual, stat, timed)

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return inner(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped_original__ = fn
        return wrapper

    def _hook(self, qual: str, stat: FnStats, timed):
        """The per-function counters beyond calls and self time."""
        if qual in KEYED:
            seen = self.seen[qual]

            def keyed(*args, **kwargs):
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    stat.hits += 1
                    return timed(*args, **kwargs)
                seen.add(key)
                if qual != "surface.p_basis":
                    return timed(*args, **kwargs)
                t0 = perf_counter()
                out = timed(*args, **kwargs)
                rec = self.builds.setdefault(key, [0, 0.0])
                rec[0] += 1
                rec[1] += perf_counter() - t0
                self.bases.append(out)
                return out

            return keyed
        if qual == "linalg.EchelonSpan.insert":
            def insert(span, v, *args, **kwargs):
                stat.nnz_in += len(v)
                out = timed(span, v, *args, **kwargs)
                if out is not None:
                    stat.useful += 1
                return out

            return insert
        if qual == "reps.weyl_orbit":
            def orbit(*args, **kwargs):
                out = timed(*args, **kwargs)
                stat.elems += len(out)
                return out

            return orbit
        return timed

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw sums, mergeable across processes with :func:`merge`."""
        info = self._bracketing_tensor.cache_info()
        bits = 0
        for pb in self.bases:
            for span in pb.blocks.values():
                for row in span.rows.values():
                    for c in row.values():
                        bits = max(bits, _coeff_bits(c))
        return {
            "fns": {q: [s.calls, s.self_s, s.hits, s.elems, s.nnz_in, s.useful]
                    for q, s in self.stats.items() if s.calls},
            "builds": {f"g{args[0]}m{args[1]}": rec for (args, _), rec in self.builds.items()},
            "bt_hits": info.hits - self._lru_start.hits,
            "bt_misses": info.misses - self._lru_start.misses,
            "max_coeff_bits": bits,
        }


def merge(snaps) -> dict:
    """Sum raw snapshots from several processes."""
    out = {"fns": {}, "builds": {}, "bt_hits": 0, "bt_misses": 0, "max_coeff_bits": 0}
    for s in snaps:
        for q, vals in s["fns"].items():
            acc = out["fns"].setdefault(q, [0] * len(vals))
            out["fns"][q] = [a + v for a, v in zip(acc, vals)]
        for k, (n, t) in s["builds"].items():
            acc = out["builds"].setdefault(k, [0, 0.0])
            acc[0] += n
            acc[1] += t
        out["bt_hits"] += s["bt_hits"]
        out["bt_misses"] += s["bt_misses"]
        out["max_coeff_bits"] = max(out["max_coeff_bits"], s["max_coeff_bits"])
    return out


def layer_metrics(snap: dict) -> dict:
    """Named per-layer values (plain numbers) from a merged snapshot."""
    fns = snap["fns"]

    def get(q):
        calls, self_s, hits, elems, nnz_in, useful = fns.get(q, [0, 0.0, 0, 0, 0, 0])
        return {"calls": calls, "self_s": self_s, "hits": hits, "elems": elems,
                "nnz_in": nnz_in, "useful": useful}

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v[1] for q, v in fns.items() if q.split(".")[0] == layer)
    for q in COUNTED:
        m[f"{q}.calls"] = get(q)["calls"]
    for q in SPANNED:
        m[f"{q}.self_s"] = get(q)["self_s"]
    ins = get("linalg.EchelonSpan.insert")
    m["linalg.EchelonSpan.insert.nnz_in"] = ins["nnz_in"]
    m["linalg.EchelonSpan.insert.useful_ratio"] = ratio(ins["useful"], ins["calls"])
    m["linalg.max_coeff_bits"] = snap["max_coeff_bits"]
    ad = get("freelie.ad_word")
    m["freelie.ad_word.hit_ratio"] = ratio(ad["hits"], ad["calls"])
    m["freelie.bracketing_tensor.hit_ratio"] = ratio(
        snap["bt_hits"], snap["bt_hits"] + snap["bt_misses"])
    for q in ("surface.p_basis", "reps.irr_character", "johnson.der_character"):
        s = get(q)
        m[f"{q}.misses"] = s["calls"] - s["hits"]
    m["reps.weyl_orbit.elems"] = get("reps.weyl_orbit")["elems"]
    for key, (n, t) in snap["builds"].items():
        m[f"surface.p_basis.{key}.build_s"] = t / n
    return m


TRACE_MARK = "perfbench-trace "


def main(argv) -> int:
    """Run the symplie CLI on argv with tracing on; the raw snapshot goes to
    stderr as one line after TRACE_MARK, stdout is the CLI's own."""
    import json

    tracer = Tracer()
    tracer.install()
    try:
        code = sys.modules["symplie.cli"].main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    sys.stderr.write(TRACE_MARK + json.dumps(tracer.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
