"""Command line interface: decomposition tables, dimension tables, and the
named verification suite, as text or a canonical JSON stream.

Exit codes: 0 all good, 1 a verification claim failed, 2 bad usage
(unknown module or claim, degree < 1 or beyond the cap, a malformed
SYMPLIE_DEGREE_CAP, a genus outside a claim's range, an argument argparse
rejects), always reported in one stderr line, ``symplie: <message>``;
the g = 2 warning comes only once every usage check has passed.  The
claims live in :mod:`symplie.claims` and the peeling in
:mod:`symplie.reps`; this module only parses and formats, the
``c*[partition](twist)`` summands of a decomposition table included.
All rationals are printed as decimal-free p/q strings; JSON
is emitted with sorted keys and fixed separators so output bytes are
reproducible, and per-claim timings are only included when explicitly
requested.

Importing this module registers every library module in ``sys.modules``
and on the package, as an import would, but lazily
(:class:`importlib.util.LazyLoader`): a module runs, and is compiled,
only when a command first reads a name from it.  So ``decompose``, whose
characters are all closed forms, runs only :mod:`symplie.reps` and
:mod:`symplie.linalg`; ``dims`` adds :mod:`symplie.freelie` and
:mod:`symplie.surface` for its word counts, and ``verify`` runs
everything.  The registration, rather than imports inside the commands,
keeps every layer in ``sys.modules`` from ``import symplie.cli`` on, for
code that looks them up there (``perfbench/tracer.py`` does).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from fractions import Fraction


def _lazy_module(name: str):
    """The submodule symplie.<name>, registered so that it runs on its
    first attribute read; an already imported module is returned as is."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    mod = sys.modules[full] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    setattr(sys.modules[__package__], name, mod)
    return mod


# every layer, in layer order; linalg, freelie, johnson and magnus are not read here
linalg, reps, freelie, surface, johnson, magnus, claims = map(
    _lazy_module, ("linalg", "reps", "freelie", "surface", "johnson", "magnus", "claims"))


def _printable(v):
    """Fractions, also inside lists, as their p/q strings."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, list):
        return [_printable(x) for x in v]
    return v


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _usage(message: str) -> int:
    """Report bad usage as one ``symplie: <message>`` line on stderr; returns
    the exit code 2."""
    print(f"symplie: {message}", file=sys.stderr)
    return 2


def _warn_g2() -> None:
    """The g = 2 notice; each command prints it at most once, after its
    last usage check has passed."""
    print("warning: g=2 tables are data only; the g >= 3 theorems are not asserted there",
          file=sys.stderr)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def cmd_decompose(args) -> int:
    if args.module not in reps.MODULES:
        return _usage(f"unknown module {args.module!r}; pick one of {', '.join(reps.MODULES)}")
    degree = args.degree
    if args.module == "sym2lambda2":
        if degree not in (None, 4):
            return _usage("module sym2lambda2 has degree 4 only")
        degree = 4
    elif degree is None:
        return _usage("this module needs --degree")
    limit = reps.module_max_degree(args.g, args.module)
    if degree > limit:
        return _usage(f"degree {degree} out of range for module {args.module} (max {limit})")
    if args.g == 2:
        _warn_g2()
    rows = [(lam, c, reps.weyl_dim(args.g, lam),
             reps.twist(args.module, degree, lam) if args.twists else None)
            for lam, c in reps.decompose(reps.module_character(args.g, args.module, degree))]
    dim = sum(c * d for _, c, d, _ in rows)
    if args.format == "json":
        payload = {
            "module": args.module,
            "g": args.g,
            "degree": degree,
            "dimension": dim,
            "summands": [
                {"partition": list(lam), "multiplicity": c, "twist": t or 0, "dim": d}
                for lam, c, d, t in rows
            ],
        }
        print(_json_dumps(payload))
    else:
        name = f"{args.module}({degree})" if args.module != "sym2lambda2" else "sym2lambda2"
        text = " + ".join((f"{c}*" if c != 1 else "") + f"[{','.join(map(str, lam))}]"
                          + (f"({t})" if t else "") for lam, c, _, t in rows)
        print(f"{name} at g={args.g}: {text}   (dim {dim})")
    return 0


# ---------------------------------------------------------------------------
# dims
# ---------------------------------------------------------------------------

def cmd_dims(args) -> int:
    cap = reps.degree_cap()
    maxdeg = min(cap, 6) if args.max_degree is None else args.max_degree
    if maxdeg > cap:
        return _usage(f"--max-degree {maxdeg} exceeds cap {cap}")
    if args.g == 2:
        _warn_g2()
    rows = []
    for m in range(1, maxdeg + 1):
        try:
            lw, pd = surface.checked_dims(args.g, m)
        except surface.VerificationError as exc:
            print(f"dimension oracle mismatch: {exc}", file=sys.stderr)
            return 1
        dd = reps.module_character(args.g, "der", m).mass() if m <= maxdeg - 2 else None
        rows.append((m, lw, pd, dd))
    if args.format == "json":
        payload = {
            "g": args.g,
            "rows": [
                {"degree": m, "free_lie_dim": lw, "quotient_dim": pd,
                 "derivation_dim": dd if dd is not None else -1}
                for m, lw, pd, dd in rows
            ],
        }
        print(_json_dumps(payload))
    else:
        print(f"g={args.g}   (quotient dims double-checked against the closed formula)")
        print(f"{'m':>3} {'dim L_m':>10} {'dim p(m)':>10} {'dim Der_m':>10}")
        for m, lw, pd, dd in rows:
            print(f"{m:>3} {lw:>10} {pd:>10} {dd if dd is not None else '—':>10}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_claim(claim: str, g: int, args) -> dict:
    """One VerificationReport as a plain dict (witness values all printable)."""
    t0 = time.perf_counter()
    try:
        witness = claims.CLAIMS[claim][1](g, degree=getattr(args, "degree", None),
                                          inverse=bool(getattr(args, "inverse_twist", False)))
        witness = {k: _printable(v) for k, v in witness.items()}
        status = "pass"
    except claims.FAILURES as exc:
        witness = {"error": str(exc)}
        status = "fail"
    elapsed = int((time.perf_counter() - t0) * 1000)
    report = {"claim": claim, "g": g, "status": status, "witness": witness}
    if getattr(args, "timings", False):
        report["elapsed_ms"] = elapsed
    return report


def cmd_verify(args) -> int:
    if args.claim != "all" and args.claim not in claims.CLAIMS:
        known = ", ".join(sorted(claims.CLAIMS))
        return _usage(f"unknown claim {args.claim!r}; known: all, {known}")
    names = sorted(claims.CLAIMS) if args.claim == "all" else [args.claim]
    failed = False
    ran = set()  # the genera at which some claim ran
    skips = []  # printed at the end, or folded into one usage line if nothing ran
    for name in names:
        gs = args.g or list(claims.CLAIMS[name][0])
        for g in sorted(set(gs)):
            try:
                report = run_claim(name, g, args)
            except ValueError as exc:  # a precondition such as the genus range
                if args.claim != "all":
                    return _usage(str(exc))
                skips.append(f"skipped {name} at g={g}: {exc}")
                continue
            if g == 2 and args.g and g not in ran:  # only a requested g = 2 warns
                _warn_g2()
            ran.add(g)
            failed = failed or report["status"] != "pass"
            if args.format == "json":
                print(_json_dumps(report))
            else:
                mark = "PASS" if report["status"] == "pass" else "FAIL"
                extra = ", ".join(f"{k}={v}" for k, v in sorted(report["witness"].items()))
                ms = f" ({report['elapsed_ms']} ms)" if "elapsed_ms" in report else ""
                print(f"{mark} {name} g={g}{ms}  {extra}")
    if not ran:
        more = f" and {len(skips) - 1} more" if len(skips) > 1 else ""
        return _usage(f"no claim ran; {skips[0]}{more}")
    for line in skips:
        print(f"symplie: {line}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports bad arguments in one stderr line, without the usage block."""

    def error(self, message):
        self.exit(_usage(message))


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="symplie",
        description="exact computations in the graded Lie algebra of a surface group",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="irreducible decomposition tables")
    d.add_argument("--g", type=int, default=3)
    d.add_argument("--module", required=True)
    d.add_argument("--degree", type=int)
    d.add_argument("--twists", action="store_true",
                   help="tag summands with their Tate twist from the weight bookkeeping")
    d.add_argument("--format", choices=("text", "json"), default="text")
    d.set_defaults(func=cmd_decompose)

    v = sub.add_parser("verify", help="run named verification claims")
    v.add_argument("--claim", default="all")
    v.add_argument("--g", type=int, action="append",
                   help="genus (repeatable); defaults depend on the claim")
    v.add_argument("--degree", type=int, help="max degree for dims-oracle")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--inverse-twist", action="store_true", dest="inverse_twist",
                   help="flip the separating-curve orientation in the Magnus oracle")
    v.add_argument("--timings", action="store_true",
                   help="include elapsed milliseconds (breaks byte-for-byte determinism)")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("dims", help="dimension table per degree")
    t.add_argument("--g", type=int, default=3)
    t.add_argument("--max-degree", type=int, dest="max_degree")
    t.add_argument("--format", choices=("text", "json"), default="text")
    t.set_defaults(func=cmd_dims)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        reps.degree_cap()
    except ValueError as exc:
        return _usage(str(exc))
    for opt in ("degree", "max_degree"):
        value = getattr(args, opt, None)
        if value is not None and value < 1:
            return _usage(f"need --{opt.replace('_', '-')} >= 1")
    for gval in [args.g] if isinstance(getattr(args, "g", None), int) else (args.g or []):
        if gval < 2:
            return _usage("need genus g >= 2")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
