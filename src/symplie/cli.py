"""Command line interface: decomposition tables, dimension tables, and the
named verification suite, as text or a canonical JSON stream.

Exit codes: 0 all good, 1 a verification claim failed, 2 bad usage
(unknown module or claim, degree beyond the cap, a malformed
SYMPLIE_DEGREE_CAP, a genus outside a claim's range).  All rationals are
printed as decimal-free p/q strings; JSON is emitted with sorted keys
and fixed separators so output bytes are reproducible, and per-claim
timings are only included when explicitly requested.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from itertools import combinations

from .freelie import (
    LieElement,
    NotLieElement,
    bracket,
    gen_a,
    gen_b,
    lyndon_words,
    theta_partial,
    witt_dim,
)
from .johnson import (
    NotADerivation,
    WedgeElement,
    der_dim,
    lambda4_embed,
    phi,
    pi_map,
    p_split,
    project_22,
    sym_mul,
    tau_hyp_twist,
    theta_image,
    wedge_theta,
    verify_31_bracket,
    verify_theorem_outer_bracket,
)
from .magnus import NotInLCS, dehn_twist, tau_hyp_from_twist
from .reps import NotACharacter, Summand, decompose, module_character, weyl_dim
from .surface import (
    PElement,
    VerificationError,
    degree_cap,
    labute_dim,
    p_dim,
    reduce_lie,
    verify_no_map,
)

MODULES = ("L", "p", "der", "outder", "sym2lambda2", "lambda_k", "hom")

# GSp weight of each module at a given degree, for the optional twist tags
_MODULE_WEIGHT = {
    "L": lambda d: -d,
    "p": lambda d: -d,
    "der": lambda d: -d,
    "outder": lambda d: -d,
    "sym2lambda2": lambda d: -4,
    "lambda_k": lambda d: -d,
    "hom": lambda d: 1 - d,
}


def _fmt_q(x) -> str:
    return str(Fraction(x))


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def cmd_decompose(args) -> int:
    if args.module not in MODULES:
        print(f"unknown module {args.module!r}; pick one of {', '.join(MODULES)}", file=sys.stderr)
        return 2
    degree = args.degree
    if args.module == "sym2lambda2":
        degree = 4
    elif degree is None:
        print("this module needs --degree", file=sys.stderr)
        return 2
    cap = degree_cap()
    limit = {"L": cap, "p": cap, "der": cap - 2, "outder": cap - 2,
             "lambda_k": 2 * args.g, "hom": cap, "sym2lambda2": 4}[args.module]
    if not 1 <= degree <= limit:
        print(f"degree {degree} out of range for module {args.module} (max {limit})", file=sys.stderr)
        return 2
    dec = decompose(module_character(args.g, args.module, degree))
    tagged = list(dec)
    if args.twists:
        weight = _MODULE_WEIGHT[args.module](degree)
        tagged = []
        for s in dec:
            size = sum(s.partition)
            tw = -(size + weight) // 2 if (size + weight) % 2 == 0 else None
            tagged.append(Summand(s.partition, s.multiplicity, tw if tw else None))
    dim = dec.total_dim(args.g)
    if args.format == "json":
        payload = {
            "module": args.module,
            "g": args.g,
            "degree": degree,
            "dimension": dim,
            "summands": [
                {
                    "partition": list(s.partition),
                    "multiplicity": s.multiplicity,
                    "twist": s.twist or 0,
                    "dim": weyl_dim(args.g, s.partition),
                }
                for s in tagged
            ],
        }
        print(_json_dumps(payload))
    else:
        name = f"{args.module}({degree})" if args.module != "sym2lambda2" else "sym2lambda2"
        print(f"{name} at g={args.g}: " + " + ".join(repr(s) for s in tagged)
              + f"   (dim {dim})")
    return 0


# ---------------------------------------------------------------------------
# dims
# ---------------------------------------------------------------------------

def cmd_dims(args) -> int:
    cap = degree_cap()
    maxdeg = args.max_degree or min(cap, 6)
    if maxdeg > cap:
        print(f"--max-degree {maxdeg} exceeds cap {cap}", file=sys.stderr)
        return 2
    rows = []
    for m in range(1, maxdeg + 1):
        lw = len(lyndon_words(args.g, m))
        assert lw == witt_dim(2 * args.g, m)
        pd = p_dim(args.g, m)
        ld = labute_dim(args.g, m)
        if pd != ld:
            print(f"dimension oracle mismatch at m={m}: {pd} vs {ld}", file=sys.stderr)
            return 1
        dd = der_dim(args.g, m) if m <= maxdeg - 2 and m <= cap - 2 else None
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

def _claim_theta_square(g: int, args) -> dict:
    subsets = [frozenset(range(1, j + 1)) for j in range(1, g)]
    subsets += [frozenset(range(j + 1, g + 1)) for j in range(1, g)]
    subsets += [frozenset({i}) for i in range(1, g + 1)]
    subsets += [frozenset(range(1, g + 1)), frozenset({1, g})]
    for idx in set(subsets):
        th = WedgeElement(g, 2, {(gen_a(i), gen_b(i)): Fraction(1) for i in idx})
        hom = phi(sym_mul(th, th))
        th_lie = theta_partial(g, idx)
        for i in range(1, g + 1):
            for x in (gen_a(i), gen_b(i)):
                col = hom.column(x)
                if i in idx:
                    want = reduce_lie(2 * bracket(LieElement.generator(g, x), th_lie))
                else:
                    want = PElement(g, 3)
                if col != want:
                    raise VerificationError(
                        f"value on {x} for I={sorted(idx)}: got {col!r}"
                    )
    return {"subsets_checked": len(set(subsets)), "factor": "2"}


def _claim_dehn_twist(g: int, args) -> dict:
    for j in range(1, g):
        d = tau_hyp_twist(g, j)  # construction already checks it kills theta
        th = theta_partial(g, range(j + 1, g + 1))
        for i in range(1, g + 1):
            for x in (gen_a(i), gen_b(i)):
                want = (
                    reduce_lie(bracket(LieElement.generator(g, x), th))
                    if i > j
                    else PElement(g, 3)
                )
                if d.column(x) != want:
                    raise VerificationError(f"twist j={j} value on letter {x}")
        if not theta_image(d).is_zero():
            raise VerificationError(f"twist j={j} does not lie in the kernel")
    return {"twists_checked": g - 1, "column_rule": "[x, upper-class] on far side, 0 else"}


def _claim_pi_p(g: int, args) -> dict:
    for pair in combinations(range(2 * g), 2):
        w = WedgeElement.term(g, pair)
        if pi_map(p_split(w)) != w:
            raise VerificationError(f"pi(p(.)) != id on basis vector {pair}")
    return {"basis_vectors": 2 * g * (2 * g - 1) // 2}


def _claim_projection_scalars(g: int, args) -> dict:
    th = wedge_theta(g)
    prim = WedgeElement.term(g, (gen_a(1), gen_a(2)))
    if pi_map(sym_mul(prim, th)) != Fraction(-(g + 1)) * prim:
        raise VerificationError("primitive scalar is not -(g+1)")
    if pi_map(sym_mul(th, th)) != Fraction(-(2 * g + 1)) * th:
        raise VerificationError("symplectic-line scalar is not -(2g+1)")
    a1b1 = WedgeElement.term(g, (gen_a(1), gen_b(1)))
    got = project_22(sym_mul(a1b1, a1b1))
    want = (
        sym_mul(a1b1, a1b1)
        - Fraction(3, g + 1) * sym_mul(a1b1, th)
        + Fraction(3, (g + 1) * (2 * g + 1)) * sym_mul(th, th)
    )
    if got != want:
        raise VerificationError("three-term expansion of the projected square is off")
    if not pi_map(got).is_zero():
        raise VerificationError("projected square not in ker pi")
    return {
        "primitive_scalar": _fmt_q(-(g + 1)),
        "line_scalar": _fmt_q(-(2 * g + 1)),
        "square_terms": [_fmt_q(1), _fmt_q(Fraction(-3, g + 1)),
                         _fmt_q(Fraction(3, (g + 1) * (2 * g + 1)))],
    }


def _claim_phi_lambda4(g: int, args) -> dict:
    for sub in combinations(range(2 * g), 4):
        if not phi(lambda4_embed(WedgeElement.term(g, sub))).is_zero():
            raise VerificationError(f"phi does not kill the wedge-4 vector {sub}")
    th = wedge_theta(g)
    if not phi(sym_mul(th, th)).is_zero():
        raise VerificationError("phi does not kill the squared symplectic class")
    n = 2 * g
    return {"wedge4_basis_vectors": n * (n - 1) * (n - 2) * (n - 3) // 24,
            "theta_square_killed": True}


def _claim_outer_bracket(g: int, args) -> dict:
    r = verify_theorem_outer_bracket(g)
    return {
        "coefficient": _fmt_q(r["coefficient"]),
        "nested_class_nonzero": r["nested_class_nonzero"],
        "inner_preimage_terms": r["inner_preimage_terms"],
        "full_images_commute": r["full_images_commute"],
    }


def _claim_bracket_31(g: int, args) -> dict:
    r = verify_31_bracket(g)
    return {
        "coefficient": _fmt_q(r["coefficient"]),
        "nonzero": r["nonzero"],
        "contains_31": r["contains_31"],
    }


def _claim_no_map(g: int, args) -> dict:
    r = verify_no_map(g)
    return {"coefficient": _fmt_q(r["coefficient"]), "nonzero": r["nonzero"]}


def _claim_magnus(g: int, args) -> dict:
    inverse = bool(getattr(args, "inverse_twist", False))
    for j in range(1, g):
        a = tau_hyp_from_twist(g, j, inverse=inverse)
        b = tau_hyp_twist(g, j)
        if inverse:
            b = Fraction(-1) * b
            from .johnson import Derivation

            b = Derivation.from_hom(b)
        if a != b:
            raise VerificationError(f"twist j={j}: the two computations disagree")
    # disjoint twists commute on the nose as automorphisms
    t1 = dehn_twist(g, 1, inverse=inverse)
    t2 = dehn_twist(g, g - 1, inverse=inverse)
    from .magnus import FreeWord

    for i in range(2 * g):
        w = FreeWord.generator(i)
        if t1.apply(t2.apply(w)) != t2.apply(t1.apply(w)):
            raise VerificationError(f"twist automorphisms do not commute on generator {i}")
    return {
        "twists_checked": g - 1,
        "orientation": "inverse" if inverse else "standard",
        "automorphisms_commute": True,
        "johnson_degree2_trivial": True,
    }


def _claim_dims(g: int, args) -> dict:
    maxdeg = min(args.degree or degree_cap(), degree_cap())
    dims = []
    for m in range(1, maxdeg + 1):
        lw = len(lyndon_words(g, m))
        if lw != witt_dim(2 * g, m):
            raise VerificationError(f"Lyndon count vs Witt number at m={m}")
        pd, ld = p_dim(g, m), labute_dim(g, m)
        if pd != ld:
            raise VerificationError(f"Shirshov count {pd} vs formula {ld} at m={m}")
        dims.append(pd)
    return {"max_degree": maxdeg, "quotient_dims": dims}


CLAIMS = {
    "theta-square-lemma": ((3, 4, 5), _claim_theta_square),
    "dehn-twist-image": ((3, 4), _claim_dehn_twist),
    "pi-p-identity": ((3, 4, 5), _claim_pi_p),
    "projection-scalars": ((3, 4, 5), _claim_projection_scalars),
    "phi-kills-lambda4": ((3, 4, 5), _claim_phi_lambda4),
    "outer-bracket": ((3, 4), _claim_outer_bracket),
    "bracket-31": ((3, 4), _claim_bracket_31),
    "no-map": ((3, 4, 5), _claim_no_map),
    "magnus-oracle": ((3, 4), _claim_magnus),
    "dims-oracle": ((2, 3, 4), _claim_dims),
}


def run_claim(claim: str, g: int, args) -> dict:
    """One VerificationReport as a plain dict (witness values all printable)."""
    t0 = time.perf_counter()
    try:
        witness = CLAIMS[claim][1](g, args)
        status = "pass"
    except (VerificationError, AssertionError, NotADerivation, NotACharacter,
            NotLieElement, NotInLCS) as exc:
        witness = {"error": str(exc)}
        status = "fail"
    elapsed = int((time.perf_counter() - t0) * 1000)
    report = {"claim": claim, "g": g, "status": status, "witness": witness}
    if getattr(args, "timings", False):
        report["elapsed_ms"] = elapsed
    return report


def cmd_verify(args) -> int:
    if args.claim != "all" and args.claim not in CLAIMS:
        print(f"unknown claim {args.claim!r}; known: all, {', '.join(sorted(CLAIMS))}",
              file=sys.stderr)
        return 2
    names = sorted(CLAIMS) if args.claim == "all" else [args.claim]
    failed = False
    ran = False
    for name in names:
        gs = args.g or list(CLAIMS[name][0])
        for g in sorted(gs):
            try:
                report = run_claim(name, g, args)
            except ValueError as exc:  # a precondition such as the genus range
                if args.claim != "all":
                    print(f"symplie: {exc}", file=sys.stderr)
                    return 2
                print(f"symplie: skipped {name} at g={g}: {exc}", file=sys.stderr)
                continue
            ran = True
            failed = failed or report["status"] != "pass"
            if args.format == "json":
                print(_json_dumps(report))
            else:
                mark = "PASS" if report["status"] == "pass" else "FAIL"
                extra = ", ".join(f"{k}={v}" for k, v in sorted(report["witness"].items()))
                ms = f" ({report['elapsed_ms']} ms)" if "elapsed_ms" in report else ""
                print(f"{mark} {name} g={g}{ms}  {extra}")
    if not ran:
        return 2
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
        degree_cap()
    except ValueError as exc:
        print(f"symplie: {exc}", file=sys.stderr)
        return 2
    for gval in [args.g] if isinstance(getattr(args, "g", None), int) else (args.g or []):
        if gval < 2:
            print("need genus g >= 2", file=sys.stderr)
            return 2
        if gval == 2:
            print("warning: g=2 tables are data only; the g >= 3 theorems are not asserted there",
                  file=sys.stderr)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
