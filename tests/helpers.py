"""Seeded random generators and property suites shared across the tests.

Every suite takes (cases, seed) and raises AssertionError on the first
failure, so the unit tests can run them small and the acceptance gate
can run them at full size with the frozen seed.
"""

from fractions import Fraction
import random

from symplie.freelie import LieElement, bracket, lyndon_words
from symplie.johnson import (
    Sym2Lambda2,
    WedgeElement,
    der_basis,
    derivation_bracket,
    p_split,
    phi,
    phi_prime,
    pi_map,
    sym_mul,
)
from symplie.linalg import kernel_basis, vec_axpy
from symplie.reps import (
    Character,
    act,
    decompose,
    irr_character,
    module_character,
    pad_partition,
    sp_generator_ids,
    weyl_dim,
)
from symplie.surface import PElement, lift, p_basis, p_bracket, reduce_lie


# ---------------------------------------------------------------------------
# test-side elimination oracle: reduced row echelon form over plain dicts
# ---------------------------------------------------------------------------

def echelon(rows: list) -> tuple:
    """Reduced row echelon form of the row dicts: (nonzero rows in pivot
    order, pivot columns).  Pivots are chosen by ascending column and
    every pivot is back-eliminated from the other rows, so the output is
    the canonical RREF of the row space."""
    rref: dict = {}
    for row in rows:
        v = {k: Fraction(c) for k, c in row.items() if c}
        while True:
            hits = sorted(k for k in v if k in rref)
            if not hits:
                break
            for p in hits:
                c = v.get(p)
                if c:
                    vec_axpy(v, rref[p], -c)
        if not v:
            continue
        p = min(v)
        lead = v[p]
        if lead != 1:
            v = {k: c / lead for k, c in v.items()}
        for other in rref.values():
            c = other.get(p)
            if c:
                vec_axpy(other, v, -c)
        rref[p] = v
    pivots = sorted(rref)
    return [rref[p] for p in pivots], pivots


def rref_kernel_basis(rows: list, ncols: int) -> list:
    """Right kernel from the RREF: one vector per free column f, in
    ascending order, e_f minus the pivot rows' f-entries, scaled so the
    smallest-column coefficient is 1."""
    red, pivots = echelon(rows)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = {f: Fraction(1)}
        for p, row in zip(pivots, red):
            c = row.get(f)
            if c:
                v[p] = -c
        lead = v[min(v)]
        out.append({k: c / lead for k, c in v.items()})
    return out


def rows_of(entries: dict, nrows: int) -> list:
    """The row dicts of a matrix given as {(row, col): value}."""
    rows = [dict() for _ in range(nrows)]
    for (r, c), v in entries.items():
        if v:
            rows[r][c] = v
    return rows


def columns_of(rows: list, ncols: int) -> list:
    """The column dicts of a matrix given by its row dicts."""
    cols = [dict() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            if v:
                cols[c][r] = v
    return cols


def rand_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 5))


def random_lie(g: int, m: int, rng: random.Random, terms: int = 3) -> LieElement:
    words = lyndon_words(g, m)
    coords = {}
    for _ in range(terms):
        coords[rng.choice(words)] = rand_frac(rng)
    return LieElement(g, m, coords)


def random_p(g: int, m: int, rng: random.Random, terms: int = 3) -> PElement:
    reps = p_basis(g, m).rep_words
    coords = {}
    for _ in range(terms):
        coords[rng.choice(reps)] = rand_frac(rng)
    return PElement(g, m, coords)


def random_wedge(g: int, k: int, rng: random.Random, terms: int = 3) -> WedgeElement:
    out = WedgeElement(g, k)
    for _ in range(terms):
        letters = rng.sample(range(2 * g), k)
        out = out + WedgeElement.term(g, letters, rand_frac(rng))
    return out


def random_sym(g: int, rng: random.Random, terms: int = 3) -> Sym2Lambda2:
    out = Sym2Lambda2(g)
    for _ in range(terms):
        out = out + sym_mul(random_wedge(g, 2, rng, 1), random_wedge(g, 2, rng, 1))
    return out


def random_partition(g: int, rng: random.Random, max_size: int = 4) -> tuple:
    size = rng.randint(0, max_size)
    parts = []
    while size > 0 and len(parts) < g:
        c = rng.randint(1, size)
        parts.append(c)
        size -= c
    return tuple(sorted(parts, reverse=True))


# ---------------------------------------------------------------------------
# property suites (acceptance criterion: zero failures at >= 200 cases)
# ---------------------------------------------------------------------------

def run_jacobi_antisymmetry(cases: int, seed: int = 20240) -> int:
    """Antisymmetry and Jacobi for random homogeneous elements, total
    degree <= 6, in the free Lie algebra and in low-degree derivations."""
    rng = random.Random(seed)
    ders = {
        (2, 1): der_basis(2, 1),
        (3, 1): der_basis(3, 1),
        (3, 2): der_basis(3, 2),
    }
    for case in range(cases):
        g = rng.choice((2, 3))
        da = rng.randint(1, 2)
        db = rng.randint(1, 2)
        dc = rng.randint(1, 6 - da - db)
        x = random_lie(g, da, rng)
        y = random_lie(g, db, rng)
        z = random_lie(g, dc, rng)
        assert bracket(x, x).is_zero()
        assert (bracket(x, y) + bracket(y, x)).is_zero()
        jac = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert jac.is_zero(), f"Jacobi failed on case {case}"
        if case % 4 == 0:
            # derivation bracket: antisymmetry and degree additivity
            g, n1 = rng.choice(list(ders))
            basis = ders[(g, n1)]
            d1 = rng.choice(basis)
            d2 = rng.choice(basis)
            b12 = derivation_bracket(d1, d2)
            b21 = derivation_bracket(d2, d1)
            assert (b12 + b21).is_zero()
            assert b12.target_degree == 2 * n1 + 1
        if case % 16 == 0:
            # Jacobi in the derivation algebra
            basis = ders[(2, 1)]
            d1, d2, d3 = (rng.choice(basis) for _ in range(3))
            total = (
                derivation_bracket(derivation_bracket(d1, d2), d3)
                + derivation_bracket(derivation_bracket(d2, d3), d1)
                + derivation_bracket(derivation_bracket(d3, d1), d2)
            )
            assert total.is_zero(), f"derivation Jacobi failed on case {case}"
    return cases


def run_equivariance(cases: int, seed: int = 20241) -> int:
    """act(x, F(s)) == F(act(x, s)) for F in {phi, phi_prime, pi, p}."""
    rng = random.Random(seed)
    for case in range(cases):
        g = rng.choice((2, 3))
        gen = rng.choice(sp_generator_ids(g))
        which = case % 4
        if which == 0:
            s = random_sym(g, rng, 2)
            assert act(gen, phi(s)) == phi(act(gen, s)), f"phi case {case}"
        elif which == 1:
            t = random_wedge(g, 3, rng, 2)
            assert act(gen, phi_prime(t)) == phi_prime(act(gen, t)), f"phi' case {case}"
        elif which == 2:
            s = random_sym(g, rng, 2)
            assert act(gen, pi_map(s)) == pi_map(act(gen, s)), f"pi case {case}"
        else:
            w = random_wedge(g, 2, rng, 2)
            assert act(gen, p_split(w)) == p_split(act(gen, w)), f"p case {case}"
    return cases


_MODULE_LIST = [
    ("L", 1), ("L", 2), ("L", 3), ("L", 4),
    ("p", 1), ("p", 2), ("p", 3), ("p", 4),
    ("hom", 2), ("hom", 3),
    ("sym2lambda2", None),
    ("lambda_k", 2), ("lambda_k", 3), ("lambda_k", 4),
    ("der", 1), ("der", 2), ("der", 3),
    ("outder", 1), ("outder", 2), ("outder", 3),
]


def run_weyl_symmetry(cases: int, seed: int = 20242) -> int:
    """Every module character and random irreducible characters are
    invariant under coordinate permutations and sign flips."""
    rng = random.Random(seed)
    done = 0
    for g in (2, 3):
        for name, deg in _MODULE_LIST:
            assert module_character(g, name, deg).is_weyl_symmetric(), (g, name, deg)
            done += 1
    while done < cases:
        g = rng.choice((2, 3, 4))
        lam = random_partition(g, rng)
        char = Character(g, irr_character(g, pad_partition(lam, g)))
        assert char.is_weyl_symmetric(), lam
        assert char.mass() == weyl_dim(g, lam), lam
        done += 1
    return done


def run_rank_nullity(cases: int, seed: int = 20243) -> int:
    """rank + nullity = cols, kernel vectors exactly annihilated, echelon
    idempotent, for random sparse rational matrices; the kernel also
    equals the RREF oracle's, vector for vector."""
    rng = random.Random(seed)
    for case in range(cases):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        entries = {}
        for _ in range(rng.randint(0, rows * cols // 2)):
            entries[(rng.randrange(rows), rng.randrange(cols))] = rand_frac(rng)
        m = rows_of(entries, rows)
        red, pivots = echelon(m)
        ker = kernel_basis(columns_of(m, cols))
        assert ker == rref_kernel_basis(m, cols), f"kernel oracle case {case}"
        assert len(pivots) + len(ker) == cols, f"rank-nullity case {case}"
        again, pivots2 = echelon(red)
        assert again == red and pivots2 == pivots, f"idempotence case {case}"
        for v in ker:
            for r, row in enumerate(m):
                s = sum(c * v.get(k, 0) for k, c in row.items())
                assert s == 0, f"kernel exactness case {case} row {r}"
    return cases


def run_reduce_lift(cases: int, seed: int = 20244) -> int:
    """reduce(lift(x)) == x, and reduce is a Lie algebra map."""
    rng = random.Random(seed)
    for case in range(cases):
        g = rng.choice((2, 3))
        m = rng.randint(1, 4)
        x = random_p(g, m, rng)
        assert reduce_lie(lift(x)) == x, f"section case {case}"
        da = rng.randint(1, 2)
        db = rng.randint(1, 4 - da)
        u = random_lie(g, da, rng)
        v = random_lie(g, db, rng)
        assert reduce_lie(bracket(u, v)) == p_bracket(reduce_lie(u), reduce_lie(v)), (
            f"Lie-map case {case}"
        )
    return cases


def run_decomposition_mass(cases: int, seed: int = 20245) -> int:
    """Sum of multiplicity * irreducible dimension equals the dimension of
    the decomposed module, for the named modules and random characters."""
    rng = random.Random(seed)
    done = 0
    for g in (2, 3):
        for name, deg in _MODULE_LIST:
            char = module_character(g, name, deg)
            dec = decompose(char)
            assert dec.total_dim(g) == char.mass(), (g, name, deg)
            done += 1
    while done < cases:
        g = rng.choice((2, 3, 4))
        mult = {}
        want = 0
        for _ in range(rng.randint(1, 3)):
            lam = random_partition(g, rng)
            c = rng.randint(1, 3)
            for w, m in irr_character(g, pad_partition(lam, g)).items():
                mult[w] = mult.get(w, 0) + c * m
            want += c * weyl_dim(g, lam)
        dec = decompose(Character(g, mult))
        assert dec.total_dim(g) == want
        done += 1
    return done


ALL_SUITES = {
    "jacobi-antisymmetry": run_jacobi_antisymmetry,
    "sp-equivariance": run_equivariance,
    "weyl-symmetry": run_weyl_symmetry,
    "rank-nullity": run_rank_nullity,
    "reduce-lift": run_reduce_lift,
    "decomposition-mass": run_decomposition_mass,
}
