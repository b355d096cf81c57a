"""Seeded random generators and property suites shared across the tests.

Every suite takes (cases, seed) and raises AssertionError on the first
failure, so the unit tests can run them small and the acceptance gate
can run them at full size with the frozen seed.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, count, permutations, product
import random

from symplie.freelie import (
    LieElement,
    bracket,
    bracket_coords,
    is_lyndon,
    iter_lyndon,
    letter_action,
    lie_from_tensor,
    lie_to_tensor,
    standard_factorization,
    theta,
    _tensor_commutator,
)
from symplie.johnson import (
    Sym2Lambda2,
    WedgeElement,
    ad_derivation,
    der_basis,
    derivation_bracket,
    lambda4_embed,
    p_split,
    phi,
    phi_prime,
    pi_map,
    sym_mul,
)
from symplie.linalg import EchelonSpan, exact, kernel_basis, vec_axpy
from symplie.reps import (
    Character,
    Decomposition,
    NotACharacter,
    Summand,
    _dominant_support,
    closure_span,
    decompose,
    dominant_character,
    dominant_rep,
    hom_key_weight,
    in_cone,
    mobius,
    module_character,
    orbit_size,
    pad_partition,
    sp_generator_ids,
    strip_weight,
    weyl_dim,
    word_weight,
)
from symplie.surface import PElement, lift, p_basis, p_bracket, reduce_lie


# ---------------------------------------------------------------------------
# test-side bracket oracle: the commutator in the tensor algebra
# ---------------------------------------------------------------------------

def bracket_via_tensor(x: LieElement, y: LieElement) -> LieElement:
    """[x, y] through the tensor algebra: expand both sides, take the
    commutator there and peel the result back to Lyndon coordinates."""
    t = _tensor_commutator(lie_to_tensor(x.coords), lie_to_tensor(y.coords))
    return LieElement(x.g, x.degree + y.degree, lie_from_tensor(t))


def leibniz_via_tensor(images: dict, coords: dict) -> dict:
    """Lyndon coordinates of D(x) for x given by Lyndon coordinates and the
    derivation D sending each letter y to the Lyndon coordinates images[y]
    (a letter left out goes to 0), through the tensor algebra: D acts on a
    word as the sum over its letter slots of the word with that slot
    replaced by the expansion of the letter's image, and the sum is peeled
    back to Lyndon coordinates."""
    slot_images = {y: lie_to_tensor(img) for y, img in images.items()}
    out: dict = {}
    for w, c in lie_to_tensor(coords).items():
        for slot, y in enumerate(w):
            for t, d in slot_images.get(y, {}).items():
                k = w[:slot] + t + w[slot + 1 :]
                out[k] = out.get(k, 0) + c * d
    return lie_from_tensor(out)


def dynkin_tensor(t: dict) -> dict:
    """Left-normed bracketing map applied wordwise to a tensor element.

    Sends x1 x2 ... xm to [...[[x1,x2],x3]...,xm]; on the expansion of a
    degree-m Lie element this is multiplication by m (Dynkin-Specht-Wever).
    """
    out: dict = {}
    for w, c in t.items():
        vec_axpy(out, _left_normed_tensor(w), c)
    return out


@lru_cache(maxsize=None)
def _left_normed_tensor(w: tuple) -> dict:
    if len(w) == 1:
        return {w: 1}
    return _tensor_commutator(_left_normed_tensor(w[:-1]), {(w[-1],): 1})


# ---------------------------------------------------------------------------
# test-side Leibniz oracle: the Leibniz rule in the free Lie algebra
# ---------------------------------------------------------------------------

def free_leibniz(w: tuple, memo: dict) -> dict:
    """Lyndon coordinates of D(b(w)) for the derivation D given by its
    letter images, by the Leibniz rule D[b(u), b(v)] = [Db(u), b(v)] +
    [b(u), Db(v)] along the standard factorization (u, v) of w, with no
    reduction.  memo maps every letter (x,) to the Lyndon coordinates of
    D(x) and is filled with each word computed; the returned dicts are
    shared with it and must not be mutated."""
    out = memo.get(w)
    if out is None:
        u, v = standard_factorization(w)
        out = memo[w] = bracket_coords(free_leibniz(u, memo), {v: 1})
        vec_axpy(out, bracket_coords({u: 1}, free_leibniz(v, memo)), 1)
    return out


def free_derive(coords: dict, memo: dict) -> dict:
    """The sum of c * free_leibniz(w, memo) over the coordinates, a new dict."""
    out: dict = {}
    for w, c in coords.items():
        vec_axpy(out, free_leibniz(w, memo), c)
    return out


def lie_act(x: LieElement, gen: tuple) -> LieElement:
    """The Chevalley generator gen on a free Lie element: its letter action
    extended by free_derive, on a memo built for this call."""
    table = letter_action(x.g, gen)
    memo = {(y,): {(z,): c for z, c in table.get(y, {}).items()} for y in range(2 * x.g)}
    return LieElement(x.g, x.degree, free_derive(x.coords, memo))


def value_via_free_lie(d, x: PElement) -> PElement:
    """Derivation.value by the free Lie route: the Leibniz rule on the lift
    of x with the columns as letter images, the whole sum reduced once."""
    memo = {(y,): d.column(y).coords for y in range(2 * d.g)}
    return reduce_lie(LieElement(d.g, x.m + d.degree, free_derive(x.coords, memo)))


def act_via_free_lie(gen: tuple, x: PElement) -> PElement:
    """PElement.act by the free Lie route: the lift acted on, then reduced."""
    return reduce_lie(lie_act(lift(x), gen))


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


def exactly_typed(vectors) -> bool:
    """The coefficient-type contract of kernel vectors: every coefficient is
    an int exactly when it is integral and a Fraction otherwise (so never a
    float)."""
    return all(
        type(c) is (int if c.denominator == 1 else Fraction)
        for v in vectors for c in v.values()
    )


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


# ---------------------------------------------------------------------------
# test-side quotient oracle: eager elimination of the whole ideal
# ---------------------------------------------------------------------------

def eager_ideal_blocks(g: int, m: int) -> dict:
    """Weight -> EchelonSpan of the degree-m ideal piece, eliminating the
    whole left-normed family ad(h_k)...ad(h_1)(theta), (2g)^(m-2) vectors."""
    if m < 2:
        return {}
    family = [theta(g)]
    for _ in range(m - 2):
        family = [bracket(LieElement.generator(g, h), v) for v in family for h in range(2 * g)]
    blocks: dict = {}
    for v in family:
        if v.coords:
            wt = word_weight(next(iter(v.coords)), g)
            blocks.setdefault(wt, EchelonSpan()).insert(v.coords)
    return blocks


def eager_reduce(blocks: dict, g: int, coords: dict) -> dict:
    """Residue of coords modulo the eager blocks, weight by weight."""
    by_weight: dict = {}
    for w, c in coords.items():
        by_weight.setdefault(word_weight(w, g), {})[w] = c
    out: dict = {}
    for wt, part in by_weight.items():
        out.update(blocks.get(wt, EchelonSpan()).reduce(part))
    return out


def ideal_component(g: int, m: int) -> list:
    """The blocks of p_basis(g, m), given every pivot word, in RREF: one
    LieElement per pivot word, ordered by pivot word, to compare with
    eager_ideal_rows."""
    if m < 2:
        raise ValueError("the ideal starts in degree 2")
    pb = p_basis(g, m)
    rows: dict = {}
    for wt, (_, pivots) in words_by_weight(g, m).items():
        span = pb.block(wt, pivots)
        for p, row in span.rows.items():
            rows[p] = {p: row[p], **span.reduce({q: c for q, c in row.items() if q != p})}
    return [LieElement(g, m, rows[p]) for p in sorted(rows)]


def eager_ideal_rows(blocks: dict) -> list:
    """RREF rows of the ideal piece, ordered by pivot word."""
    rows = [row for span in blocks.values() for row in echelon(list(span.rows.values()))[0]]
    return sorted(rows, key=min)


def hom_basis_image(g: int, n: int, x: int, w: tuple) -> dict:
    """Reduced coordinates of the class image of the hom sending letter x
    to the basis word w, by one bracket against x's symplectic partner:
    -[b_i, w] for x = a_i and [a_i, w] for x = b_i."""
    img = bracket_coords({(x ^ 1,): -1 if x % 2 == 0 else 1}, {w: 1})
    return p_basis(g, n + 2).reduce_coords(img)


def der_blocks(g: int, n: int) -> dict:
    """Hom(H, p(n+1)) column keys (letter, word) grouped by torus weight,
    each block in ascending key order."""
    blocks: dict = {}
    for key in product(range(2 * g), p_basis(g, n + 1).rep_words):
        blocks.setdefault(hom_key_weight(g, key), []).append(key)
    return {wt: sorted(keys) for wt, keys in blocks.items()}


def der_character_by_ranks(g: int, n: int) -> Character:
    """The degree-n derivation character as kernel ranks of the
    multiply-by-the-class map, one weight block at a time."""
    coords: dict = {}
    for wt, keys in der_blocks(g, n).items():
        span = EchelonSpan()
        for x, w in keys:
            span.insert(hom_basis_image(g, n, x, w))
        coords[wt] = len(keys) - len(span.rows)
    return chamber(g, coords)


# ---------------------------------------------------------------------------
# test-side character oracle: full-torus characters (weight -> multiplicity
# over every weight), read off explicit bases or built by shifts, and
# checked for Weyl symmetry on their way to the chamber
# ---------------------------------------------------------------------------

def chamber(g: int, full: dict) -> Character:
    """The chamber Character of a full-torus character, after checking that
    every weight carries its dominant representative's multiplicity and
    that each such class is a whole Weyl orbit (no orbit is enumerated);
    raises NotACharacter otherwise."""
    full = {w: m for w, m in full.items() if m}
    classes: dict = {}
    for w, m in full.items():
        d = dominant_rep(w)
        if full.get(d) != m:
            raise NotACharacter(f"not Weyl-symmetric: {w} and {d} differ")
        classes[d] = classes.get(d, 0) + 1
    for d, n in classes.items():
        if n != orbit_size(d):
            raise NotACharacter(
                f"not Weyl-symmetric: {n} of the {orbit_size(d)} weights in the orbit of {d}"
            )
    return Character(g, {d: full[d] for d in classes})


def words_character(g: int, words) -> dict:
    """Full-torus character of the span of some words: their weights, counted."""
    return dict(Counter(word_weight(w, g) for w in words))


def character_by_words(g: int, module: str, degree: int) -> Character:
    """The character of L, p, hom or lambda_k summed over its basis words:
    Lyndon words, the quotient's representative words, hom keys (letter,
    representative word), or k-subsets of the letters."""
    if module == "L":
        return chamber(g, words_character(g, lyndon_words(g, degree)))
    if module == "p":
        return chamber(g, words_character(g, p_basis(g, degree).rep_words))
    if module == "hom":
        words = p_basis(g, degree).rep_words
        return chamber(g, Counter(hom_key_weight(g, (x, w)) for x in range(2 * g) for w in words))
    if module == "lambda_k":
        return chamber(g, words_character(g, combinations(range(2 * g), degree)))
    raise ValueError(f"no word route for {module!r}")


def _shift_into(out: dict, f: dict, i: int, s: int) -> None:
    """out += f with every weight moved by s in its i-th coordinate."""
    for w, m in f.items():
        v = w[:i] + (w[i] + s,) + w[i + 1:]
        out[v] = out.get(v, 0) + m


def full_times_chi(g: int, f: dict) -> dict:
    """chi * f over every weight, where chi = sum_i (x_i + 1/x_i)."""
    out: dict = {}
    for i in range(g):
        _shift_into(out, f, i, 1)
        _shift_into(out, f, i, -1)
    return {w: m for w, m in out.items() if m}


def _full_lie_character(g: int, m: int, relator: int) -> dict:
    """Brandt's (relator 0) or Labute's (relator 1) formula over every
    weight: (1/m) sum_{d|m} mu(d) psi^d(s_(m/d)) with the power sums
    s_k = chi s_(k-1) - relator s_(k-2)."""
    zero = (0,) * g
    sums = [{zero: 1 + relator}, full_times_chi(g, {zero: 1})]
    while len(sums) <= m:
        nxt = full_times_chi(g, sums[-1])
        vec_axpy(nxt, sums[-2], -relator)
        sums.append(nxt)
    total: dict = {}
    for d in range(1, m + 1):
        if m % d == 0:
            vec_axpy(total, {tuple(d * c for c in w): n for w, n in sums[m // d].items()}, mobius(d))
    assert all(n % m == 0 for n in total.values()), (g, m)
    return {w: n // m for w, n in total.items()}


def full_character(g: int, module: str, degree: int | None = None) -> dict:
    """The full-torus character of a named module, as module_character
    built it over every weight: the power sums by shifts for L and p,
    chi * p for hom, hom(n+1) - p(n+2) for der and der(n) - p(n) for outder,
    e_k of the letters one shift per letter for lambda_k, and the weights
    of every basis word for sym2lambda2."""
    if module in ("L", "p"):
        return _full_lie_character(g, degree, int(module == "p"))
    if module == "hom":
        return full_times_chi(g, full_character(g, "p", degree))
    if module in ("der", "outder"):
        out = full_character(g, "hom", degree + 1)
        vec_axpy(out, full_character(g, "p", degree + 2), -1)
        if module == "outder":
            vec_axpy(out, full_character(g, "p", degree), -1)
        return out
    if module == "lambda_k":
        # elementary[j] = e_j of the letters taken so far
        elementary = [{(0,) * g: 1}] + [{} for _ in range(degree)]
        for i in range(g):
            for s in (1, -1):
                for j in range(degree, 0, -1):
                    _shift_into(elementary[j], elementary[j - 1], i, s)
        return {w: m for w, m in elementary[degree].items() if m}
    if module == "sym2lambda2":
        pairs = list(combinations(range(2 * g), 2))
        return words_character(g, (p + q for p, q in combinations_with_replacement(pairs, 2)))
    raise ValueError(f"unknown module {module!r}")


def submodule_decomposition(v, g: int) -> Decomposition:
    """Decomposition of the sp(2g)-submodule generated by v, from the
    weights of a basis of its closure under the Chevalley generators."""
    return decompose(chamber(g, Counter(wt for wt, _ in closure_span(v, sp_generator_ids(g)))))


def multiset(dec: Decomposition) -> dict:
    """Partition -> multiplicity of a decomposition."""
    return {s.partition: s.multiplicity for s in dec}


# ---------------------------------------------------------------------------
# test-side Weyl group data: whole orbits, full characters, Cartan integers
# ---------------------------------------------------------------------------

def positive_roots(g: int) -> list:
    """The positive roots e_i - e_j, e_i + e_j (i < j) and 2e_i as g-tuples."""
    roots = []
    for i in range(g):
        for j in range(i + 1, g):
            for s in (-1, 1):
                r = [0] * g
                r[i], r[j] = 1, s
                roots.append(tuple(r))
        r = [0] * g
        r[i] = 2
        roots.append(tuple(r))
    return roots


def _ip(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


def weyl_dim_by_roots(g: int, lam) -> int:
    """The Weyl dimension formula as a product over every positive root."""
    rho = tuple(range(g, 0, -1))
    lr = tuple(a + b for a, b in zip(pad_partition(lam, g), rho))
    num = den = 1
    for a in positive_roots(g):
        num *= _ip(lr, a)
        den *= _ip(rho, a)
    assert num % den == 0
    return num // den


def freudenthal_by_roots(g: int, lam) -> dict:
    """Dominant weight -> multiplicity in V_lam, by Freudenthal's formula
    summed over every positive root one at a time."""
    lam = pad_partition(lam, g)
    rho = tuple(range(g, 0, -1))
    roots = positive_roots(g)

    @lru_cache(maxsize=None)
    def mult(mu):
        if mu == lam:
            return 1
        if not in_cone(lam, mu):
            return 0
        lr = tuple(a + b for a, b in zip(lam, rho))
        mr = tuple(a + b for a, b in zip(mu, rho))
        denom = _ip(lr, lr) - _ip(mr, mr)
        if denom <= 0:
            return 0
        total = 0
        for a in roots:
            for k in count(1):
                nu = tuple(m + k * c for m, c in zip(mu, a))
                if not in_cone(lam, dominant_rep(nu)):
                    break
                total += mult(dominant_rep(nu)) * _ip(nu, a)
        q, r = divmod(2 * total, denom)
        assert not r, (lam, mu)
        return q

    return {mu: mult(mu) for mu in _dominant_support(g, lam) if mult(mu)}


def is_dominant(w) -> bool:
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1)) and w[-1] >= 0


def weyl_orbit(w: tuple) -> set:
    """All distinct signed permutations of a weight (enumerates all g! permutations)."""
    out = set()
    for perm in set(permutations(w)):
        signs = [(1, -1) if c else (1,) for c in perm]
        for eps in product(*signs):
            out.add(tuple(c * e for c, e in zip(perm, eps)))
    return out


@lru_cache(maxsize=None)
def irr_character(g: int, lam: tuple) -> dict:
    """Full character of the irreducible V_lam as weight -> multiplicity."""
    return {w: m for mu, m in dominant_character(g, lam).items() for w in weyl_orbit(mu)}


def is_weyl_symmetric(full: dict) -> bool:
    """Every weight of a full-torus character carries the multiplicity of
    its whole orbit."""
    for w, m in full.items():
        for v in weyl_orbit(w):
            if full.get(v, 0) != m:
                return False
    return True


def cartan_matrix(g: int) -> list:
    """Cartan integers <alpha_j, alpha_i^vee> for the C_g simple roots."""
    simple = []
    for i in range(g - 1):
        r = [0] * g
        r[i], r[i + 1] = 1, -1
        simple.append(tuple(r))
    r = [0] * g
    r[g - 1] = 2
    simple.append(tuple(r))

    def ip(x, y):
        return sum(a * b for a, b in zip(x, y))

    out = []
    for ai in simple:
        co = tuple(Fraction(2 * c, ip(ai, ai)) for c in ai)
        out.append([int(ip(co, aj)) for aj in simple])
    return out


def section_coefficient_solutions(n: int) -> tuple:
    """Solutions of the section-coefficient system over the rationals.

    The per-coordinate cubic c^3 = c forces each coefficient into
    {-1, 0, 1}, and the quartic sum counting its nonzero entries then
    pins exactly one of them to +-1, so there are exactly 2n solutions.
    """
    out = []
    for cand in product((-1, 0, 1), repeat=n):
        if all(c ** 3 == c for c in cand) and sum(c ** 4 for c in cand) == 1:
            out.append(cand)
    assert len(out) == 2 * n
    return tuple(out)


# ---------------------------------------------------------------------------
# test-side peeling oracle: greedy peeling over every weight
# ---------------------------------------------------------------------------

def decompose_full(g: int, full: dict) -> Decomposition:
    """Greedy peeling of a full-torus character that subtracts the full
    Weyl-orbit character of each irreducible (irr_character, weyl_orbit)
    instead of its dominant part; raises NotACharacter on a negative
    multiplicity or a residue with no dominant weight."""
    rest = {w: m for w, m in full.items() if m}
    out = Decomposition()
    while rest:
        dominants = [w for w in rest if is_dominant(w)]
        if not dominants:
            raise NotACharacter("residue has no dominant weight")
        lam = max(dominants)
        c = rest[lam]
        if c < 0:
            raise NotACharacter(f"negative multiplicity {c} at {lam}")
        vec_axpy(rest, irr_character(g, lam), -c)
        if any(m < 0 for m in rest.values()):
            raise NotACharacter(f"peeling V_{strip_weight(lam)} left negative multiplicities")
        out.append(Summand(lam, c))
    return out


def rand_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 5))


def rand_int(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, 4)


@lru_cache(maxsize=None)
def lyndon_words(g: int, m: int) -> tuple:
    """All Lyndon words of length m over 2g letters, in lexicographic order."""
    return tuple(iter_lyndon(g, m))


def lyndon_words_by_filter(g: int, m: int) -> tuple:
    """All Lyndon words of length m over 2g letters, in lexicographic
    order, by testing every word of length m with is_lyndon: no Duval
    walk, no run."""
    return tuple(w for w in product(range(2 * g), repeat=m) if is_lyndon(w))


def random_lie(g: int, m: int, rng: random.Random, terms: int = 3, coeff=rand_frac) -> LieElement:
    words = lyndon_words(g, m)
    coords = {}
    for _ in range(terms):
        coords[rng.choice(words)] = coeff(rng)
    return LieElement(g, m, coords)


def two_pass_word_split(g: int, m: int) -> tuple:
    """(pivot_words, rep_words) by filtering every Lyndon word for the
    factor a1 b1, then every word for membership in that set."""
    words = lyndon_words(g, m)
    pivot_words = {w for w in words if (0, 1) in zip(w, w[1:])}
    return pivot_words, tuple(w for w in words if w not in pivot_words)


def words_by_weight(g: int, m: int) -> dict:
    """Torus weight -> (reps, pivots), the ascending rep and pivot words of
    that weight, by filtering the degree-wide two_pass_word_split."""
    pivot_words = two_pass_word_split(g, m)[0]
    out: dict = {}
    for w in lyndon_words(g, m):
        out.setdefault(word_weight(w, g), ([], []))[w in pivot_words].append(w)
    return out


def inner_preimage_by_filter(d) -> PElement | None:
    """inner_preimage by elimination: the kernel of the columns ad(w) for
    every representative word w of the weights d touches, followed by d."""
    g = d.g
    m = d.degree
    kv = d.coords
    if not kv:
        return PElement(g, m)
    needed = {hom_key_weight(g, key) for key in kv}
    candidates = [w for w in p_basis(g, m).rep_words if word_weight(w, g) in needed]
    columns = [ad_derivation(PElement(g, m, {w: 1})).coords for w in candidates]
    ker = kernel_basis(columns + [kv])
    n = len(candidates)
    if not ker or n not in ker[-1]:
        return None
    scale = -Fraction(ker[-1][n])
    z = PElement(g, m, {candidates[j]: exact(c / scale) for j, c in ker[-1].items() if j != n})
    assert ad_derivation(z).coords == kv
    return z


def random_p(g: int, m: int, rng: random.Random, terms: int = 3, coeff=rand_frac) -> PElement:
    reps = p_basis(g, m).rep_words
    coords = {}
    for _ in range(terms):
        coords[rng.choice(reps)] = coeff(rng)
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
    """F(s).act(gen) == F(s.act(gen)) for F in {phi, phi_prime, pi, p}."""
    rng = random.Random(seed)
    for case in range(cases):
        g = rng.choice((2, 3))
        gen = rng.choice(sp_generator_ids(g))
        which = case % 4
        if which == 0:
            s = random_sym(g, rng, 2)
            assert phi(s).act(gen) == phi(s.act(gen)), f"phi case {case}"
        elif which == 1:
            t = random_wedge(g, 3, rng, 2)
            assert phi_prime(t).act(gen) == phi_prime(t.act(gen)), f"phi' case {case}"
        elif which == 2:
            s = random_sym(g, rng, 2)
            assert pi_map(s).act(gen) == pi_map(s.act(gen)), f"pi case {case}"
        else:
            w = random_wedge(g, 2, rng, 2)
            assert p_split(w).act(gen) == p_split(w.act(gen)), f"p case {case}"
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
    """Every module character built over the full torus and random
    irreducible characters are invariant under coordinate permutations and
    sign flips, and their dominant parts are the chamber characters."""
    rng = random.Random(seed)
    done = 0
    for g in (2, 3):
        for name, deg in _MODULE_LIST:
            full = full_character(g, name, deg)
            assert is_weyl_symmetric(full), (g, name, deg)
            assert chamber(g, full) == module_character(g, name, deg), (g, name, deg)
            done += 1
    while done < cases:
        g = rng.choice((2, 3, 4))
        lam = random_partition(g, rng)
        full = irr_character(g, pad_partition(lam, g))
        assert is_weyl_symmetric(full), lam
        assert chamber(g, full).mass() == weyl_dim(g, lam), lam
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
        dec = decompose(chamber(g, mult))
        assert dec.total_dim(g) == want
        done += 1
    return done


# ---------------------------------------------------------------------------
# wedge and symmetric-square keys expanded into tensors
# ---------------------------------------------------------------------------

def inversion_sign(perm) -> int:
    """(-1) to the number of inverted pairs of the sequence."""
    return (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))


def _tensor_add(out: Counter, t: dict, c=1) -> None:
    for key, v in t.items():
        out[key] += c * v


def _nonzero(t: Counter) -> dict:
    return {key: v for key, v in t.items() if v}


def alternating_tensor(letters, c=1) -> dict:
    """c * (l1 ^ ... ^ lk) as the sum over permutations of sign times the
    permuted tensor; the terms cancel when a letter repeats."""
    out = Counter()
    for perm in permutations(range(len(letters))):
        out[tuple(letters[i] for i in perm)] += c * inversion_sign(perm)
    return _nonzero(out)


def symmetric_tensor(p, q, c=1) -> dict:
    """c * (p1^p2)(q1^q2) as c * (A(p) x A(q) + A(q) x A(p)), A the
    alternating tensor, for letter pairs in any order."""
    out = Counter()
    for s, t in ((p, q), (q, p)):
        for ks, vs in alternating_tensor(s).items():
            for kt, vt in alternating_tensor(t).items():
                out[ks + kt] += c * vs * vt
    return _nonzero(out)


def wedge_as_tensor(w: WedgeElement) -> dict:
    out = Counter()
    for key, c in w.coords.items():
        _tensor_add(out, alternating_tensor(key, c))
    return _nonzero(out)


def sym_as_tensor(s: Sym2Lambda2) -> dict:
    out = Counter()
    for (p, q), c in s.coords.items():
        _tensor_add(out, symmetric_tensor(p, q, c))
    return _nonzero(out)


def tensor_act(g: int, gen: tuple, t: dict) -> dict:
    """The Chevalley generator gen on a tensor of letters, slot by slot."""
    table = letter_action(g, gen)
    out = Counter()
    for key, c in t.items():
        for slot, letter in enumerate(key):
            for image, coeff in table.get(letter, {}).items():
                out[key[:slot] + (image,) + key[slot + 1:]] += c * coeff
    return _nonzero(out)


def run_key_normal_forms(cases: int, seed: int = 20246) -> int:
    """WedgeElement.term, sym_mul, lambda4_embed and the act of both
    element types against their tensor expansions, on random letter
    tuples with repeated letters allowed."""
    rng = random.Random(seed)
    for case in range(cases):
        g = rng.choice((2, 3))
        gen = rng.choice(sp_generator_ids(g))
        letters = tuple(rng.randrange(2 * g) for _ in range(rng.randint(2, 4)))
        c = rand_frac(rng)
        w = WedgeElement.term(g, letters, c)
        assert all(list(key) == sorted(set(key)) for key in w.coords), f"wedge key case {case}"
        assert wedge_as_tensor(w) == alternating_tensor(letters, c), f"wedge case {case}"
        assert wedge_as_tensor(w.act(gen)) == tensor_act(g, gen, wedge_as_tensor(w)), f"wedge act case {case}"
        if len(letters) == 4:
            want = Counter()
            v1, v2, v3, v4 = letters
            for p, q in (((v1, v2), (v3, v4)), ((v1, v3), (v4, v2)), ((v1, v4), (v2, v3))):
                _tensor_add(want, symmetric_tensor(p, q, c))
            assert sym_as_tensor(lambda4_embed(w)) == _nonzero(want), f"lambda4 case {case}"
        pairs = [tuple(rng.randrange(2 * g) for _ in range(2)) for _ in range(4)]
        coeffs = [rand_frac(rng) for _ in range(4)]
        u = WedgeElement.term(g, pairs[0], coeffs[0]) + WedgeElement.term(g, pairs[1], coeffs[1])
        v = WedgeElement.term(g, pairs[2], coeffs[2]) + WedgeElement.term(g, pairs[3], coeffs[3])
        s = sym_mul(u, v)
        assert all(p < q and r < t and (p, q) <= (r, t) for (p, q), (r, t) in s.coords), f"sym key case {case}"
        want = Counter()
        for i in (0, 1):
            for j in (2, 3):
                _tensor_add(want, symmetric_tensor(pairs[i], pairs[j], coeffs[i] * coeffs[j]))
        assert sym_as_tensor(s) == _nonzero(want), f"sym case {case}"
        assert sym_as_tensor(s.act(gen)) == tensor_act(g, gen, sym_as_tensor(s)), f"sym act case {case}"
    return cases


ALL_SUITES = {
    "jacobi-antisymmetry": run_jacobi_antisymmetry,
    "sp-equivariance": run_equivariance,
    "weyl-symmetry": run_weyl_symmetry,
    "rank-nullity": run_rank_nullity,
    "reduce-lift": run_reduce_lift,
    "decomposition-mass": run_decomposition_mass,
}
