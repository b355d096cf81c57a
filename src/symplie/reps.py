"""Symplectic group representation theory with exact arithmetic.

Torus weights live in the epsilon-basis as integer g-tuples; a_i carries
weight +e_i and b_i carries -e_i.  Irreducible characters come from the
Freudenthal recursion (exact rationals, asserted integral), dimensions
from the Weyl formula.  Every character lives on the dominant chamber: a
dominant weight mu stands for its orbit sum m_mu, the sum of x^w over the
Weyl orbit of mu, whose size comes in closed form, so nothing here
enumerates a Weyl orbit.  Module characters come from closed forms
(Brandt's equivariant Witt formula for the free Lie algebra, Labute's
one-relator formula for the quotient and the derivation spaces, binomial
counts for exterior powers, power sums for the symmetric square of
wedge-squared H) with no basis word enumerated.  Characters decompose by
greedy peeling at the lexicographically largest dominant weight, into
plain (partition, multiplicity) pairs; :func:`twist` gives a summand's
Tate twist, and :mod:`symplie.cli` renders the tables.

The Chevalley generators e_i, f_i, h_i act on letters by the fixed
convention of :func:`symplie.freelie.letter_action`; each module element
type (quotient, wedge, Sym^2 wedge^2 and Hom elements) carries the action
as its own ``act(gen)`` method and the torus weight of its coordinate keys
as ``key_weight(key)``, which is all the submodule closures here use.
Free Lie elements carry no action: ``module_character(g, "L", m)`` gives
the Sp(2g) structure of the free Lie algebra in closed form.

The weights of words (:func:`word_weight`), the Moebius function of the
Witt, Brandt and Labute formulas and the degree cap
(``SYMPLIE_DEGREE_CAP``) live here too, so the characters load with
nothing but :mod:`symplie.linalg`; the free Lie algebra, the quotient
and the derivations read them from this module.
"""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from math import comb, factorial, gcd

from .linalg import EchelonSpan, SparseElement, nonzero, vec_axpy


class NotACharacter(ValueError):
    """A character keyed by a non-dominant weight, or a greedy peeling that
    hit a negative multiplicity."""


# ---------------------------------------------------------------------------
# the degree cap
# ---------------------------------------------------------------------------

DEFAULT_DEGREE_CAP = 6
_CAP_KEY = os.environ.encodekey("SYMPLIE_DEGREE_CAP")


# the raw value of the variable parsed last (None when unset) and its cap
_cap_parsed = (None, DEFAULT_DEGREE_CAP)


def degree_cap() -> int:
    """Largest degree the quotient machinery will build (env-overridable).

    Raises ValueError naming SYMPLIE_DEGREE_CAP if it is not an integer >= 1.
    The variable is read on every call from os.environ's own dict
    (os.environ.get raises and catches a KeyError when it is unset) and
    parsed again only when its raw value differs from the one parsed last;
    a value that does not parse is never kept, so it raises on every call.
    """
    global _cap_parsed
    raw = os.environ._data.get(_CAP_KEY)
    last, cap = _cap_parsed
    if raw != last:
        cap = _parse_degree_cap(raw)
        _cap_parsed = (raw, cap)
    return cap


def _parse_degree_cap(raw) -> int:
    if raw is None:
        return DEFAULT_DEGREE_CAP
    raw = os.environ.decodevalue(raw)
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"SYMPLIE_DEGREE_CAP must be an integer >= 1, got {raw!r}")
    return cap


def _check_degree(g: int, m: int) -> None:
    if g < 2:
        raise ValueError("need genus g >= 2")
    if m < 1:
        raise ValueError("need degree m >= 1")
    cap = degree_cap()
    if m > cap:
        raise ValueError(f"degree {m} exceeds cap {cap}")


# ---------------------------------------------------------------------------
# weights, roots, dimensions
# ---------------------------------------------------------------------------

def word_weight(w: tuple, g: int) -> tuple:
    """Torus weight of a word: a_i contributes +e_i, b_i contributes -e_i."""
    wt = [0] * g
    for x in w:
        wt[x // 2] += 1 if x % 2 == 0 else -1
    return tuple(wt)


def mobius(n: int) -> int:
    if n == 1:
        return 1
    mu, d, rest = 1, 2, n
    while d * d <= rest:
        if rest % d == 0:
            rest //= d
            if rest % d == 0:
                return 0
            mu = -mu
        d += 1
    if rest > 1:
        mu = -mu
    return mu


def pad_partition(lam, g: int) -> tuple:
    lam = tuple(lam)
    if len(lam) > g:
        raise ValueError(f"partition {lam} has more than {g} parts")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or any(c < 0 for c in lam):
        raise ValueError(f"{lam} is not a partition")
    return lam + (0,) * (g - len(lam))


def strip_weight(w) -> tuple:
    """w as a tuple without its trailing zeros."""
    w = tuple(w)
    n = len(w)
    while n and w[n - 1] == 0:
        n -= 1
    return w[:n]


def dominant_rep(w) -> tuple:
    """The dominant Weyl-chamber representative: sorted absolute values."""
    return tuple(sorted(map(abs, w), reverse=True))


def _rho(g: int) -> tuple:
    return tuple(range(g, 0, -1))


def _ip(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


def in_cone(lam: tuple, mu: tuple) -> bool:
    """True if lam - mu is a nonnegative integer sum of simple roots."""
    s = 0
    for i in range(len(lam)):
        s += lam[i] - mu[i]
        if s < 0:
            return False
    return s % 2 == 0


def weyl_dim(g: int, lam) -> int:
    """Dimension of the irreducible with highest weight lam, Weyl formula:
    the product over the positive roots of <lam + rho, a> / <rho, a>, the
    roots e_i -+ e_j (i < j) taken in pairs and the 2e_i halved."""
    lam = pad_partition(lam, g)
    rho = _rho(g)
    lr = tuple(a + b for a, b in zip(lam, rho))
    num, den = 1, 1
    # a row with lam_i = 0 has lam_j = 0 for j > i too, so its factors are 1;
    # each factor a / b is cancelled against den and num before multiplying
    for i in range(len(strip_weight(lam))):
        pairs = ((lr[i] ** 2 - lr[j] ** 2, rho[i] ** 2 - rho[j] ** 2) for j in range(i + 1, g))
        for a, b in chain([(lr[i], rho[i])], pairs):
            p, q = gcd(a, den), gcd(num, b)
            num, den = num // q * (a // p), den // p * (b // q)
    assert num % den == 0
    return num // den


def _dominant_support(g: int, lam: tuple) -> tuple:
    """All dominant weights mu with lam - mu in the positive root cone."""
    out = []
    # depth first with an explicit stack (one level per coordinate, so no
    # recursion limit at large g); pushing c ascending pops it descending.
    # A node (k, prev, partial) writes its prefix's last entry prev to
    # mu[k - 1]; only its descendants pop before its siblings, and they
    # write from mu[k] on, so the prefix is never copied before a leaf
    mu = [0] * g
    stack = [(0, lam[0], 0)]
    while stack:
        k, prev, partial = stack.pop()
        if k:
            mu[k - 1] = prev
        if k == g:
            if partial % 2 == 0:
                out.append(tuple(mu))
            continue
        # mu_k <= prev (dominance) and partial sum condition
        for c in range(min(prev, partial + lam[k]) + 1):
            stack.append((k + 1, c, partial + lam[k] - c))
    return tuple(out)


def _string_sum(g: int, lam: tuple, mu: tuple, moves: tuple) -> int:
    """sum over k >= 1 of m(mu + k a) <mu + k a, a> in the irreducible lam,
    for the root a = sum of s e_i over the pairs (i, s) in moves."""
    total = 0
    for k in count(1):
        nu = list(mu)
        for i, s in moves:
            nu[i] += k * s
        dnu = dominant_rep(nu)
        if not in_cone(lam, dnu):
            return total
        m = _freudenthal_mult(g, lam, dnu)
        if m:
            total += m * sum(nu[i] * s for i, s in moves)


@lru_cache(maxsize=None)
def _freudenthal_mult(g: int, lam: tuple, mu: tuple) -> int:
    """Multiplicity of the dominant weight mu in the irreducible lam.

    mu lies in the root cone below lam (both callers see to it), so the
    denominator |lam + rho|^2 - |mu + rho|^2 is positive for mu != lam
    (Humphreys 13.4, Lemma C).  The positive roots 2e_i, e_i - e_j and
    e_i + e_j (i < j) are summed in classes: roots that move equal entries
    of mu give equal terms, so each class is evaluated once at its first
    position and counted."""
    if mu == lam:
        return 1
    rho = _rho(g)
    lr = tuple(a + b for a, b in zip(lam, rho))
    mr = tuple(a + b for a, b in zip(mu, rho))
    denom = _ip(lr, lr) - _ip(mr, mr)
    runs = {c: (mu.index(c), mu.count(c)) for c in set(mu)}  # mu is descending
    total = 0
    for x, (i, nx) in runs.items():
        total += nx * _string_sum(g, lam, mu, ((i, 2),))
        for y, (j, ny) in runs.items():
            if y < x:
                n = nx * ny
            elif y == x and nx > 1:
                n, j = nx * (nx - 1) // 2, i + 1
            else:
                continue
            for s in (1, -1):
                total += n * _string_sum(g, lam, mu, ((i, 1), (j, s)))
    val = Fraction(2 * total, denom)
    if val.denominator != 1:
        raise ArithmeticError(f"non-integral multiplicity for {lam} at {mu}")
    return int(val)


def orbit_size(w) -> int:
    """Size of the Weyl orbit of w: 2^(#nonzero) g! / prod_k (#{i: |w_i| = k})!."""
    counts = Counter(map(abs, w))
    size = factorial(len(w)) << (len(w) - counts[0])
    for n in counts.values():
        size //= factorial(n)
    return size


def dominant_character(g: int, lam: tuple) -> dict:
    """Character of the irreducible V_lam on the dominant chamber:
    dominant weight -> multiplicity (each stands for its whole orbit), in
    a fresh dict on each call."""
    lam = pad_partition(lam, g)
    out: dict = {}
    for mu in _dominant_support(g, lam):
        m = _freudenthal_mult(g, lam, mu)
        if m:
            out[mu] = m
    return out


# ---------------------------------------------------------------------------
# characters and decompositions
# ---------------------------------------------------------------------------

class Character(SparseElement):
    """A Weyl-invariant torus character on the dominant chamber: coords map
    each dominant weight mu to the multiplicity shared by its whole orbit,
    so the character is sum_mu coords[mu] m_mu.  A non-dominant key raises
    NotACharacter."""

    __slots__ = ("g",)

    def __init__(self, g: int, coords: dict | None = None):
        self._adopt(g, nonzero(coords))

    def _adopt(self, g: int, coords: dict) -> None:
        """Checks every key, on both construction paths."""
        for w in coords:
            if w != dominant_rep(w):
                raise NotACharacter(f"{w} is not a dominant weight")
        self.g = g
        self.coords = coords

    def space(self) -> tuple:
        return (self.g,)

    def mass(self) -> int:
        """The dimension: each multiplicity times its orbit's size."""
        return sum(m * orbit_size(w) for w, m in self.coords.items())


def decompose(char: Character) -> list:
    """Greedy peeling into irreducibles, on the dominant chamber: the
    (partition, multiplicity) pairs in peeling order, each partition
    stripped of its trailing zeros.

    Repeatedly subtracts the dominant multiplicities of the irreducible at
    the lexicographically largest dominant weight present; raises
    NotACharacter if peeling leaves a negative multiplicity (a
    non-dominant weight is refused earlier, by the Character itself).
    """
    g = char.g
    rest = dict(char.coords)
    out = []
    while rest:
        lam = max(rest)
        c = rest[lam]
        if c < 0:
            raise NotACharacter(f"negative multiplicity {c} at {lam}")
        vec_axpy(rest, dominant_character(g, lam), -c)
        if any(m < 0 for m in rest.values()):
            raise NotACharacter(f"peeling V_{strip_weight(lam)} left negative multiplicities")
        out.append((strip_weight(lam), c))
    return out


def hom_key_weight(g: int, key: tuple) -> tuple:
    """Torus weight of the hom key (x, w), the map sending the letter x to
    the word w: the weight of w minus the weight of x."""
    x, w = key
    wt = list(word_weight(w, g))
    wt[x // 2] -= 1 if x % 2 == 0 else -1
    return tuple(wt)


MODULES = ("L", "p", "der", "outder", "sym2lambda2", "lambda_k", "hom")


def module_max_degree(g: int, module: str) -> int:
    """Largest degree :func:`module_character` builds for a named module:
    the degree cap, two less for der and outder (they read the quotient
    two degrees up), 2g for lambda_k and 4 for sym2lambda2."""
    cap = degree_cap()
    return {"der": cap - 2, "outder": cap - 2, "lambda_k": 2 * g, "sym2lambda2": 4}.get(module, cap)


def twist(module: str, degree: int, partition) -> int | None:
    """The Tate twist of the summand V_partition of a module, read off the
    GSp weight of the module (-4 for sym2lambda2, 1 - degree for hom,
    -degree otherwise); None if the partition's size has the wrong parity."""
    total = sum(partition) + {"sym2lambda2": -4, "hom": 1 - degree}.get(module, -degree)
    return -total // 2 if total % 2 == 0 else None


def _shift(w: tuple, i: int, s: int) -> tuple:
    """w moved by s in its i-th coordinate."""
    return w[:i] + (w[i] + s,) + w[i + 1:]


def _times_chi(g: int, f: dict, k: int = 1) -> dict:
    """p_k * f on the chamber, where p_k = sum_i (x_i^k + x_i^-k) and p_1 = chi
    is the character of H: m_nu gets, from each m_mu, the number of pairs
    (i, +-) with nu -+ k e_i in the orbit of mu."""
    out: dict = {}
    for mu, m in f.items():
        for nu in {dominant_rep(_shift(mu, i, s)) for i in range(g) for s in (k, -k)}:
            n = sum(dominant_rep(_shift(nu, i, s)) == mu for i in range(g) for s in (k, -k))
            out[nu] = out.get(nu, 0) + m * n
    return {w: m for w, m in out.items() if m}


def _power_sums(g: int, m: int, relator: int) -> list:
    """s_0..s_m, the power sums of the inverse roots of 1 - chi t + relator t^2:
    s_k = chi s_{k-1} - relator s_{k-2}, so chi^k for the free algebra
    (relator 0) and s_0 = 2, s_1 = chi for the surface relation (relator 1)."""
    zero = (0,) * g
    sums = [{zero: 1 + relator}, _times_chi(g, {zero: 1})]
    while len(sums) <= m:
        nxt = _times_chi(g, sums[-1])
        vec_axpy(nxt, sums[-2], -relator)
        sums.append(nxt)
    return sums


def _lie_character(g: int, m: int, sums: list) -> Character:
    """(1/m) sum over d | m of mu(d) psi^d(s_{m/d}), psi^d scaling every
    weight by d: the degree-m part of the graded Lie algebra whose
    enveloping algebra has character exp(sum_k s_k t^k / k)."""
    total: dict = {}
    for d in range(1, m + 1):
        if m % d == 0:
            vec_axpy(total, {tuple(d * c for c in w): n for w, n in sums[m // d].items()}, mobius(d))
    return _divided(g, total, m)


def _divided(g: int, total: dict, m: int) -> Character:
    """The Character total / m, each multiplicity checked divisible by m."""
    for w, n in total.items():
        if n % m:
            raise ArithmeticError(f"formula misapplied: {n} at {w} not divisible by {m}")
    return Character(g, {w: n // m for w, n in total.items()})


def module_character(g: int, module: str, degree: int | None = None) -> Character:
    """Exact character of a named module on the dominant chamber, in closed form.

    Module names: L, p, hom (= Hom(H, p(degree))), sym2lambda2, lambda_k
    (degree = k), der, outder.  With chi = sum_i (x_i + 1/x_i) the
    character of H and psi^d scaling every weight by d (it sends m_mu to
    m_(d mu), so the formulas run on the chamber unchanged):

    - L(m) = (1/m) sum_{d|m} mu(d) psi^d(chi^(m/d)), Brandt's equivariant
      Witt formula (Trans. AMS 56, 1944);
    - p(m) = (1/m) sum_{d|m} mu(d) psi^d(s_(m/d)) with s_0 = 2, s_1 = chi,
      s_k = chi s_(k-1) - s_(k-2), Labute's one-relator formula (J. Algebra
      14, 1970): U(p) has character 1/(1 - chi t + t^2);
    - hom(n) = chi p(n); der(n) = hom(n+1) - p(n+2), as bracketing with theta
      maps onto p(n+2); outder(n) = der(n) - p(n), as the center is trivial;
    - lambda_k = e_k of the 2g letter weights: the weight (1^j, 0^(g-j))
      has multiplicity C(g-j, (k-j)/2) when k - j is even (j letters taken
      alone, (k-j)/2 pairs a_i b_i), and no other dominant weight occurs;
    - sym2lambda2 = (p_1^4 - 2 p_1^2 p_2 + 3 p_2^2 - 2 p_4) / 8 with p_k =
      psi^k(chi), which is (X^2 + psi^2 X) / 2 for X = Lambda2 = (p_1^2 - p_2) / 2.

    p, hom, der and outder check their degrees against the cap as
    :func:`~symplie.surface.p_basis` does, on every call; L needs only
    g >= 2 and m >= 1.
    """
    if module == "L":
        if g < 2 or degree < 1:
            raise ValueError("need g >= 2 and m >= 1")
        return _lie_character(g, degree, _power_sums(g, degree, 0))
    if module == "p":
        _check_degree(g, degree)
        return _lie_character(g, degree, _power_sums(g, degree, 1))
    if module == "hom":
        return Character(g, _times_chi(g, module_character(g, "p", degree).coords))
    if module == "sym2lambda2":
        one, _, p11, _, total = _power_sums(g, 4, 0)  # chi^0 .. chi^4
        for f, k, c in ((p11, 2, -2), (_times_chi(g, one, 2), 2, 3), (one, 4, -2)):
            vec_axpy(total, _times_chi(g, f, k), c)
        return _divided(g, total, 8)
    if module == "lambda_k":
        if degree < 0:
            raise ValueError("need degree k >= 0")
        return Character(g, {(1,) * j + (0,) * (g - j): comb(g - j, (degree - j) // 2)
                             for j in range(degree % 2, min(degree, g) + 1, 2)})
    if module == "der":
        return module_character(g, "hom", degree + 1) - module_character(g, "p", degree + 2)
    if module == "outder":
        return module_character(g, "der", degree) - module_character(g, "p", degree)
    raise ValueError(f"unknown module {module!r}")


# ---------------------------------------------------------------------------
# Chevalley action
# ---------------------------------------------------------------------------

def sp_generator_ids(g: int) -> list:
    out = []
    for kind in ("e", "f", "h"):
        out.extend((kind, i) for i in range(1, g + 1))
    return out


def act_p(gen: tuple, x: PElement) -> PElement:
    return x.act(gen)


def _weight_components(v) -> list:
    """Split v into torus weight components (each lies in the submodule
    generated by v, by interpolation in the Cartan action)."""
    groups: dict = {}
    for key, c in v.coords.items():
        groups.setdefault(v.key_weight(key), {})[key] = c
    return [(wt, v.rebuild(part)) for wt, part in groups.items()]


def closure_span(v, gens: list) -> list:
    """Close {v} under the given generators; returns the (weight, element)
    pairs of a basis of the closure, in the order they were found.  v is
    a quotient, wedge, Sym^2 wedge^2 or Hom element (a derivation acts as
    the Hom element it is).

    Seeds with the weight components of v, so every basis vector is a
    weight vector and the count per weight is the subspace character.
    """
    span = EchelonSpan()
    queue = []
    objs = []
    for wt, comp in _weight_components(v):
        if span.insert(comp.coords) is not None:
            queue.append((wt, comp))
            objs.append((wt, comp))
    while queue:
        wt, x = queue.pop()
        for gen in gens:
            y = x.act(gen)
            kv = y.coords
            if not kv:
                continue
            if span.insert(kv) is not None:
                ywt = y.key_weight(next(iter(kv)))
                queue.append((ywt, y))
                objs.append((ywt, y))
    return objs

