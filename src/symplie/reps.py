"""Symplectic group representation theory with exact arithmetic.

Torus weights live in the epsilon-basis as integer g-tuples; a_i carries
weight +e_i and b_i carries -e_i.  Irreducible characters come from the
Freudenthal recursion (exact rationals, asserted integral), dimensions
from the Weyl formula, and module characters come from closed forms
(Brandt's equivariant Witt formula for the free Lie algebra, Labute's
one-relator formula for the quotient) with no basis word enumerated,
except sym2lambda2, which is read off its basis words.  Characters decompose
by greedy peeling at the lexicographically largest dominant weight; the
peeling reads only the dominant chamber (one weight per Weyl orbit, orbit
sizes in closed form), so nothing in it enumerates a Weyl orbit.

The Chevalley generators e_i, f_i, h_i act on letters by the fixed
convention of :func:`symplie.freelie.letter_action`; each module element
type carries the action as its own ``act(gen)`` method and the torus
weight of its coordinate keys as ``key_weight(key)``, which is all the
submodule closures here use.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import factorial

from .freelie import mobius, word_weight
from .linalg import EchelonSpan, SparseElement, kernel_basis, vec_axpy
from .surface import PElement, _check_degree, degree_cap


class NotACharacter(ValueError):
    """Greedy peeling hit a negative multiplicity or a non-dominant residue."""


# ---------------------------------------------------------------------------
# weights, roots, dimensions
# ---------------------------------------------------------------------------

def pad_partition(lam, g: int) -> tuple:
    lam = tuple(lam)
    if len(lam) > g:
        raise ValueError(f"partition {lam} has more than {g} parts")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or any(c < 0 for c in lam):
        raise ValueError(f"{lam} is not a partition")
    return lam + (0,) * (g - len(lam))


def strip_weight(w) -> tuple:
    w = tuple(w)
    while w and w[-1] == 0:
        w = w[:-1]
    return w


def dominant_rep(w) -> tuple:
    """The dominant Weyl-chamber representative: sorted absolute values."""
    return tuple(sorted((abs(c) for c in w), reverse=True))


@lru_cache(maxsize=None)
def positive_roots(g: int) -> tuple:
    roots = []
    for i in range(g):
        for j in range(i + 1, g):
            r = [0] * g
            r[i], r[j] = 1, -1
            roots.append(tuple(r))
            r = [0] * g
            r[i], r[j] = 1, 1
            roots.append(tuple(r))
    for i in range(g):
        r = [0] * g
        r[i] = 2
        roots.append(tuple(r))
    return tuple(roots)


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
    """Dimension of the irreducible with highest weight lam, Weyl formula."""
    lam = pad_partition(lam, g)
    rho = _rho(g)
    lr = tuple(a + b for a, b in zip(lam, rho))
    num, den = 1, 1
    for a in positive_roots(g):
        num *= _ip(lr, a)
        den *= _ip(rho, a)
    assert num % den == 0
    return num // den


def _dominant_support(g: int, lam: tuple) -> tuple:
    """All dominant weights mu with lam - mu in the positive root cone."""
    out = []

    def rec(prefix, remaining_slots, prev, partial):
        k = len(prefix)
        if remaining_slots == 0:
            if partial % 2 == 0:
                out.append(tuple(prefix))
            return
        # mu_k <= prev (dominance) and partial sum condition
        hi = min(prev, partial + lam[k])
        for c in range(hi, -1, -1):
            rec(prefix + [c], remaining_slots - 1, c, partial + lam[k] - c)

    rec([], g, lam[0], 0)
    return tuple(out)


@lru_cache(maxsize=None)
def _freudenthal_mult(g: int, lam: tuple, mu: tuple) -> int:
    """Multiplicity of the dominant weight mu in the irreducible lam."""
    if mu == lam:
        return 1
    if not in_cone(lam, mu):
        return 0
    rho = _rho(g)
    lr = tuple(a + b for a, b in zip(lam, rho))
    mr = tuple(a + b for a, b in zip(mu, rho))
    denom = _ip(lr, lr) - _ip(mr, mr)
    if denom <= 0:
        return 0
    total = 0
    for a in positive_roots(g):
        k = 1
        while True:
            nu = tuple(m + k * c for m, c in zip(mu, a))
            dnu = dominant_rep(nu)
            if not in_cone(lam, dnu):
                break
            m = _freudenthal_mult(g, lam, dnu)
            if m:
                total += m * _ip(nu, a)
            k += 1
    val = Fraction(2 * total, denom)
    if val.denominator != 1:
        raise ArithmeticError(f"non-integral multiplicity for {lam} at {mu}")
    return int(val)


def orbit_size(w) -> int:
    """Size of the Weyl orbit of w: 2^(#nonzero) g! / prod_k (#{i: |w_i| = k})!."""
    counts: dict = {}
    for c in w:
        counts[abs(c)] = counts.get(abs(c), 0) + 1
    size = factorial(len(w)) << (len(w) - counts.get(0, 0))
    for n in counts.values():
        size //= factorial(n)
    return size


@lru_cache(maxsize=None)
def dominant_character(g: int, lam: tuple) -> dict:
    """Character of the irreducible V_lam on the dominant chamber:
    dominant weight -> multiplicity (each stands for its whole orbit)."""
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
    """Formal torus character: sparse integer multiplicities by weight."""

    __slots__ = ("g",)

    def __init__(self, g: int, coords: dict | None = None):
        self.g = g
        self.coords = {w: m for w, m in (coords or {}).items() if m}

    def space(self) -> tuple:
        return (self.g,)

    @classmethod
    def from_words(cls, g: int, words) -> "Character":
        return cls(g, Counter(word_weight(w, g) for w in words))

    def mass(self) -> int:
        return sum(self.coords.values())

    def dominant_coords(self) -> dict:
        """The multiplicities of the dominant weights, after checking that
        every weight carries its dominant representative's multiplicity and
        that each such class is a whole Weyl orbit (no orbit is enumerated)."""
        classes: dict = {}
        for w, m in self.coords.items():
            d = dominant_rep(w)
            if self.coords.get(d) != m:
                raise NotACharacter(f"not Weyl-symmetric: {w} and {d} differ")
            classes[d] = classes.get(d, 0) + 1
        for d, n in classes.items():
            if n != orbit_size(d):
                raise NotACharacter(
                    f"not Weyl-symmetric: {n} of the {orbit_size(d)} weights in the orbit of {d}"
                )
        return {d: self.coords[d] for d in classes}


class Summand:
    """One isotypic summand: a partition, a multiplicity, an optional twist tag."""

    __slots__ = ("partition", "multiplicity", "twist")

    def __init__(self, partition, multiplicity: int, twist: int | None = None):
        self.partition = strip_weight(partition)
        self.multiplicity = multiplicity
        self.twist = twist

    def __eq__(self, other):
        return (
            isinstance(other, Summand)
            and self.partition == other.partition
            and self.multiplicity == other.multiplicity
            and self.twist == other.twist
        )

    def __hash__(self):
        return hash((self.partition, self.multiplicity, self.twist))

    def __repr__(self):
        s = "[" + ",".join(str(c) for c in self.partition) + "]"
        if self.multiplicity != 1:
            s = f"{self.multiplicity}*{s}"
        if self.twist:
            s += f"({self.twist})"
        return s


class Decomposition(list):
    """List of Summands, in peeling order (lex-descending highest weights)."""

    def total_dim(self, g: int) -> int:
        return sum(s.multiplicity * weyl_dim(g, s.partition) for s in self)

    def __repr__(self):
        return " + ".join(repr(s) for s in self) or "0"


def decompose(char: Character) -> Decomposition:
    """Greedy peeling into irreducibles, on the dominant chamber.

    Repeatedly subtracts the dominant multiplicities of the irreducible at
    the lexicographically largest dominant weight present; raises
    NotACharacter if the input is not Weyl-symmetric or if peeling leaves
    a negative multiplicity.
    """
    g = char.g
    rest = char.dominant_coords()
    out = Decomposition()
    while rest:
        lam = max(rest)
        c = rest[lam]
        if c < 0:
            raise NotACharacter(f"negative multiplicity {c} at {lam}")
        vec_axpy(rest, dominant_character(g, lam), -c)
        if any(m < 0 for m in rest.values()):
            raise NotACharacter(f"peeling V_{strip_weight(lam)} left negative multiplicities")
        out.append(Summand(lam, c))
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


def twist_tags(dec: Decomposition, module: str, degree: int) -> Decomposition:
    """The summands of dec tagged with their Tate twist, read off the GSp
    weight of the module (-4 for sym2lambda2, 1 - degree for hom, -degree
    otherwise); a summand whose size has the wrong parity stays untagged."""
    weight = {"sym2lambda2": -4, "hom": 1 - degree}.get(module, -degree)
    out = Decomposition()
    for s in dec:
        total = sum(s.partition) + weight
        out.append(Summand(s.partition, s.multiplicity, -total // 2 if total % 2 == 0 else None))
    return out


def _shift_into(out: dict, f: dict, i: int, s: int) -> None:
    """out += f with every weight moved by s in its i-th coordinate."""
    for w, m in f.items():
        v = w[:i] + (w[i] + s,) + w[i + 1:]
        out[v] = out.get(v, 0) + m


def _times_chi(g: int, f: dict) -> dict:
    """chi * f, where chi = sum_i (x_i + 1/x_i) is the character of H."""
    out: dict = {}
    for i in range(g):
        _shift_into(out, f, i, 1)
        _shift_into(out, f, i, -1)
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
    out = {}
    for w, n in total.items():
        q, r = divmod(n, m)
        if r:
            raise ArithmeticError(f"formula misapplied: {n} at {w} not divisible by {m}")
        out[w] = q
    return Character(g, out)


def module_character(g: int, module: str, degree: int | None = None) -> Character:
    """Exact torus character of a named module, in closed form.

    Module names: L, p, hom (= Hom(H, p(degree))), sym2lambda2, lambda_k
    (degree = k), der, outder.  With chi = sum_i (x_i + 1/x_i) the
    character of H and psi^d scaling every weight by d:

    - L(m) = (1/m) sum_{d|m} mu(d) psi^d(chi^(m/d)), Brandt's equivariant
      Witt formula (Trans. AMS 56, 1944);
    - p(m) = (1/m) sum_{d|m} mu(d) psi^d(s_(m/d)) with s_0 = 2, s_1 = chi,
      s_k = chi s_(k-1) - s_(k-2), Labute's one-relator formula (J. Algebra
      14, 1970): U(p) has character 1/(1 - chi t + t^2);
    - hom(n) = chi p(n); der(n) = chi p(n+1) - p(n+2); outder(n) = der(n) - p(n);
    - lambda_k = e_k of the 2g letter weights, one shift per letter;
    - sym2lambda2 is read off its basis words.

    p, hom, der and outder check their degrees against the cap as
    :func:`~symplie.surface.p_basis` does; L needs only g >= 2 and m >= 1.
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
        pairs = list(combinations(range(2 * g), 2))
        return Character.from_words(g, (p + q for p, q in combinations_with_replacement(pairs, 2)))
    if module == "lambda_k":
        if degree < 0:
            raise ValueError("need degree k >= 0")
        # elementary[j] = e_j of the letters taken so far
        elementary = [{(0,) * g: 1}] + [{} for _ in range(degree)]
        for i in range(g):
            for s in (1, -1):
                for j in range(degree, 0, -1):
                    _shift_into(elementary[j], elementary[j - 1], i, s)
        return Character(g, elementary[degree])
    if module == "der":
        from .johnson import der_character

        return der_character(g, degree)
    if module == "outder":
        from .johnson import outer_character

        return outer_character(g, degree)
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
    pairs of a basis of the closure, in the order they were found.

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


def raising_highest_weight_witness(v, g: int, lam) -> object | None:
    """Search U(n+) v for a nonzero highest weight vector of weight lam.

    Closes v under the raising operators only, restricts to the target
    weight, and solves for a joint kernel vector of all e_i.  A witness
    certifies that the submodule generated by v contains V_lam.
    """
    lam = pad_partition(lam, g)
    egens = [("e", i) for i in range(1, g + 1)]
    basis = [x for wt, x in closure_span(v, egens) if wt == lam]
    if not basis:
        return None
    # joint kernel of all raising operators on the lam-weight slice
    columns = [
        {(gi, key): c for gi, gen in enumerate(egens) for key, c in x.act(gen).coords.items()}
        for x in basis
    ]
    for vec in kernel_basis(columns):
        merged: dict = {}
        for j, c in vec.items():
            vec_axpy(merged, basis[j].coords, c)
        if merged:
            return basis[0].rebuild(merged)
    return None
