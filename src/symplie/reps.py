"""Symplectic group representation theory with exact arithmetic.

Torus weights live in the epsilon-basis as integer g-tuples; a_i carries
weight +e_i and b_i carries -e_i.  Irreducible characters come from the
Freudenthal recursion (exact rationals, asserted integral), dimensions
from the Weyl formula, and module characters are read off the explicit
bases, every one of which is a torus weight basis.  Characters decompose
by greedy peeling at the lexicographically largest dominant weight.

The Chevalley generators e_i, f_i, h_i act on letters by the fixed
convention (coroots of e_1-e_2, ..., e_{g-1}-e_g, 2e_g) and extend as
derivations to every registered module type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .freelie import (
    LieElement,
    bracket,
    gen_a,
    gen_b,
    lyndon_words,
    word_weight,
)
from .linalg import EchelonSpan, SparseElement, kernel_basis, vec_axpy
from .surface import PElement, lift, p_basis, p_character, reduce_lie


class NotACharacter(ValueError):
    """Greedy peeling hit a negative multiplicity or a non-dominant residue."""


class UnregisteredModule(TypeError):
    """act() was handed a value of a type with no registered action."""


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


def is_dominant(w) -> bool:
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1)) and w[-1] >= 0


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


@lru_cache(maxsize=None)
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


def weyl_orbit(w: tuple) -> set:
    """All distinct signed permutations of a weight."""
    from itertools import permutations, product

    out = set()
    for perm in set(permutations(w)):
        signs = [(1, -1) if c else (1,) for c in perm]
        for eps in product(*signs):
            out.add(tuple(c * e for c, e in zip(perm, eps)))
    return out


@lru_cache(maxsize=None)
def irr_character(g: int, lam: tuple) -> dict:
    """Full character of the irreducible V_lam as weight -> multiplicity."""
    lam = pad_partition(lam, g)
    char: dict = {}
    for mu in _dominant_support(g, lam):
        m = _freudenthal_mult(g, lam, mu)
        if m:
            for w in weyl_orbit(mu):
                char[w] = m
    return char


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
        coords: dict = {}
        for w in words:
            wt = word_weight(w, g)
            coords[wt] = coords.get(wt, 0) + 1
        return cls(g, coords)

    def mass(self) -> int:
        return sum(self.coords.values())

    def is_weyl_symmetric(self) -> bool:
        for w, m in self.coords.items():
            for v in weyl_orbit(w):
                if self.coords.get(v, 0) != m:
                    return False
        return True


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

    def as_multiset(self) -> dict:
        return {s.partition: s.multiplicity for s in self}

    def __repr__(self):
        return " + ".join(repr(s) for s in self) or "0"


def decompose(char: Character) -> Decomposition:
    """Greedy peeling into irreducibles.

    Repeatedly subtracts the full character of the lexicographically
    largest dominant weight present; raises NotACharacter if that leaves
    a negative multiplicity or a residue with no dominant weight.
    """
    g = char.g
    rest = dict(char.coords)
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


def _hom_h_p_character(g: int, m: int) -> Character:
    """Character of Hom(H, p(m)): basis phi_{letter, word}."""
    mult: dict = {}
    for x in range(2 * g):
        wx = word_weight((x,), g)
        for w in p_basis(g, m).rep_words:
            wt = tuple(a - b for a, b in zip(word_weight(w, g), wx))
            mult[wt] = mult.get(wt, 0) + 1
    return Character(g, mult)


def _lambda_k_character(g: int, k: int) -> Character:
    from itertools import combinations

    mult: dict = {}
    for sub in combinations(range(2 * g), k):
        wt = word_weight(sub, g)
        mult[wt] = mult.get(wt, 0) + 1
    return Character(g, mult)


def _sym2lambda2_character(g: int) -> Character:
    from itertools import combinations, combinations_with_replacement

    pairs = list(combinations(range(2 * g), 2))
    mult: dict = {}
    for p, q in combinations_with_replacement(pairs, 2):
        wt = word_weight(p + q, g)
        mult[wt] = mult.get(wt, 0) + 1
    return Character(g, mult)


def module_character(g: int, module: str, degree: int | None = None) -> Character:
    """Exact torus character of a named module.

    Module names: L, p, hom (= Hom(H, p(degree))), sym2lambda2,
    lambda_k (degree = k), der, outder.
    """
    if module == "L":
        return Character.from_words(g, lyndon_words(g, degree))
    if module == "p":
        return Character(g, p_character(g, degree))
    if module == "hom":
        return _hom_h_p_character(g, degree)
    if module == "sym2lambda2":
        return _sym2lambda2_character(g)
    if module == "lambda_k":
        return _lambda_k_character(g, degree)
    if module == "der":
        from .johnson import der_character

        return der_character(g, degree)
    if module == "outder":
        from .johnson import der_character

        return der_character(g, degree) - Character(g, p_character(g, degree))
    raise ValueError(f"unknown module {module!r}")


# ---------------------------------------------------------------------------
# Chevalley action
# ---------------------------------------------------------------------------

def sp_generator_ids(g: int) -> list:
    out = []
    for kind in ("e", "f", "h"):
        out.extend((kind, i) for i in range(1, g + 1))
    return out


@lru_cache(maxsize=None)
def letter_action(g: int, gen: tuple) -> dict:
    """Action on the 2g letters: letter -> {letter: integer coefficient}."""
    kind, i = gen
    if not 1 <= i <= g:
        raise ValueError(f"generator index {i} outside 1..{g}")
    a, b = gen_a, gen_b
    if kind == "e":
        if i < g:
            return {a(i + 1): {a(i): 1}, b(i): {b(i + 1): -1}}
        return {b(g): {a(g): 1}}
    if kind == "f":
        if i < g:
            return {a(i): {a(i + 1): 1}, b(i + 1): {b(i): -1}}
        return {a(g): {b(g): 1}}
    if kind == "h":
        if i < g:
            return {
                a(i): {a(i): 1},
                a(i + 1): {a(i + 1): -1},
                b(i): {b(i): -1},
                b(i + 1): {b(i + 1): 1},
            }
        return {a(g): {a(g): 1}, b(g): {b(g): -1}}
    raise ValueError(f"unknown generator kind {kind!r}")


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
    out = []
    for ai in simple:
        co = tuple(Fraction(2 * c, _ip(ai, ai)) for c in ai)
        out.append([int(_ip(co, aj)) for aj in simple])
    return out


_ACT_WORD_CACHE: dict = {}


def _act_word(g: int, gen: tuple, w: tuple) -> dict:
    """Lyndon coordinates of gen acting on the basis bracketing of w."""
    key = (g, gen, w)
    out = _ACT_WORD_CACHE.get(key)
    if out is not None:
        return out
    if len(w) == 1:
        out = {(y,): c for y, c in letter_action(g, gen).get(w[0], {}).items()}
    else:
        from .freelie import standard_factorization

        u, v = standard_factorization(w)
        left = bracket(LieElement(g, len(u), _act_word(g, gen, u)), LieElement(g, len(v), {v: 1}))
        right = bracket(LieElement(g, len(u), {u: 1}), LieElement(g, len(v), _act_word(g, gen, v)))
        out = dict(left.coords)
        vec_axpy(out, right.coords, 1)
    _ACT_WORD_CACHE[key] = out
    return out


def act_lie(gen: tuple, x: LieElement) -> LieElement:
    out: dict = {}
    for w, c in x.coords.items():
        vec_axpy(out, _act_word(x.g, gen, w), c)
    return LieElement(x.g, x.degree, out)


def act_p(gen: tuple, x: PElement) -> PElement:
    return reduce_lie(act_lie(gen, lift(x)))


# registry: type -> (act, keyvec, weight-of-key, rebuild); johnson adds its own
_HANDLERS: dict = {}


def register_module(cls, act_fn, key_weight_fn, keyvec_fn=None, rebuild_fn=None) -> None:
    """Register an action; keyvec and rebuild default to the SparseElement
    ``coords`` and ``rebuild``."""
    _HANDLERS[cls] = (
        act_fn,
        keyvec_fn or (lambda x: x.coords),
        key_weight_fn,
        rebuild_fn or SparseElement.rebuild,
    )


register_module(LieElement, act_lie, lambda g, key: word_weight(key, g))
register_module(PElement, act_p, lambda g, key: word_weight(key, g))


def act(gen: tuple, v):
    """Chevalley generator action on any registered module element."""
    h = _HANDLERS.get(type(v))
    if h is None:
        raise UnregisteredModule(f"no action registered for {type(v).__name__}")
    return h[0](gen, v)


def _keyvec(v) -> dict:
    h = _HANDLERS.get(type(v))
    if h is None:
        raise UnregisteredModule(f"no action registered for {type(v).__name__}")
    return h[1](v)


def _key_weight(g: int, v, key) -> tuple:
    return _HANDLERS[type(v)][2](g, key)


def _rebuild(v, coords: dict):
    return _HANDLERS[type(v)][3](v, coords)


def _weight_components(g: int, v) -> list:
    """Split v into torus weight components (each lies in the submodule
    generated by v, by interpolation in the Cartan action)."""
    groups: dict = {}
    for key, c in _keyvec(v).items():
        groups.setdefault(_key_weight(g, v, key), {})[key] = c
    return [(wt, _rebuild(v, part)) for wt, part in groups.items()]


def closure_span(v, g: int, gens: list):
    """Close {v} under the given generators; returns (span, weight->rank).

    Seeds with the weight components of v, so every inserted vector is a
    weight vector and the span rank per weight is the subspace character.
    """
    span = EchelonSpan()
    queue = []
    char: dict = {}
    objs = []
    for wt, comp in _weight_components(g, v):
        if span.insert(_keyvec(comp)) is not None:
            queue.append((wt, comp))
            objs.append((wt, comp))
            char[wt] = char.get(wt, 0) + 1
    while queue:
        wt, x = queue.pop()
        for gen in gens:
            y = act(gen, x)
            kv = _keyvec(y)
            if not kv:
                continue
            if span.insert(kv) is not None:
                ywt = _key_weight(g, y, next(iter(kv)))
                queue.append((ywt, y))
                objs.append((ywt, y))
                char[ywt] = char.get(ywt, 0) + 1
    return span, char, objs


def submodule_character(v, g: int) -> Character:
    _, char, _ = closure_span(v, g, sp_generator_ids(g))
    return Character(g, char)


def submodule_decomposition(v, g: int) -> Decomposition:
    """Character decomposition of the sp-submodule generated by v."""
    if _keyvec(v) == {}:
        raise ValueError("need v != 0")
    return decompose(submodule_character(v, g))


def raising_highest_weight_witness(v, g: int, lam) -> object | None:
    """Search U(n+) v for a nonzero highest weight vector of weight lam.

    Closes v under the raising operators only, restricts to the target
    weight, and solves for a joint kernel vector of all e_i.  A witness
    certifies that the submodule generated by v contains V_lam.
    """
    lam = pad_partition(lam, g)
    egens = [("e", i) for i in range(1, g + 1)]
    _, _, objs = closure_span(v, g, egens)
    basis = [x for wt, x in objs if wt == lam]
    if not basis:
        return None
    # joint kernel of all raising operators on the lam-weight slice
    columns = [
        {(gi, key): c for gi, gen in enumerate(egens) for key, c in _keyvec(act(gen, x)).items()}
        for x in basis
    ]
    for vec in kernel_basis(columns):
        merged: dict = {}
        for j, c in vec.items():
            vec_axpy(merged, _keyvec(basis[j]), c)
        if merged:
            return _rebuild(basis[0], merged)
    return None
