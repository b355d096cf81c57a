"""Equivariant maps into the derivation algebra of the surface quotient.

Implements the quadratic-wedge calculus: the map phi from the symmetric
square of wedge-squared H into Hom(H, degree-3), its degree-1 sibling
phi_prime on wedge-cubed H, the contraction pi and its splitting p, the
highest-part projector, derivation spaces as kernels of the
multiply-by-the-symplectic-class map, and separating Dehn twist images.
The certificates built from them live in :mod:`symplie.claims`.

The calculus stands on two primitives: :func:`_signed_sort`, the normal
form of wedge keys and of both factors of a symmetric-square key, and
:func:`_contract`, the hom x -> sum c * theta(y, x) * v over (y, c, v)
terms, of which phi and phi_prime each build one generator.

Homs and derivations are sparse elements keyed by (letter, word): the
coefficient of a quotient basis word in the column of an H-letter.
Derivation values and theta-images run the quotient's Leibniz rule
(:func:`symplie.surface.quotient_derive`), exact on a derivation as it
kills theta, and every other bracket is :func:`~symplie.surface.p_bracket`,
so nothing here reduces.  An inner derivation's preimage is read off its
a1 and b1 columns (:func:`inner_preimage`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .freelie import (
    is_lyndon,
    is_pivot_word,
    letter_action,
    letter_name,
    sp_form,
    theta,
    theta_partial,
)
from .linalg import SparseElement, exact, kernel_basis, nonzero, vec_axpy
from .reps import _check_degree, hom_key_weight, word_weight
from .surface import PElement, p_basis, p_bracket, quotient_derive


class NotADerivation(ValueError):
    """The homomorphism does not kill the symplectic class."""


# ---------------------------------------------------------------------------
# wedge powers and the symmetric square
# ---------------------------------------------------------------------------

class WedgeElement(SparseElement):
    """Element of the k-th wedge power of H; keys are strictly increasing
    letter tuples."""

    __slots__ = ("g", "k")

    def __init__(self, g: int, k: int, coords: dict | None = None):
        self._adopt(g, k, nonzero(coords))

    def _adopt(self, g: int, k: int, coords: dict) -> None:
        self.g = g
        self.k = k
        self.coords = coords

    def space(self) -> tuple:
        return (self.g, self.k)

    def act(self, gen: tuple) -> "WedgeElement":
        out = _act_letters(self.g, gen, self.coords.items(), _wedge_add)
        return WedgeElement.owning(self.g, self.k, out)

    def key_weight(self, key: tuple) -> tuple:
        return word_weight(key, self.g)

    @classmethod
    def term(cls, g: int, letters, coeff=1) -> "WedgeElement":
        """coeff * (l1 ^ l2 ^ ... ^ lk) for arbitrary letter order."""
        letters = tuple(letters)
        key, sign = _signed_sort(letters)
        return cls(g, len(letters), {key: sign * coeff} if sign else {})

    def __repr__(self):
        parts = [
            f"{c}*{'^'.join(letter_name(x) for x in w)}"
            for w, c in sorted(self.coords.items())
        ]
        return " + ".join(parts) or "0"


@lru_cache(maxsize=None)
def _signed_sort(letters: tuple) -> tuple:
    """(increasing letters, sign of the sorting permutation), or (None, 0)
    when a letter repeats and the wedge vanishes."""
    key = tuple(sorted(letters))
    if len(set(key)) < len(key):
        return None, 0
    return key, (-1) ** sum(x > y for i, x in enumerate(letters) for y in letters[i + 1:])


def _wedge_add(out: dict, letters: tuple, c) -> None:
    """Add c * (l1 ^ ... ^ lk) to out, sorting letters with the sign."""
    key, sign = _signed_sort(letters)
    if sign:
        vec_axpy(out, {key: sign}, c)


def _act_letters(g: int, gen: tuple, terms, add) -> dict:
    """The Chevalley generator gen on a tensor of letters, one letter at a
    time: terms are (letter tuple, coefficient) pairs, and add(out,
    letters, c) puts each substituted tuple into canonical form."""
    table = letter_action(g, gen)
    out: dict = {}
    for letters, c in terms:
        for slot, letter in enumerate(letters):
            for image, coeff in table.get(letter, {}).items():
                add(out, letters[:slot] + (image,) + letters[slot + 1:], c * coeff)
    return out


def wedge_theta(g: int, indices=None) -> WedgeElement:
    """The symplectic class sum a_i ^ b_i in wedge-squared H, or its partial
    sum over the indices i in a subset of 1..g: the coordinates of
    :func:`~symplie.freelie.theta_partial`, which checks the indices."""
    if indices is None:
        indices = range(1, g + 1)
    return WedgeElement.owning(g, 2, theta_partial(g, indices).coords)


def wedge_contraction(w: WedgeElement) -> Fraction:
    """Pairing coefficient of a wedge-2 element: u^v -> theta(u,v)."""
    return sum((c * sp_form(x, y) for (x, y), c in w.coords.items()), Fraction(0))


class Sym2Lambda2(SparseElement):
    """Element of the symmetric square of wedge-squared H.

    Keys are pairs of increasing letter pairs, ordered (p, q) with p <= q.
    """

    __slots__ = ("g",)

    def __init__(self, g: int, coords: dict | None = None):
        self._adopt(g, nonzero(coords))

    def _adopt(self, g: int, coords: dict) -> None:
        self.g = g
        self.coords = coords

    def space(self) -> tuple:
        return (self.g,)

    def act(self, gen: tuple) -> "Sym2Lambda2":
        terms = ((p + q, c) for (p, q), c in self.coords.items())
        out = _act_letters(self.g, gen, terms, lambda o, f, c: _sym_add(o, f[:2], f[2:], c))
        return Sym2Lambda2.owning(self.g, out)

    def key_weight(self, key: tuple) -> tuple:
        return word_weight(key[0] + key[1], self.g)

    def __repr__(self):
        parts = []
        for (p, q), c in sorted(self.coords.items()):
            pn = "^".join(letter_name(x) for x in p)
            qn = "^".join(letter_name(x) for x in q)
            parts.append(f"{c}*({pn})({qn})")
        return " + ".join(parts) or "0"


def _sym_add(out: dict, p: tuple, q: tuple, c) -> None:
    """Add c * (p1^p2)(q1^q2) to out in canonical form."""
    (a, s), (b, t) = _signed_sort(p), _signed_sort(q)
    if s * t:
        vec_axpy(out, {(a, b) if a <= b else (b, a): s * t}, c)


def sym_mul(u: WedgeElement, v: WedgeElement) -> Sym2Lambda2:
    """Symmetric product of two wedge-2 elements."""
    if u.k != 2 or v.k != 2 or u.g != v.g:
        raise ValueError("need two wedge-2 elements over the same H")
    out: dict = {}
    for p, cp in u.coords.items():
        for q, cq in v.coords.items():
            _sym_add(out, p, q, cp * cq)
    return Sym2Lambda2.owning(u.g, out)


def lambda4_embed(q: WedgeElement) -> Sym2Lambda2:
    """The wedge-4 copy inside the symmetric square:
    v1^v2^v3^v4 -> (v1^v2)(v3^v4) + (v1^v3)(v4^v2) + (v1^v4)(v2^v3)."""
    if q.k != 4:
        raise ValueError("need a wedge-4 element")
    out: dict = {}
    for (v1, v2, v3, v4), c in q.coords.items():
        _sym_add(out, (v1, v2), (v3, v4), c)
        _sym_add(out, (v1, v3), (v4, v2), c)
        _sym_add(out, (v1, v4), (v2, v3), c)
    return Sym2Lambda2.owning(q.g, out)


# ---------------------------------------------------------------------------
# Hom(H, quotient) and derivations
# ---------------------------------------------------------------------------

class HomElement(SparseElement):
    """Linear map H -> degree-m quotient piece; coords map (letter, word)
    to the coefficient of the basis word in the letter's column."""

    __slots__ = ("g", "target_degree")

    def __init__(self, g: int, target_degree: int, coords: dict | None = None):
        self._adopt(g, target_degree, nonzero(coords))

    def _adopt(self, g: int, target_degree: int, coords: dict) -> None:
        self.g = g
        self.target_degree = target_degree
        self.coords = coords

    def space(self) -> tuple:
        return (self.g, self.target_degree)

    @classmethod
    def from_columns(cls, g: int, target_degree: int, columns):
        """The map with the given 2g PElement columns."""
        cols = list(columns)
        if len(cols) != 2 * g:
            raise ValueError("need one column per generator of H")
        if any(col.g != g for col in cols):
            raise ValueError("mixed genus")
        if any(col.m != target_degree for col in cols):
            raise ValueError("column degree mismatch")
        return cls.owning(g, target_degree, {
            (x, w): c for x, col in enumerate(cols) for w, c in col.coords.items()
        })

    def column(self, letter: int) -> PElement:
        return PElement.owning(self.g, self.target_degree,
                               {w: c for (x, w), c in self.coords.items() if x == letter})

    def act(self, gen: tuple) -> "HomElement":
        """(gen f)(x) = gen(f(x)) - f(gen x), column by column."""
        table = letter_action(self.g, gen)
        cols = []
        for x in range(2 * self.g):
            col = self.column(x).act(gen)
            for image, coeff in table.get(x, {}).items():
                col = col - coeff * self.column(image)
            cols.append(col)
        return HomElement.from_columns(self.g, self.target_degree, cols)

    def key_weight(self, key: tuple) -> tuple:
        return hom_key_weight(self.g, key)


def _letter(g: int, x: int) -> PElement:
    return PElement.owning(g, 1, {(x,): 1})


def _letter_memo(hom: HomElement) -> dict:
    """A new :func:`~symplie.surface.quotient_leibniz` memo of hom's columns."""
    memo = {(y,): {} for y in range(2 * hom.g)}
    for (y, w), c in hom.coords.items():
        memo[(y,)][w] = c
    return memo


def theta_image(hom: HomElement) -> PElement:
    """D theta = sum_i [D a_i, b_i] + [a_i, D b_i] for hom extended as a
    derivation D, by :func:`~symplie.surface.quotient_derive` on theta's words."""
    return quotient_derive(PElement.owning(hom.g, 2, theta(hom.g).coords),
                           _letter_memo(hom), hom.target_degree - 1)


class Derivation(HomElement):
    """Degree-n derivation of the quotient, i.e. a hom killing the
    symplectic class.  Only :meth:`from_hom` checks that; the constructor
    and from_columns trust their columns, as sums, multiples, brackets,
    :func:`ad_derivation` and :func:`der_basis` kill theta by construction.
    Killing theta is what lets :meth:`value` run the Leibniz rule in the
    quotient itself; its first value builds the derivation's own
    :func:`~symplie.surface.quotient_leibniz` memo, later ones grow it."""

    __slots__ = ("_word_cache",)

    @property
    def degree(self) -> int:
        return self.target_degree - 1

    @classmethod
    def from_hom(cls, hom: HomElement) -> "Derivation":
        """The hom as a derivation, after checking that it kills theta."""
        if not theta_image(hom).is_zero():
            raise NotADerivation("the columns do not kill the symplectic class")
        return cls.owning(hom.g, hom.target_degree, dict(hom.coords))

    def value(self, x: PElement) -> PElement:
        """Leibniz extension of the derivation to any quotient degree, each
        word's image reduced once (:func:`~symplie.surface.quotient_derive`)."""
        if x.g != self.g:
            raise ValueError("mixed genus")
        if getattr(self, "_word_cache", None) is None:
            self._word_cache = _letter_memo(self)
        return quotient_derive(x, self._word_cache, self.degree)


def derivation_bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """Commutator of derivations, of degree deg(d1) + deg(d2)."""
    g = d1.g
    target = d1.degree + d2.degree + 1
    cols = [d1.value(d2.column(x)) - d2.value(d1.column(x)) for x in range(2 * g)]
    return Derivation.from_columns(g, target, cols)


def ad_derivation(z: PElement) -> Derivation:
    """The inner derivation x -> [z, x]; it kills theta by Jacobi."""
    cols = [p_bracket(z, _letter(z.g, x)) for x in range(2 * z.g)]
    return Derivation.from_columns(z.g, z.m + 1, cols)


# ---------------------------------------------------------------------------
# the equivariant maps
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lie3(g: int, x: int, y: int, z: int) -> dict:
    """Quotient coordinates of [x, [y, z]] by :func:`p_bracket`; read-only."""
    return p_bracket(_letter(g, x), p_bracket(_letter(g, y), _letter(g, z))).coords


def _contract(g: int, degree: int, terms) -> HomElement:
    """The hom x -> sum c * theta(y, x) * v over the (y, c, v) terms, v in
    quotient coordinates, theta(y, x) zero unless x = y ^ 1; checks the
    degree cap, which a memo hit of :func:`_lie3` does not."""
    _check_degree(g, degree)
    cols = [dict() for _ in range(2 * g)]
    for y, c, v in terms:
        vec_axpy(cols[y ^ 1], v, c * sp_form(y, y ^ 1))
    return HomElement.owning(g, degree, {(x, w): c for x, col in enumerate(cols)
                                         for w, c in col.items()})


def phi(s: Sym2Lambda2) -> HomElement:
    """The quadratic map into Hom(H, degree 3).

    On (u1^v1)(u2^v2) the value at x is
    theta(u1,x)[v1,[u2,v2]] - theta(v1,x)[u1,[u2,v2]]
    + theta(u2,x)[v2,[u1,v1]] - theta(v2,x)[u2,[u1,v1]].
    """
    return _contract(s.g, 3, (
        term
        for (p, q), c in s.coords.items()
        for (u, v), w in ((p, q), (q, p))
        for term in ((u, c, _lie3(s.g, v, *w)), (v, -c, _lie3(s.g, u, *w)))
    ))


def phi_prime(t: WedgeElement) -> HomElement:
    """The degree-1 candidate on wedge-cubed H:
    x^y^z -> (u -> theta(x,u)[y,z] + theta(y,u)[z,x] + theta(z,u)[x,y])."""
    if t.k != 3:
        raise ValueError("need a wedge-3 element")
    return _contract(t.g, 2, (
        (y, c, p_bracket(_letter(t.g, a), _letter(t.g, b)).coords)
        for (x1, x2, x3), c in t.coords.items()
        for y, a, b in ((x1, x2, x3), (x2, x3, x1), (x3, x1, x2))
    ))


# theta(L[i], L[j]) * scale * L[k] ^ L[l] for L = u1, v1, u2, v2: the two
# full contractions within a factor, then the four halves across factors
_PI_ROWS = ((0, 1, 3, 2, 1), (3, 2, 0, 1, 1),
            (0, 3, 1, 2, Fraction(1, 2)), (1, 2, 0, 3, Fraction(1, 2)),
            (0, 2, 3, 1, Fraction(1, 2)), (3, 1, 0, 2, Fraction(1, 2)))


def pi_map(s: Sym2Lambda2) -> WedgeElement:
    """Contraction onto wedge-squared H."""
    out: dict = {}
    for (p, q), c in s.coords.items():
        L = p + q
        for i, j, k, l, scale in _PI_ROWS:
            f = sp_form(L[i], L[j])
            if f:
                _wedge_add(out, (L[k], L[l]), c * (f * scale))
    return WedgeElement.owning(s.g, 2, out)


def p_split(w: WedgeElement) -> Sym2Lambda2:
    """Section of pi: multiply the two isotypic parts of a wedge-2 vector
    by the symplectic class with weights 1/(-2g-1) and 1/(-g-1)."""
    if w.k != 2:
        raise ValueError("need a wedge-2 element")
    g = w.g
    th = wedge_theta(g)
    c = wedge_contraction(w) / g
    part_theta = c * th                      # projection onto the line of theta
    part_prim = w - part_theta               # complement inside wedge-2
    mixed = Fraction(-1, 2 * g + 1) * part_theta + Fraction(-1, g + 1) * part_prim
    return sym_mul(mixed, th)


def project_22(s: Sym2Lambda2) -> Sym2Lambda2:
    """Remove the wedge-2 isotypic part: s - p(pi(s)); pi of the result is 0."""
    return s - p_split(pi_map(s))


# ---------------------------------------------------------------------------
# derivation spaces as kernels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def der_basis(g: int, n: int) -> tuple:
    """Deterministic basis of the degree-n derivation space.

    Per weight block of Hom(H, p(n+1)) keys, the kernel of the
    multiply-by-the-class matrix with ascending (letter, word) column
    order; the column of (x, w), the theta-image of the hom x -> w, is one
    :func:`p_bracket` <x, x^1> [w, x^1], and each kernel vector sums them to 0.

    The tuple is memoised and shared with every caller, and so are its
    derivations: they are read-only, as the dicts of :func:`_lie3` are.
    """
    blocks: dict = {}
    for x in range(2 * g):
        for w in p_basis(g, n + 1).rep_words:
            blocks.setdefault(hom_key_weight(g, (x, w)), []).append((x, w))
    out = []
    for wt in sorted(blocks):
        keys = sorted(blocks[wt])
        columns = [p_bracket(PElement.owning(g, n + 1, {w: sp_form(x, x ^ 1)}),
                             _letter(g, x ^ 1)).coords for x, w in keys]
        for vec in kernel_basis(columns):
            image: dict = {}
            for j, c in vec.items():
                vec_axpy(image, columns[j], c)
            if image:
                raise NotADerivation("a kernel vector does not kill the symplectic class")
            out.append(Derivation.owning(g, n + 1, {keys[j]: c for j, c in vec.items()}))
    return tuple(out)


def inner_preimage(d: Derivation) -> PElement | None:
    """The z with ad(z) = d, read off d(a1) and d(b1), or None when d is
    not inner.

    For z = sum c_w b(w) in degree m: a letter x below a Lyndon word w has
    [x, b(w)] = b(xw), one word, and reducing a pivot word adds only words
    above it (theta alone is a Groebner-Shirshov basis).  So for m >= 2,
    d(a1) = [z, a1] holds -c_w on the rep word a1 w for each w starting
    with a1, and no residue reaches a1 a1 ... < a1 b1 ...; for the other w
    (above b1, without a1), r = d(b1) - [z1, b1] holds -c_w on b1 w, which
    has no factor a1 b1.  For m = 1, [a1, b1] reduces to
    -sum_{i >= 2} [a_i, b_i], so c_a1 = -d(b1)[a2 b2], c_b1 = d(a1)[a2 b2].
    Hence ad on {a1, b1} is injective in every degree m >= 1, and an inner
    d gives its z back.  A non-inner d may yield a key that is no rep word
    (a1 a1 a2 a1 a2 yields a1 a2 a1 a2): None, before any bracket.  Else
    the ad(z) == d check alone decides.  Keys come out ascending, and
    coefficients as ints where integral.
    """
    g, m = d.g, d.degree
    da1, db1 = d.column(0), d.column(1)
    if m == 1:  # the coefficients of a2 b2
        z = {(0,): -db1.coords.get((2, 3), 0), (1,): da1.coords.get((2, 3), 0)}
    else:
        z = {u[1:]: -c for u, c in da1.coords.items() if u[:2] == (0, 0)}
    if not all(map(_is_rep_word, z)):
        return None
    r = db1 - p_bracket(PElement(g, m, z), _letter(g, 1))
    z.update((u[1:], -c) for u, c in r.coords.items() if u[0] == 1)
    if not all(map(_is_rep_word, z)):
        return None
    z = PElement(g, m, {w: exact(z[w]) for w in sorted(z)})
    return z if ad_derivation(z).coords == d.coords else None


def _is_rep_word(w: tuple) -> bool:
    return is_lyndon(w) and not is_pivot_word(w)


# ---------------------------------------------------------------------------
# Dehn twist images and the theorem computations
# ---------------------------------------------------------------------------

def tau_hyp_twist(g: int, j: int) -> Derivation:
    """Image of the separating twist about the genus-j curve: half the
    quadratic map applied to the square of the upper symplectic class
    sum_{i > j} a_i ^ b_i (the genus g-j side of the curve)."""
    if not 1 <= j <= g - 1:
        raise ValueError(f"need 1 <= j <= {g - 1}")
    th = wedge_theta(g, range(j + 1, g + 1))
    hom = Fraction(1, 2) * phi(sym_mul(th, th))
    return Derivation.from_hom(hom)
