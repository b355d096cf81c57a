"""Free Lie algebra on the symplectic alphabet, in Lyndon coordinates.

The 2g letters are numbered 0..2g-1 in the fixed order
a1 < b1 < a2 < b2 < ... < ag < bg, so a_i is letter 2i-2 and b_i is
letter 2i-1 (i from 1).  Words are tuples of letters; tuple comparison
is exactly the lexicographic order all pivoting refers to.

Degree-m elements are stored as sparse coordinates over the Lyndon
words of length m; the basis element for a Lyndon word w is its
standard bracketing b(w).  Brackets are computed by expanding both
sides into the tensor algebra, taking the commutator there, and
converting back: b(w) expands to w plus lexicographically larger
words, so the conversion is triangular and peels the smallest word
of the support at each step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .linalg import SparseElement, vec_axpy


class NotLieElement(ValueError):
    """A tensor element that is not in the image of the free Lie algebra."""


# ---------------------------------------------------------------------------
# letters
# ---------------------------------------------------------------------------

def gen_a(i: int) -> int:
    """Letter index of a_i (i is 1-based)."""
    return 2 * (i - 1)


def gen_b(i: int) -> int:
    """Letter index of b_i (i is 1-based)."""
    return 2 * i - 1


def letter_name(x: int) -> str:
    return ("a" if x % 2 == 0 else "b") + str(x // 2 + 1)


def sp_form(x: int, y: int) -> int:
    """Intersection pairing on letters: <a_i,b_i> = 1 = -<b_i,a_i>, else 0."""
    if x // 2 != y // 2:
        return 0
    if x == y:
        return 0
    return 1 if x % 2 == 0 else -1


def word_weight(w: tuple, g: int) -> tuple:
    """Torus weight of a word: a_i contributes +e_i, b_i contributes -e_i."""
    wt = [0] * g
    for x in w:
        wt[x // 2] += 1 if x % 2 == 0 else -1
    return tuple(wt)


# ---------------------------------------------------------------------------
# Lyndon words
# ---------------------------------------------------------------------------

def is_lyndon(w: tuple) -> bool:
    """True if w is strictly smaller than all of its proper rotations."""
    n = len(w)
    if n == 0:
        return False
    return all(w < w[k:] + w[:k] for k in range(1, n))


@lru_cache(maxsize=None)
def lyndon_words(g: int, m: int) -> tuple:
    """All Lyndon words of length m over 2g letters, in lexicographic order.

    Duval's generation; the count is the Witt number (1/m) sum mu(d) (2g)^(m/d).
    """
    if g < 2 or m < 1:
        raise ValueError("need g >= 2 and m >= 1")
    n = 2 * g
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        if len(w) == m:
            out.append(tuple(w))
        nw = len(w)
        while len(w) < m:
            w.append(w[-nw])
        while w and w[-1] == n - 1:
            w.pop()
    return tuple(out)


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


def witt_dim(n: int, m: int) -> int:
    """Dimension of the degree-m part of the free Lie algebra on n letters."""
    total = sum(mobius(d) * n ** (m // d) for d in range(1, m + 1) if m % d == 0)
    assert total % m == 0
    return total // m


@lru_cache(maxsize=None)
def standard_factorization(w: tuple) -> tuple:
    """Split a Lyndon word of length >= 2 as u,v with v the longest proper
    Lyndon suffix; then b(w) = [b(u), b(v)]."""
    n = len(w)
    for k in range(1, n):
        if is_lyndon(w[k:]):
            return w[:k], w[k:]
    raise ValueError(f"{w} is not a Lyndon word of length >= 2")


@lru_cache(maxsize=None)
def bracketing_tensor(w: tuple) -> dict:
    """Tensor expansion of the standard bracketing b(w), as word -> int.

    Triangular: the expansion is w + (lex larger words of the same degree).
    """
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    return _tensor_commutator(bracketing_tensor(u), bracketing_tensor(v))


def _tensor_commutator(s: dict, t: dict) -> dict:
    out: dict = {}
    for wu, cu in s.items():
        for wv, cv in t.items():
            c = cu * cv
            k = wu + wv
            n = out.get(k, 0) + c
            if n:
                out[k] = n
            else:
                out.pop(k, None)
            k = wv + wu
            n = out.get(k, 0) - c
            if n:
                out[k] = n
            else:
                out.pop(k, None)
    return out


def lie_to_tensor(coords: dict) -> dict:
    """Expand Lyndon coordinates into the tensor algebra."""
    out: dict = {}
    for w, c in coords.items():
        vec_axpy(out, bracketing_tensor(w), c)
    return out


def lie_from_tensor(t: dict) -> dict:
    """Lyndon coordinates of a Lie tensor; raises NotLieElement otherwise.

    Peels the lexicographically smallest word of the support: for a Lie
    element it must be Lyndon and its coefficient is the coordinate.
    """
    t = dict(t)
    out: dict = {}
    while t:
        w = min(t)
        if not is_lyndon(w):
            raise NotLieElement(f"support contains non-Lyndon minimal word {w}")
        c = t.pop(w)
        out[w] = c
        exp = bracketing_tensor(w)
        for k, v in exp.items():
            if k == w:
                continue
            n = t.get(k, 0) - c * v
            if n:
                t[k] = n
            else:
                t.pop(k, None)
    return out


def dynkin_tensor(t: dict) -> dict:
    """Left-normed bracketing map applied wordwise to a tensor element.

    Sends x1 x2 ... xm to [...[[x1,x2],x3]...,xm]; on the expansion of a
    degree-m Lie element this is multiplication by m.
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
# elements
# ---------------------------------------------------------------------------

class LieElement(SparseElement):
    """Homogeneous element of the free Lie algebra in Lyndon coordinates."""

    __slots__ = ("g", "degree")

    def __init__(self, g: int, degree: int, coords: dict | None = None):
        self.g = g
        self.degree = degree
        self.coords = {w: c for w, c in (coords or {}).items() if c}

    def space(self) -> tuple:
        return (self.g, self.degree)

    @classmethod
    def generator(cls, g: int, letter: int) -> "LieElement":
        return cls(g, 1, {(letter,): Fraction(1)})

    @classmethod
    def zero(cls, g: int, degree: int) -> "LieElement":
        return cls(g, degree, {})

    def bracket(self, other: "LieElement") -> "LieElement":
        return bracket(self, other)

    def weight_blocks(self) -> dict:
        """Group the coordinates by torus weight."""
        out: dict = {}
        for w, c in self.coords.items():
            out.setdefault(word_weight(w, self.g), {})[w] = c
        return out

    def __repr__(self):
        if not self.coords:
            return "0"
        parts = []
        for w in sorted(self.coords):
            c = self.coords[w]
            parts.append(f"{c}*{'.'.join(letter_name(x) for x in w)}")
        return " + ".join(parts)


class TensorElement(SparseElement):
    """Homogeneous element of the tensor algebra over the same alphabet."""

    __slots__ = ("g", "degree")

    def __init__(self, g: int, degree: int, coords: dict | None = None):
        self.g = g
        self.degree = degree
        self.coords = {w: c for w, c in (coords or {}).items() if c}

    def space(self) -> tuple:
        return (self.g, self.degree)

    @classmethod
    def from_lie(cls, x: LieElement) -> "TensorElement":
        return cls(x.g, x.degree, lie_to_tensor(x.coords))

    def to_lie(self) -> LieElement:
        return LieElement(self.g, self.degree, lie_from_tensor(self.coords))

    def dynkin(self) -> "TensorElement":
        return TensorElement(self.g, self.degree, dynkin_tensor(self.coords))


# ad_word cache: Lyndon coordinates of [letter, b(w)]; alphabet-size free,
# so one cache serves every genus.
_AD_WORD: dict = {}


def ad_word(h: int, w: tuple) -> dict:
    key = (h, w)
    out = _AD_WORD.get(key)
    if out is None:
        t = _tensor_commutator({(h,): 1}, bracketing_tensor(w))
        out = lie_from_tensor(t)
        _AD_WORD[key] = out
    return out


def ad_letter(h: int, x: LieElement) -> LieElement:
    """[h, x] for a single generator h, via the per-word cache."""
    out: dict = {}
    for w, c in x.coords.items():
        vec_axpy(out, ad_word(h, w), c)
    return LieElement(x.g, x.degree + 1, out)


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Lie bracket [x, y]; degrees add."""
    if x.g != y.g:
        raise ValueError("mixed genus")
    if x.is_zero() or y.is_zero():
        return LieElement.zero(x.g, x.degree + y.degree)
    if y.degree == 1:
        out: dict = {}
        for (h,), c in y.coords.items():
            vec_axpy(out, ad_letter(h, x).coords, -c)
        return LieElement(x.g, x.degree + 1, out)
    if x.degree == 1:
        out = {}
        for (h,), c in x.coords.items():
            vec_axpy(out, ad_letter(h, y).coords, c)
        return LieElement(x.g, y.degree + 1, out)
    t = _tensor_commutator(lie_to_tensor(x.coords), lie_to_tensor(y.coords))
    return LieElement(x.g, x.degree + y.degree, lie_from_tensor(t))


def theta(g: int) -> LieElement:
    """The symplectic class sum_i [a_i, b_i] in degree 2."""
    return theta_partial(g, range(1, g + 1))


def theta_partial(g: int, indices) -> LieElement:
    """sum_{i in I} [a_i, b_i] for a subset I of 1..g."""
    coords = {}
    for i in indices:
        if not 1 <= i <= g:
            raise ValueError(f"index {i} outside 1..{g}")
        coords[(gen_a(i), gen_b(i))] = Fraction(1)
    return LieElement(g, 2, coords)
