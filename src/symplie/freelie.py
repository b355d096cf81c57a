"""Free Lie algebra on the symplectic alphabet, in Lyndon coordinates.

The 2g letters are numbered 0..2g-1 in the fixed order
a1 < b1 < a2 < b2 < ... < ag < bg, so a_i is letter 2i-2 and b_i is
letter 2i-1 (i from 1).  Words are tuples of letters; tuple comparison
is exactly the lexicographic order all pivoting refers to.

Degree-m elements are stored as sparse coordinates over the Lyndon
words of length m; the basis element for a Lyndon word w is its
standard bracketing b(w).  Brackets are computed from one memoised
table of integer structure constants, the Lyndon coordinates of
[b(u), b(v)] for each pair of Lyndon words u < v, filled by the
recursion on standard factorizations (Reutenauer, Free Lie Algebras,
sections 4-5).  :func:`bracket_coords`, the one bracket of coordinate
dicts, folds the sign of [v, u] = -[u, v] into its scalar, so the table
holds each unordered pair once; only the table fill folds it inline.
Free Lie elements carry no sp(2g) action: the Leibniz rule, two such
brackets per word along standard factorizations, runs in the quotient
itself (:func:`symplie.surface.quotient_leibniz`), for the Chevalley
action on quotient elements and for derivation values.

Generators, theta and the structure constants are ints, so coefficients
stay ints until a caller brings in a ``Fraction``.

The tensor expansion stays for the Magnus expansion and the test-side
oracles, on one truncated product in the tensor algebra
(:func:`tensor_mul`): b(w) expands to w plus lexicographically larger
words, so converting a Lie tensor back is triangular and peels the
smallest word of the support at each step.

Torus weights of words and the Moebius function of the Witt formula come
from :mod:`symplie.reps`, which sits below this module so that the
Sp(2g) characters load without it.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import SparseElement, vec_axpy
from .reps import mobius


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


@lru_cache(maxsize=None)
def letter_action(g: int, gen: tuple) -> dict:
    """Action of a Chevalley generator of sp(2g) on the 2g letters:
    letter -> {letter: integer coefficient}.  The generators are
    ("e", i), ("f", i), ("h", i) for i in 1..g, with coroots of
    e_1-e_2, ..., e_{g-1}-e_g, 2e_g."""
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


# ---------------------------------------------------------------------------
# Lyndon words
# ---------------------------------------------------------------------------

def is_lyndon(w: tuple) -> bool:
    """True if w is strictly smaller than all of its proper rotations."""
    n = len(w)
    if n == 0:
        return False
    return all(w < w[k:] + w[:k] for k in range(1, n))


def lyndon_runs(g: int, m: int):
    """Yield the Lyndon words of length m over 2g letters in lexicographic
    order, as runs (p, x): the words p + (y,) for y from x to the top letter.

    Duval's generation: each Lyndon prefix is extended periodically to a
    pre-necklace of length m, and raising the last letter of a
    pre-necklace to any larger letter gives a Lyndon prefix (raising it
    by one gives the next one past every word extending the old
    prefix); at length m every raise is a Lyndon word, hence the runs.
    """
    if g < 2 or m < 1:
        raise ValueError("need g >= 2 and m >= 1")
    top = 2 * g - 1
    w: list = []
    x = -1  # the letter at position len(w) to go past
    while True:
        x += 1
        if x > top:
            if not w:
                return
            x = w.pop()
            continue
        if len(w) == m - 1:
            yield tuple(w), x
            x = top  # the run holds every raise of this letter
            continue
        w.append(x)
        nw = len(w)
        while len(w) < m:
            w.append(w[-nw])
        # a pre-necklace of length m: go past its last letter
        x = w.pop()


def iter_lyndon(g: int, m: int):
    """Yield the Lyndon words of length m over 2g letters in lexicographic
    order, witt_dim(2g, m) of them: the expansion of :func:`lyndon_runs`."""
    for p, x in lyndon_runs(g, m):
        for y in range(x, 2 * g):
            yield p + (y,)


def witt_dim(n: int, m: int) -> int:
    """Dimension of the degree-m part of the free Lie algebra on n letters."""
    total = sum(mobius(d) * n ** (m // d) for d in range(1, m + 1) if m % d == 0)
    assert total % m == 0
    return total // m


@lru_cache(maxsize=None)
def standard_factorization(w: tuple) -> tuple:
    """Split a Lyndon word of length >= 2 as u,v with v the longest proper
    Lyndon suffix; then b(w) = [b(u), b(v)].  Refuses any other w: w is Lyndon
    iff it is below each proper suffix, and those shorter than v are above v."""
    for k in range(1, len(w)):
        if w[k:] <= w:
            break
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


def tensor_mul(s: dict, t: dict, top: int | None = None) -> dict:
    """Product in the tensor algebra, word -> coefficient dicts multiplied
    by concatenating words; with top, words longer than top are dropped
    (the product truncated in degree top)."""
    out: dict = {}
    for wu, cu in s.items():
        for wv, cv in t.items():
            if top is None or len(wu) + len(wv) <= top:
                k = wu + wv
                out[k] = out.get(k, 0) + cu * cv
    return {k: c for k, c in out.items() if c}


def _tensor_commutator(s: dict, t: dict) -> dict:
    out = tensor_mul(s, t)
    vec_axpy(out, tensor_mul(t, s), -1)
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
    t = {w: c for w, c in t.items() if c}
    out: dict = {}
    while t:
        w = min(t)
        if not is_lyndon(w):
            raise NotLieElement(f"support contains non-Lyndon minimal word {w}")
        # b(w) has coefficient 1 on w, so this also takes w out of t
        c = out[w] = t[w]
        vec_axpy(t, bracketing_tensor(w), -c)
    return out


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
        return cls(g, 1, {(letter,): 1})

    def __repr__(self):
        if not self.coords:
            return "0"
        parts = []
        for w in sorted(self.coords):
            c = self.coords[w]
            parts.append(f"{c}*{'.'.join(letter_name(x) for x in w)}")
        return " + ".join(parts)


# Lyndon coordinates of [b(u), b(v)] as word -> int, keyed by (u, v) with
# u < v only: [v, u] is -[u, v], and bracket_coords folds that sign into
# its scalar (only the table fill below folds it inline).  Alphabet-size
# free, so one table serves every genus.
_BRACKET_WORDS: dict = {}


def _bracket_asc(u: tuple, v: tuple) -> dict:
    """Structure constants of the Lyndon basis: [b(u), b(v)] as word -> int,
    for u < v.

    uv is Lyndon with standard factorization (u, v) when u is a letter or
    the right factor u2 of u's standard factorization (u1, u2) satisfies
    u2 >= v; else [u, v] = [u1, [u2, v]] + [[u1, v], u2] by Jacobi, with
    each pair looked up in ascending order and the sign folded into the
    scalar.  Every word w of [u2, v] is at least u2 v > u2 > u > u1, so
    (u1, w) is always ascending.  The returned dicts are shared with the
    table and must not be mutated.
    """
    out = _BRACKET_WORDS.get((u, v))
    if out is not None:
        return out
    if len(u) == 1 or standard_factorization(u)[1] >= v:
        out = {u + v: 1}
    else:
        u1, u2 = standard_factorization(u)
        out = {}
        for w, c in _bracket_asc(u2, v).items():
            vec_axpy(out, _bracket_asc(u1, w), c)
        for w, c in _bracket_asc(u1, v).items():
            if w < u2:
                vec_axpy(out, _bracket_asc(w, u2), c)
            elif u2 < w:
                vec_axpy(out, _bracket_asc(u2, w), -c)
    _BRACKET_WORDS[(u, v)] = out
    return out


def bracket_coords(x: dict, y: dict) -> dict:
    """Lyndon coordinates of [x, y] for x, y given by Lyndon coordinates,
    as a new dict; a pair v < u is looked up as -[v, u]."""
    out: dict = {}
    for u, c in x.items():
        for v, d in y.items():
            if u < v:
                vec_axpy(out, _bracket_asc(u, v), c * d)
            elif v < u:
                vec_axpy(out, _bracket_asc(v, u), -c * d)
    return out


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Lie bracket [x, y]; degrees add."""
    if x.g != y.g:
        raise ValueError("mixed genus")
    return LieElement(x.g, x.degree + y.degree, bracket_coords(x.coords, y.coords))


def theta(g: int) -> LieElement:
    """The symplectic class sum_i [a_i, b_i] in degree 2."""
    return theta_partial(g, range(1, g + 1))


def theta_partial(g: int, indices) -> LieElement:
    """sum_{i in I} [a_i, b_i] for a subset I of 1..g."""
    coords = {}
    for i in indices:
        if not 1 <= i <= g:
            raise ValueError(f"index {i} outside 1..{g}")
        coords[(gen_a(i), gen_b(i))] = 1
    return LieElement(g, 2, coords)
