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
sections 4-5).  The table is kept as one row per word, and
:func:`bracket_coords`, the one bracket of coordinate dicts, reads the
entry of a pair in the row of its left word.  An entry of one word is a
(word, coefficient) pair signed for that row, so most entries add with
no sign test; any other entry is one dict, found in the row of either
word, and the bracket folds the sign of [v, u] = -[u, v] into its scalar.
An entry that holds pivot words (those with the factor a1 b1, the
leading words of the quotient's ideal) keeps its reduced form per genus,
and a bracket handed the quotient basis of its degree adds that form in
its place, so a quotient bracket comes out reduced.
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

from .linalg import SparseElement, nonzero, vec_axpy
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
    """True if w is nonempty and strictly below each of its proper
    suffixes (equivalently, below each of its proper rotations)."""
    return bool(w) and all(w < w[k:] for k in range(1, len(w)))


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


def is_pivot_word(w: tuple) -> bool:
    """True if the Lyndon word w has the factor a1 b1, so that it leads a
    row of the symplectic-class ideal (:mod:`symplie.surface`); a Lyndon
    word starts with its least letter, so only one starting with a1 can.
    The cheapest test comes first: a1 first, then a b1 anywhere."""
    return w[0] == 0 and 1 in w and (0, 1) in zip(w, w[1:])


def witt_dim(n: int, m: int) -> int:
    """Dimension of the degree-m part of the free Lie algebra on n letters."""
    total = sum(mobius(d) * n ** (m // d) for d in range(1, m + 1) if m % d == 0)
    assert total % m == 0
    return total // m


@lru_cache(maxsize=None)
def standard_factorization(w: tuple) -> tuple:
    """Split a Lyndon word of length >= 2 as u,v with v its least proper
    suffix, which for a Lyndon word is its longest proper Lyndon suffix;
    then b(w) = [b(u), b(v)].  Refuses any other w: w is Lyndon iff it is
    below each proper suffix, so iff it is below v."""
    v = min((w[k:] for k in range(1, len(w))), default=None)
    if v is None or not w < v:
        raise ValueError(f"{w} is not a Lyndon word of length >= 2")
    return w[: -len(v)], v


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
    """Lyndon coordinates of a Lie tensor, as a new dict with no zero
    value; raises NotLieElement otherwise.

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
    """Homogeneous element of the free Lie algebra in Lyndon coordinates.

    ``LieElement(g, degree, coords)`` copies coords and drops its zeros;
    :func:`bracket`, :func:`theta_partial` and the quotient's
    :func:`~symplie.surface.lift` hand over a fresh zero-free dict through
    :meth:`~symplie.linalg.SparseElement.owning` instead."""

    __slots__ = ("g", "degree")

    def __init__(self, g: int, degree: int, coords: dict | None = None):
        self._adopt(g, degree, nonzero(coords))

    def _adopt(self, g: int, degree: int, coords: dict) -> None:
        self.g = g
        self.degree = degree
        self.coords = coords

    def space(self) -> tuple:
        return (self.g, self.degree)

    @classmethod
    def generator(cls, g: int, letter: int) -> "LieElement":
        return cls.owning(g, 1, {(letter,): 1})

    def __repr__(self):
        if not self.coords:
            return "0"
        parts = []
        for w in sorted(self.coords):
            c = self.coords[w]
            parts.append(f"{c}*{'.'.join(letter_name(x) for x in w)}")
        return " + ".join(parts)


# The bracket table, one row per Lyndon word: _BRACKET_ROWS[u][v] is the
# entry of [b(u), b(v)].  An entry of one word w with coefficient c is the
# pair (w, c) in row u and (w, -c) in row v, each signed for its own row;
# any other entry is one dict of word -> int for u < v, the same object in
# both rows, and the readers take its sign from u < v.  An entry holding a
# pivot word is a _PivotEntry dict, even of one word.  Alphabet-size free,
# so one table serves every genus.
_BRACKET_ROWS: dict = {}


class _PivotEntry(dict):
    """A bracket table entry that holds pivot words (:func:`is_pivot_word`),
    with its reduced form per genus in ``reduced``: genus -> the quotient
    coordinates of the entry, built on first use by
    :func:`bracket_coords` and read-only."""

    __slots__ = ("reduced",)


def _add_pairs(dst: dict, pairs, c) -> None:
    """In place dst += c * pairs, for (word, coefficient) pairs: the loop of
    :func:`~symplie.linalg.vec_axpy` on what :func:`_bracket_asc` returns."""
    for k, v in pairs:
        w = dst.get(k)
        if w is None:
            dst[k] = c * v
        else:
            w = w + c * v
            if w:
                dst[k] = w
            else:
                del dst[k]


def _bracket_asc(u: tuple, v: tuple):
    """Structure constants of the Lyndon basis: [b(u), b(v)] as (word, int)
    pairs, for u < v, read from the rows of the bracket table or filled
    into both rows, u's and v's.

    uv is Lyndon with standard factorization (u, v) when u is a letter or
    the right factor u2 of u's standard factorization (u1, u2) satisfies
    u2 >= v; else [u, v] = [u1, [u2, v]] + [[u1, v], u2] by Jacobi, with
    each pair looked up in ascending order and the sign folded into the
    scalar.  Every word w of [u2, v] is at least u2 v > u2 > u > u1, so
    (u1, w) is always ascending.  A one-word entry comes back as a tuple
    of its one pair, so a hit builds no dict; any other as the items of
    its dict in the table.
    """
    row = _BRACKET_ROWS.get(u)
    if row is None:
        row = _BRACKET_ROWS[u] = {}
    out = row.get(v)
    if out is not None:
        return (out,) if type(out) is tuple else out.items()
    if len(u) == 1 or standard_factorization(u)[1] >= v:
        out = {u + v: 1}
    else:
        u1, u2 = standard_factorization(u)
        out = {}
        for w, c in _bracket_asc(u2, v):
            _add_pairs(out, _bracket_asc(u1, w), c)
        for w, c in _bracket_asc(u1, v):
            if w < u2:
                _add_pairs(out, _bracket_asc(w, u2), c)
            elif u2 < w:
                _add_pairs(out, _bracket_asc(u2, w), -c)
    # every word of the entry is a Lyndon word on the letters of uv, so it
    # starts with u[0]: none has the factor a1 b1 unless u starts with a1
    # and uv holds a b1
    if u[0] == 0 and (1 in u or 1 in v) and any(map(is_pivot_word, out)):
        out = entry = rev = _PivotEntry(out)
        entry.reduced = {}
    elif len(out) == 1:
        (w, c), = out.items()
        entry, rev = (w, c), (w, -c)
    else:
        entry = rev = out
    row[v] = entry
    row = _BRACKET_ROWS.get(v)
    if row is None:
        row = _BRACKET_ROWS[v] = {}
    row[u] = rev
    return out.items()


def bracket_coords(x: dict, y: dict, basis=None) -> dict:
    """Lyndon coordinates of [x, y] for x, y given by Lyndon coordinates,
    as a new dict with no zero value (an element may own it).  Each word u
    of x fetches its row of the bracket table once, and each word v of y
    finds its entry there; a miss fills it (:func:`_bracket_asc`).  A
    one-word entry is a pair already signed for row u, added with no sign
    test; any other entry is added in place (the loop of
    :func:`~symplie.linalg.vec_axpy`, inlined) as [u, v] for u < v and
    -[v, u] for v < u.

    Given the quotient basis of the bracket's degree
    (:class:`symplie.surface.PBasis`), the bracket is reduced: each entry
    that holds a pivot word is added as its reduced form for the basis's
    genus, built on first use by ``basis.reduce_coords`` and kept on the
    entry.  No other entry holds a pivot word, so the result lies on the
    representative words and needs no further reduction."""
    out: dict = {}
    get = out.get
    rows = _BRACKET_ROWS
    g = None if basis is None else basis.g
    for u, c in x.items():
        row = rows.get(u)
        if row is None:
            row = rows[u] = {}
        for v, d in y.items():
            cd = c * d
            if not cd:
                continue
            src = row.get(v)
            if src is None:
                if u == v:
                    continue
                if u < v:
                    _bracket_asc(u, v)
                else:
                    _bracket_asc(v, u)
                src = row[v]
            if type(src) is tuple:
                w, e = src
                t = get(w)
                if t is None:
                    out[w] = cd * e
                else:
                    t = t + cd * e
                    if t:
                        out[w] = t
                    else:
                        del out[w]
                continue
            if v < u:
                cd = -cd
            if type(src) is not dict and g is not None:
                red = src.reduced.get(g)
                if red is None:
                    red = src.reduced[g] = basis.reduce_coords(src)
                src = red
            for w, e in src.items():
                t = get(w)
                if t is None:
                    out[w] = cd * e
                else:
                    t = t + cd * e
                    if t:
                        out[w] = t
                    else:
                        del out[w]
    return out


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Lie bracket [x, y]; degrees add."""
    if x.g != y.g:
        raise ValueError("mixed genus")
    return LieElement.owning(x.g, x.degree + y.degree, bracket_coords(x.coords, y.coords))


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
    return LieElement.owning(g, 2, coords)
