"""The graded Lie algebra of a closed genus-g surface group.

The quotient of the free Lie algebra by the ideal of the degree-2
symplectic class theta.  Its leading word a1 b1 has no self-overlap, so
theta alone is a Groebner-Shirshov basis (Shirshov 1962; Bokut-Chen
2014): the ideal's leading words in degree m are the Lyndon words with
the factor a1 b1, and the other Lyndon words represent the quotient
basis, so bases and characters are a filter on words.  The ideal rows
are built on first use, in closed form: the row of a pivot word w is
Shirshov's special bracketing [u theta v]_w, with leading word w by
the composition-diamond lemma.  A reduction builds the rows of the
pivot words it holds and, in turn, of every pivot word in a row it
built, so no weight's words are listed; residues do not depend on the
rows chosen.  The weight blocks of rows are the one row store.  The
residue of each pivot word is swept through its block once and
memoised, and a reduction adds the residue of each pivot word it holds
in place, so a warm reduction sweeps nothing.  A quotient bracket
reduces nothing once warm: handed the degree's basis,
:func:`~symplie.freelie.bracket_coords` adds each bracket table entry
that holds a pivot word as its reduced form, built once per genus by
the reduction and kept on the entry.  The tests check words, rows and
residues against a degree-wide filter and eager elimination of the
whole ideal.

A derivation that kills theta maps the ideal into itself, so the sp(2g)
action and derivation values follow the Leibniz rule in the quotient
(:func:`quotient_leibniz`), each word's image reduced once and memoised.

Also hosts the degree -2 truncation of the n-pointed configuration
algebra: pairwise classes T_ij and local degree-2 parts, with the
diagonal-class relation eliminating each T_i.

Every basis and reduction checks its degree against the cap
(``SYMPLIE_DEGREE_CAP``), which lives in :mod:`symplie.reps` with the
word weights and the Moebius function of Labute's formula.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .freelie import (
    LieElement,
    bracket_coords,
    is_pivot_word,
    iter_lyndon,
    letter_action,
    lyndon_runs,
    sp_form,
    standard_factorization,
    theta,
    witt_dim,
)
from .linalg import EchelonSpan, SparseElement, nonzero, vec_axpy
from .reps import _check_degree, mobius, word_weight


def labute_dim(g: int, m: int) -> int:
    """Dimension of the degree-m quotient piece by the one-relator formula.

    m*d_m = sum over d|m of mu(m/d) W(d), where W are the power sums of
    the roots of 1 - 2g t + t^2: W(0)=2, W(1)=2g, W(k)=2g W(k-1)-W(k-2).
    """
    if g < 2 or m < 1:
        raise ValueError("need g >= 2 and m >= 1")
    W = [2, 2 * g]
    for _ in range(m - 1):
        W.append(2 * g * W[-1] - W[-2])
    total = sum(mobius(m // d) * W[d] for d in range(1, m + 1) if m % d == 0)
    if total % m != 0:
        raise ArithmeticError(f"formula misapplied: {total} not divisible by {m}")
    return total // m


def shirshov_row(g: int, w: tuple) -> dict:
    """The ideal row with leading word w, coefficient 1 there and ints
    throughout, for a Lyndon word w with the factor a1 b1: Shirshov's
    special bracketing [u theta v]_w (Shirshov 1962; Bokut-Chen 2014).

    The standard bracketing of w has a node a1 b1 c starting at the first
    a1 b1; each split on the path down to it brackets the row with its
    other factor.  The node becomes [..[theta, c1].., ck] over the Lyndon
    factors c1 >= ... >= ck of c, peeled from the right: ck is the least
    suffix of c."""
    if w[:2] == (0, 1):
        if len(w) == 2:
            return theta(g).coords
        ck = min(w[k:] for k in range(2, len(w)))
        return bracket_coords(shirshov_row(g, w[: -len(ck)]), {ck: 1})
    u, v = standard_factorization(w)
    if (0, 1) in zip(u, u[1:]):
        return bracket_coords(shirshov_row(g, u), {v: 1})
    return bracket_coords({u: 1}, shirshov_row(g, v))


class PBasis:
    """Deterministic basis data for one degree of the quotient.

    blocks maps a torus weight to the ideal rows of that weight that
    reductions have read, built by :meth:`block`: the Shirshov row of
    each pivot word a reduction met, closed under the pivot words those
    rows hold.  No weight's words are listed for it.  blocks is the one
    row store; residues maps each pivot word a reduction met to its
    residue, the sweep of {w: 1} through its weight's block, int-valued
    and on rep_words alone, built once and shared read-only.  rep_words,
    the representatives (the words without the factor a1 b1) of the
    whole degree in ascending order, is built on first read by one pass
    over every Lyndon word of the degree.  A reduction pops the pivot
    words of its vector (:meth:`reduce_coords`).
    """

    __slots__ = ("g", "m", "blocks", "residues", "_rep_words")

    def __init__(self, g: int, m: int):
        self.g = g
        self.m = m
        self.blocks: dict = {}
        self.residues: dict = {}
        self._rep_words = None

    @property
    def rep_words(self) -> tuple:
        if self._rep_words is None:
            self._rep_words = tuple(w for w in iter_lyndon(self.g, self.m) if not is_pivot_word(w))
        return self._rep_words

    def block(self, wt: tuple, pivots) -> EchelonSpan:
        """Echelon span of the weight-wt ideal rows built so far, after
        adding the Shirshov row of each given pivot word of weight wt and,
        in turn, of every pivot word in a row added.  Every pivot word in
        a stored row has its own row, so the span reduces a vector on
        those pivot words exactly as the whole weight-wt ideal piece
        does."""
        span = self.blocks.get(wt)
        if span is None:
            span = self.blocks[wt] = EchelonSpan()
        rows = span.rows
        todo = list(pivots)
        while todo:
            w = todo.pop()
            if w not in rows:
                row = rows[w] = shirshov_row(self.g, w)
                todo.extend(q for q in row if is_pivot_word(q))
        return span

    def reduce_coords(self, coords: dict) -> dict:
        """Canonical representative of coords modulo the ideal, supported
        on rep_words; independent of how the ideal rows were built.  A new
        dict with no zero value, so an element may own it; coords itself,
        which may hold zeros, is left as it is.

        The residue is linear and fixes every vector on rep_words, so the
        coordinates on rep_words stay where they are; only the pivot words
        (:func:`is_pivot_word`) are popped, and each one's residue is added
        in place times its coefficient.  A residue holds no pivot word, so
        none comes back.  The residue of w is memoised in residues on first
        use: its weight's block, grown by w, sweeps {w: 1} once."""
        coords = nonzero(coords)
        residues = self.residues
        for w in [w for w in coords if is_pivot_word(w)]:
            c = coords.pop(w)
            r = residues.get(w)
            if r is None:
                r = residues[w] = self.block(word_weight(w, self.g), (w,)).reduce({w: 1})
            vec_axpy(coords, r, c)
        return coords


def p_basis(g: int, m: int) -> PBasis:
    """The quotient basis of degree m; the degree cap is checked on every
    call, so lowering it also refuses bases built before."""
    _check_degree(g, m)
    return _p_basis(g, m)


@lru_cache(maxsize=None)
def _p_basis(g: int, m: int) -> PBasis:
    return PBasis(g, m)


class PElement(SparseElement):
    """Element of one degree of the quotient, in quotient-representative
    coordinates (a sparse vector over the non-pivot Lyndon words).

    ``PElement(g, m, coords)`` copies coords and drops its zeros; the
    library's own results (:func:`reduce_lie`, :func:`p_bracket`,
    :func:`quotient_derive`, ``+ - neg *``) take ownership of the fresh
    zero-free dict they build (:meth:`~symplie.linalg.SparseElement.owning`),
    never of a memo entry."""

    __slots__ = ("g", "m")

    def __init__(self, g: int, m: int, coords: dict | None = None):
        self._adopt(g, m, nonzero(coords))

    def _adopt(self, g: int, m: int, coords: dict) -> None:
        self.g = g
        self.m = m
        self.coords = coords

    @classmethod
    def owning(cls, g: int, m: int, coords: dict) -> "PElement":
        """:meth:`~symplie.linalg.SparseElement.owning` in one step: stores
        what :meth:`_adopt` stores, with no call of it."""
        x = object.__new__(cls)
        x.g = g
        x.m = m
        x.coords = coords
        return x

    def rebuild(self, coords: dict) -> "PElement":
        """The element of this degree that owns coords (the results of
        ``+ - neg *``), by :meth:`owning` with no space tuple built."""
        return self.owning(self.g, self.m, coords)

    def space(self) -> tuple:
        return (self.g, self.m)

    def act(self, gen: tuple) -> "PElement":
        """The Chevalley generator gen, by the Leibniz rule in the quotient
        on the memo of its letter action (:func:`quotient_derive`)."""
        return quotient_derive(self, _action_table(self.g, gen), 0)

    def key_weight(self, key: tuple) -> tuple:
        return word_weight(key, self.g)

    def __repr__(self):
        return f"PElement(g={self.g}, m={self.m}, {LieElement(self.g, self.m, self.coords)!r})"


def reduce_lie(x: LieElement) -> PElement:
    """Quotient map: kill the ideal, express on the quotient representatives."""
    pb = p_basis(x.g, x.degree)
    return PElement.owning(x.g, x.degree, pb.reduce_coords(x.coords))


def lift(x: PElement) -> LieElement:
    """The section sending each representative word to its basis bracketing;
    reduce(lift(x)) == x by construction."""
    return LieElement.owning(x.g, x.m, dict(x.coords))


def p_bracket(x: PElement, y: PElement) -> PElement:
    """Bracket in the quotient: the bracket of the lifts, reduced, by one
    :func:`~symplie.freelie.bracket_coords` handed the degree's basis, which
    adds each table entry that holds a pivot word as its reduced form.  The
    degree cap is checked as by :func:`p_basis`."""
    g = x.g
    if g != y.g:
        raise ValueError("mixed genus")
    m = x.m + y.m
    _check_degree(g, m)
    return PElement.owning(g, m, bracket_coords(x.coords, y.coords, _p_basis(g, m)))


def quotient_leibniz(g: int, w: tuple, memo: dict, shift: int) -> dict:
    """Quotient coordinates of D(b(w)) for a derivation D of degree shift
    with D theta = 0, by D[b(u), b(v)] = [D b(u), b(v)] + [b(u), D b(v)]
    along the standard factorization (u, v) of w, on reduced images: two
    brackets handed the basis of degree len(w) + shift, as by
    :func:`p_bracket`, so each is reduced as it is summed.

    Exact because D maps the ideal I into itself and [I, y] lies in I, so
    pi[X, Y] = pi[lift(pi X), Y].  The caller owns ``memo``: it maps every
    letter (x,) to the quotient coordinates of D(x) and is filled with
    each word's reduced image.  The returned dicts are shared with it and
    must not be mutated.
    """
    out = memo.get(w)
    if out is None:
        u, v = standard_factorization(w)
        pb = _p_basis(g, len(w) + shift)
        out = bracket_coords(quotient_leibniz(g, u, memo, shift), {v: 1}, pb)
        vec_axpy(out, bracket_coords({u: 1}, quotient_leibniz(g, v, memo, shift), pb), 1)
        memo[w] = out
    return out


def quotient_derive(x: PElement, memo: dict, shift: int) -> PElement:
    """The sum of c * quotient_leibniz(w) over the coordinates of x, in
    degree x.m + shift; the degree cap is checked as by :func:`p_basis`.
    A word's memo entry is read here, and :func:`quotient_leibniz` is
    called only on a miss."""
    g = x.g
    m = x.m + shift
    _check_degree(g, m)
    out: dict = {}
    for w, c in x.coords.items():
        src = memo.get(w)
        if src is None:
            src = quotient_leibniz(g, w, memo, shift)
        vec_axpy(out, src, c)
    return PElement.owning(g, m, out)


@lru_cache(maxsize=None)
def _action_table(g: int, gen: tuple) -> dict:
    """The :func:`quotient_leibniz` memo of a Chevalley generator's letter action."""
    table = letter_action(g, gen)
    return {(y,): {(z,): c for z, c in table.get(y, {}).items()} for y in range(2 * g)}


def word_counts(g: int, m: int) -> tuple:
    """(Lyndon words, representative words) of degree m, counted over the
    runs p + (y,), y >= x, of :func:`~symplie.freelie.lyndon_runs`: all of a
    run leads ideal rows if p has the factor a1 b1, else only y = b1 after
    p ending in a1 can.  The degree cap is checked as by :func:`p_basis`."""
    _check_degree(g, m)
    lw = pivots = 0
    for p, x in lyndon_runs(g, m):
        n = 2 * g - x
        lw += n
        if 0 in p:  # a1 b1 needs a1
            if (0, 1) in zip(p, p[1:]):
                pivots += n
            elif p[-1] == 0 and x <= 1:
                pivots += 1
    return lw, lw - pivots


def checked_dims(g: int, m: int) -> tuple:
    """(dim L_m, dim p(m)), after checking the Lyndon count against the
    Witt number and the Shirshov count against the one-relator formula."""
    lw, pd = word_counts(g, m)
    if lw != witt_dim(2 * g, m):
        raise VerificationError(f"Lyndon count vs Witt number at m={m}")
    ld = labute_dim(g, m)
    if pd != ld:
        raise VerificationError(f"Shirshov count {pd} vs formula {ld} at m={m}")
    return lw, pd


def p_dim(g: int, m: int) -> int:
    return word_counts(g, m)[1]


# ---------------------------------------------------------------------------
# degree -2 part of the n-pointed configuration algebra
# ---------------------------------------------------------------------------

class ConfigDeg2Element(SparseElement):
    """Weight -2 class with n marked points, in normal form.

    Coordinates are tagged keys: ("T", i, j) for the pair class T_ij
    (i < j) and ("L", i, word) for the local degree-2 quotient part at
    point i.  The diagonal classes T_i never appear: each is eliminated
    through T_i = -(1/g) sum_{j != i} T_ij.
    """

    __slots__ = ("g", "n")

    def __init__(self, g: int, n: int, coords: dict | None = None):
        self._adopt(g, n, nonzero(coords))

    def _adopt(self, g: int, n: int, coords: dict) -> None:
        """Checks every pair key, on both construction paths."""
        for tag, i, j in coords:
            if tag == "T" and not 1 <= i < j <= n:
                raise ValueError(f"bad point pair ({i},{j})")
        self.g = g
        self.n = n
        self.coords = coords

    def space(self) -> tuple:
        return (self.g, self.n)

    def __repr__(self):
        parts = [f"{c}*T{i}{j}" for (tag, i, j), c in sorted(self.coords.items()) if tag == "T"]
        parts += [f"local[{i}]" for i in sorted({k[1] for k in self.coords if k[0] == "L"})]
        return " + ".join(parts) or "0"


def config_pair_class(g: int, n: int, i: int, j: int, coeff=1) -> ConfigDeg2Element:
    """coeff * T_ij (unordered)."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"bad pair ({i},{j})")
    return ConfigDeg2Element(g, n, {("T", min(i, j), max(i, j)): Fraction(coeff)})


def config_diagonal_class(g: int, n: int, i: int) -> ConfigDeg2Element:
    """Normal form of T_i, i.e. -(1/g) sum_{j != i} T_ij."""
    c = Fraction(-1, g)
    coords = {("T", min(i, j), max(i, j)): c for j in range(1, n + 1) if j != i}
    return ConfigDeg2Element.owning(g, n, coords)


def pairing(u: dict, v: dict) -> Fraction:
    """Intersection pairing of two H-vectors (letter -> coefficient dicts)."""
    total = Fraction(0)
    for x, cx in u.items():
        for y, cy in v.items():
            s = sp_form(x, y)
            if s:
                total += cx * cy * s
    return total


def config_bracket(g: int, n: int, u_at: tuple, v_at: tuple) -> ConfigDeg2Element:
    """Bracket of degree -1 classes u at point i and v at point j.

    For distinct points the value is (<u,v>/g) T_ij; for equal points it
    is the local quotient class of u^v plus the T_i content of the
    symplectic part, already in normal form.
    """
    i, u = u_at
    j, v = v_at
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("point index out of range")
    c = pairing(u, v) / g  # coefficient of the symplectic class inside u^v
    if i != j:
        return config_pair_class(g, n, i, j, c) if c else ConfigDeg2Element(g, n)
    # same point: [u, v] in the local surface algebra, theta part -> T_i
    local = p_bracket(
        PElement(g, 1, {(a,): x for a, x in u.items()}),
        PElement(g, 1, {(b,): y for b, y in v.items()}),
    )
    out = {("L", i, w): a for w, a in local.coords.items()}
    if c:
        out.update((key, c * a) for key, a in config_diagonal_class(g, n, i).coords.items())
    return ConfigDeg2Element.owning(g, n, out)


class VerificationError(AssertionError):
    """A named verification clause failed; the message carries the witness."""
