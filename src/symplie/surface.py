"""The graded Lie algebra of a closed genus-g surface group.

The quotient of the free Lie algebra by the ideal generated by the
degree-2 symplectic class.  Ideal pieces are built as iterated brackets
of generators against the class (in a Lie algebra generated in degree 1
the ideal of a homogeneous element is exactly that span; the closure is
re-verified in the test suite).  Because the class is a torus weight
vector, the whole construction splits into weight blocks, and each
block is echelonized separately with ascending-word pivoting; quotient
coordinates use the non-pivot Lyndon words as representatives.

Also hosts the degree -2 truncation of the n-pointed configuration
algebra: pairwise classes T_ij, local degree-2 parts, and a formal
outer summand, with the diagonal-class relation eliminating each T_i.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache

from .freelie import (
    LieElement,
    ad_letter,
    bracket,
    gen_a,
    gen_b,
    lyndon_words,
    sp_form,
    theta,
    word_weight,
)
from .linalg import EchelonSpan, SparseElement, vec_axpy

DEFAULT_DEGREE_CAP = 6


def degree_cap() -> int:
    """Largest degree the quotient machinery will build (env-overridable).

    Raises ValueError naming SYMPLIE_DEGREE_CAP if it is not an integer >= 1.
    """
    raw = os.environ.get("SYMPLIE_DEGREE_CAP")
    if raw is None:
        return DEFAULT_DEGREE_CAP
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


def labute_dim(g: int, m: int) -> int:
    """Dimension of the degree-m quotient piece by the one-relator formula.

    m*d_m = sum over d|m of mu(m/d) W(d), where W are the power sums of
    the roots of 1 - 2g t + t^2: W(0)=2, W(1)=2g, W(k)=2g W(k-1)-W(k-2).
    """
    from .freelie import mobius

    if g < 2 or m < 1:
        raise ValueError("need g >= 2 and m >= 1")
    W = [2, 2 * g]
    for _ in range(m - 1):
        W.append(2 * g * W[-1] - W[-2])
    total = sum(mobius(m // d) * W[d] for d in range(1, m + 1) if m % d == 0)
    if total % m != 0:
        raise ArithmeticError(f"formula misapplied: {total} not divisible by {m}")
    return total // m


@lru_cache(maxsize=None)
def _ideal_raw(g: int, m: int) -> tuple:
    """Left-normed spanning family ad(h_k)...ad(h_1)(class) of the degree-m
    ideal piece; each vector is a torus weight vector."""
    if m == 2:
        return (theta(g),)
    prev = _ideal_raw(g, m - 1)
    out = []
    for v in prev:
        for h in range(2 * g):
            out.append(ad_letter(h, v))
    return tuple(out)


class PBasis:
    """Deterministic basis data for one degree of the quotient.

    blocks maps a torus weight to the echelonized ideal rows of that
    weight; rep_words are the non-pivot Lyndon words (ascending), which
    represent the quotient basis.
    """

    __slots__ = ("g", "m", "blocks", "rep_words", "rep_set", "pivot_words")

    def __init__(self, g: int, m: int):
        self.g = g
        self.m = m
        self.blocks: dict = {}
        if m >= 2:
            for v in _ideal_raw(g, m):
                if v.is_zero():
                    continue
                wt = word_weight(next(iter(v.coords)), g)
                span = self.blocks.get(wt)
                if span is None:
                    span = self.blocks[wt] = EchelonSpan()
                span.insert(v.coords)
        pivots = set()
        for span in self.blocks.values():
            pivots.update(span.rows)
        self.pivot_words = pivots
        self.rep_words = tuple(w for w in lyndon_words(g, m) if w not in pivots)
        self.rep_set = frozenset(self.rep_words)

    @property
    def dim(self) -> int:
        return len(self.rep_words)

    @property
    def ideal_dim(self) -> int:
        return len(self.pivot_words)

    def reduce_coords(self, coords: dict) -> dict:
        """Canonical representative of coords modulo the ideal, supported
        on rep_words; independent of how the ideal rows were built."""
        if not self.blocks:
            return dict(coords)
        by_weight: dict = {}
        for w, c in coords.items():
            by_weight.setdefault(word_weight(w, self.g), {})[w] = c
        out: dict = {}
        for wt, blk in by_weight.items():
            span = self.blocks.get(wt)
            out.update(blk if span is None else span.reduce(blk))
        return out


def p_basis(g: int, m: int) -> PBasis:
    """The quotient basis of degree m; the degree cap is checked on every
    call, so lowering it also refuses bases built before."""
    _check_degree(g, m)
    return _p_basis(g, m)


@lru_cache(maxsize=None)
def _p_basis(g: int, m: int) -> PBasis:
    return PBasis(g, m)


def ideal_component(g: int, m: int) -> list[LieElement]:
    """Canonical echelonized basis of the degree-m ideal piece.

    Rows are fully reduced (RREF per weight block) and ordered by their
    pivot word, so the output is reproducible.
    """
    if m < 2:
        raise ValueError("the ideal starts in degree 2")
    rows: dict = {}
    for span in p_basis(g, m).blocks.values():
        for p, row in span.rows.items():
            rows[p] = {p: row[p], **span.reduce({q: c for q, c in row.items() if q != p})}
    return [LieElement(g, m, rows[p]) for p in sorted(rows)]


class PElement(SparseElement):
    """Element of one degree of the quotient, in quotient-representative
    coordinates (a sparse vector over the non-pivot Lyndon words)."""

    __slots__ = ("g", "m")

    def __init__(self, g: int, m: int, coords: dict | None = None):
        self.g = g
        self.m = m
        self.coords = {w: c for w, c in (coords or {}).items() if c}

    def space(self) -> tuple:
        return (self.g, self.m)

    def __repr__(self):
        return f"PElement(g={self.g}, m={self.m}, {LieElement(self.g, self.m, self.coords)!r})"


def reduce_lie(x: LieElement) -> PElement:
    """Quotient map: kill the ideal, express on the quotient representatives."""
    pb = p_basis(x.g, x.degree)
    return PElement(x.g, x.degree, pb.reduce_coords(x.coords))


def lift(x: PElement) -> LieElement:
    """The section sending each representative word to its basis bracketing;
    reduce(lift(x)) == x by construction."""
    return LieElement(x.g, x.m, dict(x.coords))


def p_generator(g: int, letter: int) -> PElement:
    return PElement(g, 1, {(letter,): Fraction(1)})


def p_bracket(x: PElement, y: PElement) -> PElement:
    """Bracket in the quotient: lift, bracket, reduce."""
    return reduce_lie(bracket(lift(x), lift(y)))


def p_dim(g: int, m: int) -> int:
    return p_basis(g, m).dim


def p_character(g: int, m: int) -> dict:
    """Torus character of the degree-m quotient piece, weight -> multiplicity."""
    out: dict = {}
    for w in p_basis(g, m).rep_words:
        wt = word_weight(w, g)
        out[wt] = out.get(wt, 0) + 1
    return out


# ---------------------------------------------------------------------------
# degree -2 part of the n-pointed configuration algebra
# ---------------------------------------------------------------------------

class ConfigDeg2Element:
    """Weight -2 class with n marked points, in normal form.

    Coordinates: one rational per unordered point pair (the T_ij classes),
    a local degree-2 quotient element per point, and a formal outer part.
    The diagonal classes T_i never appear: each is eliminated through
    T_i = -(1/g) sum_{j != i} T_ij.
    """

    __slots__ = ("g", "n", "pair_coeffs", "local", "outer")

    def __init__(self, g: int, n: int, pair_coeffs=None, local=None, outer=None):
        self.g = g
        self.n = n
        self.pair_coeffs = {k: v for k, v in (pair_coeffs or {}).items() if v}
        for (i, j) in self.pair_coeffs:
            if not (1 <= i < j <= n):
                raise ValueError(f"bad point pair ({i},{j})")
        self.local = {i: v for i, v in (local or {}).items() if not v.is_zero()}
        self.outer = {k: v for k, v in (outer or {}).items() if v}

    def is_zero(self) -> bool:
        return not (self.pair_coeffs or self.local or self.outer)

    def __eq__(self, other):
        return (
            isinstance(other, ConfigDeg2Element)
            and (self.g, self.n) == (other.g, other.n)
            and self.pair_coeffs == other.pair_coeffs
            and self.local == other.local
            and self.outer == other.outer
        )

    def __add__(self, other):
        if (self.g, self.n) != (other.g, other.n):
            raise ValueError("mixed configuration spaces")
        pairs = dict(self.pair_coeffs)
        vec_axpy(pairs, other.pair_coeffs, 1)
        local = dict(self.local)
        for i, v in other.local.items():
            local[i] = local[i] + v if i in local else v
        outer = dict(self.outer)
        vec_axpy(outer, other.outer, 1)
        return ConfigDeg2Element(self.g, self.n, pairs, local, outer)

    def __rmul__(self, c):
        return ConfigDeg2Element(
            self.g,
            self.n,
            {k: c * v for k, v in self.pair_coeffs.items()},
            {i: c * v for i, v in self.local.items()},
            {k: c * v for k, v in self.outer.items()},
        )

    __mul__ = __rmul__

    def __repr__(self):
        parts = [f"{c}*T{i}{j}" for (i, j), c in sorted(self.pair_coeffs.items())]
        parts += [f"local[{i}]" for i in sorted(self.local)]
        parts += [f"{c}*{k}" for k, c in sorted(self.outer.items())]
        return " + ".join(parts) or "0"


def config_zero(g: int, n: int) -> ConfigDeg2Element:
    return ConfigDeg2Element(g, n)


def config_pair_class(g: int, n: int, i: int, j: int, coeff=1) -> ConfigDeg2Element:
    """coeff * T_ij (unordered)."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"bad pair ({i},{j})")
    if i > j:
        i, j = j, i
    return ConfigDeg2Element(g, n, {(i, j): Fraction(coeff)})


def config_diagonal_class(g: int, n: int, i: int) -> ConfigDeg2Element:
    """Normal form of T_i, i.e. -(1/g) sum_{j != i} T_ij."""
    out = config_zero(g, n)
    for j in range(1, n + 1):
        if j != i:
            out = out + config_pair_class(g, n, i, j, Fraction(-1, g))
    return out


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
    if i != j:
        c = pairing(u, v) / g
        return config_pair_class(g, n, i, j, c) if c else config_zero(g, n)
    # same point: [u, v] in the local surface algebra, theta part -> T_i
    x = bracket(
        LieElement(g, 1, {(a,): c for a, c in u.items() if c}),
        LieElement(g, 1, {(b,): c for b, c in v.items() if c}),
    )
    local = reduce_lie(x)
    c = pairing(u, v) / g  # coefficient of the symplectic class inside u^v
    out = ConfigDeg2Element(g, n, local={i: local} if not local.is_zero() else None)
    if c:
        out = out + c * config_diagonal_class(g, n, i)
    return out


def verify_no_map(g: int) -> dict:
    """Certificate that the doubled diagonal class is (2g-2)/g T_12 != 0.

    Pushes the one-point diagonal class through u -> u at both of two
    points, reduces to normal form, and compares against the closed form;
    raises VerificationError with the offending normal form on mismatch.
    """
    if g < 3:
        raise ValueError("stated for g >= 3")
    n = 2
    total = config_zero(g, n)
    for k in range(1, g + 1):
        u = {gen_a(k): Fraction(1)}
        v = {gen_b(k): Fraction(1)}
        for pi in (1, 2):
            for pj in (1, 2):
                total = total + config_bracket(g, n, (pi, u), (pj, v))
    expected = config_pair_class(g, n, 1, 2, Fraction(2 * g - 2, g))
    if total != expected or total.is_zero():
        raise VerificationError(
            f"diagonal image normal form {total!r}, expected {expected!r}"
        )
    # sanity: the identity map sends the diagonal class to its own normal form
    ident = config_zero(g, n)
    for k in range(1, g + 1):
        ident = ident + config_bracket(
            g, n, (1, {gen_a(k): Fraction(1)}), (1, {gen_b(k): Fraction(1)})
        )
    if ident != config_diagonal_class(g, n, 1):
        raise VerificationError(f"identity-map sanity check failed: {ident!r}")
    return {
        "claim": "no-map",
        "g": g,
        "coefficient": Fraction(2 * g - 2, g),
        "pair": (1, 2),
        "nonzero": True,
    }


class VerificationError(AssertionError):
    """A named verification clause failed; the message carries the witness."""
