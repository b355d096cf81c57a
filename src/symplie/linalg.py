"""Exact sparse linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (plain ints are accepted wherever a
scalar is expected; arithmetic stays exact either way).  Vectors are
dicts mapping a column key to a nonzero scalar.  Column keys may be any
totally ordered hashable values -- plain ints for :func:`kernel_basis`,
tuples elsewhere in the package -- and every elimination pivots on the
smallest key, so all results are reproducible across runs and platforms.

:class:`EchelonSpan` is the one elimination engine: ranks, quotient
residues, span membership with coordinates, and kernels all go through
it.  :class:`SparseElement` is the one base of the package's sparse
element types.
"""

from __future__ import annotations

from fractions import Fraction


def vec_axpy(dst: dict, src: dict, c) -> None:
    """In place dst += c*src, dropping entries that cancel to zero."""
    if not c:
        return
    for k, v in src.items():
        w = dst.get(k)
        if w is None:
            dst[k] = c * v
        else:
            w = w + c * v
            if w:
                dst[k] = w
            else:
                del dst[k]


class SparseElement:
    """An element of one vector space, stored as a dict vector ``coords``.

    Subclasses name their space by :meth:`space` (for example
    ``(g, degree)``); elements add, subtract and compare only within one
    space.  :meth:`rebuild` makes an element of the same space from
    coords; the default calls the constructor as ``cls(*space, coords)``.
    """

    __slots__ = ("coords",)

    def space(self) -> tuple:
        raise NotImplementedError

    def rebuild(self, coords: dict):
        return type(self)(*self.space(), coords)

    def is_zero(self) -> bool:
        return not self.coords

    def _other_coords(self, other) -> dict:
        if type(other) is not type(self) or other.space() != self.space():
            raise ValueError(
                f"space mismatch: {type(self).__name__}{self.space()} and "
                f"{type(other).__name__}{getattr(other, 'space', tuple)()}"
            )
        return other.coords

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.space() == other.space()
            and self.coords == other.coords
        )

    def __add__(self, other):
        out = dict(self.coords)
        vec_axpy(out, self._other_coords(other), 1)
        return self.rebuild(out)

    def __sub__(self, other):
        out = dict(self.coords)
        vec_axpy(out, self._other_coords(other), -1)
        return self.rebuild(out)

    def __neg__(self):
        return self.rebuild({k: -c for k, c in self.coords.items()})

    def __rmul__(self, c):
        if not c:
            return self.rebuild({})
        return self.rebuild({k: c * v for k, v in self.coords.items()})

    __mul__ = __rmul__


class EchelonSpan:
    """A row space built incrementally, kept in (forward) echelon form.

    Rows are stored keyed by pivot = smallest column key, with leading
    coefficient 1.  Rows are not back-eliminated against each other;
    :meth:`reduce` sweeps pivots in ascending order, which terminates
    because eliminating a pivot only introduces larger keys.  The residue
    of ``reduce`` is the unique representative of v modulo the row space
    supported on non-pivot keys, so it does not depend on insertion order.
    """

    __slots__ = ("rows", "combos")

    def __init__(self, track_combos: bool = False):
        self.rows: dict = {}
        self.combos: dict | None = {} if track_combos else None

    def reduce(self, v: dict, combo: dict | None = None) -> dict:
        """Residue of v modulo the row space (v is not mutated).

        If ``combo`` is a dict and combo tracking is on, accumulates the
        span coordinates used, so v = residue + sum(combo[j] * vector_j).
        """
        rows = self.rows
        v = {k: c for k, c in v.items() if c}
        while True:
            hits = [k for k in v if k in rows]
            if not hits:
                return v
            for p in sorted(hits):
                c = v.get(p)
                if not c:
                    continue
                vec_axpy(v, rows[p], -c)
                if combo is not None:
                    vec_axpy(combo, self.combos[p], c)

    def insert(self, v: dict, tag=None, combo: dict | None = None):
        """Reduce v and adjoin the residue; returns the new pivot or None.

        ``tag`` names v in tracked combos (defaults to the insertion count).
        A ``combo`` dict receives the span coordinates used by the
        reduction, so when v is dependent (None is returned) it holds v's
        coordinates on the vectors inserted before it.
        """
        if self.combos is not None:
            if tag is None:
                tag = len(self.combos)
            if combo is None:
                combo = {}
        r = self.reduce(v, combo)
        if not r:
            return None
        p = min(r)
        lead = r[p]
        if lead != 1:
            inv = Fraction(1, 1) / lead
            r = {k: inv * c for k, c in r.items()}
        self.rows[p] = r
        if self.combos is not None:
            # residue = v - sum(combo); normalize by the same leading coeff
            own = {tag: Fraction(1)}
            vec_axpy(own, combo, -1)
            if lead != 1:
                own = {k: inv * c for k, c in own.items()}
            self.combos[p] = own
        return p

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)


def kernel_basis(columns: list) -> list:
    """Basis of the right kernel of the matrix with the given column dicts.

    One vector (a dict over column indices) per dependent column f, in
    ascending order: e_f minus f's coordinates on the independent columns
    before it, scaled so its smallest-index coefficient is 1.  It is the
    unique kernel vector supported on f and those columns, hence the
    same vector the reduced row echelon form gives for the free column f.
    """
    span = EchelonSpan(track_combos=True)
    out = []
    for f, col in enumerate(columns):
        combo: dict = {}
        if span.insert(col, tag=f, combo=combo) is not None:
            continue
        v = {f: Fraction(1)}
        vec_axpy(v, combo, -1)
        lead = v[min(v)]
        out.append({k: v[k] / lead for k in sorted(v)})
    return out
