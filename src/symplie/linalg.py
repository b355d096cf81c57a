"""Exact sparse linear algebra over the rationals.

Scalars are plain ints while integral and ``fractions.Fraction`` only
once a division makes one, in :meth:`EchelonSpan.insert` when a lead
does not divide its row; :func:`kernel_basis` returns each integral
coordinate as an int (:func:`exact`), never a float.
Vectors are dicts mapping a key to a nonzero scalar.  Keys may be any
totally ordered hashable values (words, (letter, word) pairs, ints).
:class:`EchelonSpan` pivots on the smallest key and :func:`kernel_basis`
on the largest, so all results are reproducible across runs and
platforms.

:class:`EchelonSpan` is the one elimination engine: ranks, quotient
residues and span membership go through it, and so do kernels, which
:func:`kernel_basis` finds by augmenting each column with its own index.
:class:`SparseElement` is the one base of the package's sparse element
types.
"""

from __future__ import annotations

from fractions import Fraction


def exact(c):
    """c as an int when it is integral, else as it is (a ``Fraction``)."""
    return c.numerator if c.denominator == 1 else c


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


def nonzero(coords: dict | None) -> dict:
    """A new dict of the nonzero entries of coords (None reads as empty)."""
    return {k: c for k, c in coords.items() if c} if coords else {}


class SparseElement:
    """An element of one vector space, stored as a dict vector ``coords``.

    Subclasses name their space by :meth:`space` (for example
    ``(g, degree)``); elements add, subtract and compare only within one
    space, and of one class or of a class and its subclass, whose sum is
    of the base class (a :class:`~symplie.johnson.Derivation` plus a
    :class:`~symplie.johnson.HomElement` is a hom).

    Construction contract.  The public constructor ``cls(*space, coords)``
    copies the caller's dict and drops its zero entries (:func:`nonzero`),
    so the caller may go on using and mutating it.  A result the library
    builds itself goes through :meth:`owning`, which takes ownership of a
    fresh dict with no zero value, with no copy and no second pass, and
    so do ``+ -``; :meth:`rebuild`, and through it ``neg *``, makes an
    element of the same space that way.  Both paths store the space and
    coords with :meth:`_adopt`, the one method a subclass writes for
    them; a subclass on the warm path may also override :meth:`owning` to
    store the same in one step, and :meth:`rebuild` to call it directly,
    as the quotient's :class:`~symplie.surface.PElement` does.  No
    element shares its dict with another element or with a library memo:
    a caller of :meth:`owning` keeps no reference to the dict it hands
    over.  The one exception is a memoised basis,
    :func:`symplie.johnson.der_basis`, whose derivations every caller
    shares and must treat as read-only.
    """

    __slots__ = ("coords",)

    def space(self) -> tuple:
        raise NotImplementedError

    def _adopt(self, *space_and_coords) -> None:
        """Store the space and take coords as they are (called with the
        constructor's arguments, coords already cleaned)."""
        raise NotImplementedError

    @classmethod
    def owning(cls, *space_and_coords):
        """The element ``cls(*space, coords)`` that takes ownership of
        coords: a fresh dict with no zero value, which the caller no longer
        touches.  Neither copied nor filtered."""
        x = cls.__new__(cls)
        x._adopt(*space_and_coords)
        return x

    def rebuild(self, coords: dict):
        """The element of this space that takes ownership of coords
        (:meth:`owning`)."""
        return self.owning(*self.space(), coords)

    def is_zero(self) -> bool:
        return not self.coords

    def _sum(self, other, c):
        """self + c * other, an element of the class of the operand that the
        other one is an instance of: a derivation plus a hom is a hom, as
        the sum need not be a derivation.  Each operand's space is read
        once."""
        cls = type(self)
        if type(other) is not cls:
            cls = _sum_class(self, other)
        space, other_space = self.space(), getattr(other, "space", tuple)()
        if cls is None or other_space != space:
            raise ValueError(
                f"space mismatch: {type(self).__name__}{space} and "
                f"{type(other).__name__}{other_space}"
            )
        out = dict(self.coords)
        vec_axpy(out, other.coords, c)
        return cls.owning(*space, out)

    def __eq__(self, other):
        """Equal coords in one space, for operands that could be summed (so
        a derivation equals the hom with its columns)."""
        if type(other) is not type(self) and _sum_class(self, other) is None:
            return False
        return self.space() == other.space() and self.coords == other.coords

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self.rebuild({k: -c for k, c in self.coords.items()})

    def __rmul__(self, c):
        if not c:
            return self.rebuild({})
        return self.rebuild({k: c * v for k, v in self.coords.items()})

    __mul__ = __rmul__


def _sum_class(x: SparseElement, y) -> type | None:
    """The class of x + y: the class of either one when the other is an
    instance of it, else None (no sum)."""
    if isinstance(y, type(x)):
        return type(x)
    if isinstance(y, SparseElement) and isinstance(x, type(y)):
        return type(y)
    return None


class EchelonSpan:
    """A row space built incrementally, kept in (forward) echelon form.

    Rows are stored keyed by pivot = smallest column key, with leading
    coefficient 1; an int row whose lead divides it stays int.  Rows are
    not back-eliminated against each other; :meth:`reduce` sweeps pivots
    in ascending order, which terminates because eliminating a pivot only
    introduces larger keys.  The residue of ``reduce`` is the unique
    representative of v modulo the row space supported on non-pivot keys,
    so it does not depend on insertion order.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict = {}

    def reduce(self, v: dict) -> dict:
        """Residue of v modulo the row space (v is not mutated)."""
        rows = self.rows
        v = {k: c for k, c in v.items() if c}
        while True:
            hits = [k for k in v if k in rows]
            if not hits:
                return v
            for p in sorted(hits):
                c = v.get(p)
                if c:
                    vec_axpy(v, rows[p], -c)

    def insert(self, v: dict):
        """Reduce v and adjoin the residue; returns the new pivot or None."""
        r = self.reduce(v)
        if not r:
            return None
        p = min(r)
        lead = r[p]
        if lead == -1:
            r = {k: -c for k, c in r.items()}
        elif lead != 1:
            if all(type(c) is int and not c % lead for c in r.values()):
                r = {k: c // lead for k, c in r.items()}
            else:
                inv = Fraction(1) / lead
                r = {k: inv * c for k, c in r.items()}
        self.rows[p] = r
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

    Each column is eliminated with its keys k wrapped as (0, -i), i the
    position of k among the sorted keys of all the columns, so the
    largest key leads; its own index is appended as (1, f), which sorts
    after them.  The pivot order changes only the work, not the
    vectors: with the largest word leading, the theta-image columns of
    :func:`symplie.johnson.der_basis` mostly lead at distinct keys, and
    the matrix stays close to triangular.  A dependent column reduces to
    a row on the (1, .) keys alone: its kernel vector, normalised at its
    pivot.  That row is taken out again, so the rows left always come
    from independent columns.  Each coordinate is returned as an int when
    it is integral and as a ``Fraction`` otherwise.
    """
    rank = {k: -i for i, k in enumerate(sorted({k for col in columns for k in col}))}
    span = EchelonSpan()
    out = []
    for f, col in enumerate(columns):
        aug = {(0, rank[k]): c for k, c in col.items()}
        aug[(1, f)] = 1
        p = span.insert(aug)
        if p[0] == 1:
            out.append({j: exact(c) for (_, j), c in sorted(span.rows.pop(p).items())})
    return out
