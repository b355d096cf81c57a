"""First-principles Dehn twist images via the Magnus expansion.

Surface-group words live in the free group on 2g generators; generator
k (0-based) abelianizes to letter k of H, so the even-index generators
carry the a-classes and the odd-index ones the b-classes of the fixed
symplectic basis.  A separating twist acts by conjugating the far-side
generators by a product of commutators; pushing the comparison words
through the truncated Magnus embedding, taking the logarithm and
projecting to the quotient rebuilds the twist derivation with no input
from the closed form, which is exactly what makes the agreement check
in the acceptance suite worth running.

Magnus series are plain tensor dicts (word tuple -> coefficient), and
every product of them is :func:`symplie.freelie.tensor_mul` truncated in
the degree the caller names, the same product that expands the Lyndon
bracketings.
"""

from __future__ import annotations

from fractions import Fraction

from .freelie import LieElement, NotLieElement, lie_from_tensor, tensor_mul
from .johnson import Derivation, HomElement
from .linalg import vec_axpy
from .surface import reduce_lie


class NotInLCS(ValueError):
    """The word is not as deep in the lower central series as requested."""


# ---------------------------------------------------------------------------
# free group words
# ---------------------------------------------------------------------------

class FreeWord:
    """Freely reduced word in the free group on 2g generators.

    letters is a tuple of (generator index, +1 or -1).
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = _free_reduce(letters)

    @classmethod
    def generator(cls, k: int, exp: int = 1) -> "FreeWord":
        if exp not in (1, -1):
            raise ValueError("exponent must be +-1")
        return cls(((k, exp),))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((k, -e) for k, e in reversed(self.letters)))

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        if not self.letters:
            return "1"
        bits = []
        for k, e in self.letters:
            bits.append(f"g{k + 1}" + ("" if e == 1 else "^-1"))
        return "*".join(bits)


def _free_reduce(letters) -> tuple:
    out: list = []
    for k, e in letters:
        if out and out[-1][0] == k and out[-1][1] == -e:
            out.pop()
        else:
            out.append((k, e))
    return tuple(out)


def commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    return u * v * u.inverse() * v.inverse()


# ---------------------------------------------------------------------------
# Magnus embedding
# ---------------------------------------------------------------------------

def _generator_series(k: int, exp: int, n: int) -> dict:
    if exp == 1:
        return {(): 1, (k,): 1}
    # geometric series for the inverse, truncated
    return {(k,) * d: (-1) ** d for d in range(n + 1)}


def magnus(w: FreeWord, n: int) -> dict:
    """Image of a word under gamma_k -> 1 + X_k, truncated in degree n, as
    a tensor dict (word tuple -> coefficient)."""
    if n < 1:
        raise ValueError("need truncation degree >= 1")
    out = {(): 1}
    for k, e in w.letters:
        out = tensor_mul(out, _generator_series(k, e, n), n)
    return out


def series_log(s: dict, n: int) -> dict:
    """log of a series with constant term 1, truncated in degree n;
    degree -> tensor dict."""
    if s.get((), 0) != 1:
        raise ValueError("log needs constant term 1")
    u = {w: c for w, c in s.items() if w}
    total: dict = {}
    power = {(): 1}
    for d in range(1, n + 1):
        power = tensor_mul(power, u, n)
        if not power:
            break
        vec_axpy(total, power, Fraction((-1) ** (d + 1), d))
    out: dict = {d: {} for d in range(1, n + 1)}
    for w, c in total.items():
        out[len(w)][w] = c
    return out


def lcs_class(w: FreeWord, k: int, g: int) -> LieElement:
    """Degree-k part of log(magnus(w)) as a Lie element.

    Requires all lower-degree parts to vanish (w in the k-th lower central
    subgroup) and the degree-k part to be a Lie element; raises NotInLCS
    otherwise.  The Lyndon coordinates come from peeling the tensor, which
    ends only once exact subtractions have emptied it, so they are exact.
    """
    parts = series_log(magnus(w, k), k)
    for d in range(1, k):
        if parts[d]:
            raise NotInLCS(f"degree-{d} part of the logarithm is nonzero")
    try:
        return LieElement.owning(g, k, lie_from_tensor(parts[k]))
    except NotLieElement as exc:
        raise NotInLCS(f"degree-{k} logarithm part is not a Lie element") from exc


# ---------------------------------------------------------------------------
# twist automorphisms
# ---------------------------------------------------------------------------

def substitute(images: tuple, w: FreeWord) -> FreeWord:
    """The image of w under the endomorphism sending generator k to
    images[k]."""
    out = FreeWord()
    for k, e in w.letters:
        im = images[k]
        out = out * (im if e == 1 else im.inverse())
    return out


def dehn_twist(g: int, j: int, inverse: bool = False) -> tuple:
    """Images of the 2g generators under the twist about the separating
    curve that cuts off the first j handles, for :func:`substitute`.

    Fixes the first 2j generators and conjugates the rest by the product
    of their commutators, so it acts trivially on homology; inverse=True
    flips the curve orientation.
    """
    if not 1 <= j <= g - 1:
        raise ValueError(f"need 1 <= j <= {g - 1}")
    c = FreeWord()
    for k in range(1, j + 1):
        c = c * commutator(FreeWord.generator(2 * k - 2), FreeWord.generator(2 * k - 1))
    if inverse:
        c = c.inverse()
    gens = (FreeWord.generator(i) for i in range(2 * g))
    return tuple(gamma if i < 2 * j else c * gamma * c.inverse() for i, gamma in enumerate(gens))


def tau_hyp_from_twist(g: int, j: int, inverse: bool = False) -> Derivation:
    """Rebuild the twist derivation from the automorphism alone.

    For each generator, takes the degree-3 class of the word comparing its
    image with the generator (lcs_class raises NotInLCS unless the
    degree-1 and degree-2 parts of its logarithm vanish), reduces it to
    the quotient and assembles the columns on homology.
    """
    cols = [reduce_lie(lcs_class(image * FreeWord.generator(i, -1), 3, g))
            for i, image in enumerate(dehn_twist(g, j, inverse=inverse))]
    return Derivation.from_hom(HomElement.from_columns(g, 3, cols))
