"""The named verification claims: the paper's certificates as library checks.

Each claim is a function called as ``fn(g, **options)`` with the options
``degree`` (the top degree of ``dims-oracle``) and ``inverse`` (the twist
orientation of ``magnus-oracle``); a claim reads only the options it
needs.  It returns its witness, a dict of printable values with every
rational as a ``Fraction``, or raises one of :data:`FAILURES` naming the
failed clause.  A ``ValueError`` outside :data:`FAILURES` is a broken
precondition such as the genus range.  :data:`CLAIMS` maps each name to
its default genera and its function.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .freelie import (
    LieElement,
    NotLieElement,
    bracket,
    gen_a,
    gen_b,
    theta_partial,
)
from .johnson import (
    Derivation,
    NotADerivation,
    WedgeElement,
    derivation_bracket,
    inner_preimage,
    lambda4_embed,
    phi,
    phi_prime,
    pi_map,
    p_split,
    project_22,
    sym_mul,
    tau_hyp_twist,
    wedge_theta,
)
from .magnus import FreeWord, NotInLCS, dehn_twist, tau_hyp_from_twist
from .reps import NotACharacter, degree_cap, raising_highest_weight_witness
from .surface import (
    ConfigDeg2Element,
    PElement,
    VerificationError,
    checked_dims,
    config_bracket,
    config_diagonal_class,
    config_pair_class,
    reduce_lie,
)

# what a failed claim raises; any other ValueError is a broken precondition
FAILURES = (VerificationError, AssertionError, NotADerivation, NotACharacter,
            NotLieElement, NotInLCS)


def _gen(g: int, x: int) -> LieElement:
    return LieElement.generator(g, x)


def theta_square_lemma(g: int, **_options) -> dict:
    """phi of the square of a partial symplectic class is twice the bracket
    with that class on its own letters and zero on the others."""
    subsets = [frozenset(range(1, j + 1)) for j in range(1, g)]
    subsets += [frozenset(range(j + 1, g + 1)) for j in range(1, g)]
    subsets += [frozenset({i}) for i in range(1, g + 1)]
    subsets += [frozenset(range(1, g + 1)), frozenset({1, g})]
    for idx in set(subsets):
        th = wedge_theta(g, idx)
        hom = phi(sym_mul(th, th))
        th_lie = theta_partial(g, idx)
        for i in range(1, g + 1):
            for x in (gen_a(i), gen_b(i)):
                col = hom.column(x)
                if i in idx:
                    want = reduce_lie(2 * bracket(_gen(g, x), th_lie))
                else:
                    want = PElement(g, 3)
                if col != want:
                    raise VerificationError(
                        f"value on {x} for I={sorted(idx)}: got {col!r}"
                    )
    return {"subsets_checked": len(set(subsets)), "factor": Fraction(2)}


def dehn_twist_image(g: int, **_options) -> dict:
    """Each separating twist image brackets the far-side letters with the
    upper class, kills the near side and lies in the kernel."""
    for j in range(1, g):
        d = tau_hyp_twist(g, j)  # from_hom already checks it kills theta
        th = theta_partial(g, range(j + 1, g + 1))
        for i in range(1, g + 1):
            for x in (gen_a(i), gen_b(i)):
                want = reduce_lie(bracket(_gen(g, x), th)) if i > j else PElement(g, 3)
                if d.column(x) != want:
                    raise VerificationError(f"twist j={j} value on letter {x}")
    return {"twists_checked": g - 1, "column_rule": "[x, upper-class] on far side, 0 else"}


def pi_p_identity(g: int, **_options) -> dict:
    """The contraction undoes its splitting on every wedge-2 basis vector."""
    for pair in combinations(range(2 * g), 2):
        w = WedgeElement.term(g, pair)
        if pi_map(p_split(w)) != w:
            raise VerificationError(f"pi(p(.)) != id on basis vector {pair}")
    return {"basis_vectors": 2 * g * (2 * g - 1) // 2}


def projection_scalars(g: int, **_options) -> dict:
    """The contraction scalars -(g+1) and -(2g+1), and the three-term
    expansion of the projected square, which lies in ker pi."""
    th = wedge_theta(g)
    prim = WedgeElement.term(g, (gen_a(1), gen_a(2)))
    if pi_map(sym_mul(prim, th)) != Fraction(-(g + 1)) * prim:
        raise VerificationError("primitive scalar is not -(g+1)")
    if pi_map(sym_mul(th, th)) != Fraction(-(2 * g + 1)) * th:
        raise VerificationError("symplectic-line scalar is not -(2g+1)")
    a1b1 = WedgeElement.term(g, (gen_a(1), gen_b(1)))
    terms = [Fraction(1), Fraction(-3, g + 1), Fraction(3, (g + 1) * (2 * g + 1))]
    got = project_22(sym_mul(a1b1, a1b1))
    want = (
        terms[0] * sym_mul(a1b1, a1b1)
        + terms[1] * sym_mul(a1b1, th)
        + terms[2] * sym_mul(th, th)
    )
    if got != want:
        raise VerificationError("three-term expansion of the projected square is off")
    if not pi_map(got).is_zero():
        raise VerificationError("projected square not in ker pi")
    return {
        "primitive_scalar": Fraction(-(g + 1)),
        "line_scalar": Fraction(-(2 * g + 1)),
        "square_terms": terms,
    }


def phi_kills_lambda4(g: int, **_options) -> dict:
    """phi vanishes on the wedge-4 copy and on the squared class."""
    for sub in combinations(range(2 * g), 4):
        if not phi(lambda4_embed(WedgeElement.term(g, sub))).is_zero():
            raise VerificationError(f"phi does not kill the wedge-4 vector {sub}")
    th = wedge_theta(g)
    if not phi(sym_mul(th, th)).is_zero():
        raise VerificationError("phi does not kill the squared symplectic class")
    n = 2 * g
    return {"wedge4_basis_vectors": n * (n - 1) * (n - 2) * (n - 3) // 24,
            "theta_square_killed": True}


def verify_theorem_outer_bracket(g: int, **_options) -> dict:
    """Certificate for the commuting-pair bracket computation.

    Builds the highest-part images of the two twist squares, brackets
    them, and checks: (i) the value on a_2 is -9/(g+1)^2 times the nested
    class, (ii) that class is nonzero in degree 5, (iii) the bracket is
    inner with an explicit checked preimage, (iv) the full twist images
    commute.  Raises VerificationError naming the failed clause.
    """
    if g < 3:
        raise ValueError("stated for g >= 3")
    a1b1 = WedgeElement.term(g, (gen_a(1), gen_b(1)))
    agbg = WedgeElement.term(g, (gen_a(g), gen_b(g)))
    xi = Derivation.from_hom(phi(project_22(sym_mul(a1b1, a1b1))))
    xi_t = Derivation.from_hom(phi(project_22(sym_mul(agbg, agbg))))
    br = derivation_bracket(xi, xi_t)

    got = br.column(gen_a(2))
    nested = reduce_lie(
        bracket(
            _gen(g, gen_a(2)),
            bracket(
                bracket(_gen(g, gen_a(1)), _gen(g, gen_b(1))),
                bracket(_gen(g, gen_a(g)), _gen(g, gen_b(g))),
            ),
        )
    )
    coeff = Fraction(-9, (g + 1) ** 2)
    if got != coeff * nested:
        raise VerificationError(f"clause (i): value on a_2 is {got!r}")
    if nested.is_zero():
        raise VerificationError("clause (ii): nested class vanishes in degree 5")
    z = inner_preimage(br)
    if z is None:
        raise VerificationError("clause (iii): bracket is not inner")
    omega = Derivation.from_hom(phi(sym_mul(a1b1, a1b1)))
    omega_t = Derivation.from_hom(phi(sym_mul(agbg, agbg)))
    if not derivation_bracket(omega, omega_t).is_zero():
        raise VerificationError("clause (iv): full twist images do not commute")
    return {
        "coefficient": coeff,
        "nested_class_nonzero": True,
        "inner_preimage_terms": len(z.coords),
        "full_images_commute": True,
    }


def verify_31_bracket(g: int, **_options) -> dict:
    """Certificate for the degree-3 bracket evaluation: the commutator of
    the wedge-3 derivation at a_2^theta with the highest part of the first
    twist square, evaluated on a_2, against 3/(g+1) times [[[a1,b1],a2],a2];
    plus the raising-operator reach of a [3,1] highest weight vector."""
    if g < 3:
        raise ValueError("stated for g >= 3")
    a2_theta = WedgeElement(g, 3)
    for (x, y), c in wedge_theta(g).coords.items():
        a2_theta = a2_theta + WedgeElement.term(g, (gen_a(2), x, y), c)
    d1 = Derivation.from_hom(phi_prime(a2_theta))
    a1b1 = WedgeElement.term(g, (gen_a(1), gen_b(1)))
    d2 = Derivation.from_hom(phi(project_22(sym_mul(a1b1, a1b1))))
    br = derivation_bracket(d1, d2)

    got = br.column(gen_a(2))
    target = reduce_lie(
        bracket(
            bracket(bracket(_gen(g, gen_a(1)), _gen(g, gen_b(1))), _gen(g, gen_a(2))),
            _gen(g, gen_a(2)),
        )
    )
    coeff = Fraction(3, g + 1)
    if got != coeff * target:
        raise VerificationError(f"bracket value on a_2 is {got!r}")
    if got.is_zero():
        raise VerificationError("bracket value vanishes in degree 4")
    if raising_highest_weight_witness(got, g, (3, 1)) is None:
        raise VerificationError("no [3,1] highest weight vector reached")
    return {"coefficient": coeff, "nonzero": True, "contains_31": True}


def verify_no_map(g: int, **_options) -> dict:
    """Certificate that the doubled diagonal class is (2g-2)/g T_12 != 0.

    Pushes the one-point diagonal class through u -> u at both of two
    points, reduces to normal form, and compares against the closed form;
    raises VerificationError with the offending normal form on mismatch.
    """
    if g < 3:
        raise ValueError("stated for g >= 3")
    n = 2
    total = ConfigDeg2Element(g, n)
    for k in range(1, g + 1):
        u = {gen_a(k): Fraction(1)}
        v = {gen_b(k): Fraction(1)}
        for pi in (1, 2):
            for pj in (1, 2):
                total = total + config_bracket(g, n, (pi, u), (pj, v))
    coeff = Fraction(2 * g - 2, g)
    expected = config_pair_class(g, n, 1, 2, coeff)
    if total != expected or total.is_zero():
        raise VerificationError(
            f"diagonal image normal form {total!r}, expected {expected!r}"
        )
    # sanity: the identity map sends the diagonal class to its own normal form
    ident = ConfigDeg2Element(g, n)
    for k in range(1, g + 1):
        ident = ident + config_bracket(
            g, n, (1, {gen_a(k): Fraction(1)}), (1, {gen_b(k): Fraction(1)})
        )
    if ident != config_diagonal_class(g, n, 1):
        raise VerificationError(f"identity-map sanity check failed: {ident!r}")
    return {"coefficient": coeff, "nonzero": True}


def magnus_oracle(g: int, inverse: bool = False, **_options) -> dict:
    """The twist derivations rebuilt from the Magnus expansion equal the
    closed form (negated for the inverse orientation), and disjoint twists
    commute as automorphisms."""
    for j in range(1, g):
        want = tau_hyp_twist(g, j)
        if tau_hyp_from_twist(g, j, inverse=inverse) != (-want if inverse else want):
            raise VerificationError(f"twist j={j}: the two computations disagree")
    # disjoint twists commute on the nose as automorphisms
    t1 = dehn_twist(g, 1, inverse=inverse)
    t2 = dehn_twist(g, g - 1, inverse=inverse)
    for i in range(2 * g):
        w = FreeWord.generator(i)
        if t1.apply(t2.apply(w)) != t2.apply(t1.apply(w)):
            raise VerificationError(f"twist automorphisms do not commute on generator {i}")
    return {
        "twists_checked": g - 1,
        "orientation": "inverse" if inverse else "standard",
        "automorphisms_commute": True,
        "johnson_degree2_trivial": True,
    }


def dims_oracle(g: int, degree: int | None = None, **_options) -> dict:
    """checked_dims in every degree up to degree (default: the cap); a degree
    outside 1..cap is a broken precondition."""
    cap = degree_cap()
    maxdeg = cap if degree is None else degree
    if not 1 <= maxdeg <= cap:
        raise ValueError(f"degree {maxdeg} outside 1..{cap}")
    dims = [checked_dims(g, m)[1] for m in range(1, maxdeg + 1)]
    return {"max_degree": maxdeg, "quotient_dims": dims}


CLAIMS = {
    "theta-square-lemma": ((3, 4, 5), theta_square_lemma),
    "dehn-twist-image": ((3, 4), dehn_twist_image),
    "pi-p-identity": ((3, 4, 5), pi_p_identity),
    "projection-scalars": ((3, 4, 5), projection_scalars),
    "phi-kills-lambda4": ((3, 4, 5), phi_kills_lambda4),
    "outer-bracket": ((3, 4), verify_theorem_outer_bracket),
    "bracket-31": ((3, 4), verify_31_bracket),
    "no-map": ((3, 4, 5), verify_no_map),
    "magnus-oracle": ((3, 4), magnus_oracle),
    "dims-oracle": ((2, 3, 4), dims_oracle),
}
