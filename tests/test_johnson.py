import random
from fractions import Fraction
from itertools import combinations

import pytest

from symplie.freelie import (
    LieElement,
    bracket,
    gen_a,
    gen_b,
    theta_partial,
)
from symplie.johnson import (
    Derivation,
    NotADerivation,
    Sym2Lambda2,
    WedgeElement,
    ad_derivation,
    der_basis,
    der_decomposition,
    der_dim,
    inner_preimage,
    lambda4_embed,
    outer_decomposition,
    p_split,
    phi,
    phi_prime,
    pi_map,
    project_22,
    sym_mul,
    tau_hyp_twist,
    theta_image,
    verify_31_bracket,
    verify_theorem_outer_bracket,
    wedge_theta,
)
from symplie.linalg import EchelonSpan, kernel_basis
from symplie.reps import submodule_decomposition, weyl_dim
from symplie.surface import PElement, labute_dim, p_basis, reduce_lie

from helpers import random_p, random_sym, rref_kernel_basis, run_equivariance


def _gen(g, x):
    return LieElement.generator(g, x)


def _theta_wedge_subset(g, idx):
    return WedgeElement(g, 2, {(gen_a(i), gen_b(i)): Fraction(1) for i in idx})


# --- the quadratic map ------------------------------------------------------

def test_phi_theta_square_lemma():
    for g in (3, 4):
        for idx in ({1}, {1, 2}, set(range(2, g + 1))):
            th = _theta_wedge_subset(g, idx)
            hom = phi(sym_mul(th, th))
            th_lie = theta_partial(g, idx)
            for i in range(1, g + 1):
                for x in (gen_a(i), gen_b(i)):
                    if i in idx:
                        want = reduce_lie(2 * bracket(_gen(g, x), th_lie))
                    else:
                        want = PElement(g, 3)
                    assert hom.column(x) == want, (g, idx, x)


def test_phi_kills_wedge4_and_theta_square():
    g = 3
    for sub in combinations(range(2 * g), 4):
        assert phi(lambda4_embed(WedgeElement.term(g, sub))).is_zero()
    th = wedge_theta(g)
    assert phi(sym_mul(th, th)).is_zero()


def test_phi_image_is_derivation():
    # the induced map lands in the degree-2 derivation space
    rng = random.Random(23)
    for _ in range(10):
        s = random_sym(3, rng)
        Derivation.from_hom(phi(s))  # constructor runs the kernel test


def test_phi_tilde_iso_onto_der2():
    # dimension + injectivity modulo wedge-4 and the line: rank == dim Der_2
    for g in (3, 4):
        span = EchelonSpan()
        rank = 0
        pairs = list(combinations(range(2 * g), 2))
        for i, p in enumerate(pairs):
            for q in pairs[i:]:
                s = Sym2Lambda2(g, {(p, q): Fraction(1)})
                kv = phi(s).keyvec()
                if kv and span.insert(kv) is not None:
                    rank += 1
        assert rank == der_dim(g, 2)


# --- phi prime --------------------------------------------------------------

def test_phi_prime_direct_values():
    g = 3
    t = WedgeElement.term(g, (gen_a(1), gen_b(1), gen_a(2)))
    got = phi_prime(t).column(gen_b(2))
    assert got == reduce_lie(bracket(_gen(g, gen_a(1)), _gen(g, gen_b(1))))
    t2 = WedgeElement.term(g, (gen_a(1), gen_a(2), gen_a(3)))
    got2 = phi_prime(t2).column(gen_b(3))
    assert got2 == reduce_lie(bracket(_gen(g, gen_a(1)), _gen(g, gen_a(2))))


def test_phi_prime_a2_theta_is_derivation():
    g = 3
    acc = WedgeElement(g, 3)
    for (x, y), c in wedge_theta(g).coords.items():
        acc = acc + WedgeElement.term(g, (gen_a(2), x, y), c)
    Derivation.from_hom(phi_prime(acc))


# --- pi, p, projections -------------------------------------------------------

def test_pi_scalars():
    for g in (3, 4, 5):
        th = wedge_theta(g)
        prim = WedgeElement.term(g, (gen_a(1), gen_a(2)))
        assert pi_map(sym_mul(prim, th)) == Fraction(-(g + 1)) * prim
        assert pi_map(sym_mul(th, th)) == Fraction(-(2 * g + 1)) * th


def test_pi_p_identity_full_basis():
    g = 3
    for pair in combinations(range(2 * g), 2):
        w = WedgeElement.term(g, pair)
        assert pi_map(p_split(w)) == w


def test_pi_kills_wedge4():
    g = 3
    for sub in combinations(range(2 * g), 4):
        assert pi_map(lambda4_embed(WedgeElement.term(g, sub))).is_zero()


def test_project22_three_term_expansion():
    for g in (3, 4, 5):
        th = wedge_theta(g)
        a1b1 = WedgeElement.term(g, (gen_a(1), gen_b(1)))
        got = project_22(sym_mul(a1b1, a1b1))
        want = (
            sym_mul(a1b1, a1b1)
            - Fraction(3, g + 1) * sym_mul(a1b1, th)
            + Fraction(3, (g + 1) * (2 * g + 1)) * sym_mul(th, th)
        )
        assert got == want


def test_project22_lands_in_ker_pi():
    rng = random.Random(31)
    for _ in range(15):
        s = random_sym(3, rng)
        assert pi_map(project_22(s)).is_zero()


def test_project22_kills_image_of_p():
    rng = random.Random(37)
    for _ in range(15):
        w = WedgeElement.term(3, rng.sample(range(6), 2), Fraction(rng.randint(1, 5)))
        assert project_22(p_split(w)).is_zero()


def test_sym2lambda2_mass_identity():
    g = 3
    n = 2 * g
    lam4 = n * (n - 1) * (n - 2) * (n - 3) // 24
    lam2 = n * (n - 1) // 2
    from symplie.reps import module_character

    assert module_character(g, "sym2lambda2").mass() == lam4 + weyl_dim(g, (2, 2)) + lam2


# --- derivation spaces ------------------------------------------------------

def test_kernel_of_p2_matrix_dimension():
    # spec oracle: 6*64 - 280 = 104 at g=3, via the assembled global matrix
    g = 3
    from symplie.johnson import _hom_basis_image

    cols = sorted((x, w) for x in range(2 * g) for w in p_basis(g, 3).rep_words)
    ker = kernel_basis([_hom_basis_image(g, 2, *key) for key in cols])
    assert len(ker) == 2 * g * labute_dim(g, 3) - labute_dim(g, 4) == 104


@pytest.mark.parametrize("g,n", [(g, n) for g in (2, 3, 4) for n in (1, 2, 3)])
def test_der_basis_matches_rref_oracle(g, n):
    # per weight block, the RREF kernel of the row-assembled matrix gives the
    # same vectors, with the same coefficient type, in the same order
    from symplie.johnson import _der_blocks, _hom_basis_image

    blocks = _der_blocks(g, n)
    want = []
    for wt in sorted(blocks):
        keys = sorted(blocks[wt])
        rows = {}
        for j, key in enumerate(keys):
            for word, c in _hom_basis_image(g, n, *key).items():
                rows.setdefault(word, {})[j] = c
        for vec in rref_kernel_basis(list(rows.values()), len(keys)):
            want.append({keys[j]: c for j, c in vec.items()})
    got = [d.keyvec() for d in der_basis(g, n)]
    assert got == want
    assert all(type(c) is Fraction for kv in got for c in kv.values())


def test_der_tables_g3():
    assert der_decomposition(3, 1).as_multiset() == {(1, 1, 1): 1, (1,): 1}
    assert der_decomposition(3, 2).as_multiset() == {(2, 2): 1, (1, 1): 1}
    assert der_decomposition(3, 3).as_multiset() == {(3, 1, 1): 1, (2, 1): 1, (3,): 1}


def test_outder_tables_g3():
    assert outer_decomposition(3, 1).as_multiset() == {(1, 1, 1): 1}
    assert outer_decomposition(3, 2).as_multiset() == {(2, 2): 1}
    assert outer_decomposition(3, 3).as_multiset() == {(3, 1, 1): 1, (3,): 1}


def test_der_basis_matches_character():
    for n in (1, 2):
        basis = der_basis(3, n)
        assert len(basis) == der_dim(3, n)
        for d in basis[:5]:
            assert theta_image(d).is_zero()


def test_derivation_constructor_rejects_non_kernel():
    g = 3
    cols = [PElement(g, 2) for _ in range(2 * g)]
    cols[gen_a(1)] = reduce_lie(bracket(_gen(g, gen_a(1)), _gen(g, gen_a(2))))
    with pytest.raises(NotADerivation):
        Derivation(g, 2, cols)


def test_derivation_value_leibniz():
    # D[x,y] = [Dx,y] + [x,Dy] through the quotient
    rng = random.Random(41)
    from symplie.surface import p_bracket

    for d in der_basis(3, 1)[:4]:
        x = random_p(3, 1, rng)
        y = random_p(3, 2, rng)
        lhs = d.value(p_bracket(x, y))
        rhs = p_bracket(d.value(x), y) + p_bracket(x, d.value(y))
        assert lhs == rhs


def test_inner_derivations_detected():
    rng = random.Random(43)
    for m in (1, 2):
        z = random_p(3, m, rng)
        d = ad_derivation(z)
        back = inner_preimage(d)
        assert back is not None
        assert ad_derivation(back) == d


# --- twists and the theorem computations ------------------------------------

def test_tau_hyp_closed_form_columns():
    for g in (3, 4):
        for j in range(1, g):
            d = tau_hyp_twist(g, j)
            th = theta_partial(g, range(j + 1, g + 1))
            for i in range(1, g + 1):
                for x in (gen_a(i), gen_b(i)):
                    want = (
                        reduce_lie(bracket(_gen(g, x), th))
                        if i > j
                        else PElement(g, 3)
                    )
                    assert d.column(x) == want


def test_tau_hyp_is_derivation():
    assert theta_image(tau_hyp_twist(3, 1)).is_zero()
    with pytest.raises(ValueError):
        tau_hyp_twist(3, 3)


def test_outer_bracket_theorem_g3():
    r = verify_theorem_outer_bracket(3)
    assert r["coefficient"] == Fraction(-9, 16)


def test_31_bracket_g3():
    r = verify_31_bracket(3)
    assert r["coefficient"] == Fraction(3, 4)


def test_section_coefficient_solutions():
    # the cubic/quartic relations leave exactly the 2n signed unit vectors
    from symplie.johnson import section_coefficient_solutions

    for n in (1, 2, 3):
        sols = section_coefficient_solutions(n)
        assert len(sols) == 2 * n
        for s in sols:
            assert sum(1 for c in s if c) == 1
            assert all(c in (-1, 0, 1) for c in s)


def test_31_value_generates_31_submodule():
    g = 3
    target = reduce_lie(
        bracket(
            bracket(bracket(_gen(g, gen_a(1)), _gen(g, gen_b(1))), _gen(g, gen_a(2))),
            _gen(g, gen_a(2)),
        )
    )
    dec = submodule_decomposition(target, g)
    assert (3, 1) in dec.as_multiset()


def test_equivariance_suite_small():
    run_equivariance(40)
