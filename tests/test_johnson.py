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
    HomElement,
    NotADerivation,
    Sym2Lambda2,
    WedgeElement,
    ad_derivation,
    der_basis,
    derivation_bracket,
    inner_preimage,
    lambda4_embed,
    p_split,
    phi,
    phi_prime,
    pi_map,
    project_22,
    sym_mul,
    tau_hyp_twist,
    theta_image,
    wedge_theta,
)
from symplie.claims import verify_31_bracket, verify_theorem_outer_bracket
from symplie.linalg import EchelonSpan, exact, kernel_basis
from symplie.reps import decompose, module_character, sp_generator_ids, weyl_dim
from symplie.surface import PElement, labute_dim, p_basis, p_bracket, p_dim, reduce_lie

from helpers import (
    der_blocks,
    der_character_by_ranks,
    exactly_typed,
    hom_basis_image,
    inner_preimage_by_filter,
    multiset,
    rand_int,
    random_p,
    random_sym,
    rref_kernel_basis,
    run_equivariance,
    run_key_normal_forms,
    section_coefficient_solutions,
    submodule_decomposition,
)


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
        Derivation.from_hom(phi(s))  # from_hom runs the kernel test


def test_phi_tilde_iso_onto_der2():
    # dimension + injectivity modulo wedge-4 and the line: rank == dim Der_2
    for g in (3, 4):
        span = EchelonSpan()
        rank = 0
        pairs = list(combinations(range(2 * g), 2))
        for i, p in enumerate(pairs):
            for q in pairs[i:]:
                s = Sym2Lambda2(g, {(p, q): Fraction(1)})
                kv = phi(s).coords
                if kv and span.insert(kv) is not None:
                    rank += 1
        assert rank == module_character(g, "der", 2).mass()


# --- wedge and symmetric-square keys ------------------------------------------

def test_wedge_term_reads_an_iterator_once():
    w = WedgeElement.term(3, (x for x in (2, 0)))
    assert w.space() == (3, 2)
    assert w.coords == {(0, 2): -1}
    assert sym_mul(w, w).coords == {((0, 2), (0, 2)): 1}


def test_key_normal_forms_match_tensor_oracle():
    assert run_key_normal_forms(300) == 300


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
    cols = sorted((x, w) for x in range(2 * g) for w in p_basis(g, 3).rep_words)
    ker = kernel_basis([hom_basis_image(g, 2, *key) for key in cols])
    assert len(ker) == 2 * g * labute_dim(g, 3) - labute_dim(g, 4) == 104


@pytest.mark.parametrize("g,n", [(g, n) for g in (2, 3, 4) for n in (1, 2, 3)])
def test_der_basis_matches_rref_oracle(g, n):
    # per weight block, the RREF kernel of the row-assembled matrix gives the
    # same vectors in the same order, each coefficient an int when integral
    blocks = der_blocks(g, n)
    want = []
    for wt in sorted(blocks):
        keys = blocks[wt]
        rows = {}
        for j, key in enumerate(keys):
            for word, c in hom_basis_image(g, n, *key).items():
                rows.setdefault(word, {})[j] = c
        for vec in rref_kernel_basis(list(rows.values()), len(keys)):
            want.append({keys[j]: c for j, c in vec.items()})
    got = [d.coords for d in der_basis(g, n)]
    assert got == want
    assert exactly_typed(got)


def test_der_tables_g3():
    assert multiset(decompose(module_character(3, "der", 1))) == {(1, 1, 1): 1, (1,): 1}
    assert multiset(decompose(module_character(3, "der", 2))) == {(2, 2): 1, (1, 1): 1}
    assert multiset(decompose(module_character(3, "der", 3))) == {(3, 1, 1): 1, (2, 1): 1, (3,): 1}


def test_outder_tables_g3():
    assert multiset(decompose(module_character(3, "outder", 1))) == {(1, 1, 1): 1}
    assert multiset(decompose(module_character(3, "outder", 2))) == {(2, 2): 1}
    assert multiset(decompose(module_character(3, "outder", 3))) == {(3, 1, 1): 1, (3,): 1}


def test_der_basis_matches_character():
    # der_basis builds its vectors unchecked: every one kills theta
    for g in (2, 3, 4):
        for n in (1, 2, 3):
            basis = der_basis(g, n)
            assert len(basis) == module_character(g, "der", n).mass()
            for d in basis:
                assert theta_image(d).is_zero(), (g, n)


def test_derivations_built_unchecked_kill_theta():
    # commutators, inner derivations and linear combinations skip the
    # theta-image check; the oracle runs it on seeded samples of each
    rng = random.Random(48)
    for g in (2, 3):
        for n in (1, 2):
            basis = der_basis(g, n)
            for m in (1, 2):
                for d, e in zip(rng.sample(basis, 3), rng.sample(der_basis(g, m), 3)):
                    assert theta_image(derivation_bracket(d, e)).is_zero()
            for m in (1, 2, 3):
                assert theta_image(ad_derivation(random_p(g, m, rng))).is_zero()
            d, e = rng.sample(basis, 2)
            for f in (d + e, d - e, rand_int(rng) * d, Fraction(1, 3) * e, -d):
                assert type(f) is Derivation
                assert theta_image(f).is_zero()


def test_theta_is_checked_only_where_a_hom_becomes_a_derivation(monkeypatch):
    from symplie import johnson

    calls = []

    def counted(hom):
        calls.append(1)
        return theta_image(hom)

    monkeypatch.setattr(johnson, "theta_image", counted)
    # xi, xi_t, omega and omega_t come from phi; the brackets and ad(z) do not
    for g in (3, 8):
        calls.clear()
        verify_theorem_outer_bracket(g)
        assert len(calls) == 4, g
    d, e = der_basis(3, 1)[:2]
    z = random_p(3, 2, random.Random(49))
    calls.clear()
    built = [derivation_bracket(d, e), ad_derivation(z), d + e, 2 * d, -d]
    assert calls == []
    assert all(type(f) is Derivation for f in built)
    # der_basis: one theta-image per column key, none per kernel vector
    for g, n in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2)):
        der_basis.cache_clear()
        calls.clear()
        der_basis(g, n)
        assert len(calls) == 2 * g * p_dim(g, n + 1), (g, n)


def test_der_basis_checks_kernel_vectors_on_its_columns(monkeypatch):
    # a vector that does not sum the columns to 0 never becomes a Derivation
    from symplie import johnson

    monkeypatch.setattr(johnson, "kernel_basis", lambda cols: [{j: 1} for j, c in enumerate(cols) if c])
    der_basis.cache_clear()
    with pytest.raises(NotADerivation):
        der_basis(2, 1)


def test_derivation_constructor_rejects_non_kernel():
    g = 3
    cols = [PElement(g, 2) for _ in range(2 * g)]
    cols[gen_a(1)] = reduce_lie(bracket(_gen(g, gen_a(1)), _gen(g, gen_a(2))))
    with pytest.raises(NotADerivation):
        Derivation.from_hom(HomElement.from_columns(g, 2, cols))


def test_hom_columns_refuse_another_genus():
    with pytest.raises(ValueError, match="^mixed genus$"):
        HomElement.from_columns(3, 1, [PElement(4, 1, {(7,): 1})] * 6)
    with pytest.raises(ValueError, match="^mixed genus$"):
        Derivation.from_columns(4, 1, [PElement(3, 1, {(2,): 1})] * 8)


def test_derivation_value_leibniz():
    # D[x,y] = [Dx,y] + [x,Dy] through the quotient
    rng = random.Random(41)
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


def test_inner_preimage_of_integral_element_is_int():
    # the read-off passes each coefficient through exact, so an integral z
    # comes back as itself with int coefficients
    rng = random.Random(44)
    for m in (1, 2, 3):
        words = rng.sample(p_basis(3, m).rep_words, 3)
        z = PElement(3, m, {w: rand_int(rng) for w in words})
        back = inner_preimage(ad_derivation(z))
        assert back == z
        assert all(type(c) is int for c in back.coords.values())


@pytest.mark.parametrize("g", [3, 4])
def test_inner_preimage_matches_degree_wide_filter(g):
    # the read-off against a solve over every representative word of the
    # weights d touches: the commuting-pair bracket, random inner
    # derivations, and the twist images, which are not inner
    a1b1 = WedgeElement.term(g, (gen_a(1), gen_b(1)))
    agbg = WedgeElement.term(g, (gen_a(g), gen_b(g)))
    xi = Derivation.from_hom(phi(project_22(sym_mul(a1b1, a1b1))))
    xi_t = Derivation.from_hom(phi(project_22(sym_mul(agbg, agbg))))
    rng = random.Random(45 + g)
    ds = [derivation_bracket(xi, xi_t)]
    ds += [ad_derivation(random_p(g, m, rng)) for m in (1, 2, 3)]
    for d in ds:
        z = inner_preimage(d)
        assert z is not None
        want = inner_preimage_by_filter(d)
        assert z == want and list(z.coords) == list(want.coords)
    for j in range(1, g):
        assert inner_preimage(tau_hyp_twist(g, j)) is None
        assert inner_preimage_by_filter(tau_hyp_twist(g, j)) is None


def test_inner_preimage_reads_back_every_inner_derivation():
    # z from ad(z), with its keys in ascending order and its coefficients
    # ints where integral: random z over several weights, and the letters
    # a1, b1 and a1 + b1, whose brackets with a1 or b1 land on theta
    rng = random.Random(46)
    zs = [PElement(g, 1, c) for g in (2, 3) for c in ({(0,): 1}, {(1,): 1}, {(0,): 1, (1,): 1})]
    for g in (2, 3, 4, 5):
        for m in (1, 2, 3, 4):
            for _ in range(3):
                words = sorted(rng.sample(p_basis(g, m).rep_words, 4))
                coeffs = (exact(Fraction(rand_int(rng), rng.choice((1, 3)))) for _ in words)
                zs.append(PElement(g, m, dict(zip(words, coeffs))))
    for z in zs:
        back = inner_preimage(ad_derivation(z))
        assert back == z, z
        assert list(back.coords) == list(z.coords), z
        assert [type(c) for c in back.coords.values()] == [type(c) for c in z.coords.values()], z


@pytest.mark.parametrize("g", [2, 3])
def test_inner_preimage_of_derivation_combinations_matches_filter(g):
    # every basis derivation and random combinations of them, with and
    # without an inner part added, against the filter of every
    # representative word; some non-inner ones read off keys that are no
    # Lyndon words (in d(a1) first at g = 2, n = 4, such as a1 b2 a1 b2
    # from a1 a1 b2 a1 b2), and those must give None, not an error
    rng = random.Random(47 + g)
    for n in (1, 2, 3, 4) if g == 2 else (1, 2, 3):
        basis = der_basis(g, n)
        ds = list(basis)
        for _ in range(4):
            d = Derivation(g, n + 1)
            for v in rng.sample(basis, min(3, len(basis))):
                d = d + rand_int(rng) * v
            ds += [d, d + ad_derivation(random_p(g, n, rng))]
        for d in ds:
            z = inner_preimage(d)
            want = inner_preimage_by_filter(d)
            assert z == want, d
            if z is not None:
                assert list(z.coords) == list(want.coords)


def test_inner_preimage_brackets_only_the_read_off(monkeypatch):
    # the commuting-pair bracket at g = 8: one bracket for the b1 remainder
    # and one per letter for the ad(z) check, no solve over candidate words
    from symplie import johnson

    g = 8
    a1b1 = WedgeElement.term(g, (gen_a(1), gen_b(1)))
    agbg = WedgeElement.term(g, (gen_a(g), gen_b(g)))
    xi = Derivation.from_hom(phi(project_22(sym_mul(a1b1, a1b1))))
    xi_t = Derivation.from_hom(phi(project_22(sym_mul(agbg, agbg))))
    d = derivation_bracket(xi, xi_t)
    calls = []

    def counted(x, y):
        calls.append(1)
        return p_bracket(x, y)

    monkeypatch.setattr(johnson, "p_bracket", counted)
    assert inner_preimage(d) is not None
    assert len(calls) <= 2 * g + 1


def test_derivation_value_refuses_another_genus():
    for d, x in ((tau_hyp_twist(4, 1), PElement(3, 1, {(2,): 1})),
                 (tau_hyp_twist(3, 1), PElement(4, 1, {(7,): 1}))):
        with pytest.raises(ValueError, match="^mixed genus$"):
            d.value(x)


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


def test_separating_twist_images_are_not_inner():
    for g in (3, 4):
        for j in range(1, g):
            assert inner_preimage(tau_hyp_twist(g, j)) is None


def test_derivation_acts_as_its_hom():
    g = 3
    d = tau_hyp_twist(g, 1)
    hom = HomElement(d.g, d.target_degree, d.coords)
    for gen in sp_generator_ids(g):
        assert d.act(gen) == hom.act(gen)


def test_submodule_generated_by_a_twist_image():
    dec = submodule_decomposition(tau_hyp_twist(3, 1), 3)
    assert multiset(dec) == {(2, 2): 1, (1, 1): 1}


def test_outer_bracket_theorem_g3():
    r = verify_theorem_outer_bracket(3)
    assert r["coefficient"] == Fraction(-9, 16)


def test_31_bracket_g3():
    r = verify_31_bracket(3)
    assert r["coefficient"] == Fraction(3, 4)


def test_section_coefficient_solutions():
    # the cubic/quartic relations leave exactly the 2n signed unit vectors
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
    assert (3, 1) in multiset(dec)


def test_equivariance_suite_small():
    run_equivariance(40)


@pytest.mark.parametrize(
    "g,n", [(2, n) for n in (1, 2, 3, 4)] + [(3, n) for n in (1, 2, 3, 4)] + [(4, n) for n in (1, 2, 3)]
)
def test_der_character_closed_form_matches_kernel_ranks(g, n):
    assert module_character(g, "der", n) == der_character_by_ranks(g, n)


def test_der_basis_length_is_der_dim():
    for g in (2, 3):
        for n in (1, 2, 3):
            assert len(der_basis(g, n)) == module_character(g, "der", n).mass()
