"""Cross-path consistency: independent routes to the same value must agree.

These guard the fast paths (per-word caches, weight-block elimination,
single-bracket column images) against the slow but obviously-correct
constructions they replace.
"""

import random
from fractions import Fraction

import pytest

from symplie.freelie import (
    LieElement,
    bracketing_tensor,
    bracket,
    bracket_coords,
    gen_a,
    gen_b,
    iter_lyndon,
    lie_from_tensor,
    letter_action,
    lie_to_tensor,
    lyndon_runs,
    theta,
    witt_dim,
    _tensor_commutator,
)
from symplie.johnson import (
    Derivation,
    HomElement,
    WedgeElement,
    der_basis,
    phi,
    phi_prime,
    project_22,
    sym_mul,
    tau_hyp_twist,
    theta_image,
    wedge_theta,
)
from symplie.linalg import EchelonSpan
from symplie.reps import module_character, pad_partition, sp_generator_ids, word_weight
from symplie.surface import PElement, is_pivot_word, labute_dim, p_basis, reduce_lie, word_counts

from helpers import (
    act_via_free_lie,
    bracket_via_tensor,
    chamber,
    character_by_words,
    free_derive,
    hom_basis_image,
    ideal_component,
    irr_character,
    leibniz_via_tensor,
    lie_act,
    lyndon_words,
    lyndon_words_by_filter,
    multiset,
    rand_frac,
    rand_int,
    random_lie,
    random_p,
    value_via_free_lie,
)


@pytest.mark.parametrize("g, top", [(2, 5), (3, 5), (4, 4)])
def test_lyndon_runs_and_counts_match_the_product_filter(g, top):
    # Duval's walk, its runs and the run-by-run counts against every word
    # of the degree tested with is_lyndon
    for m in range(1, top + 1):
        words = lyndon_words_by_filter(g, m)
        assert tuple(iter_lyndon(g, m)) == words
        assert tuple(p + (y,) for p, x in lyndon_runs(g, m) for y in range(x, 2 * g)) == words
        assert word_counts(g, m) == (len(words), sum(not is_pivot_word(w) for w in words))


@pytest.mark.parametrize("g, m", [(1, 3), (3, 0)])
def test_lyndon_runs_refuses_a_small_genus_or_degree(g, m):
    with pytest.raises(ValueError):
        next(lyndon_runs(g, m))


def test_bracketing_expansion_is_triangular():
    # expansion of the standard bracketing = the word itself + lex-larger words
    for g, m in ((3, 3), (2, 5), (3, 4)):
        for w in lyndon_words(g, m)[:200]:
            exp = bracketing_tensor(w)
            assert exp[w] == 1
            assert min(exp) == w


def _coeff_types(x) -> dict:
    return {w: type(c) for w, c in x.coords.items()}


def test_bracket_fast_path_matches_tensor_route():
    # structure-constant brackets against the tensor route on every degree
    # pair, with int, Fraction and mixed coefficients: equal coordinates and
    # equal coefficient types
    rng = random.Random(53)
    for g, top in ((2, 7), (3, 7), (4, 6)):
        for a in range(1, top):
            for b in range(1, top - a + 1):
                for cx, cy in ((rand_int, rand_int), (rand_frac, rand_frac), (rand_int, rand_frac)):
                    x = random_lie(g, a, rng, coeff=cx)
                    y = random_lie(g, b, rng, coeff=cy)
                    fast, slow = bracket(x, y), bracket_via_tensor(x, y)
                    assert fast == slow
                    assert _coeff_types(fast) == _coeff_types(slow)


def test_bracket_words_are_integer_antisymmetric_structure_constants():
    # every Lyndon pair at g = 2 with lengths summing to at most 6
    words = [w for m in range(1, 6) for w in lyndon_words(2, m)]
    for u in words:
        assert bracket_coords({u: 1}, {u: 1}) == {}
        for v in words:
            if len(u) + len(v) > 6:
                continue
            uv = bracket_coords({u: 1}, {v: 1})
            assert all(type(c) is int for c in uv.values())
            assert uv == {w: -c for w, c in bracket_coords({v: 1}, {u: 1}).items()}
            assert uv == lie_from_tensor(_tensor_commutator(bracketing_tensor(u), bracketing_tensor(v)))


def test_reduce_matches_independent_rref_reduction():
    # quotient reduction via the internal weight blocks against a from-scratch
    # reduction by the public echelonized ideal basis
    rng = random.Random(59)
    for g, m in ((2, 3), (3, 3), (3, 4)):
        span = EchelonSpan()
        for v in ideal_component(g, m):
            span.insert(v.coords)
        for _ in range(10):
            x = random_lie(g, m, rng, terms=4)
            assert reduce_lie(x).coords == span.reduce(x.coords)


def test_act_matches_slotwise_tensor_action():
    rng = random.Random(61)
    for _ in range(20):
        g = rng.choice((2, 3))
        gen = rng.choice(sp_generator_ids(g))
        x = random_lie(g, rng.randint(1, 4), rng)
        table = letter_action(g, gen)
        t = lie_to_tensor(x.coords)
        acted = {}
        for w, c in t.items():
            for slot, letter in enumerate(w):
                for image, coeff in table.get(letter, {}).items():
                    k = w[:slot] + (image,) + w[slot + 1 :]
                    val = acted.get(k, 0) + c * coeff
                    if val:
                        acted[k] = val
                    else:
                        acted.pop(k, None)
        slow = LieElement(g, x.degree, lie_from_tensor(acted))
        assert lie_act(x, gen) == slow


def test_leibniz_extend_matches_slotwise_tensor_derivation():
    # seeded random letter maps of image degree 1-3, extended by the Leibniz
    # rule along standard bracketings, against the derivation of the tensor
    # algebra acting slot by slot: equal coordinates and equal coefficient
    # types, for int and Fraction images, up to total degree 6
    rng = random.Random(67)
    for g in (2, 3):
        for d in (1, 2, 3):
            for m in range(1, 8 - d):
                for coeff in (rand_int, rand_frac):
                    images = {
                        y: random_lie(g, d, rng, terms=2, coeff=coeff).coords
                        for y in range(2 * g) if rng.random() < 0.7
                    }
                    memo = {(y,): images.get(y, {}) for y in range(2 * g)}
                    x = random_lie(g, m, rng, coeff=coeff)
                    fast = free_derive(x.coords, memo)
                    slow = leibniz_via_tensor(images, x.coords)
                    assert fast == slow, (g, d, m)
                    assert {w: type(c) for w, c in fast.items()} == {w: type(c) for w, c in slow.items()}


def test_freudenthal_against_tensor_square_identity():
    # H (x) H = V[2] + V[1,1] + trivial, as characters, at g = 3 and 4
    for g in (3, 4):
        h = {}
        for x in range(2 * g):
            wt = word_weight((x,), g)
            h[wt] = h.get(wt, 0) + 1
        conv = {}
        for w1, m1 in h.items():
            for w2, m2 in h.items():
                key = tuple(a + b for a, b in zip(w1, w2))
                conv[key] = conv.get(key, 0) + m1 * m2
        want = {}
        for lam in ((2,), (1, 1), ()):
            for w, m in irr_character(g, pad_partition(lam, g)).items():
                want[w] = want.get(w, 0) + m
        assert chamber(g, conv) == chamber(g, want)


def test_lambda3_is_111_plus_standard():
    from symplie.reps import decompose, module_character

    for g in (3, 4):
        dec = decompose(module_character(g, "lambda_k", 3))
        assert multiset(dec) == {(1, 1, 1): 1, (1,): 1}


def test_hom_basis_image_matches_theta_image():
    # the single-bracket column image against the generic derivation image
    # that der_basis uses
    rng = random.Random(67)
    for _ in range(15):
        g = rng.choice((2, 3))
        n = rng.choice((1, 2))
        x = rng.randrange(2 * g)
        w = rng.choice(p_basis(g, n + 1).rep_words)
        cols = [PElement(g, n + 1) for _ in range(2 * g)]
        cols[x] = PElement(g, n + 1, {w: Fraction(1)})
        hom = HomElement.from_columns(g, n + 1, cols)
        assert theta_image(hom).coords == hom_basis_image(g, n, x, w)


def test_theta_image_matches_slotwise_tensor_derivation():
    # seeded random homs with several columns on a- and b-letters, extended
    # as derivations of the tensor algebra slot by slot (no bracket table)
    # and applied to theta: equal reduced coordinates, equal coefficient types
    rng = random.Random(73)
    for g in (2, 3):
        for d in (1, 2, 3):
            reps = p_basis(g, d).rep_words
            for coeff in (rand_int, rand_frac):
                for _ in range(3):
                    letters = [0, 1] + [y for y in range(2, 2 * g) if rng.random() < 0.6]
                    images = {y: {rng.choice(reps): coeff(rng) for _ in range(3)} for y in letters}
                    hom = HomElement(g, d, {(y, w): c for y, col in images.items() for w, c in col.items()})
                    got = theta_image(hom)
                    want = reduce_lie(LieElement(g, d + 1, leibniz_via_tensor(images, theta(g).coords)))
                    assert got == want, (g, d)
                    assert {w: type(c) for w, c in got.coords.items()} == {
                        w: type(c) for w, c in want.coords.items()
                    }


def test_derivation_values_respect_quotient_representative_choice():
    # evaluating through two different lifts of the same class agrees
    rng = random.Random(71)
    from symplie.johnson import der_basis

    g = 2
    d = rng.choice(der_basis(g, 1))
    x = random_p(g, 2, rng)
    # perturb the lift by an ideal element; the value must not move
    from symplie.freelie import LieElement as LE
    from symplie.surface import lift

    lifted = lift(x) + theta(g)
    memo = {(y,): dict(d.column(y).coords) for y in range(2 * g)}
    total = free_derive(lifted.coords, memo)
    moved = reduce_lie(LE(g, 2 + d.degree, total))
    assert moved == d.value(x)


def test_derivation_values_match_free_lie_route():
    # the Leibniz rule in the quotient, one reduction per word, against the
    # Leibniz rule in the free Lie algebra reduced once at the end: every
    # der_basis vector at g = 2, 3 and n <= 3 on seeded int and Fraction
    # elements of every degree up to the cap, and the twist images (Fraction
    # columns) at g = 3, 4; equal coordinates and equal coefficient types
    rng = random.Random(79)
    cases = [(d, m) for g in (2, 3) for n in (1, 2, 3) for d in der_basis(g, n) for m in range(1, 7 - n)]
    cases += [(tau_hyp_twist(g, j), m) for g in (3, 4) for j in range(1, g) for m in range(1, 5)]
    for d, m in cases:
        for coeff in (rand_int, rand_frac):
            x = random_p(d.g, m, rng, coeff=coeff)
            fast, slow = d.value(x), value_via_free_lie(d, x)
            assert fast == slow, (d.g, d.degree, m)
            assert _coeff_types(fast) == _coeff_types(slow)


def test_chevalley_action_matches_free_lie_route():
    # every Chevalley generator at g = 2, 3, 4 on seeded int and Fraction
    # elements of degrees 1-5: the quotient Leibniz rule on the letter
    # action against the action on the lift, reduced
    rng = random.Random(83)
    for g in (2, 3, 4):
        for gen in sp_generator_ids(g):
            for m in range(1, 6):
                for coeff in (rand_int, rand_frac):
                    x = random_p(g, m, rng, coeff=coeff)
                    fast, slow = x.act(gen), act_via_free_lie(gen, x)
                    assert fast == slow, (g, gen, m)
                    assert _coeff_types(fast) == _coeff_types(slow)


def _value_via_tensor(d, x: PElement) -> PElement:
    """d(x) with the columns acting slot by slot in the tensor algebra on
    the lift of x, with no Leibniz recursion, reduced once."""
    images = {y: d.column(y).coords for y in range(2 * d.g)}
    return reduce_lie(LieElement(d.g, x.m + d.degree, leibniz_via_tensor(images, x.coords)))


def _commutator_on_a2_via_tensor(d1, d2) -> PElement:
    """D1(D2 a2) - D2(D1 a2), each value by :func:`_value_via_tensor`."""
    a2 = gen_a(2)
    return _value_via_tensor(d1, d2.column(a2)) - _value_via_tensor(d2, d1.column(a2))


@pytest.mark.parametrize("g", [3, 4, 5])
def test_certificate_values_match_slotwise_tensor_route(g):
    # the outer-bracket clause (i) value -9/(g+1)^2 times the nested class
    # and the bracket-31 value 3/(g+1) times [[[a1,b1],a2],a2], recomputed
    # with the derivation columns acting slot by slot in T(H) and each value
    # reduced once: no Leibniz recursion in the free Lie algebra or the
    # quotient; compared by value (the tensor route sums in another order,
    # so coefficient types may differ)
    a1, b1, a2, ag, bg = (LieElement.generator(g, x) for x in (gen_a(1), gen_b(1), gen_a(2), gen_a(g), gen_b(g)))
    a1b1 = WedgeElement.term(g, (gen_a(1), gen_b(1)))
    agbg = WedgeElement.term(g, (gen_a(g), gen_b(g)))
    xi = Derivation.from_hom(phi(project_22(sym_mul(a1b1, a1b1))))
    xi_t = Derivation.from_hom(phi(project_22(sym_mul(agbg, agbg))))
    nested = reduce_lie(bracket(a2, bracket(bracket(a1, b1), bracket(ag, bg))))
    assert not nested.is_zero()
    assert _commutator_on_a2_via_tensor(xi, xi_t) == Fraction(-9, (g + 1) ** 2) * nested

    a2_theta = WedgeElement(g, 3)
    for (x, y), c in wedge_theta(g).coords.items():
        a2_theta = a2_theta + WedgeElement.term(g, (gen_a(2), x, y), c)
    d1 = Derivation.from_hom(phi_prime(a2_theta))
    target = reduce_lie(bracket(bracket(bracket(a1, b1), a2), a2))
    assert not target.is_zero()
    assert _commutator_on_a2_via_tensor(d1, xi) == Fraction(3, g + 1) * target


@pytest.mark.parametrize("g, top", [(2, 7), (3, 6), (4, 5), (5, 4)])
def test_closed_form_characters_match_word_routes(g, top, monkeypatch):
    # Brandt's and Labute's formulas, chi * p and e_k against the weights of
    # the basis words, with integer multiplicities and the scalar dimension
    # formulas as their masses; p(7) at g = 2 needs the cap raised
    monkeypatch.setenv("SYMPLIE_DEGREE_CAP", str(max(top, 6)))
    for m in range(1, top + 1):
        for module in ("L", "p", "hom"):
            got = module_character(g, module, m)
            assert got == character_by_words(g, module, m), (module, m)
            assert all(type(n) is int for n in got.coords.values())
        assert module_character(g, "L", m).mass() == witt_dim(2 * g, m)
        assert module_character(g, "p", m).mass() == labute_dim(g, m)
    for k in range(2 * g + 2):
        assert module_character(g, "lambda_k", k) == character_by_words(g, "lambda_k", k), k
