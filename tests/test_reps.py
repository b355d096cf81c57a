import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from symplie.freelie import LieElement, bracket, gen_a, gen_b, theta, witt_dim
from symplie.johnson import HomElement
from symplie.reps import (
    Character,
    NotACharacter,
    decompose,
    dominant_character,
    dominant_rep,
    module_character,
    orbit_size,
    pad_partition,
    raising_highest_weight_witness,
    sp_generator_ids,
    weyl_dim,
)
from symplie.surface import PElement, p_basis, p_bracket, reduce_lie

from helpers import (
    _MODULE_LIST,
    cartan_matrix,
    chamber,
    decompose_full,
    freudenthal_by_roots,
    full_character,
    irr_character,
    is_weyl_symmetric,
    lie_act,
    multiset,
    rand_frac,
    rand_int,
    random_p,
    random_sym,
    random_wedge,
    run_decomposition_mass,
    run_weyl_symmetry,
    submodule_decomposition,
    weyl_dim_by_roots,
    weyl_orbit,
)


def test_weyl_dim_examples():
    assert weyl_dim(3, (1,)) == 6
    assert weyl_dim(3, (1, 1)) == 14
    assert weyl_dim(3, (2, 2)) == 90
    assert weyl_dim(300, (1,)) == 600
    assert weyl_dim(300, (1, 1)) == 179699
    # bookkeeping cross-check: 120 = dim Sym^2 wedge^2 minus wedge-4, trivial, [1,1]
    assert weyl_dim(3, (2, 2)) == 120 - 15 - 1 - 14


@pytest.mark.parametrize("g, top", [(2, 8), (3, 7), (4, 6), (5, 5)])
def test_freudenthal_classes_match_every_root(g, top):
    # roots summed by the entry classes of mu against every positive root
    # one at a time; the Weyl product in pairs against the product over roots
    for size in range(top + 1):
        for lam in _partitions(size, g):
            assert dominant_character(g, lam) == freudenthal_by_roots(g, lam), (g, lam)
            assert weyl_dim(g, lam) == weyl_dim_by_roots(g, lam), (g, lam)


def test_weyl_dim_too_many_parts():
    with pytest.raises(ValueError):
        weyl_dim(2, (1, 1, 1))


def test_freudenthal_mass_and_symmetry():
    for g in (2, 3, 4):
        for size in range(5):
            for lam in _partitions(size, g):
                full = irr_character(g, pad_partition(lam, g))
                assert chamber(g, full).mass() == weyl_dim(g, lam), (g, lam)
                assert is_weyl_symmetric(full), (g, lam)


def _partitions(size, max_parts):
    if size == 0:
        yield ()
        return
    def rec(rem, mx, acc):
        if rem == 0:
            yield tuple(acc)
            return
        if len(acc) == max_parts:
            return
        for c in range(min(rem, mx), 0, -1):
            yield from rec(rem - c, c, acc + [c])
    yield from rec(size, size, [])


def test_standard_rep_character():
    # each weight's multiplicity read through its dominant representative
    char = module_character(3, "lambda_k", 1)
    assert char.mass() == 6
    assert all(m == 1 for m in char.coords.values())
    weights = {w for mu in char.coords for w in weyl_orbit(mu)}
    assert weights == {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
    }
    assert all(char.coords[dominant_rep(w)] == 1 for w in weights)


def test_p2_character_is_wedge_minus_zero_weight():
    g = 3
    p2 = module_character(g, "p", 2)
    w2 = module_character(g, "lambda_k", 2)
    diff = w2 - p2
    assert diff.coords == {(0, 0, 0): 1}


def test_sym2lambda2_mass():
    assert module_character(3, "sym2lambda2").mass() == 120


def test_decompose_standard():
    dec = decompose(module_character(3, "lambda_k", 1))
    assert multiset(dec) == {(1,): 1}


def test_decompose_p4_table():
    dec = decompose(module_character(3, "p", 4))
    assert multiset(dec) == {(2, 1, 1): 1, (2,): 1, (3, 1): 1}


def test_decompose_lambda4():
    dec = decompose(module_character(3, "lambda_k", 4))
    assert multiset(dec) == {(1, 1): 1, (): 1}


def test_decompose_rejects_non_character():
    with pytest.raises(NotACharacter):
        decompose(chamber(3, {(1, 0, 0): -1, (-1, 0, 0): -1, (0, 1, 0): -1,
                              (0, -1, 0): -1, (0, 0, 1): -1, (0, 0, -1): -1}))


def test_orbit_size_closed_form_matches_orbit():
    for g in range(1, 6):
        for mu in combinations_with_replacement(range(3, -1, -1), g):
            assert orbit_size(mu) == len(weyl_orbit(mu)), mu


def test_irr_character_expands_dominant_character():
    for g in (2, 3):
        for lam in ((1,), (1, 1), (2, 1), (3,)):
            full = irr_character(g, pad_partition(lam, g))
            dom = dominant_character(g, lam)
            assert {w: m for w, m in full.items() if w in dom} == dom
            assert sum(m * orbit_size(mu) for mu, m in dom.items()) == weyl_dim(g, lam)


def _same_decomposition(g, module, degree):
    # the chamber character peeled on the chamber against the full-torus
    # oracle peeled over every weight
    got = decompose(module_character(g, module, degree))
    want = decompose_full(g, full_character(g, module, degree))
    assert [(s.partition, s.multiplicity) for s in got] == [
        (s.partition, s.multiplicity) for s in want
    ]


def test_dominant_peeling_matches_full_peeling_on_modules():
    for g in (2, 3):
        for name, deg in _MODULE_LIST:
            _same_decomposition(g, name, deg)
    for g in (2, 3, 4, 5):
        for k in range(1, 2 * g + 1):
            _same_decomposition(g, "lambda_k", k)
        for m in range(1, 5):
            _same_decomposition(g, "L", m)


def _broken_copies(full):
    """One orbit element dropped, or one non-dominant multiplicity changed."""
    for w in full:
        if orbit_size(w) > 1:
            yield {v: m for v, m in full.items() if v != w}
        if w != dominant_rep(w):
            yield {**full, w: full[w] + 1}


def test_non_symmetric_input_is_rejected():
    chars = [(3, full_character(3, "lambda_k", 2)), (2, full_character(2, "L", 3)),
             (3, irr_character(3, (2, 1, 0)))]
    for g, full in chars:
        assert is_weyl_symmetric(full)
        assert chamber(g, full).coords == {w: m for w, m in full.items() if w == dominant_rep(w)}
        for bad in _broken_copies(full):
            assert not is_weyl_symmetric(bad)
            with pytest.raises(NotACharacter):
                chamber(g, bad)
            # every broken copy keeps a non-dominant weight, which the
            # chamber Character refuses before decompose could peel it
            with pytest.raises(NotACharacter):
                decompose(Character(g, bad))
    with pytest.raises(NotACharacter):
        Character(3, {(0, 1, 0): 1})
    with pytest.raises(NotACharacter):
        Character(2, {(1, -1): 2})


_CHAMBER_CASES = (
    [(module, m) for m in range(1, 7) for module in ("L", "p", "hom")]
    + [(module, n) for n in range(1, 5) for module in ("der", "outder")]
    + [("sym2lambda2", None)]
)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6, 7])
def test_chamber_characters_match_the_full_torus(g):
    # every module built on the chamber against the full-torus oracle:
    # the oracle is Weyl-symmetric, its dominant part is the chamber
    # character, and the orbit-weighted mass is its dimension
    for module, degree in _CHAMBER_CASES + [("lambda_k", k) for k in range(2 * g + 2)]:
        full = full_character(g, module, degree)
        got = module_character(g, module, degree)
        assert got == chamber(g, full), (module, degree)
        assert got.mass() == sum(full.values()), (module, degree)


@pytest.mark.parametrize("g, top", [(2, 10), (3, 8)])
def test_chamber_matches_the_full_torus_with_the_cap_raised(g, top, monkeypatch):
    monkeypatch.setenv("SYMPLIE_DEGREE_CAP", str(top))
    for m in range(1, top + 1):
        for module in ("L", "p"):
            full = full_character(g, module, m)
            got = module_character(g, module, m)
            assert got == chamber(g, full), (module, m)
            assert got.mass() == sum(full.values()), (module, m)


def test_dominant_support_has_no_recursion_limit():
    # one stack level per coordinate: g = 1200 is past the default
    # recursion limit
    g = 1200
    assert dominant_character(g, (1,)) == {(1,) + (0,) * (g - 1): 1}


def test_decompose_lambda3_at_genus_20():
    dec = decompose(module_character(20, "lambda_k", 3))
    assert multiset(dec) == {(1, 1, 1): 1, (1,): 1}


def test_cartan_matrix_c3():
    # rows pair the coroots against the simple roots: <alpha_j, alpha_i^vee>
    assert cartan_matrix(3) == [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]


def test_h_action_weights():
    g = 3
    a1 = LieElement.generator(g, gen_a(1))
    assert lie_act(a1, ("h", 1)) == a1
    b1 = LieElement.generator(g, gen_b(1))
    assert lie_act(b1, ("h", 1)) == Fraction(-1) * b1


def test_generators_kill_theta():
    # the premise that makes the Leibniz rule in the quotient exact
    for g in (2, 3):
        th = theta(g)
        for gen in sp_generator_ids(g):
            assert lie_act(th, gen).is_zero(), gen


def test_act_is_derivation_over_brackets():
    # the quotient action is a derivation of the quotient bracket, with int
    # and Fraction coefficients
    rng = random.Random(17)
    for g in (2, 3):
        for gen in sp_generator_ids(g):
            for coeff in (rand_int, rand_frac):
                x = random_p(g, rng.randint(1, 2), rng, coeff=coeff)
                y = random_p(g, rng.randint(1, 3), rng, coeff=coeff)
                lhs = p_bracket(x, y).act(gen)
                rhs = p_bracket(x.act(gen), y) + p_bracket(x, y.act(gen))
                assert lhs == rhs, (g, gen, x.m, y.m)


def test_cartan_relations_on_standard_rep():
    # [h_i, e_j] = A_ij e_j as operators on H
    for g in (2, 3):
        A = cartan_matrix(g)
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                for x in range(2 * g):
                    v = PElement(g, 1, {(x,): 1})
                    he = v.act(("e", j)).act(("h", i))
                    eh = v.act(("h", i)).act(("e", j))
                    want = A[i - 1][j - 1] * v.act(("e", j))
                    assert he - eh == want


def test_key_weight_is_the_cartan_eigenvalue():
    # on a weight vector of weight w, h_i acts by w_i - w_(i+1) (i < g) and h_g by w_g
    g = 3
    rng = random.Random(29)
    words = p_basis(g, 2).rep_words
    hom = HomElement(g, 2, {(rng.randrange(2 * g), rng.choice(words)): 1 for _ in range(4)})
    elements = [random_p(g, 3, rng), random_wedge(g, 3, rng), random_sym(g, rng), hom]
    for v in elements:
        for key, c in v.coords.items():
            term = v.rebuild({key: c})
            wt = v.key_weight(key)
            for i in range(1, g + 1):
                pairing = wt[i - 1] - wt[i] if i < g else wt[g - 1]
                assert term.act(("h", i)) == pairing * term, (type(v).__name__, key, i)


def test_submodule_standard():
    assert multiset(submodule_decomposition(PElement(3, 1, {(0,): 1}), 3)) == {(1,): 1}


def test_submodule_p2_irreducible():
    g = 3
    x = reduce_lie(bracket(LieElement.generator(g, gen_a(1)), LieElement.generator(g, gen_b(2))))
    assert multiset(submodule_decomposition(x, g)) == {(1, 1): 1}


def test_raising_witness_nested_bracket():
    # the degree-5 nested class raises to a [3,1,1] highest weight vector
    g = 3
    a2 = LieElement.generator(g, gen_a(2))
    inner = bracket(
        bracket(LieElement.generator(g, gen_a(1)), LieElement.generator(g, gen_b(1))),
        bracket(LieElement.generator(g, gen_a(g)), LieElement.generator(g, gen_b(g))),
    )
    v = reduce_lie(bracket(a2, inner))
    w = raising_highest_weight_witness(v, g, (3, 1, 1))
    assert w is not None and not w.is_zero()
    for i in range(1, g + 1):
        assert w.act(("e", i)).is_zero()


def test_weyl_symmetry_suite_small():
    run_weyl_symmetry(60)


def test_decomposition_mass_suite_small():
    run_decomposition_mass(60)


def test_character_paths_enumerate_no_words(monkeypatch):
    # every closed-form module, with word enumeration and quotient bases
    # made to raise wherever the character paths could reach them
    import symplie
    from symplie import freelie, johnson, reps, surface

    def refuse(*args):
        raise AssertionError("a character path enumerated words")

    for mod in (reps, johnson, surface, freelie):
        for name in ("iter_lyndon", "lyndon_runs", "word_counts", "p_basis"):
            monkeypatch.setattr(mod, name, refuse, raising=False)
    symplie.clear_caches()
    for g in (3, 4):
        for module, degree in (("L", 5), ("p", 6), ("hom", 6), ("lambda_k", g), ("der", 4), ("outder", 4)):
            assert module_character(g, module, degree).mass() > 0, (g, module)


def _raises(message, module, g, degree):
    with pytest.raises(ValueError) as err:
        module_character(g, module, degree)
    assert str(err.value) == message, (module, g, degree)


def test_module_character_error_contract(monkeypatch):
    # the quotient's degree checks as p_basis makes them: der(n) checks
    # hom(n+1) and then p(n+2); outder(n) checks der(n) and then p(n)
    monkeypatch.setenv("SYMPLIE_DEGREE_CAP", "5")
    for module, top in (("p", 5), ("hom", 5), ("der", 3), ("outder", 3)):
        assert module_character(3, module, top).mass() > 0
        _raises("degree 6 exceeds cap 5", module, 3, top + 1)
        _raises("need genus g >= 2", module, 1, 1)
    _raises("need degree m >= 1", "p", 3, 0)
    _raises("need degree m >= 1", "hom", 3, 0)
    _raises("need degree m >= 1", "der", 3, -1)
    _raises("need degree m >= 1", "outder", 3, 0)
    # L has no cap, only its range
    assert module_character(2, "L", 6).mass() == witt_dim(4, 6)
    _raises("need g >= 2 and m >= 1", "L", 1, 3)
    _raises("need g >= 2 and m >= 1", "L", 3, 0)


def test_lambda_k_negative_degree_is_a_value_error():
    assert module_character(3, "lambda_k", 0) == Character(3, {(0, 0, 0): 1})
    assert module_character(3, "lambda_k", 7) == Character(3)
    with pytest.raises(ValueError):
        module_character(3, "lambda_k", -1)


def test_der_character_checks_the_cap_on_a_cache_hit(monkeypatch):
    module_character(3, "der", 4)
    monkeypatch.setenv("SYMPLIE_DEGREE_CAP", "5")
    _raises("degree 6 exceeds cap 5", "der", 3, 4)
    _raises("degree 6 exceeds cap 5", "outder", 3, 4)
