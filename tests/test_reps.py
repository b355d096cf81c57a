import random
from fractions import Fraction

import pytest

from symplie.freelie import LieElement, bracket, gen_a, gen_b, theta
from symplie.reps import (
    Character,
    NotACharacter,
    UnregisteredModule,
    act,
    cartan_matrix,
    decompose,
    irr_character,
    module_character,
    pad_partition,
    raising_highest_weight_witness,
    sp_generator_ids,
    submodule_decomposition,
    weyl_dim,
)
from symplie.surface import p_generator, reduce_lie

from helpers import random_lie, run_decomposition_mass, run_weyl_symmetry


def test_weyl_dim_examples():
    assert weyl_dim(3, (1,)) == 6
    assert weyl_dim(3, (1, 1)) == 14
    assert weyl_dim(3, (2, 2)) == 90
    # bookkeeping cross-check: 120 = dim Sym^2 wedge^2 minus wedge-4, trivial, [1,1]
    assert weyl_dim(3, (2, 2)) == 120 - 15 - 1 - 14


def test_weyl_dim_too_many_parts():
    with pytest.raises(ValueError):
        weyl_dim(2, (1, 1, 1))


def test_freudenthal_mass_and_symmetry():
    for g in (2, 3, 4):
        for size in range(5):
            for lam in _partitions(size, g):
                char = Character(g, irr_character(g, pad_partition(lam, g)))
                assert char.mass() == weyl_dim(g, lam), (g, lam)
                assert char.is_weyl_symmetric(), (g, lam)


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
    char = module_character(3, "lambda_k", 1)
    assert char.mass() == 6
    assert all(m == 1 for m in char.coords.values())
    assert set(char.coords) == {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
    }


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
    assert dec.as_multiset() == {(1,): 1}


def test_decompose_p4_table():
    dec = decompose(module_character(3, "p", 4))
    assert dec.as_multiset() == {(2, 1, 1): 1, (2,): 1, (3, 1): 1}


def test_decompose_lambda4():
    dec = decompose(module_character(3, "lambda_k", 4))
    assert dec.as_multiset() == {(1, 1): 1, (): 1}


def test_decompose_rejects_non_character():
    with pytest.raises(NotACharacter):
        decompose(Character(3, {(1, 0, 0): -1, (-1, 0, 0): -1, (0, 1, 0): -1,
                                (0, -1, 0): -1, (0, 0, 1): -1, (0, 0, -1): -1}))


def test_cartan_matrix_c3():
    # rows pair the coroots against the simple roots: <alpha_j, alpha_i^vee>
    assert cartan_matrix(3) == [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]


def test_h_action_weights():
    g = 3
    a1 = LieElement.generator(g, gen_a(1))
    assert act(("h", 1), a1) == a1
    b1 = LieElement.generator(g, gen_b(1))
    assert act(("h", 1), b1) == Fraction(-1) * b1


def test_generators_kill_theta():
    for g in (2, 3):
        th = theta(g)
        for gen in sp_generator_ids(g):
            assert act(gen, th).is_zero(), gen


def test_act_is_derivation_over_brackets():
    rng = random.Random(17)
    for _ in range(25):
        g = rng.choice((2, 3))
        gen = rng.choice(sp_generator_ids(g))
        x = random_lie(g, rng.randint(1, 2), rng)
        y = random_lie(g, rng.randint(1, 3), rng)
        lhs = act(gen, bracket(x, y))
        rhs = bracket(act(gen, x), y) + bracket(x, act(gen, y))
        assert lhs == rhs


def test_cartan_relations_on_standard_rep():
    # [h_i, e_j] = A_ij e_j as operators on H
    for g in (2, 3):
        A = cartan_matrix(g)
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                for x in range(2 * g):
                    v = LieElement.generator(g, x)
                    he = act(("h", i), act(("e", j), v))
                    eh = act(("e", j), act(("h", i), v))
                    want = A[i - 1][j - 1] * act(("e", j), v)
                    assert he - eh == want


def test_act_unregistered_module():
    with pytest.raises(UnregisteredModule):
        act(("e", 1), object())


def test_submodule_standard():
    assert submodule_decomposition(p_generator(3, 0), 3).as_multiset() == {(1,): 1}


def test_submodule_p2_irreducible():
    g = 3
    x = reduce_lie(bracket(LieElement.generator(g, gen_a(1)), LieElement.generator(g, gen_b(2))))
    assert submodule_decomposition(x, g).as_multiset() == {(1, 1): 1}


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
        assert act(("e", i), w).is_zero()


def test_weyl_symmetry_suite_small():
    run_weyl_symmetry(60)


def test_decomposition_mass_suite_small():
    run_decomposition_mass(60)
