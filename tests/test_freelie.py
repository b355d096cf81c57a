import random
from fractions import Fraction

import pytest

import symplie
from symplie import freelie
from symplie.cli import main
from symplie.freelie import (
    LieElement,
    NotLieElement,
    bracket,
    gen_a,
    gen_b,
    is_lyndon,
    lie_from_tensor,
    lie_to_tensor,
    standard_factorization,
    theta,
    theta_partial,
    witt_dim,
)
from symplie.reps import word_weight

from helpers import dynkin_tensor, lyndon_words, random_lie, run_jacobi_antisymmetry


def _gen(g, letter):
    return LieElement.generator(g, letter)


def test_lyndon_counts_match_witt():
    assert len(lyndon_words(3, 1)) == 6
    assert len(lyndon_words(3, 2)) == 15
    assert len(lyndon_words(3, 5)) == 1554
    for g in (2, 3, 4):
        for m in range(1, 7):
            assert len(lyndon_words(g, m)) == witt_dim(2 * g, m)


def test_lyndon_property_and_order():
    for g in (2, 3):
        for m in (2, 3, 4):
            words = lyndon_words(g, m)
            assert list(words) == sorted(words)
            assert all(is_lyndon(w) for w in words)


def test_standard_factorization_lyndon_halves():
    for w in lyndon_words(3, 4):
        u, v = standard_factorization(w)
        assert u + v == w
        assert is_lyndon(u) and is_lyndon(v)
        assert u < v


def test_standard_factorization_refuses_non_lyndon_words():
    for w in ((1, 0), (0, 1, 0), (0, 0), (1, 0, 2), (0,), ()):
        with pytest.raises(ValueError):
            standard_factorization(w)


def test_bracket_self_is_zero():
    x = random_lie(3, 2, random.Random(1))
    assert bracket(x, x).is_zero()


def test_bracket_a1_b1_is_basis_word():
    b = bracket(_gen(3, gen_a(1)), _gen(3, gen_b(1)))
    assert b.coords == {(gen_a(1), gen_b(1)): 1}


def test_jacobi_fixed_example():
    g = 3
    a1, b1, a2 = _gen(g, gen_a(1)), _gen(g, gen_b(1)), _gen(g, gen_a(2))
    total = (
        bracket(a1, bracket(b1, a2))
        + bracket(b1, bracket(a2, a1))
        + bracket(a2, bracket(a1, b1))
    )
    assert total.is_zero()


def test_tensor_roundtrip_identity():
    rng = random.Random(2)
    for m in (1, 2, 3, 4, 5):
        x = random_lie(3, m, rng, terms=4)
        assert LieElement(3, m, lie_from_tensor(lie_to_tensor(x.coords))) == x


def test_dynkin_idempotence():
    rng = random.Random(3)
    for m in (2, 3, 4):
        x = random_lie(2, m, rng, terms=3)
        t = dynkin_tensor(lie_to_tensor(x.coords))
        assert LieElement(2, m, lie_from_tensor(t)) == m * x


def test_non_lie_tensor_rejected():
    # a1 (x) a1 is not primitive
    with pytest.raises(NotLieElement):
        lie_from_tensor({(0, 0): Fraction(1)})


def test_theta_definition():
    t2 = theta(2)
    assert t2.coords == {(0, 1): 1, (2, 3): 1}
    t3 = theta(3)
    assert len(t3.coords) == 3 and all(c == 1 for c in t3.coords.values())


def test_theta_partial_splits():
    for g in (2, 3, 4):
        for j in range(1, g):
            lower = theta_partial(g, range(1, j + 1))
            upper = theta_partial(g, range(j + 1, g + 1))
            assert lower + upper == theta(g)
    assert theta_partial(3, []).is_zero()
    assert theta_partial(3, [1]).coords == {(0, 1): 1}


def test_theta_partial_bad_index():
    with pytest.raises(ValueError):
        theta_partial(3, [4])


def test_word_weight():
    assert word_weight((gen_a(1), gen_b(1)), 3) == (0, 0, 0)
    assert word_weight((gen_a(2), gen_a(2), gen_b(3)), 3) == (0, 2, -1)


def test_jacobi_antisymmetry_suite_small():
    run_jacobi_antisymmetry(30)


def test_bracket_table_keeps_one_ascending_entry_per_pair(capsys):
    # [v, u] = -[u, v] and [u, u] = 0 are folded by the callers, so the table
    # holds each unordered pair once, under its ascending key
    symplie.clear_caches()
    assert main(["verify", "--claim", "outer-bracket", "--g", "3"]) == 0
    capsys.readouterr()
    assert freelie._BRACKET_WORDS
    assert all(u < v for u, v in freelie._BRACKET_WORDS)
