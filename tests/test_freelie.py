import random
from fractions import Fraction
from itertools import product

import pytest

import symplie
from symplie import freelie
from symplie.cli import main
from symplie.freelie import (
    LieElement,
    NotLieElement,
    bracket,
    bracket_coords,
    gen_a,
    gen_b,
    is_lyndon,
    is_pivot_word,
    iter_lyndon,
    lie_from_tensor,
    lie_to_tensor,
    standard_factorization,
    theta,
    theta_partial,
    witt_dim,
)
from symplie.reps import word_weight
from symplie.surface import p_basis

from helpers import (
    bracket_table,
    dynkin_tensor,
    is_lyndon_by_rotation,
    lyndon_words,
    rand_int,
    random_lie,
    run_jacobi_antisymmetry,
    standard_factorization_by_search,
)


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


def test_least_suffix_rule_matches_the_lyndon_suffix_search():
    # the library's least-proper-suffix rule against the longest proper
    # Lyndon suffix found with the rotation test, on every Lyndon word
    for g, top in ((2, 8), (3, 6)):
        for m in range(2, top + 1):
            for w in iter_lyndon(g, m):
                assert standard_factorization(w) == standard_factorization_by_search(w), w
    # and is_lyndon against the rotation test on every word at g = 2, with
    # both factorizations refusing every word that is not Lyndon
    for m in range(1, 7):
        for w in product(range(4), repeat=m):
            assert is_lyndon(w) == is_lyndon_by_rotation(w), w
            if m == 1 or not is_lyndon(w):
                for factor in (standard_factorization, standard_factorization_by_search):
                    with pytest.raises(ValueError):
                        factor(w)


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
    # holds each unordered pair once, filled for the ascending pair and
    # found in the rows of both words: a one-word entry as a pair signed
    # for each row, any other as one dict object; and no row holds its own
    # word
    symplie.clear_caches()
    assert main(["verify", "--claim", "outer-bracket", "--g", "3"]) == 0
    capsys.readouterr()
    rows = freelie._BRACKET_ROWS
    table = bracket_table()
    assert any(type(e) is tuple for e in table.values())
    assert any(type(e) is not tuple for e in table.values())
    for u, row in rows.items():
        assert u not in row
        for v, entry in row.items():
            if type(entry) is tuple:
                assert rows[v][u] == (entry[0], -entry[1]), (u, v)
            else:
                assert rows[v][u] is entry, (u, v)
    assert sum(map(len, rows.values())) == 2 * len(table)
    symplie.clear_caches()
    assert not rows


def _reduced(x: dict, y: dict, pb) -> dict:
    """bracket_coords(x, y, pb), after checking that it holds no pivot word
    and is the reduction of the free bracket by key, value and value type."""
    got = bracket_coords(x, y, pb)
    assert not any(map(is_pivot_word, got))
    want = pb.reduce_coords(bracket_coords(x, y))
    assert sorted((w, type(c), c) for w, c in got.items()) == sorted(
        (w, type(c), c) for w, c in want.items())
    return got


def test_bracket_collects_the_pivot_words_of_a1_b1_and_of_a_cancelling_sum():
    pb = p_basis(3, 2)
    # [a1, b1] is a one-word table entry that is a pivot word itself, so it
    # is a pivot entry, found in both rows; reduced, it is -[a2, b2] - [a3, b3]
    assert _reduced({(0,): 1}, {(1,): 1}, pb) == {(2, 3): -1, (4, 5): -1}
    assert _reduced({(1,): 2}, {(0,): 1}, pb) == {(2, 3): 2, (4, 5): 2}
    entry = freelie._BRACKET_ROWS[(0,)][(1,)]
    assert type(entry) is freelie._PivotEntry and freelie._BRACKET_ROWS[(1,)][(0,)] is entry
    assert entry.reduced == {3: {(2, 3): -1, (4, 5): -1}}
    # [a1 + b1, a1 + b1 + a2] = [a1, a2] + [b1, a2]: the two reduced forms
    # of a1 b1 cancel, and the two other entries are pairs
    got = _reduced({(0,): 1, (1,): 1}, {(0,): 1, (1,): 1, (2,): 1}, pb)
    assert got == {(0, 2): 1, (1, 2): 1}
    assert freelie._BRACKET_ROWS[(0,)][(2,)] == ((0, 2), 1)
    assert freelie._BRACKET_ROWS[(2,)][(1,)] == ((1, 2), -1)
    assert _reduced({(0,): 1, (1,): 1}, {(0,): 1, (1,): 1}, pb) == {}


@pytest.mark.parametrize("g,top", [(2, 6), (3, 6), (4, 6), (3, 7)])
def test_bracket_collects_every_pivot_word_of_its_result(g, top, monkeypatch):
    # on seeded brackets of total degree up to top, the bracket handed the
    # degree's basis is the reduction of the free bracket; each table entry
    # is a pivot entry when it holds a pivot word, else a pair when it has
    # one word and a plain dict otherwise
    if top > 6:
        monkeypatch.setenv("SYMPLIE_DEGREE_CAP", "10")
    rng = random.Random(3500 + 10 * g + top)
    for m in range(2, top + 1):
        pb = p_basis(g, m)
        for _ in range(12):
            a = rng.randint(1, m - 1)
            x = random_lie(g, a, rng, rng.randint(1, 3), rand_int).coords
            y = random_lie(g, m - a, rng, rng.randint(1, 3), rand_int).coords
            _reduced(x, y, pb)
    for entry in bracket_table().values():
        if type(entry) is tuple:
            assert not is_pivot_word(entry[0])
        elif any(map(is_pivot_word, entry)):
            assert type(entry) is freelie._PivotEntry
        else:
            assert type(entry) is dict and len(entry) > 1
