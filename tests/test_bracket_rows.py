"""The bracket table's rows against the pair-keyed walk, and the warm
quotient ops against the free Lie routes.

bracket_coords fetches one row of the table per word of x and finds each
word of y in it; the oracle (helpers.pair_keyed_bracket) orders each pair
into an ascending tuple and reads its entry by that pair.  Both add the
entries in the same order, so they agree on keys, values, value types,
key order and the pivot word candidates collected.
"""

import random

import pytest

from symplie.freelie import bracket, bracket_coords
from symplie.johnson import der_basis, tau_hyp_twist
from symplie.reps import sp_generator_ids
from symplie.surface import lift, p_basis, p_bracket, quotient_derive, reduce_lie

from helpers import (
    act_via_free_lie,
    pair_keyed_bracket,
    rand_frac,
    rand_int,
    random_lie,
    random_p,
    value_via_free_lie,
)


def _typed(coords: dict) -> list:
    """The entries of coords in key order, each with its value's type."""
    return [(k, type(c), c) for k, c in coords.items()]


def _mixed(rng: random.Random):
    return rng.choice((rand_int, rand_frac))(rng)


def _pairs(g: int, top: int, rng: random.Random, coeff, per_degree: int = 12):
    """Seeded pairs of Lyndon coordinate dicts of total degree m = 2..top,
    as (m, x, y)."""
    for m in range(2, top + 1):
        for _ in range(per_degree):
            a = rng.randint(1, m - 1)
            x = random_lie(g, a, rng, rng.randint(1, 4), coeff).coords
            y = random_lie(g, m - a, rng, rng.randint(1, 4), coeff).coords
            yield m, x, y


@pytest.mark.parametrize("coeff", [rand_int, rand_frac], ids=["int", "Fraction"])
@pytest.mark.parametrize("g,top", [(2, 6), (3, 6), (4, 6), (3, 7)])
def test_rows_match_the_pair_keyed_walk(g, top, coeff, monkeypatch):
    # by key, value, value type and key order, and by the pivot word
    # candidates in order; reduced on those candidates, the bracket is the
    # reduction of the oracle's (degree 7 under a raised cap)
    if top > 6:
        monkeypatch.setenv("SYMPLIE_DEGREE_CAP", "10")
    rng = random.Random(3600 + 10 * g + top)
    for m, x, y in _pairs(g, top, rng, coeff):
        got_pivots, want_pivots = [], []
        got = bracket_coords(x, y, got_pivots)
        want = pair_keyed_bracket(x, y, want_pivots)
        assert _typed(got) == _typed(want)
        assert got_pivots == want_pivots
        assert _typed(bracket_coords(y, x)) == _typed(pair_keyed_bracket(y, x))
        pb = p_basis(g, m)
        assert pb.reduce_owning(got, got_pivots) == pb.reduce_coords(want)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_rows_match_the_pair_keyed_walk_on_mixed_coefficients(g):
    # int and Fraction coefficients in one vector: compared by value only
    rng = random.Random(3700 + g)
    for _, x, y in _pairs(g, 6, rng, _mixed):
        got_pivots, want_pivots = [], []
        assert bracket_coords(x, y, got_pivots) == pair_keyed_bracket(x, y, want_pivots)
        assert got_pivots == want_pivots


@pytest.mark.parametrize("g", [2, 3, 4])
def test_p_bracket_is_the_reduced_bracket_of_the_lifts(g):
    rng = random.Random(3800 + g)
    for _ in range(40):
        a = rng.randint(1, 5)
        b = rng.randint(1, 6 - a)
        coeff = rng.choice((rand_int, rand_frac))
        x, y = random_p(g, a, rng, coeff=coeff), random_p(g, b, rng, coeff=coeff)
        assert p_bracket(x, y) == reduce_lie(bracket(lift(x), lift(y))), (a, b)


def test_quotient_derive_reads_warm_memos_as_it_fills_cold_ones():
    # a derivation's first value fills its memo through quotient_leibniz,
    # later values read it; both match the free Lie route, and a value
    # read warm has the keys, value types and key order of the cold one
    rng = random.Random(3900)
    derivations = [d for n in (1, 2) for d in der_basis(3, n)[:4]] + [tau_hyp_twist(3, 1)]
    for d in derivations:
        for m in range(1, 6 - d.degree):
            x = random_p(3, m, rng, coeff=rng.choice((rand_int, rand_frac)))
            memo = {(y,): d.column(y).coords for y in range(6)}
            cold = quotient_derive(x, memo, d.degree)
            warm = quotient_derive(x, memo, d.degree)
            assert _typed(cold.coords) == _typed(warm.coords)
            assert cold == value_via_free_lie(d, x) == d.value(x), (d.degree, m)


def test_chevalley_action_matches_the_free_lie_route_warm():
    rng = random.Random(3901)
    for gen in sp_generator_ids(3):
        for m in range(1, 6):
            x = random_p(3, m, rng, coeff=rng.choice((rand_int, rand_frac)))
            first, again = x.act(gen), x.act(gen)
            assert _typed(first.coords) == _typed(again.coords)
            assert first == act_via_free_lie(gen, x), (gen, m)
