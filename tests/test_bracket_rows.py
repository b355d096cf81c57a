"""The bracket table's rows against the pair-keyed walk, the reduced
forms of its pivot entries, and the warm quotient ops against the free
Lie routes.

bracket_coords fetches one row of the table per word of x and finds each
word of y in it: a one-word entry as a pair signed for that row, any other
as one dict shared by both rows.  The oracle (helpers.pair_keyed_bracket)
orders each pair into an ascending tuple and reads its entry by that pair.
Both add the entries in the same order, so they agree on keys, values,
value types and key order.  Handed the degree's basis, bracket_coords adds
each pivot entry as its reduced form for the genus instead, kept on the
entry, so a warm quotient bracket reduces nothing.
"""

import random
from fractions import Fraction

import pytest

import symplie
from symplie import freelie
from symplie.freelie import bracket, bracket_coords, is_pivot_word
from symplie.johnson import der_basis, tau_hyp_twist
from symplie.reps import act_p, sp_generator_ids
from symplie.surface import PBasis, PElement, lift, p_basis, p_bracket, quotient_derive, reduce_lie

from helpers import (
    act_via_free_lie,
    entry_dicts,
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


def _sorted_typed(coords: dict) -> list:
    """The entries of coords by key, each with its value's type."""
    return sorted(_typed(coords))


def _mixed(rng: random.Random):
    return rng.choice((rand_int, rand_frac))(rng)


def _nonzero_frac(rng: random.Random) -> Fraction:
    return Fraction(rand_int(rng), rng.randint(1, 5))


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
    # by key, value, value type and key order; handed the degree's basis,
    # the bracket is the reduction of the oracle's by key, value and value
    # type, with its keys in the order the reduced forms bring them
    # (degree 7 under a raised cap)
    if top > 6:
        monkeypatch.setenv("SYMPLIE_DEGREE_CAP", "10")
    rng = random.Random(3600 + 10 * g + top)
    for m, x, y in _pairs(g, top, rng, coeff):
        want = pair_keyed_bracket(x, y)
        assert _typed(bracket_coords(x, y)) == _typed(want)
        assert _typed(bracket_coords(y, x)) == _typed(pair_keyed_bracket(y, x))
        pb = p_basis(g, m)
        assert _sorted_typed(bracket_coords(x, y, pb)) == _sorted_typed(pb.reduce_coords(want))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_rows_match_the_pair_keyed_walk_on_mixed_coefficients(g):
    # int and Fraction coefficients in one vector: compared by value only
    rng = random.Random(3700 + g)
    for m, x, y in _pairs(g, 6, rng, _mixed):
        want = pair_keyed_bracket(x, y)
        assert bracket_coords(x, y) == want
        pb = p_basis(g, m)
        assert bracket_coords(x, y, pb) == pb.reduce_coords(want)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_one_word_entries_are_pairs_signed_for_each_row(g):
    # after seeded brackets up to degree 6, the entry of each pair of words
    # they met: one word w with coefficient c for u < v is (w, c) in row u
    # and (w, -c) in row v, unless w is a pivot word; any other entry is
    # the same object in both rows, a pivot entry exactly when it holds a
    # pivot word, and every entry reads back as the free bracket of u, v
    rows = freelie._BRACKET_ROWS
    rng = random.Random(4000 + g)
    seen = {"pair": 0, "dict": 0, "pivot": 0}
    for _, x, y in _pairs(g, 6, rng, rand_int, per_degree=6):
        bracket_coords(x, y)
        for u in x:
            for v in y:
                if u == v:
                    continue
                lo, hi = min(u, v), max(u, v)
                entry = rows[lo][hi]
                want = pair_keyed_bracket({lo: 1}, {hi: 1})
                if type(entry) is tuple:
                    seen["pair"] += 1
                    assert rows[hi][lo] == (entry[0], -entry[1])
                    assert not is_pivot_word(entry[0])
                    assert _typed(want) == [(entry[0], int, entry[1])]
                    continue
                assert rows[hi][lo] is entry
                assert _typed(entry) == _typed(want)
                if any(map(is_pivot_word, entry)):
                    seen["pivot"] += 1
                    assert type(entry) is freelie._PivotEntry
                else:
                    seen["dict"] += 1
                    assert type(entry) is dict and len(entry) > 1
    assert all(seen.values()), seen


def test_reduced_forms_are_kept_per_genus():
    # [a1, b1] reduces to -sum_{i >= 2} [a_i, b_i], so its one entry keeps
    # one reduced form for each genus it was reduced at
    for g in (2, 3):
        got = bracket_coords({(0,): 1}, {(1,): 1}, p_basis(g, 2))
        assert got == {(2 * i, 2 * i + 1): -1 for i in range(1, g)}
    entry = freelie._BRACKET_ROWS[(0,)][(1,)]
    assert entry.reduced[2] == {(2, 3): -1}
    assert entry.reduced[3] == {(2, 3): -1, (4, 5): -1}


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_each_reduced_form_is_reduce_coords_of_its_entry(g):
    # by key, value, value type and key order, on a basis of its own, so
    # that no residue is shared with the library's
    rng = random.Random(4100 + g)
    for m, x, y in _pairs(g, 6, rng, rand_int, per_degree=6):
        bracket_coords(x, y, p_basis(g, m))
    checked = 0
    for entry in entry_dicts():
        if type(entry) is freelie._PivotEntry and g in entry.reduced:
            m = len(next(iter(entry)))
            assert _typed(entry.reduced[g]) == _typed(PBasis(g, m).reduce_coords(entry))
            checked += 1
    assert checked


def _session_ops(rng: random.Random) -> list:
    """Seeded Jacobi, Leibniz and Chevalley inputs at g = 3, as thunks that
    return the elements each identity compares."""
    ops = []
    for _ in range(12):
        a, b, c = (random_p(3, rng.randint(1, 2), rng, coeff=rand_int) for _ in range(3))
        ops.append(lambda a=a, b=b, c=c: [p_bracket(a, p_bracket(b, c)), p_bracket(b, p_bracket(c, a)),
                                          p_bracket(c, p_bracket(a, b))])
        d = rng.choice(der_basis(3, rng.randint(1, 2)))
        x, y = random_p(3, rng.randint(1, 2), rng, coeff=rand_int), random_p(3, 1, rng, coeff=rand_int)
        ops.append(lambda d=d, x=x, y=y: [d.value(p_bracket(x, y)), p_bracket(d.value(x), y),
                                          p_bracket(x, d.value(y))])
        i = rng.randint(1, 3)
        z = random_p(3, rng.randint(1, 4), rng, coeff=rand_int)
        ops.append(lambda i=i, z=z: [act_p(("e", i), act_p(("f", i), z)),
                                     act_p(("f", i), act_p(("e", i), z)), act_p(("h", i), z)])
    return ops


def test_warm_ops_reduce_nothing(monkeypatch):
    # after one warm-up pass, the same ops give the same results by key,
    # value, value type and key order with PBasis.reduce_coords patched to
    # raise: every pivot entry they add has its reduced form, and every
    # word their Leibniz rules meet its memoised image
    symplie.clear_caches()
    ops = _session_ops(random.Random(4200))
    cold = [[_typed(r.coords) for r in op()] for op in ops]

    def refuse(self, coords):
        raise AssertionError("a warm op reduced")

    monkeypatch.setattr(PBasis, "reduce_coords", refuse)
    assert [[_typed(r.coords) for r in op()] for op in ops] == cold


@pytest.mark.parametrize("coeff", [rand_int, _nonzero_frac], ids=["int", "Fraction"])
@pytest.mark.parametrize("g", [2, 3, 4])
def test_p_bracket_is_the_pair_keyed_walk_reduced(g, coeff):
    rng = random.Random(4300 + g)
    for _ in range(30):
        a = rng.randint(1, 5)
        b = rng.randint(1, 6 - a)
        x, y = random_p(g, a, rng, coeff=coeff), random_p(g, b, rng, coeff=coeff)
        want = p_basis(g, a + b).reduce_coords(pair_keyed_bracket(x.coords, y.coords))
        assert _sorted_typed(p_bracket(x, y).coords) == _sorted_typed(want), (a, b)


def test_clear_caches_leaves_no_reduced_form():
    for op in _session_ops(random.Random(4400)):
        op()
    assert any(type(e) is not dict and e.reduced for e in entry_dicts())
    symplie.clear_caches()
    assert not freelie._BRACKET_ROWS and not entry_dicts()
    # a bracket after it fills its entry afresh, with the one reduced form
    # it needs
    assert p_bracket(PElement(2, 1, {(0,): 1}), PElement(2, 1, {(1,): 1})).coords == {(2, 3): -1}
    assert freelie._BRACKET_ROWS[(0,)][(1,)].reduced == {2: {(2, 3): -1}}


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
