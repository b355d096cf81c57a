"""The quotient basis by the a1 b1 word filter and the on-demand ideal
blocks, checked against eager elimination of the whole ideal family."""

import random
from fractions import Fraction

import pytest

import symplie
from symplie import claims, surface
from symplie.freelie import bracket_coords
from symplie.reps import degree_cap, word_weight
from symplie.surface import is_pivot_word, p_basis, shirshov_row

from helpers import (
    eager_ideal_blocks,
    eager_ideal_rows,
    eager_reduce,
    grouped_reduce,
    ideal_component,
    lyndon_words,
    rand_frac,
    rand_int,
    random_lie,
    words_by_weight,
)

# reductions and ideal rows are compared where the eager family stays small
REDUCE_CASES = {(g, m) for g in (2, 3) for m in range(2, 7)} | {(4, m) for m in range(2, 6)}


@pytest.mark.parametrize("g,m", [(g, m) for g in (2, 3, 4) for m in range(1, 7)])
def test_quotient_matches_eager_elimination(g, m):
    blocks = eager_ideal_blocks(g, m)
    pivots = {p for span in blocks.values() for p in span.rows}
    pb = p_basis(g, m)
    split = words_by_weight(g, m)
    assert {w for reps, piv in split.values() for w in reps + piv if is_pivot_word(w)} == pivots
    assert pb.rep_words == tuple(w for w in lyndon_words(g, m) if w not in pivots)
    if (g, m) not in REDUCE_CASES:
        return
    rng = random.Random(1000 * g + m)
    by_weight: dict = {}
    for w in lyndon_words(g, m):
        by_weight.setdefault(word_weight(w, g), []).append(w)
    # one element per ideal weight block, holding one of its pivot words
    for wt, span in sorted(blocks.items()):
        words = by_weight[wt]
        coords = {rng.choice(sorted(span.rows)): rand_frac(rng) or 1}
        for _ in range(3):
            coords[rng.choice(words)] = rand_frac(rng)
        got = pb.reduce_coords(coords)
        assert got == eager_reduce(blocks, g, coords)
        assert all(w not in pivots for w in got)
    # and elements spread over several weights
    words = lyndon_words(g, m)
    for _ in range(5):
        coords = {rng.choice(words): rand_frac(rng) for _ in range(6)}
        assert pb.reduce_coords(coords) == eager_reduce(blocks, g, coords)
    assert [v.coords for v in ideal_component(g, m)] == eager_ideal_rows(blocks)


def _rand_nonzero_frac(rng: random.Random) -> Fraction:
    return Fraction(rand_int(rng), rng.randint(1, 5))


def _rand_mixed(rng: random.Random):
    return rng.choice((rand_int, _rand_nonzero_frac))(rng)


def _typed(coords: dict) -> dict:
    return {k: (type(c), c) for k, c in coords.items()}


def _mixed_weight_vector(g: int, m: int, rng: random.Random, coeff) -> dict:
    """Four pivot words of at least two torus weights and three more words,
    with nonzero coefficients from coeff."""
    words = lyndon_words(g, m)
    pivots = [w for w in words if is_pivot_word(w)]
    chosen = rng.sample(pivots, 4)
    while len({word_weight(w, g) for w in chosen}) < 2:
        chosen = rng.sample(pivots, 4)
    coords = {w: coeff(rng) for w in chosen}
    for w in rng.sample(words, 3):
        coords.setdefault(w, coeff(rng))
    return coords


def _check_against_grouped_and_eager(g: int, m: int, seed: int) -> None:
    # The grouped route sweeps on a PBasis of its own, so it shares no row
    # and no residue with the library's.  On int and on Fraction vectors a
    # coefficient's type is fixed by the input's, and every route agrees by
    # key, value and type; the eager rows are scaled by their leads and may
    # hold Fractions, so on int vectors eager residues are compared by
    # value.  On vectors mixing ints and Fractions a coefficient that
    # cancels to zero part way may come back as an int or as the equal
    # Fraction, depending on the order of the sums, so those compare by
    # value.
    rng = random.Random(seed)
    pb = p_basis(g, m)
    grouped = surface.PBasis(g, m)
    eager = eager_ideal_blocks(g, m) if (g, m) in REDUCE_CASES or m == 7 else None
    for coeff in (_rand_nonzero_frac, rand_int, _rand_mixed):
        for _ in range(6):
            coords = _mixed_weight_vector(g, m, rng, coeff)
            got = pb.reduce_coords(coords)
            assert not any(map(is_pivot_word, got))
            want = grouped_reduce(grouped, coords)
            assert got == want
            if coeff is not _rand_mixed:
                assert _typed(got) == _typed(want)
            if eager is not None:
                expected = eager_reduce(eager, g, coords)
                assert got == expected
                if coeff is _rand_nonzero_frac:
                    assert _typed(got) == _typed(expected)
            if coeff is rand_int:
                assert all(type(c) is int for c in got.values())


@pytest.mark.parametrize("g,m", [(g, m) for g in (2, 3, 4) for m in range(3, 7)])
def test_memoised_residues_match_grouped_and_eager_routes(g, m):
    _check_against_grouped_and_eager(g, m, 7000 + 100 * g + m)


def test_memoised_residues_match_grouped_and_eager_routes_in_degree_7(monkeypatch):
    monkeypatch.setenv("SYMPLIE_DEGREE_CAP", "10")
    _check_against_grouped_and_eager(3, 7, 7307)


def _check_reduced_brackets_against_scan_and_grouped(g: int, m: int, seed: int) -> None:
    # A bracket handed the degree's basis adds each table entry that holds
    # a pivot word as its memoised reduced form; the scan of every key of
    # the free bracket (reduce_coords) and the grouped route must agree
    # with it by key, value and type on int and on Fraction brackets, and
    # by value on mixed ones (see _check_against_grouped_and_eager).
    rng = random.Random(seed)
    pb = p_basis(g, m)
    grouped = surface.PBasis(g, m)
    met = 0
    for coeff in (_rand_nonzero_frac, rand_int, _rand_mixed):
        for _ in range(8):
            a = rng.randint(1, m - 1)
            x = random_lie(g, a, rng, 3, coeff).coords
            y = random_lie(g, m - a, rng, 3, coeff).coords
            coords = bracket_coords(x, y)
            met += any(map(is_pivot_word, coords))
            got = bracket_coords(x, y, pb)
            assert not any(map(is_pivot_word, got))
            scan = pb.reduce_coords(coords)
            want = grouped_reduce(grouped, coords)
            assert got == scan == want
            if coeff is not _rand_mixed:
                assert _typed(got) == _typed(scan) == _typed(want)
    assert met


@pytest.mark.parametrize("g,m", [(g, m) for g in (2, 3, 4) for m in range(3, 7)])
def test_collected_candidates_match_scan_and_grouped_routes(g, m):
    _check_reduced_brackets_against_scan_and_grouped(g, m, 8000 + 100 * g + m)


def test_collected_candidates_match_scan_and_grouped_routes_in_degree_7(monkeypatch):
    monkeypatch.setenv("SYMPLIE_DEGREE_CAP", "10")
    _check_reduced_brackets_against_scan_and_grouped(3, 7, 8307)


def test_residue_memo_holds_the_pivot_words_met():
    # each residue is built on first use and kept: after seeded reductions
    # its keys are the pivot words the reductions popped, and each value is
    # int-valued and free of pivot words; clear_caches drops the bases and
    # with them every residue
    g = 3
    symplie.clear_caches()
    rng = random.Random(31)
    met: dict = {m: set() for m in range(3, 7)}
    for m, words in met.items():
        pb = p_basis(g, m)
        for _ in range(5):
            coords = _mixed_weight_vector(g, m, rng, rand_int)
            words.update(w for w in coords if is_pivot_word(w))
            pb.reduce_coords(coords)
    for m, words in met.items():
        residues = p_basis(g, m).residues
        assert residues.keys() == words
        for r in residues.values():
            assert all(type(c) is int for c in r.values())
            assert not any(map(is_pivot_word, r))
    symplie.clear_caches()
    assert surface._p_basis.cache_info().currsize == 0
    assert all(not p_basis(g, m).residues for m in met)


@pytest.mark.parametrize("g,top", [(2, 8), (3, 7), (4, 6)])
def test_shirshov_row_of_every_pivot_word(g, top):
    # each weight's pivot words come in ascending order, and the
    # closed-form row of each leads with that word, with coefficient 1 and
    # int coefficients; where the eager family stays small, the row also
    # lies in the ideal
    for m in range(2, top + 1):
        eager = eager_ideal_blocks(g, m) if (g, m) in REDUCE_CASES else None
        for wt, (reps, pivots) in words_by_weight(g, m).items():
            words = [w for w in reps + pivots if is_pivot_word(w)]
            assert words == sorted(words)
            for w in words:
                assert word_weight(w, g) == wt
                row = shirshov_row(g, w)
                assert min(row) == w and row[w] == 1, w
                assert all(type(c) is int for c in row.values()), w
                if eager is not None:
                    assert eager_reduce(eager, g, row) == {}, w


def test_blocks_build_within_their_degree_in_ints():
    # building every block of a degree builds no basis of another degree,
    # and the closed-form rows never need a Fraction
    for g in (3, 4):
        symplie.clear_caches()
        pb = p_basis(g, 6)
        for wt, (_, pivots) in words_by_weight(g, 6).items():
            pb.block(wt, pivots)
        assert surface._p_basis.cache_info().currsize == 1
        assert surface._p_basis(g, 6) is pb
        for span in pb.blocks.values():
            for row in span.rows.values():
                assert all(type(c) is int for c in row.values())


def _closed_under_pivot_words(blocks: dict) -> bool:
    return all(q in span.rows for span in blocks.values() for row in span.rows.values()
               for q in row if is_pivot_word(q))


def test_reduction_builds_the_closure_of_the_rows_it_reads():
    # reducing one pivot word builds, in its weight block alone, the
    # Shirshov row of that word and in turn of every pivot word in a row
    # built; the residue is the one modulo the whole weight piece
    g, m = 4, 6
    w = (0, 0, 1, 1, 1, 2)
    wt = word_weight(w, g)
    closure = {w}
    todo = [w]
    while todo:
        for q in shirshov_row(g, todo.pop()):
            if is_pivot_word(q) and q not in closure:
                closure.add(q)
                todo.append(q)
    pivots = words_by_weight(g, m)[wt][1]
    assert closure < set(pivots)
    symplie.clear_caches()
    pb = p_basis(g, m)
    got = pb.reduce_coords({w: 3})
    assert list(pb.blocks) == [wt]
    assert pb.blocks[wt].rows.keys() == closure
    assert _closed_under_pivot_words(pb.blocks)
    assert got == surface.PBasis(g, m).block(wt, pivots).reduce({w: 3})
    assert got and not any(map(is_pivot_word, got))


def test_outer_bracket_builds_few_ideal_rows():
    # the commuting-pair certificate at g = 8 reduces a few elements: it
    # builds a few dozen ideal rows, not every row of the weights it reads
    g = 8
    symplie.clear_caches()
    claims.verify_theorem_outer_bracket(g)
    bases = [p_basis(g, m) for m in range(2, degree_cap() + 1)]
    assert 0 < sum(len(span.rows) for pb in bases for span in pb.blocks.values()) <= 100
    assert all(_closed_under_pivot_words(pb.blocks) for pb in bases)
