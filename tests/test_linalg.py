import random
from fractions import Fraction

import pytest

from symplie.freelie import LieElement
from symplie.linalg import EchelonSpan, kernel_basis
from symplie.reps import Character

from helpers import columns_of, echelon, rand_frac, rows_of, run_rank_nullity


# --- the test-side RREF oracle ----------------------------------------------

def test_echelon_identity():
    red, pivots = echelon([{0: 1}, {1: 1}])
    assert pivots == [0, 1]
    assert red == [{0: 1}, {1: 1}]


def test_echelon_rank_one():
    red, pivots = echelon([{0: 1, 1: 2}, {0: 2, 1: 4}])
    assert pivots == [0]
    assert red == [{0: 1, 1: 2}]


def test_echelon_idempotent_bit_for_bit():
    rng = random.Random(7)
    entries = {(rng.randrange(6), rng.randrange(9)): rand_frac(rng) for _ in range(20)}
    red, pivots = echelon(rows_of(entries, 6))
    red2, pivots2 = echelon(red)
    assert red2 == red and pivots2 == pivots


# --- kernels ------------------------------------------------------------------

def test_random_rank_nullity_50x80():
    rng = random.Random(20231)
    entries = {}
    for _ in range(400):
        entries[(rng.randrange(50), rng.randrange(80))] = rand_frac(rng)
    rows = rows_of(entries, 50)
    _, pivots = echelon(rows)
    assert len(pivots) + len(kernel_basis(columns_of(rows, 80))) == 80


def test_kernel_identity_empty():
    assert kernel_basis([{i: 1} for i in range(3)]) == []


def test_kernel_zero_matrix_unit_vectors():
    ker = kernel_basis([{}, {}, {}])
    assert ker == [{i: 1} for i in range(3)]
    assert all(type(c) is Fraction for v in ker for c in v.values())


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    entries = {(rng.randrange(4), rng.randrange(7)): rand_frac(rng) for _ in range(12)}
    rows = rows_of(entries, 4)
    for v in kernel_basis(columns_of(rows, 7)):
        for row in rows:
            assert sum(c * v.get(k, 0) for k, c in row.items()) == 0


# --- span membership with coordinates ---------------------------------------

def _tracked(vectors):
    span = EchelonSpan(track_combos=True)
    for j, v in enumerate(vectors):
        span.insert(v, tag=j)
    return span


def test_membership_first_vector():
    span = _tracked([{0: 1, 1: 2}, {2: 5}])
    combo = {}
    assert span.reduce({0: 1, 1: 2}, combo) == {}
    assert combo == {0: Fraction(1)}


def test_membership_zero_vector():
    span = _tracked([{0: 1}, {1: 1}])
    combo = {}
    assert span.reduce({}, combo) == {} and combo == {}


def test_membership_not_in_span():
    span = _tracked([{0: 1}, {1: 1}])
    assert not span.contains({2: 1})
    assert span.reduce({2: 1}) == {2: 1}


def test_membership_recombines():
    rng = random.Random(11)
    span = [{rng.randrange(6): rand_frac(rng) for _ in range(3)} for _ in range(4)]
    coeffs = [rand_frac(rng) for _ in range(4)]
    target = {}
    for c, s in zip(coeffs, span):
        for k, v in s.items():
            target[k] = target.get(k, 0) + c * v
    v = {k: c for k, c in target.items() if c}
    combo = {}
    assert _tracked(span).reduce(v, combo) == {}
    rebuilt = {}
    for j, c in combo.items():
        for k, val in span[j].items():
            rebuilt[k] = rebuilt.get(k, 0) + c * val
    assert {k: c for k, c in rebuilt.items() if c} == v


def test_insert_reports_coordinates_of_dependent_vector():
    span = _tracked([{0: 1, 1: 1}, {1: 2}])
    combo = {}
    assert span.insert({0: 3, 1: 5}, tag=2, combo=combo) is None
    assert combo == {0: 3, 1: 1}


# --- the sparse element base ------------------------------------------------

def test_sparse_element_arithmetic():
    x = LieElement(3, 1, {(0,): 1, (1,): 2})
    y = LieElement(3, 1, {(1,): -2, (2,): 1})
    assert (x + y).coords == {(0,): 1, (2,): 1}
    assert (x - x).is_zero() and (-x + x).is_zero()
    assert 2 * x == x * 2 == x + x
    assert (0 * x).space() == (3, 1) and (0 * x).is_zero()
    assert Character(3, {(1, 0, 0): 2}) - Character(3, {(1, 0, 0): 2}) == Character(3)


def test_sparse_element_space_mismatch():
    with pytest.raises(ValueError):
        LieElement(3, 1, {(0,): 1}) + LieElement(3, 2, {(0, 1): 1})
    with pytest.raises(ValueError):
        LieElement(3, 1, {(0,): 1}) - LieElement(2, 1, {(0,): 1})
    assert LieElement(3, 1) != LieElement(3, 2)
    assert LieElement(3, 1, {(0,): 1}) != Character(3, {(0,): 1})


def test_echelon_span_residue_insertion_order_independent():
    rng = random.Random(3)
    vecs = [{rng.randrange(8): rand_frac(rng) for _ in range(3)} for _ in range(5)]
    probe = {rng.randrange(8): rand_frac(rng) for _ in range(4)}
    a, b = EchelonSpan(), EchelonSpan()
    for v in vecs:
        a.insert(dict(v))
    for v in reversed(vecs):
        b.insert(dict(v))
    assert a.reduce(probe) == b.reduce(probe)
    assert sorted(a.rows) == sorted(b.rows)


def test_rank_nullity_suite_small():
    run_rank_nullity(40)
