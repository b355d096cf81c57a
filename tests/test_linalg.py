import random
from fractions import Fraction

import pytest

from symplie.freelie import LieElement
from symplie.linalg import EchelonSpan, exact, kernel_basis
from symplie.reps import Character

from helpers import (
    columns_of,
    der_blocks,
    echelon,
    exactly_typed,
    hom_basis_image,
    rand_frac,
    rand_int,
    rows_of,
    run_rank_nullity,
)


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
    assert exactly_typed(ker)


def test_kernel_entries_never_float():
    # ints and Fractions in, over matrices of every rank: no float comes out,
    # and integral coordinates come out as ints
    rng = random.Random(20260)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
        coeff = rng.choice((rand_int, rand_frac))
        entries = {(rng.randrange(nrows), rng.randrange(ncols)): coeff(rng)
                   for _ in range(rng.randint(0, nrows * ncols))}
        ker = kernel_basis(columns_of(rows_of(entries, nrows), ncols))
        assert not any(type(c) is float for v in ker for c in v.values())
        assert exactly_typed(ker)


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    entries = {(rng.randrange(4), rng.randrange(7)): rand_frac(rng) for _ in range(12)}
    rows = rows_of(entries, 4)
    for v in kernel_basis(columns_of(rows, 7)):
        for row in rows:
            assert sum(c * v.get(k, 0) for k, c in row.items()) == 0


# --- span membership, and coordinates from kernels ------------------------

def _coordinates(vectors, v) -> dict | None:
    """v's coordinates on the independent vectors among ``vectors``, read
    off the kernel vector of the column v appended last (None if v is not
    in their span)."""
    ker = kernel_basis(list(vectors) + [v])
    n = len(vectors)
    if not ker or n not in ker[-1]:
        return None
    scale = -Fraction(ker[-1][n])
    return {j: exact(c / scale) for j, c in ker[-1].items() if j != n}


def test_membership_first_vector():
    assert _coordinates([{0: 1, 1: 2}, {2: 5}], {0: 1, 1: 2}) == {0: Fraction(1)}


def test_membership_zero_vector():
    assert _coordinates([{0: 1}, {1: 1}], {}) == {}


def test_membership_not_in_span():
    span = EchelonSpan()
    for v in ({0: 1}, {1: 1}):
        span.insert(v)
    assert not span.contains({2: 1})
    assert span.reduce({2: 1}) == {2: 1}
    assert _coordinates([{0: 1}, {1: 1}], {2: 1}) is None


def test_membership_recombines():
    rng = random.Random(11)
    span = [{rng.randrange(6): rand_frac(rng) for _ in range(3)} for _ in range(4)]
    coeffs = [rand_frac(rng) for _ in range(4)]
    target = {}
    for c, s in zip(coeffs, span):
        for k, v in s.items():
            target[k] = target.get(k, 0) + c * v
    v = {k: c for k, c in target.items() if c}
    combo = _coordinates(span, v)
    rebuilt = {}
    for j, c in combo.items():
        for k, val in span[j].items():
            rebuilt[k] = rebuilt.get(k, 0) + c * val
    assert {k: c for k, c in rebuilt.items() if c} == v


def test_kernel_reports_coordinates_of_dependent_column():
    ker = kernel_basis([{0: 1, 1: 1}, {1: 2}, {0: 3, 1: 5}])
    assert ker == [{0: 1, 1: Fraction(1, 3), 2: Fraction(-1, 3)}]
    assert [list(v) for v in ker] == [[0, 1, 2]]
    assert exactly_typed(ker)


# --- kernels do not depend on which row key leads --------------------------

def _typed(ker: list) -> list:
    return [[(j, c, type(c)) for j, c in v.items()] for v in ker]


def _relabelled(columns: list, key) -> list:
    return [{key(k): c for k, c in col.items()} for col in columns]


def test_kernel_is_independent_of_the_row_key_order():
    # k -> -k reverses the order the elimination pivots in; each kernel
    # vector is fixed by the column order alone, so the kernel is the same
    # by value and by coefficient type
    for seed in range(200):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 9)
        coeff = rng.choice((rand_int, rand_frac))
        entries = {(rng.randrange(nrows), rng.randrange(ncols)): coeff(rng)
                   for _ in range(rng.randint(0, nrows * ncols))}
        columns = columns_of(rows_of(entries, nrows), ncols)
        ker = kernel_basis(columns)
        assert _typed(kernel_basis(_relabelled(columns, lambda k: -k))) == _typed(ker), seed


def test_der_block_kernel_is_independent_of_the_word_order():
    # the zero-weight theta-image block of der_basis(3, 2), with every word
    # key negated letter by letter (which reverses the order of words of one
    # degree): 24 columns, the same 8 kernel vectors
    keys = der_blocks(3, 2)[(0, 0, 0)]
    columns = [hom_basis_image(3, 2, x, w) for x, w in keys]
    ker = kernel_basis(columns)
    assert (len(columns), len(ker)) == (24, 8)
    flipped = _relabelled(columns, lambda w: tuple(-letter for letter in w))
    assert _typed(kernel_basis(flipped)) == _typed(ker)


# --- which row key leads: the work, pinned ---------------------------------

def _stored_entries(monkeypatch, eliminate) -> tuple:
    """(row entries, Fraction entries) of the rows EchelonSpan.insert
    adjoins while eliminate() runs."""
    counts = [0, 0]
    insert = EchelonSpan.insert

    def counting(span, v):
        p = insert(span, v)
        if p is not None:
            row = span.rows[p]
            counts[0] += len(row)
            counts[1] += sum(type(c) is Fraction for c in row.values())
        return p

    monkeypatch.setattr(EchelonSpan, "insert", counting)
    eliminate()
    monkeypatch.undo()
    return tuple(counts)


def _ascending_kernel_rows(columns: list) -> None:
    """The elimination of kernel_basis with the smallest key leading."""
    span = EchelonSpan()
    for f, col in enumerate(columns):
        aug = {(0, k): c for k, c in col.items()}
        aug[(1, f)] = 1
        span.insert(aug)


def test_kernel_pivots_on_the_largest_key(monkeypatch):
    # every theta-image block of der_basis(3, 3): with the largest word
    # leading the columns are close to triangular, and far fewer stored
    # entries are Fractions than with the smallest word leading
    blocks = [[hom_basis_image(3, 3, x, w) for x, w in keys] for keys in der_blocks(3, 3).values()]
    largest = _stored_entries(monkeypatch, lambda: [kernel_basis(cols) for cols in blocks])
    smallest = _stored_entries(monkeypatch, lambda: [_ascending_kernel_rows(cols) for cols in blocks])
    assert largest == (8420, 258)
    assert smallest == (9103, 1758)


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


@pytest.mark.parametrize("cls", [LieElement, Character])
def test_sums_and_comparisons_read_each_space_once(cls, monkeypatch):
    # +, - and == read each operand's space() at most once, on the generic
    # rebuild path as well (LieElement and Character have no one-step owning)
    x, y = (LieElement(3, 1, {(0,): 1}), LieElement(3, 1, {(1,): 2})) if cls is LieElement \
        else (Character(3, {(1, 0, 0): 1}), Character(3, {(0, 0, 0): 2}))
    reads: list = []
    space = cls.space
    monkeypatch.setattr(cls, "space", lambda self: reads.append(id(self)) or space(self))
    for op in (lambda: x + y, lambda: x - y, lambda: x == y):
        reads.clear()
        op()
        assert len(reads) == len(set(reads)) <= 2


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


@pytest.mark.parametrize("first,stays_int", [
    ({0: -1, 1: 3, 2: -2}, True),             # lead -1: negated
    ({0: 2, 1: 4, 2: -6}, True),              # lead 2 divides the row
    ({0: 2, 1: 3, 2: 4}, False),              # lead 2 does not
    ({0: Fraction(1, 2), 1: 1, 2: 3}, False),  # a Fraction lead
])
def test_echelon_span_leads_match_an_all_fraction_oracle(first, stays_int):
    span, oracle = EchelonSpan(), EchelonSpan()
    for v in (first, {1: 3, 2: 5, 3: 6}, {0: 4, 3: -8}):
        span.insert(v)
        oracle.insert({k: Fraction(c) for k, c in v.items()})
    assert all(row[p] == 1 for p, row in span.rows.items())
    assert span.rows == oracle.rows
    assert all((type(c) is int) == stays_int for c in span.rows[0].values())
    for probe in ({0: 1}, {1: 2, 3: -1}, {0: 5, 2: 1, 3: 7}, {2: 3, 4: 1}):
        got = span.reduce(probe)
        assert got == oracle.reduce({k: Fraction(c) for k, c in probe.items()})
        assert all(type(c) in (int, Fraction) for c in got.values())


def test_rank_nullity_suite_small():
    run_rank_nullity(40)
