import random
from fractions import Fraction

import pytest

import symplie.magnus
from symplie.freelie import LieElement, bracket, gen_a, gen_b, tensor_mul
from symplie.johnson import tau_hyp_twist
from symplie.magnus import (
    FreeWord,
    NotInLCS,
    commutator,
    dehn_twist,
    lcs_class,
    magnus,
    series_log,
    substitute,
    tau_hyp_from_twist,
)


def _g(k):
    return FreeWord.generator(k)


def _exponent_sum(w, k):
    return sum(e for x, e in w.letters if x == k)


def test_free_reduction():
    w = _g(0) * _g(0).inverse()
    assert not w.letters
    assert (_g(0) * _g(1) * _g(1).inverse()).letters == ((0, 1),)


def test_magnus_of_identity():
    assert magnus(_g(0) * _g(0).inverse(), 3) == {(): 1}


def test_magnus_commutator_degree_two():
    # frozen from expanding (1+X1)(1+X2)(1-X1+X1^2)(1-X2+X2^2) mod degree 3
    s = magnus(commutator(_g(0), _g(1)), 2)
    assert s == {(): 1, (0, 1): 1, (1, 0): -1}


def test_magnus_linear_coefficient_is_exponent_sum():
    rng = random.Random(13)
    for _ in range(20):
        w = FreeWord()
        for _ in range(rng.randint(1, 8)):
            w = w * FreeWord.generator(rng.randrange(6), rng.choice((1, -1)))
        s = magnus(w, 2)
        for k in range(6):
            assert s.get((k,), 0) == _exponent_sum(w, k)


def test_magnus_is_homomorphism():
    rng = random.Random(19)
    for _ in range(15):
        u = FreeWord()
        v = FreeWord()
        for _ in range(rng.randint(1, 5)):
            u = u * FreeWord.generator(rng.randrange(4), rng.choice((1, -1)))
            v = v * FreeWord.generator(rng.randrange(4), rng.choice((1, -1)))
        assert magnus(u * v, 3) == tensor_mul(magnus(u, 3), magnus(v, 3), 3)


def test_lcs_class_commutator():
    x = lcs_class(commutator(_g(0), _g(1)), 2, 3)
    assert x == bracket(LieElement.generator(3, 0), LieElement.generator(3, 1))


def test_lcs_class_double_commutator_matches_bracket_oracle():
    got = lcs_class(commutator(commutator(_g(0), _g(1)), _g(2)), 3, 3)
    want = bracket(
        bracket(LieElement.generator(3, 0), LieElement.generator(3, 1)),
        LieElement.generator(3, 2),
    )
    assert got == want


def test_lcs_class_bracket_compatibility():
    rng = random.Random(29)
    for _ in range(8):
        i, j, k = rng.sample(range(6), 3)
        u = commutator(_g(i), _g(j))
        v = _g(k)
        got = lcs_class(commutator(u, v), 3, 3)
        want = bracket(lcs_class(u, 2, 3), lcs_class(v, 1, 3))
        assert got == want


def test_lcs_class_rejects_shallow_words():
    with pytest.raises(NotInLCS):
        lcs_class(_g(0), 2, 3)


def _quasi_shuffles(u, v):
    # interleavings that may merge equal letters: the dual of the coproduct
    # for which every letter is (group element) - 1
    if not u:
        yield v
        return
    if not v:
        yield u
        return
    for w in _quasi_shuffles(u[1:], v):
        yield u[:1] + w
    for w in _quasi_shuffles(u, v[1:]):
        yield v[:1] + w
    if u[0] == v[0]:
        for w in _quasi_shuffles(u[1:], v[1:]):
            yield u[:1] + w


def test_magnus_image_is_group_like():
    # group-likeness, dually: c(u)c(v) = sum over quasi-shuffles of c(w)
    rng = random.Random(47)
    for _ in range(6):
        w = FreeWord()
        for _ in range(rng.randint(1, 5)):
            w = w * FreeWord.generator(rng.randrange(4), rng.choice((1, -1)))
        s = magnus(w, 3)
        letters = sorted({k for k, _ in w.letters})
        words = [(a,) for a in letters] + [(a, b) for a in letters for b in letters]
        for u in words:
            for v in words:
                if len(u) + len(v) > 3:
                    continue
                lhs = s.get(u, 0) * s.get(v, 0)
                rhs = sum(s.get(t, 0) for t in _quasi_shuffles(u, v))
                assert lhs == rhs, (w, u, v)


def test_series_log_needs_constant_term():
    with pytest.raises(ValueError):
        series_log({(0,): Fraction(1)}, 2)


def test_dehn_twist_images():
    t = dehn_twist(3, 1)
    assert len(t) == 6
    assert substitute(t, _g(0)) == _g(0)
    assert substitute(t, _g(1)) == _g(1)
    c = commutator(_g(0), _g(1))
    assert t[4] == c * _g(4) * c.inverse()


def test_dehn_twist_abelianization_trivial():
    # the closed form: a separating twist acts trivially on homology, so
    # each image has the exponent sums of its own generator
    for g in (3, 4):
        for j in range(1, g):
            n = 2 * g
            ab = [[_exponent_sum(im, c) for c in range(n)] for im in dehn_twist(g, j)]
            assert ab == [[1 if r == c else 0 for c in range(n)] for r in range(n)]


def test_dehn_twist_range_checked():
    with pytest.raises(ValueError):
        dehn_twist(3, 3)


def test_disjoint_twists_commute_as_automorphisms():
    for g in (3, 4):
        t1 = dehn_twist(g, 1)
        t2 = dehn_twist(g, g - 1)
        for i in range(2 * g):
            w = FreeWord.generator(i)
            assert substitute(t1, substitute(t2, w)) == substitute(t2, substitute(t1, w))


def test_substitute_applies_a_determinant_minus_one_swap():
    g = 3
    images = (_g(1), _g(0)) + tuple(_g(k) for k in range(2, 2 * g))
    assert substitute(images, _g(0) * _g(1)) == _g(1) * _g(0)
    assert substitute(images, _g(0).inverse() * _g(2)) == _g(1).inverse() * _g(2)


def test_oracle_takes_one_logarithm_per_generator(monkeypatch):
    calls = []

    def counting_log(s, n):
        calls.append(s)
        return series_log(s, n)

    monkeypatch.setattr(symplie.magnus, "series_log", counting_log)
    assert tau_hyp_from_twist(3, 1) == tau_hyp_twist(3, 1)
    assert len(calls) <= 6


def test_magnus_oracle_matches_closed_form():
    for g in (3, 4):
        for j in range(1, g):
            assert tau_hyp_from_twist(g, j) == tau_hyp_twist(g, j), (g, j)


def test_inverse_twist_negates():
    from symplie.johnson import Derivation

    g = 3
    a = tau_hyp_from_twist(g, 1, inverse=True)
    b = Derivation.from_hom(Fraction(-1) * tau_hyp_twist(g, 1))
    assert a == b


def test_oracle_columns_vanish_on_near_side():
    g = 3
    d = tau_hyp_from_twist(g, 1)
    assert d.column(gen_a(1)).is_zero()
    assert d.column(gen_b(1)).is_zero()
    assert not d.column(gen_a(3)).is_zero()
