"""Property tests of the free Lie bracket and the quotient map on
generated elements.

Antisymmetry and the Jacobi identity for random homogeneous elements at
g = 2, 3 with total degree at most 7, and the quotient map at g = 3 in
degrees up to 6 on int coefficients against the same input as
``Fraction``s.  Runs are derandomized, so every run draws the same
examples.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from symplie.freelie import LieElement, bracket  # noqa: E402
from symplie.surface import reduce_lie  # noqa: E402

from helpers import lyndon_words  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


@st.composite
def lie_elements(draw, g: int, degree: int) -> LieElement:
    words = lyndon_words(g, degree)
    coords = draw(st.dictionaries(st.sampled_from(words), coefficients, min_size=1, max_size=3))
    return LieElement(g, degree, coords)


@st.composite
def homogeneous_triples(draw, top: int = 7):
    """(x, y, z) of one genus, each of degree >= 1, degrees summing to <= top."""
    g = draw(st.sampled_from((2, 3)))
    a = draw(st.integers(1, top - 2))
    b = draw(st.integers(1, top - 1 - a))
    c = draw(st.integers(1, top - a - b))
    return tuple(draw(lie_elements(g, d)) for d in (a, b, c))


@PROPERTY_SETTINGS
@given(homogeneous_triples())
def test_bracket_is_antisymmetric(xyz):
    x, y, _ = xyz
    assert bracket(x, x).is_zero()
    assert (bracket(x, y) + bracket(y, x)).is_zero()


@PROPERTY_SETTINGS
@given(homogeneous_triples())
def test_bracket_satisfies_jacobi(xyz):
    x, y, z = xyz
    total = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
    assert total.is_zero()


@st.composite
def int_lie_elements(draw) -> LieElement:
    """An element at g = 3 of degree at most 6 with nonzero int coefficients."""
    degree = draw(st.integers(1, 6))
    coeffs = st.integers(-4, 4).filter(bool)
    coords = draw(st.dictionaries(st.sampled_from(lyndon_words(3, degree)), coeffs,
                                  min_size=1, max_size=3))
    return LieElement(3, degree, coords)


@PROPERTY_SETTINGS
@given(int_lie_elements())
def test_reduce_lie_on_ints_matches_fractions(x):
    as_fractions = LieElement(x.g, x.degree, {w: Fraction(c) for w, c in x.coords.items()})
    got = reduce_lie(x)
    assert got == reduce_lie(as_fractions)
    assert all(type(c) in (int, Fraction) for c in got.coords.values())
