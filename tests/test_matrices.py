from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from microlie.matrices import SingularMatrixError, q_inverse, q_is_invertible

ENTRY = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def inverse_exists(m) -> bool:
    try:
        q_inverse(m)
    except SingularMatrixError:
        return False
    return True


def square(k):
    return st.lists(st.lists(ENTRY, min_size=k, max_size=k).map(tuple), min_size=k, max_size=k).map(tuple)


def made_singular(case):
    """Overwrite one row with a rational combination of the others (or zero)."""
    m, target, weights = case
    k = len(m)
    row = tuple(
        sum((Fraction(w) * m[i][j] for i, w in enumerate(weights) if i != target), Fraction(0)) for j in range(k)
    )
    return m[:target] + (row,) + m[target + 1 :]


def singular(k):
    weights = st.lists(ENTRY, min_size=k, max_size=k)
    return st.tuples(square(k), st.integers(0, k - 1), weights).map(made_singular)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_invertible_exactly_when_the_inverse_exists(k, data):
    m = data.draw(st.one_of(square(k), singular(k)))
    assert q_is_invertible(m) == inverse_exists(m)


F = Fraction
SINGULAR = {
    "repeated row": ((1, 2, 3), (4, 5, 6), (1, 2, 3)),
    "zero column": ((1, 0, 2), (3, 0, 4), (5, 0, 7)),
    "rank-deficient 4x4": ((1, 2, 0, 1), (0, 1, 1, 2), (1, 3, 1, 3), (2, 5, 1, 4)),
    "fractional repeated row": ((F(1, 2), F(1, 3)), (F(3, 2), 1)),
    "zero 4x4": ((0,) * 4,) * 4,
}
INVERTIBLE = {
    "zero leading pivot 4x4": ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    "fractional 4x4": ((F(1, 2), 0, 0, 1), (0, F(2, 3), 0, 0), (0, 0, 3, 0), (1, 0, 0, 0)),
    "empty": (),
}


@pytest.mark.parametrize("name", sorted(SINGULAR))
def test_singular_cases(name):
    m = SINGULAR[name]
    assert not q_is_invertible(m)
    with pytest.raises(SingularMatrixError):
        q_inverse(m)


@pytest.mark.parametrize("name", sorted(INVERTIBLE))
def test_invertible_cases(name):
    m = INVERTIBLE[name]
    assert q_is_invertible(m)
    q_inverse(m)
