from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from microlie.matrices import _adjugate, _determinant
from microlie.spaces import MatrixGroup, MembershipError, WPoint
from microlie.weil import InfinitesimalDomain

INTEGER = st.integers(min_value=-3, max_value=3)
ENTRY = st.one_of(INTEGER, st.fractions(min_value=-3, max_value=3, max_denominator=4))


def fraction_inverse(m):
    """Reference: the Gauss-Jordan inverse of a rational matrix over ``Fraction``, or None if it is singular."""
    k = len(m)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(m)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if work[r][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for r in range(k):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[k:]) for row in work)


def numerator_rows(m):
    """Each row of a rational matrix times the lcm of its denominators: integers, and the same rank."""
    rows = []
    for row in m:
        row = [Fraction(x) for x in row]
        den = lcm(1, *(x.denominator for x in row))
        rows.append([x.numerator * (den // x.denominator) for x in row])
    return rows


def is_matrix_point(m):
    """Whether a rational matrix is a point of ``MatrixGroup``: its check reads the numerators over one denominator."""
    try:
        WPoint(MatrixGroup(len(m)), InfinitesimalDomain(0), {(): [x for row in m for x in row]})
    except MembershipError:
        return False
    return True


def int_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def check_adjugate(rows):
    """``rows @ adj == adj @ rows == det * I``, ``det`` is the Bareiss determinant, and ``adj / det`` is the inverse."""
    k = len(rows)
    adj, det = _adjugate(rows)
    scaled_identity = [[det * int(i == j) for j in range(k)] for i in range(k)]
    assert all(type(n) is int for row in adj for n in row) and type(det) is int
    assert int_mul(rows, adj) == scaled_identity and int_mul(adj, rows) == scaled_identity
    assert det == _determinant(rows)
    inverse = fraction_inverse(rows)
    if det:
        assert inverse == tuple(tuple(Fraction(n, det) for n in row) for row in adj)
    else:
        assert inverse is None
    return det


def square(k, entry=ENTRY):
    return st.lists(st.lists(entry, min_size=k, max_size=k).map(tuple), min_size=k, max_size=k).map(tuple)


def made_singular(case):
    """Overwrite one row with a rational combination of the others (or zero)."""
    m, target, weights = case
    k = len(m)
    row = tuple(
        sum((Fraction(w) * m[i][j] for i, w in enumerate(weights) if i != target), Fraction(0)) for j in range(k)
    )
    return m[:target] + (row,) + m[target + 1 :]


def singular(k, entry=ENTRY):
    weights = st.lists(entry, min_size=k, max_size=k)
    return st.tuples(square(k, entry), st.integers(0, k - 1), weights).map(made_singular)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_invertible_exactly_when_the_inverse_exists(k, data):
    m = data.draw(st.one_of(square(k), singular(k)))
    det = check_adjugate(numerator_rows(m))
    assert is_matrix_point(m) == (fraction_inverse(m) is not None) == (det != 0)


@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_adjugate_times_matrix_is_the_determinant(k, data):
    m = data.draw(st.one_of(square(k, INTEGER), singular(k, INTEGER)))
    rows = [[int(x) for x in row] for row in m]  # integer combinations of integer rows
    assert is_matrix_point(m) == (fraction_inverse(m) is not None) == (check_adjugate(rows) != 0)


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
    assert not is_matrix_point(m)
    assert fraction_inverse(m) is None
    assert check_adjugate(numerator_rows(m)) == 0


@pytest.mark.parametrize("name", sorted(INVERTIBLE))
def test_invertible_cases(name):
    m = INVERTIBLE[name]
    assert is_matrix_point(m)
    assert check_adjugate(numerator_rows(m)) != 0


def test_a_rank_deficient_matrix_has_a_nonzero_adjugate():
    adj, det = _adjugate([[1, 2], [2, 4]])
    assert det == 0 and adj == [[4, -2], [-2, 1]]
