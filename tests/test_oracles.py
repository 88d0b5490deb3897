import random
from fractions import Fraction
from functools import reduce
from operator import add, mul, sub

import pytest

from microlie.oracles import PolyVectorField, classical_vf_bracket, matrix_table_bracket
from microlie.poly import Poly
from microlie.vfexpr import parse_vector_field
from microlie.weil import InfinitesimalDomain, WeilElement, generators


def vf(text, dim):
    return PolyVectorField(parse_vector_field(text, dim))


def is_zero(m):
    return all(not x for row in m for x in row)


def mat_mul(a, b):
    """Reference product of square matrices over any ring: ints, ``Fraction`` s or Weil elements."""
    return tuple(tuple(reduce(add, map(mul, row, col)) for col in zip(*b)) for row in a)


def mat_add(a, b):
    return tuple(tuple(map(add, ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def lift(m, domain):
    """A rational matrix as a matrix of scalar Weil elements."""
    return tuple(tuple(WeilElement.scalar(domain, c) for c in row) for row in m)


class TestClassicalBracket:
    def test_constant_and_shear(self):
        assert classical_vf_bracket(vf("1; 0", 2), vf("0; x0", 2)) == vf("0; 1", 2)

    def test_self_bracket(self):
        xi = vf("x0^2*x1; x1 - x0", 2)
        assert classical_vf_bracket(xi, xi) == PolyVectorField((Poly.zero(2),) * 2)

    def test_one_dimensional(self):
        # [x0, x0^2] = x0 * 2 x0 - x0^2 * 1 = x0^2
        assert classical_vf_bracket(vf("x0", 1), vf("x0^2", 1)) == vf("x0^2", 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            classical_vf_bracket(vf("x0", 1), vf("x0; x1", 2))


class TestMatrixTableBracket:
    def test_elementary_matrices(self):
        a = (((0, 1), (0, 0)),)
        b = (((0, 0), (1, 0)),)
        expected = (((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1))),)
        assert matrix_table_bracket(a, b) == expected

    def test_equal_tables(self):
        a = (((1, 2), (3, 4)), ((0, 1), (1, 0)))
        result = matrix_table_bracket(a, a)
        assert all(is_zero(t) for t in result)

    def test_commuting_diagonals(self):
        a = (((2, 0), (0, 3)),)
        b = (((5, 0), (0, 7)),)
        assert all(is_zero(t) for t in matrix_table_bracket(a, b))


def random_fields(rng, dim, degree=2):
    exps = [e for e in _exponents(dim, degree)]
    comps = []
    for _ in range(dim):
        comps.append(Poly(dim, {e: rng.randint(-3, 3) for e in exps}))
    return PolyVectorField(comps)


def _exponents(nvars, degree):
    out = [()]
    for _ in range(nvars):
        out = [e + (k,) for e in out for k in range(degree + 1)]
    return [e for e in out if sum(e) <= degree]


def test_classical_oracle_self_consistency():
    rng = random.Random(2)
    for _ in range(5):
        x, y, z = (random_fields(rng, 2) for _ in range(3))
        br = classical_vf_bracket
        assert br(x, y).components == tuple(-c for c in br(y, x).components)
        total = tuple(
            a + b + c
            for a, b, c in zip(
                br(x, br(y, z)).components,
                br(y, br(z, x)).components,
                br(z, br(x, y)).components,
            )
        )
        assert all(not t for t in total)


def test_matrix_oracle_self_consistency():
    rng = random.Random(3)
    for _ in range(5):
        tabs = [
            tuple(
                tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
                for _ in range(2)
            )
            for _ in range(3)
        ]
        x, y, z = tabs
        br = matrix_table_bracket
        assert br(x, y) == tuple(mat_scale(-1, t) for t in br(y, x))
        total = tuple(
            mat_add(mat_add(a, b), c)
            for a, b, c in zip(br(x, br(y, z)), br(y, br(z, x)), br(z, br(x, y)))
        )
        assert all(is_zero(t) for t in total)


def test_table_sign_matches_commutator_word():
    """Re-derive the table bracket's sign from the four-flow word over D^2."""
    D2 = InfinitesimalDomain(2)
    d1, d2 = generators(D2)
    rng = random.Random(5)
    for _ in range(5):
        a0 = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        b0 = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        a, b = lift(a0, D2), lift(b0, D2)
        ident = lift(((1, 0), (0, 1)), D2)
        word = mat_mul(
            mat_mul(mat_sub(ident, mat_scale(d2, b)), mat_sub(ident, mat_scale(d1, a))),
            mat_mul(mat_add(ident, mat_scale(d2, b)), mat_add(ident, mat_scale(d1, a))),
        )
        top = tuple(tuple(w.coefficient({1, 2}) for w in row) for row in word)
        assert top == mat_sub(mat_mul(b0, a0), mat_mul(a0, b0))
