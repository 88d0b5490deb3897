"""The pair bracket, sums and multiples against sympy, an oracle from outside the package.

sympy is not a dependency of microlie, so the module skips where it is not
installed.  Fields are read through ``Poly.coeffs`` into ``sympy.Poly`` over
``QQ``, and the textbook bracket ``[xi, eta]_i = sum_j (xi_j d eta_i/dx_j -
eta_j d xi_i/dx_j)`` is computed there.
"""

import random
from fractions import Fraction

import pytest

from microlie import liealg
from microlie.groupoids import PairGroupoid

sympy = pytest.importorskip("sympy")
QQ = sympy.QQ

# (seed, dim, degree): ten seeded pairs of fields in dimensions 1-2, of degree 1 or 2, each the first seeds
# of its (dim, degree) whose textbook bracket is not zero, so that a wrong sign or factor shows
CASES = [(3, 1, 1), (7, 1, 1), (0, 1, 2), (2, 1, 2), (3, 1, 2), (0, 2, 1), (1, 2, 1), (0, 2, 2), (1, 2, 2), (2, 2, 2)]


def _sympy_field(components, gens):
    """Each component, read through ``Poly.coeffs``, as a ``sympy.Poly`` over ``QQ``."""
    to_qq = lambda c: QQ(c.numerator, c.denominator)
    return [sympy.Poly.from_dict({e: to_qq(c) for e, c in p.coeffs.items()}, *gens, domain=QQ) for p in components]


def _textbook_bracket(xi, eta, gens):
    zero = sympy.Poly(0, *gens, domain=QQ)
    terms = lambda i: (xi[j] * eta[i].diff(x) - eta[j] * xi[i].diff(x) for j, x in enumerate(gens))
    return [sum(terms(i), zero) for i in range(len(gens))]


@pytest.fixture(params=CASES, ids=lambda case: "seed{}-dim{}-deg{}".format(*case))
def fields(request):
    seed, dim, degree = request.param
    g, rng = PairGroupoid(dim), random.Random(seed)
    x, y = g.random_ag(rng, degree), g.random_ag(rng, degree)
    return x, y, sympy.symbols(f"x0:{dim}")


def test_bracket_is_the_textbook_bracket(fields):
    x, y, gens = fields
    for left in (x, x.scaled(Fraction(2, 3))):  # integer coefficients, then rational ones
        ours = _sympy_field(liealg.bracket(left, y).data[0], gens)
        assert ours == _textbook_bracket(_sympy_field(left.data[0], gens), _sympy_field(y.data[0], gens), gens)


def test_sums_and_multiples_are_sympy_arithmetic(fields):
    x, y, gens = fields
    xi, eta = _sympy_field(x.data[0], gens), _sympy_field(y.data[0], gens)
    assert _sympy_field((x + y).data[0], gens) == [a + b for a, b in zip(xi, eta)]
    assert _sympy_field(x.scaled(Fraction(2, 3)).data[0], gens) == [a * QQ(2, 3) for a in xi]
