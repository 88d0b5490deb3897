import pytest

from microlie.poly import Poly, RATIONALS, compose_map, identity_map, rational_poly
from microlie.weil import InfinitesimalDomain, WeilElement

D = InfinitesimalDomain.line()


def test_mul_and_pow():
    x = rational_poly(1, {(1,): 1})
    assert (x + rational_poly(1, {(0,): 1})) ** 2 == rational_poly(1, {(0,): 1, (1,): 2, (2,): 1})


def test_compose():
    sq = rational_poly(1, {(2,): 1})
    shifted = rational_poly(1, {(0,): 1, (1,): 1})
    assert sq.compose([shifted]) == rational_poly(1, {(0,): 1, (1,): 2, (2,): 1})


def test_compose_map_association():
    f = identity_map(2, RATIONALS)
    g = (rational_poly(2, {(1, 0): 2}), rational_poly(2, {(0, 1): 1, (1, 0): -1}))
    assert compose_map(f, g) == g
    assert compose_map(g, f) == g


def test_derivative():
    p = rational_poly(2, {(2, 1): 3, (0, 1): -1})
    assert p.derivative(0) == rational_poly(2, {(1, 1): 6})
    assert p.derivative(1) == rational_poly(2, {(2, 0): 3, (0, 0): -1})


def test_evaluate_at_weil_point():
    sq = Poly(1, D, {(2,): WeilElement.one(D)})
    one_plus_d = WeilElement(D, {(): 1, (1,): 1})
    at_point = sq.compose([Poly.constant(0, one_plus_d)])
    assert at_point.coefficient(()) == WeilElement(D, {(): 1, (1,): 2})


def test_nilpotent_coefficients_truncate_products():
    d = WeilElement.generator(D, 1)
    p = Poly(1, D, {(1,): d})
    assert p * p == Poly.zero(1, D)


def test_with_domain_rejects_infinitesimal_coefficients():
    d = WeilElement.generator(D, 1)
    p = Poly(1, D, {(0,): d})
    with pytest.raises(Exception):
        p.with_domain(InfinitesimalDomain.power(2))


def test_exponent_validation():
    with pytest.raises(ValueError):
        rational_poly(2, {(1,): 1})
    with pytest.raises(ValueError):
        rational_poly(1, {(-1,): 1})


def test_terms_are_read_only():
    p = rational_poly(1, {(1,): 1})
    with pytest.raises(TypeError):
        p.terms[(0,)] = WeilElement.one(RATIONALS)
    with pytest.raises(TypeError):
        del p.terms[(1,)]
    assert p == rational_poly(1, {(1,): 1})


def test_equal_polynomials_hash_equally():
    d = WeilElement.generator(D, 1)
    p = Poly(1, D, {(1,): d, (0,): 2})
    q = Poly(1, D, {(0,): 1}) + Poly(1, D, {(1,): d, (0,): 1})
    assert p == q and hash(p) == hash(q)
    x = rational_poly(2, {(1, 0): 1})
    assert hash((x + x) * x) == hash(rational_poly(2, {(2, 0): 2}))
    assert len({p, q, x}) == 2
