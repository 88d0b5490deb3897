from fractions import Fraction

import pytest

from microlie.groupoids import PairGroupoid, WSection, star
from microlie.poly import Poly, RATIONALS, compose_map, identity_map
from microlie.weil import InfinitesimalDomain, WeilElement

D = InfinitesimalDomain(1)
P1 = PairGroupoid(1)


def pair_data(groupoid, domain, *term_dicts):
    """Pair section data with one ``{exponents: coefficient}`` dict per component, through ``from_slots``.

    A coefficient is a Weil element or a rational scalar.
    """
    coeffs = {
        (i, e): (c if isinstance(c, WeilElement) else WeilElement.scalar(domain, c)).mask_coeffs()
        for i, terms in enumerate(term_dicts)
        for e, c in terms.items()
    }
    return groupoid.from_slots(None, coeffs, domain)


def test_mul_and_pow():
    x = Poly(1, {(1,): 1})
    assert (x + Poly(1, {(0,): 1})) ** 2 == Poly(1, {(0,): 1, (1,): 2, (2,): 1})
    half = Poly(1, {(1,): Fraction(1, 2), (0,): Fraction(1, 3)})
    assert half * 6 == Poly(1, {(1,): 3, (0,): 2})
    assert half * half == Poly(1, {(2,): Fraction(1, 4), (1,): Fraction(1, 3), (0,): Fraction(1, 9)})


def test_compose():
    sq = Poly(1, {(2,): 1})
    shifted = Poly(1, {(0,): 1, (1,): 1})
    assert compose_map((sq,), [shifted]) == (Poly(1, {(0,): 1, (1,): 2, (2,): 1}),)
    halved = Poly(1, {(1,): Fraction(1, 2), (0,): Fraction(1, 3)})
    assert compose_map((sq,), [halved]) == (halved * halved,)


def test_compose_map_association():
    f = identity_map(2)
    g = (Poly(2, {(1, 0): 2}), Poly(2, {(0, 1): 1, (1, 0): -1}))
    assert compose_map(f, g) == g
    assert compose_map(g, f) == g


def test_derivative():
    p = Poly(2, {(2, 1): 3, (0, 1): -1})
    assert p.derivative(0) == Poly(2, {(1, 1): 6})
    assert p.derivative(1) == Poly(2, {(2, 0): 3, (0, 0): -1})


def test_evaluate_at_weil_point():
    sq = WSection(P1, D, pair_data(P1, D, {(2,): 1}))
    one_plus_d = WeilElement(D, {(): 1, (1,): 1})
    assert sq.arrow_at((one_plus_d,)).target == (WeilElement(D, {(): 1, (1,): 2}),)


def test_nilpotent_coefficients_truncate_products():
    d = WeilElement.generator(D, 1)
    sq = WSection(P1, D, pair_data(P1, D, {(2,): 1}))
    shift = WSection(P1, D, pair_data(P1, D, {(1,): 1, (0,): d}))
    # (x + d)^2 = x^2 + 2 d x: the d^2 term vanishes
    assert star(sq, shift).data == pair_data(P1, D, {(2,): 1, (1,): 2 * d})


def test_rejects_infinitesimal_coefficients():
    with pytest.raises(TypeError):
        Poly(1, {(0,): WeilElement.generator(D, 1)})


def test_exponent_validation():
    with pytest.raises(ValueError):
        Poly(2, {(1,): 1})
    with pytest.raises(ValueError):
        Poly(1, {(-1,): 1})


def test_terms_are_read_only():
    p = Poly(1, {(1,): 1})
    jet = pair_data(P1, D, {(1,): 1, (2,): WeilElement.generator(D, 1)})
    for view, key, value in (
        (p.terms, (0,), WeilElement.one(RATIONALS)),
        (p.coeffs, (0,), Fraction(1)),
        (jet, 0, (Poly(1, {(0,): 1}),)),
    ):
        with pytest.raises(TypeError):
            view[key] = value
        with pytest.raises(TypeError):
            del view[next(iter(view))]
    assert p == Poly(1, {(1,): 1})
    assert jet == pair_data(P1, D, {(1,): 1, (2,): WeilElement.generator(D, 1)})


def test_equal_polynomials_hash_equally():
    x = Poly(2, {(1, 0): 1})
    half = Poly(1, {(1,): Fraction(1, 2)})
    d = WeilElement.generator(D, 1)
    p = pair_data(P1, D, {(1,): d, (0,): 2})
    q = pair_data(P1, D, {(0,): WeilElement(D, {(): Fraction(4, 2)}), (1,): 2 * d - d})
    pairs = [
        ((x + x) * x, Poly(2, {(2, 0): 2})),
        (half * 4 - half, Poly(1, {(1,): Fraction(3, 2)})),
        (p, q),
        (P1.star_data(P1.identity_data(D), p), p),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert len({a for pair in pairs for a in pair}) == 3
