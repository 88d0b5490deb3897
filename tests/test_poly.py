from fractions import Fraction
from math import lcm
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

from microlie import poly, weil
from microlie.groupoids import PairGroupoid, WSection, star
from microlie.poly import (
    MAX_DEGREE,
    Poly,
    compose_map,
    from_numerators,
    identity_map,
    numerators,
    sum_of_products,
)
from microlie.spaces import AffineSpace, WPoint
from microlie.vfexpr import VectorFieldSyntaxError, parse_vector_field
from microlie.weil import D0, InfinitesimalDomain, WeilElement

D = InfinitesimalDomain(1)
P1 = PairGroupoid(1)


def pair_data(groupoid, domain, *term_dicts):
    """Pair section data with one ``{exponents: coefficient}`` dict per component, through ``from_slots``.

    A coefficient is a Weil element or a rational scalar.
    """
    view = {}
    for i, terms in enumerate(term_dicts):
        for e, c in terms.items():
            w = c if isinstance(c, WeilElement) else WeilElement.scalar(domain, c)
            for b, x in w.mask_coeffs().items():
                view.setdefault(b, {})[i, e] = x
    den = lcm(1, *(x.denominator for cs in view.values() for x in cs.values()))
    view = {b: {slot: int(x * den) for slot, x in cs.items()} for b, cs in view.items()}  # numerators over den
    return groupoid.from_slots(None, view, den, domain)


def test_mul_and_pow():
    x = Poly(1, {(1,): 1})
    assert (x + Poly(1, {(0,): 1})) ** 2 == Poly(1, {(0,): 1, (1,): 2, (2,): 1})
    half = Poly(1, {(1,): Fraction(1, 2), (0,): Fraction(1, 3)})
    assert half * 6 == Poly(1, {(1,): 3, (0,): 2})
    assert half * half == Poly(1, {(2,): Fraction(1, 4), (1,): Fraction(1, 3), (0,): Fraction(1, 9)})


@pytest.mark.parametrize("k, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
def test_a_power_starts_from_its_base(monkeypatch, k, products):
    # square and multiply from x itself: no product spent on the scalar 1
    calls = []
    counted = lambda nvars, pairs: calls.append(pairs) or sum_of_products(nvars, pairs)
    x = Poly.variable(1, 0)
    monkeypatch.setattr(poly, "sum_of_products", counted)
    assert x**k == Poly(1, {(k,): 1})
    assert len(calls) == products


def test_compose():
    sq = Poly(1, {(2,): 1})
    shifted = Poly(1, {(0,): 1, (1,): 1})
    assert compose_map((sq,), [shifted]) == (Poly(1, {(0,): 1, (1,): 2, (2,): 1}),)
    halved = Poly(1, {(1,): Fraction(1, 2), (0,): Fraction(1, 3)})
    assert compose_map((sq,), [halved]) == (halved * halved,)


def test_compose_map_sums_scaled_powers_without_products(monkeypatch):
    # the only products are those of the power table; each coefficient scales its power in one sum
    f = (Poly(1, {(3,): Fraction(1, 2), (1,): 3, (0,): -1}), Poly(1, {(2,): 5}))
    g = (Poly(1, {(1,): 2, (0,): Fraction(1, 3)}),)
    x = g[0]
    expected = (x * x * x * Fraction(1, 2) + x * 3 - Poly.scalar(1, 1), x * x * 5)
    calls = []
    counted = lambda nvars, pairs: calls.append(pairs) or sum_of_products(nvars, pairs)
    monkeypatch.setattr(poly, "sum_of_products", counted)
    assert compose_map(f, g) == expected
    assert len(calls) == 3  # g^1, g^2 and g^3, each one product


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
    one_plus_d = WPoint(AffineSpace(1), D, {(): [1], (1,): [1]})
    assert sq.arrow_at(one_plus_d).target == WPoint(AffineSpace(1), D, {(): [1], (1,): [2]})


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
        (p.terms, (0,), WeilElement.one(D0)),
        (p.coeffs, (0,), Fraction(1)),
        (jet, 0, (Poly(1, {(0,): 1}),)),
    ):
        with pytest.raises(TypeError):
            view[key] = value
        with pytest.raises(TypeError):
            del view[next(iter(view))]
    assert p == Poly(1, {(1,): 1})
    assert jet == pair_data(P1, D, {(1,): 1, (2,): WeilElement.generator(D, 1)})


def test_a_polynomial_prints_its_own_coefficients(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Weil element was built")

    monkeypatch.setattr(weil, "_element", refuse)
    monkeypatch.setattr(WeilElement, "__init__", refuse)
    p = Poly(2, {(0, 0): Fraction(-1, 2), (1, 0): 1, (1, 1): -1, (0, 2): Fraction(6, 4)})
    assert str(p) == "-1/2 + x0 + 3/2*x1^2 + -1*x0*x1"
    assert str(Poly(2, {(0, 0): 1})) == "1" and str(Poly.zero(2)) == "0"


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


def test_a_product_with_one_is_the_other_factor():
    p = Poly(2, {(1, 0): Fraction(1, 2), (0, 2): -3})
    one = Poly.scalar(2, 1)
    assert sum_of_products(2, [(p, one)]) is p
    assert sum_of_products(2, ((one, p),)) is p
    assert sum_of_products(2, [(one, one)]) is one
    assert p * one is p and one * p is p
    for c in (1, Fraction(1)):
        assert p * c is p and c * p is p


def test_other_sums_and_products_build_a_new_polynomial():
    p = Poly(2, {(1, 0): Fraction(1, 2), (0, 2): -3})
    one, x = Poly.scalar(2, 1), Poly.variable(2, 0)
    cases = [
        (lambda: sum_of_products(2, [(p, one), (x, one)]), Poly(2, {(1, 0): Fraction(3, 2), (0, 2): -3})),
        (lambda: sum_of_products(2, [(p, one), (one, p)]), Poly(2, {(1, 0): 1, (0, 2): -6})),
        (lambda: sum_of_products(2, [(p, Poly.scalar(2, 2))]), Poly(2, {(1, 0): 1, (0, 2): -6})),
        (lambda: sum_of_products(2, [(p, Poly.scalar(2, -1))]), -p),
        (lambda: p * x, Poly(2, {(2, 0): Fraction(1, 2), (1, 2): -3})),
        (lambda: p * 2, Poly(2, {(1, 0): 1, (0, 2): -6})),
        (lambda: p * Fraction(-1), -p),
    ]
    for make, expected in cases:
        out = make()
        assert out == expected and out is not p and out is not expected


def test_a_sum_with_a_unit_factor_still_overflows():
    x = Poly.variable(1, 0)
    top, one = x**MAX_DEGREE, Poly.scalar(1, 1)
    assert sum_of_products(1, [(top, one)]) is top
    for pairs in ([(top, one), (top, x)], [(one, top), (x, top)], [(x, top)]):
        with pytest.raises(OverflowError, match=f"degree {MAX_DEGREE + 1} is above the polynomial degree limit"):
            sum_of_products(1, pairs)


def test_sums_and_scalar_products_check_their_operands():
    p, q = Poly(2, {(1, 0): 1}), Poly(3, {(0, 0, 1): 1})
    for op in (add, sub):
        for bad in (0.5, 1.0, 1):
            with pytest.raises(TypeError):
                op(p, bad)
        with pytest.raises(ValueError, match="polynomials in 2 and 3 variables"):
            op(p, q)
    for bad in (0.5, 1.0):
        with pytest.raises(TypeError):
            p * bad
        with pytest.raises(TypeError):
            bad * p
    with pytest.raises(ValueError, match="polynomials in 2 and 3 variables"):
        p * q


def test_a_linear_combination_that_cancels_is_zero_over_one():
    p = Poly(2, {(1, 0): Fraction(1, 2), (0, 2): -3})
    for out in (poly._linear_combination(2, 6, [(2, p), (-1, p * 2)]), p - p, p * 0, p + -p):
        assert out == Poly.zero(2) and numerators(out) == ({}, 1)


def test_identity_map_is_built_once():
    assert identity_map(3) is identity_map(3)
    assert identity_map(3) == tuple(Poly(3, {tuple(int(i == j) for i in range(3)): 1}) for j in range(3))


# -- a plain reference: {exponent tuple: Fraction}, no zero coefficients ------------------


def ref_clean(table):
    return {e: c for e, c in table.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out)


def ref_pow(a, k, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_degree(a):
    return max((sum(e) for e in a), default=0)


def ref_derivative(a, i):
    return ref_clean({e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in a.items() if e[i]})


def ref_compose(f, g, target):
    out = {}
    for e, c in f.items():
        term = {(0,) * target: c}
        for gi, k in zip(g, e):
            term = ref_mul(term, ref_pow(gi, k, target))
        out = ref_add(out, term)
    return out


@st.composite
def exponents(draw, nvars, top=MAX_DEGREE):
    # mostly small exponents, so that products stay below the limit, and some up to it
    budget, e = top, []
    for _ in range(nvars):
        k = draw(st.one_of(st.integers(0, min(2, budget)), st.integers(0, budget)))
        e.append(k)
        budget -= k
    return tuple(e)


def tables(nvars, top=MAX_DEGREE, max_size=5):
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.dictionaries(exponents(nvars, top), coeff, max_size=max_size).map(ref_clean)


@st.composite
def poly_pairs(draw):
    nvars = draw(st.integers(0, 4))
    return nvars, draw(tables(nvars)), draw(tables(nvars))


@settings(max_examples=150, deadline=None)
@given(poly_pairs(), st.integers(0, 4))
def test_arithmetic_matches_the_reference(case, k):
    nvars, a, b = case
    pa, pb = Poly(nvars, a), Poly(nvars, b)
    for p, ref in ((pa, a), (pb, b)):
        assert dict(p.coeffs) == ref
        assert p.degree == ref_degree(ref)
        for e in list(ref)[:2]:
            assert p.coefficient(e) == ref[e]
        assert p.coefficient((0,) * nvars) == ref.get((0,) * nvars, 0)
    assert dict((pa + pb).coeffs) == ref_add(a, b)
    assert (pa == pb) == (a == b)
    assert pa + pb - pb == pa and hash(pa + pb - pb) == hash(pa)
    if a and b and ref_degree(a) + ref_degree(b) > MAX_DEGREE:
        with pytest.raises(OverflowError):
            pa * pb
    else:
        assert dict((pa * pb).coeffs) == ref_mul(a, b)
    if ref_degree(a) * k > MAX_DEGREE:
        with pytest.raises(OverflowError):
            pa**k
    else:
        assert dict((pa**k).coeffs) == ref_pow(a, k, nvars)
    for i in range(nvars):
        assert dict(pa.derivative(i).coeffs) == ref_derivative(a, i)


@st.composite
def linear_combinations(draw):
    nvars = draw(st.integers(0, 3))
    polys = draw(st.lists(tables(nvars, max_size=4), max_size=4))
    terms = [(draw(st.integers(-6, 6)), t) for t in polys]
    if draw(st.booleans()):  # the same terms again, negated: the sum cancels to zero
        terms += [(-n, t) for n, t in terms]
    return nvars, draw(st.integers(1, 12)), terms


@settings(max_examples=150, deadline=None)
@given(linear_combinations())
def test_linear_combination_matches_the_constructor(case):
    nvars, den, terms = case
    out = poly._linear_combination(nvars, den, [(n, Poly(nvars, t)) for n, t in terms])
    expected = {}
    for n, t in terms:
        for e, c in t.items():
            expected[e] = expected.get(e, 0) + Fraction(n, den) * c
    assert out == Poly(nvars, expected)
    if not out:
        assert numerators(out) == ({}, 1)


@settings(max_examples=100, deadline=None)
@given(poly_pairs())
def test_from_numerators_inverts_numerators(case):
    nvars, a, _ = case
    p = Poly(nvars, a)
    assert from_numerators(p.nvars, *numerators(p)) == p


def test_from_numerators_reduces_and_checks():
    assert from_numerators(1, {(1,): 2, (0,): 4, (2,): 0}, 6) == Poly(1, {(1,): Fraction(1, 3), (0,): Fraction(2, 3)})
    assert from_numerators(2, {}, 5) == Poly.zero(2)
    with pytest.raises(ValueError, match="bad exponent tuple"):
        from_numerators(2, {(1,): 1}, 1)
    with pytest.raises(OverflowError):
        from_numerators(1, {(MAX_DEGREE + 1,): 1}, 1)
    with pytest.raises(ValueError, match="positive integer denominator"):
        from_numerators(1, {(1,): 1}, 0)
    with pytest.raises(TypeError, match="numerators must be int"):
        from_numerators(1, {(1,): Fraction(1, 2)}, 1)


@st.composite
def compositions(draw):
    nvars, target = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    f = draw(st.lists(tables(nvars, top=3, max_size=4), min_size=1, max_size=3))
    g = draw(st.lists(tables(target, top=3, max_size=4), min_size=nvars, max_size=nvars))
    return target, f, g


@settings(max_examples=100, deadline=None)
@given(compositions())
def test_compose_map_matches_the_reference(case):
    target, f, g = case
    nvars = len(g)
    got = compose_map(tuple(Poly(nvars, fi) for fi in f), tuple(Poly(target, gi) for gi in g))
    if not g:
        assert got == tuple(Poly(0, fi) for fi in f)
    else:
        assert [dict(p.coeffs) for p in got] == [ref_compose(fi, g, target) for fi in f]


# -- the degree limit --------------------------------------------------------------------


def test_largest_exponent_round_trips():
    for nvars in (1, 2, 3):
        for i in range(nvars):
            e = tuple(MAX_DEGREE if j == i else 0 for j in range(nvars))
            p = Poly(nvars, {e: Fraction(-3, 7)})
            assert dict(p.coeffs) == {e: Fraction(-3, 7)} and p.degree == MAX_DEGREE
            assert p.derivative(i) == Poly(nvars, {e[:i] + (MAX_DEGREE - 1,) + e[i + 1 :]: Fraction(-3 * MAX_DEGREE, 7)})


def test_products_past_the_limit_raise():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    top = x**MAX_DEGREE
    for make in (lambda: top * x, lambda: top * y, lambda: x ** (MAX_DEGREE + 1), lambda: (x * y) ** 64):
        with pytest.raises(OverflowError, match=f"above the polynomial degree limit {MAX_DEGREE}"):
            make()
    # a constant has no degree to overflow
    assert Poly.scalar(2, 2) ** (MAX_DEGREE + 1) == Poly.scalar(2, 2 ** (MAX_DEGREE + 1))


def test_exponents_past_the_limit_raise():
    for alpha in ((MAX_DEGREE + 1, 0), (MAX_DEGREE, 1)):
        with pytest.raises(OverflowError):
            Poly(2, {alpha: 1})
        with pytest.raises(OverflowError):
            Poly.zero(2).coefficient(alpha)


@pytest.mark.parametrize(
    "text, position",
    [(f"x0^{MAX_DEGREE + 1}", 3), (f"x0^{MAX_DEGREE}*x0", 6), ("(x0^64)^2", 8)],
    ids=["power", "product", "nested-power"],
)
def test_parser_rejects_degrees_past_the_limit(text, position):
    with pytest.raises(VectorFieldSyntaxError, match=f"above the degree limit {MAX_DEGREE}") as caught:
        parse_vector_field(text, 1)
    assert caught.value.position == position
    assert parse_vector_field(f"x0^{MAX_DEGREE}", 1) == (Poly(1, {(MAX_DEGREE,): 1}),)
