import gc
import importlib
import random
import re
import sys
import types
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, mul
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from microlie import groupoids, harness, liealg, matrices, poly
from microlie.groupoids import (
    AGSection,
    Arrow,
    GroupoidMismatchError,
    InvertibilityError,
    NotDPointError,
    PairGroupoid,
    TrivialGaugeGroupoid,
    WBisection,
    WSection,
    ag_from_flow,
    compose_arrows,
    formal_inverse,
    invert_bisection,
    section_at,
    star,
)
from microlie.liealg import WITNESS_DOMAIN
from microlie.poly import Poly, identity_map, numerators
from microlie.spaces import AffineSpace, CompatibilityError, WPoint, strong_difference
from microlie.vfexpr import parse_vector_field
from microlie.weil import (
    AXES2,
    D0,
    D3,
    DomainMismatchError,
    InfinitesimalDomain,
    Jet,
    RestrictionError,
    SubstitutionError,
    WeilElement,
    ZeroMonomialError,
    generators,
)

D = InfinitesimalDomain(1)
D2 = InfinitesimalDomain(2)
A2 = InfinitesimalDomain.first_order(2)
I2 = (1, 0, 0, 1)

P1 = PairGroupoid(1)
P2 = PairGroupoid(2)
GG = TrivialGaugeGroupoid(2, 2)


def pair_elements(jet):
    """The Weil coefficient of every term of a pair section's jet, keyed ``(component, exponents)``."""
    by_term = {}
    for b, comps in jet.items():
        for i, p in enumerate(comps):
            for e, c in p.coeffs.items():
                by_term.setdefault((i, e), {})[b] = c
    return {term: WeilElement.from_masks(jet.domain, cs) for term, cs in by_term.items()}


def pair_data_of(groupoid, domain, elements):
    """The jet of a pair section from the Weil coefficient of each of its terms, keyed ``(component, exponents)``."""
    n = groupoid.dim
    parts = {0: [{} for _ in range(n)]}
    for (i, e), w in elements.items():
        for b, c in w.mask_coeffs().items():
            parts.setdefault(b, [{} for _ in range(n)])[i][e] = c
    return Jet(domain, {b: tuple(Poly(n, terms) for terms in comps) for b, comps in parts.items()})


def pair_data(groupoid, domain, *term_dicts):
    """Pair section data with one ``{exponents: coefficient}`` dict per component.

    A coefficient is a Weil element or a rational scalar.
    """
    elements = {
        (i, e): c if isinstance(c, WeilElement) else WeilElement.scalar(domain, c)
        for i, terms in enumerate(term_dicts)
        for e, c in terms.items()
    }
    return pair_data_of(groupoid, domain, elements)


def pair_section(groupoid, domain, *term_dicts):
    return WSection(groupoid, domain, pair_data(groupoid, domain, *term_dicts))


def mat_mul(a, b):
    """Reference product of square matrices over any ring: ints, ``Fraction`` s or Weil elements."""
    return tuple(tuple(reduce(add, map(mul, row, col)) for col in zip(*b)) for row in a)


def weil_identity(k, domain):
    one, zero = WeilElement.one(domain), WeilElement.zero(domain)
    return tuple(tuple(one if i == j else zero for j in range(k)) for i in range(k))


def gauge_data(groupoid, domain, base_map, tables):
    """Gauge section data from one matrix of Weil elements per base point: the flat tables of each mask."""
    entries = [w for t in tables for row in t for w in row]
    parts = {b: [w.mask_coeffs().get(b, 0) for w in entries] for b in domain.masks}
    return tuple(base_map), Jet.of_rationals(domain, parts)


def gauge_section(groupoid, domain, base_map, tables, cls=WSection):
    return cls(groupoid, domain, gauge_data(groupoid, domain, base_map, tables))


def weil_tables(groupoid, data):
    """The fiber matrices of gauge section data, one matrix of Weil elements per base point."""
    jet, k = data[1], groupoid.matrix_size
    kk = k * k
    fiber = lambda at: Jet(jet.domain, {b: p[at : at + kk] for b, p in jet.items()}, jet.den)
    return tuple(weil_matrix(fiber(x * kk), k) for x in range(groupoid.base_size))


def weil_matrix(fiber, k):
    """A gauge arrow's fiber jet as its k x k matrix of Weil elements."""
    entry = lambda s: WeilElement.from_masks(fiber.domain, {b: Fraction(p[s], fiber.den) for b, p in fiber.items()})
    return tuple(tuple(entry(i * k + j) for j in range(k)) for i in range(k))


def base_point(domain, *coords):
    """A scalar base point of the pair groupoid's affine space over ``domain``."""
    return WPoint.from_masks(AffineSpace(len(coords)), domain, {0: coords})


def ag(groupoid, text):
    return AGSection(groupoid, parse_vector_field(text, groupoid.dim))


class TestStar:
    def test_polynomial_composition(self):
        d = WeilElement.generator(D, 1)
        # f_sigma(x) = x + 2d, f_rho(x) = x + 3d x
        sigma = pair_section(P1, D, {(0,): 2 * d, (1,): 1})
        rho = pair_section(P1, D, {(1,): WeilElement.one(D) + 3 * d})
        product = star(sigma, rho)
        assert product == pair_section(P1, D, {(0,): 2 * d, (1,): WeilElement.one(D) + 3 * d})

    def test_identity_is_neutral(self):
        sigma = pair_section(P2, D2, {(1, 0): 1, (2, 1): WeilElement.generator(D2, 1)}, {(0, 1): 1})
        ident = WSection.identity(P2, D2)
        assert star(ident, sigma) == sigma
        assert star(sigma, ident) == sigma

    def test_gauge_pointwise_product(self):
        one = WeilElement.one(D)
        zero = WeilElement.zero(D)
        d = WeilElement.generator(D, 1)
        s_table = ((one, d), (zero, one))
        r_table = ((one + d, zero), (zero, one))
        sigma = gauge_section(GG, D, (0, 1), (s_table, weil_identity(2, D)))
        rho = gauge_section(GG, D, (0, 1), (r_table, weil_identity(2, D)))
        product = star(sigma, rho)
        assert product.data[0] == (0, 1)
        assert weil_tables(GG, product.data)[0] == mat_mul(s_table, r_table)

    def test_mismatches_rejected(self):
        a = pair_section(P1, D, {(1,): 1})
        b = pair_section(P2, D, {(1, 0): 1}, {(0, 1): 1})
        with pytest.raises(GroupoidMismatchError):
            star(a, b)
        c = pair_section(P1, D2, {(1,): 1})
        with pytest.raises(DomainMismatchError):
            star(a, c)

    def test_defining_formula_pointwise(self):
        d1, d2 = generators(D2)
        sigma = pair_section(P1, D2, {(2,): d1, (1,): 1})
        rho = pair_section(P1, D2, {(0,): d2, (1,): 2})
        product = star(sigma, rho)
        for x in (-1, 0, 2):
            point = base_point(D2, x)
            rho_arrow = rho.arrow_at(point)
            assert product.arrow_at(point) == compose_arrows(sigma.arrow_at(rho_arrow.target), rho_arrow)


class TestFormalInverse:
    def test_nilpotent_quadratic(self):
        eps = WeilElement.generator(D, 1)
        f = pair_data(P1, D, {(1,): 1, (2,): eps})
        g = formal_inverse(f)
        assert g == pair_data(P1, D, {(1,): 1, (2,): -1 * eps})

    def test_identity(self):
        ident = P2.identity_data(D2)
        assert formal_inverse(ident) == ident

    def test_affine_with_nilpotent_shift(self):
        eps = WeilElement.generator(D, 1)
        f = pair_data(P1, D, {(1,): 2, (0,): eps})
        g = formal_inverse(f)
        assert g == pair_data(P1, D, {(1,): Fraction(1, 2), (0,): Fraction(-1, 2) * eps})

    @pytest.mark.parametrize("case", ["reflection", "swap"])
    def test_negative_determinant(self, case):
        # both linear parts have determinant -1, so the integer inverse is negated into a positive one
        if case == "reflection":  # x -> -x + 1 + d x^2 inverts to y -> 1 - y + d (1 - y)^2
            one, d = WeilElement.one(D), WeilElement.generator(D, 1)
            f = pair_data(P1, D, {(1,): -1, (0,): 1, (2,): d})
            g = pair_data(P1, D, {(0,): one + d, (1,): -1 * one - 2 * d, (2,): d})
        else:  # (x1 + e x0^2, x0) inverts to (y1, y0 - e y1^2), with e = d1 d2
            e = WeilElement.generator(D2, 1) * WeilElement.generator(D2, 2)
            f = pair_data(P2, D2, {(0, 1): 1, (2, 0): e}, {(1, 0): 1})
            g = pair_data(P2, D2, {(0, 1): 1}, {(1, 0): 1, (0, 2): -1 * e})
        assert formal_inverse(f) == g
        assert formal_inverse(g) == f

    def test_non_affine_scalar_part_rejected(self):
        f = pair_data(P1, D, {(2,): 1})
        with pytest.raises(InvertibilityError):
            formal_inverse(f)

    def test_singular_linear_part_rejected(self):
        f = pair_data(P2, D, {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1})
        with pytest.raises(InvertibilityError):
            formal_inverse(f)


class TestBisections:
    def test_invert_pair_flow(self):
        x = ag(P1, "x0^2")
        d = WeilElement.generator(D, 1)
        assert invert_bisection(section_at(x, d)) == section_at(x, -d)

    def test_invert_gauge_permutation(self):
        one, zero = WeilElement.one(D), WeilElement.zero(D)
        h0 = ((one, 2 * one), (zero, one))
        h1 = weil_identity(2, D)
        sigma = gauge_section(GG, D, (1, 0), (h0, h1), WBisection)
        tau = invert_bisection(sigma)
        # formula: inverse base map, then inverted matrix at the pulled-back point
        assert tau.data[0] == (1, 0)
        assert weil_tables(GG, tau.data) == (h1, ((one, -2 * one), (zero, one)))
        ident = WSection.identity(GG, D)
        assert star(sigma, tau) == ident
        assert star(tau, sigma) == ident

    def test_two_sided_inverse_pair(self):
        d1, d2 = generators(D2)
        sigma = WBisection(
            P2,
            D2,
            pair_data(
                P2,
                D2,
                {(1, 0): 1, (0, 1): 1, (2, 0): d1},
                {(0, 1): 1, (0, 0): WeilElement.scalar(D2, 3) + d2, (1, 1): d1 * d2},
            ),
        )
        tau = invert_bisection(sigma)
        ident = WSection.identity(P2, D2)
        assert star(sigma, tau) == ident
        assert star(tau, sigma) == ident

    def test_witness_failures(self):
        with pytest.raises(InvertibilityError):
            WBisection(P1, D, pair_data(P1, D, {(2,): 1}))
        with pytest.raises(InvertibilityError):
            gauge_section(GG, D, (0, 0), (weil_identity(2, D),) * 2, WBisection)

    def test_singular_scalar_parts_rejected(self):
        one, d = WeilElement.one(D), WeilElement.generator(D, 1)
        singular = ((one, one + d), (one, one))  # scalar part has two equal rows
        with pytest.raises(InvertibilityError, match="singular scalar part"):
            gauge_section(GG, D, (0, 1), (singular, weil_identity(2, D)))
        linear = pair_data(P2, D, {(1, 0): 1, (0, 1): 2}, {(1, 0): 2, (0, 1): 4, (0, 0): d})
        with pytest.raises(InvertibilityError, match="singular linear term"):
            WBisection(P2, D, linear)


class TestSectionAt:
    def test_zero_gives_identity(self):
        x = ag(P2, "x0*x1; 1 - x0")
        assert section_at(x, WeilElement.zero(D)) == WSection.identity(P2, D)

    def test_additivity_on_commuting_square(self):
        x = ag(P2, "x1^2; x0")
        d1, d2 = generators(A2)
        assert section_at(x, d1 + d2) == star(section_at(x, d1), section_at(x, d2))

    def test_not_square_zero_rejected(self):
        x = ag(P1, "x0")
        d1, d2 = generators(D2)
        with pytest.raises(NotDPointError):
            section_at(x, d1 + d2)
        with pytest.raises(NotDPointError):
            section_at(x, WeilElement.one(D))

    def test_a_rejected_element_is_squared_once(self, monkeypatch):
        x = ag(P1, "x0")
        d1, d2 = generators(D2)
        e = d1 + d2
        squares = []
        product = WeilElement.__mul__
        monkeypatch.setattr(WeilElement, "__mul__", lambda a, b: squares.append((a, b)) or product(a, b))
        with pytest.raises(NotDPointError, match=r"not a D-point: square is 2\*d1\*d2, not 0"):
            section_at(x, e)
        assert squares == [(e, e)]
        with pytest.raises(NotDPointError, match="not a D-point: scalar part 1 is nonzero"):
            section_at(x, WeilElement.one(D))
        assert len(squares) == 1

    def test_product_generator_flow(self):
        x = ag(P1, "x0^3")
        d1, d2 = generators(D2)
        flow = section_at(x, d1 * d2)
        assert flow.data == pair_data(P1, D2, {(1,): 1, (3,): d1 * d2})


@pytest.mark.parametrize("groupoid", [P2, GG], ids=["pair", "gauge"])
def test_ag_from_flow_reads_only_first_order_flows(groupoid):
    rng = random.Random(0)
    x = groupoid.random_ag(rng, 2)
    (d,) = generators(D)
    assert ag_from_flow(section_at(x, d)) == x
    with pytest.raises(ValueError, match="one-generator domain"):
        ag_from_flow(section_at(x, generators(D2)[0]))
    constant = groupoid.random_bisection(rng, D0, 2).substitute(D, [])  # no d part, scalar part not the identity
    assert constant.data != groupoid.identity_data(D)
    for section in (constant, star(section_at(x, d), constant)):
        with pytest.raises(ValueError, match="scalar part is not the identity section"):
            ag_from_flow(section)


class TestArrows:
    def test_pair_compose_and_invert(self):
        p0, p1, p2 = (base_point(D, c) for c in (0, 1, 2))
        a = Arrow(P1, p1, p0)
        b = Arrow(P1, p2, p1)
        assert compose_arrows(b, a) == Arrow(P1, p2, p0)
        assert hash(compose_arrows(b, a)) == hash(Arrow(P1, base_point(D, 2), base_point(D, 0)))
        assert compose_arrows(Arrow(P1, p0, p1), a) == Arrow(P1, p0, p0)
        with pytest.raises(ValueError):
            compose_arrows(a, b)
        with pytest.raises(DomainMismatchError, match="point over D\\^2, section over D"):
            pair_section(P1, D, {(1,): 1}).arrow_at(base_point(D2, 0))
        half = base_point(D, Fraction(1, 2))  # one numerator over the denominator 2
        assert pair_section(P1, D, {(1,): 2, (2,): 2}).arrow_at(half).target == base_point(D, Fraction(3, 2))

    def test_gauge_compose_and_invert(self):
        # fibers are jets of flat 2 x 2 matrices: a = I + d E12, back = I - d E12
        a = Arrow(GG, 1, 0, Jet(D, {0: I2, 1: (0, 1, 0, 0)}))
        ident = Arrow(GG, 1, 1, Jet(D, {0: I2}))
        assert compose_arrows(ident, a) == a
        back = Arrow(GG, 0, 1, Jet(D, {0: I2, 1: (0, -1, 0, 0)}))
        assert compose_arrows(back, a) == Arrow(GG, 0, 0, Jet(D, {0: I2}))
        assert hash(compose_arrows(back, a)) == hash(Arrow(GG, 0, 0, Jet(D, {0: I2})))
        with pytest.raises(ValueError, match="arrows do not match: 1 vs 0"):
            compose_arrows(back, back)

    def test_gauge_fibers_over_different_domains_do_not_compose(self):
        # a fiber over D^2 must not be read as one over D: its d1 part is not D's d part
        a = GG.random_bisection(random.Random(1), D2, 0)
        b = GG.random_bisection(random.Random(2), D, 0)
        h1 = b.arrow_at(0)
        with pytest.raises(DomainMismatchError, match="D\\^2 vs D"):
            compose_arrows(a.arrow_at(h1.target), h1)


def without_top(section):
    """The section with its ``d1*d2`` part dropped, so it agrees with ``section`` on both axes."""
    g = section.groupoid
    drop = lambda jet: Jet(jet.domain, {b: p for b, p in jet.items() if b != 3}, jet.den)
    return type(section)(g, section.domain, g.map_jet(drop, section.data))


def numerator_rows(section):
    """Each integer-numerator row of a section's data with its denominator: per polynomial, or the one gauge jet."""
    data = section.data
    if isinstance(section.groupoid, PairGroupoid):
        return [tuple(num.values()) + (den,) for part in data.values() for num, den in map(numerators, part)]
    return [tuple(n for part in data[1].values() for n in part) + (data[1].den,)]


class TestSectionStrongDifferences:
    @pytest.mark.parametrize("groupoid, seed", [(P2, 1), (GG, 0)], ids=["pair", "gauge"])
    def test_over_a_denominator(self, groupoid, seed):
        # an inverse has rational coefficients, so the difference is over a denominator other than 1
        sigma = groupoid.random_bisection(random.Random(seed), D2, 1)
        plus, minus = invert_bisection(sigma), invert_bisection(without_top(sigma))
        t = strong_difference(plus, minus)
        assert type(t) is WBisection and t.domain is D
        read = lambda section, monomial: AGSection(groupoid, groupoid.read_coefficient(section.data, monomial))
        assert read(t, ()) == read(plus, ()) and read(t, {1}) == read(plus, {1, 2}) - read(minus, {1, 2})
        rows = numerator_rows(t)  # int numerators in lowest terms, like every jet and polynomial
        assert any(row[-1] != 1 for row in rows)
        assert all(type(n) is int for row in rows for n in row) and all(gcd(*row) == 1 for row in rows)

    def test_gauge_needs_a_shared_base_map(self):
        one = weil_identity(2, D2)
        sigma = gauge_section(GG, D2, (0, 1), (one, one))
        rho = gauge_section(GG, D2, (1, 0), (one, one))
        with pytest.raises(CompatibilityError, match="different base maps"):
            strong_difference(sigma, rho)

    def test_needs_sections_of_one_groupoid(self):
        with pytest.raises(GroupoidMismatchError):
            strong_difference(WSection.identity(P1, D2), WSection.identity(P2, D2))
        point = WPoint.from_masks(AffineSpace(1), D2, {0: [0]})
        with pytest.raises(GroupoidMismatchError):
            strong_difference(WSection.identity(P1, D2), point)
        with pytest.raises(CompatibilityError, match="different spaces"):
            strong_difference(point, WSection.identity(P1, D2))


def test_monoid_associativity_with_nonbisections():
    # sections with non-invertible target maps still form a monoid
    a = pair_section(P1, D, {(2,): 1})
    b = pair_section(P1, D, {(0,): 1, (1,): WeilElement.generator(D, 1)})
    c = pair_section(P1, D, {(1,): -2})
    assert star(star(a, b), c) == star(a, star(b, c))


GROUPOID_METHODS = {
    "spec", "bounds_error", "sample_spaces",
    "fiber_product", "arrow_at",
    "section_data", "check_bisection", "identity_data", "star_data", "inverse_data", "flow_data",
    "read_coefficient", "section_repr", "map_jet",
    "ag_data", "ag_zero", "ag_add", "ag_scale", "ag_repr", "oracle_bracket",
    "random_ag", "random_section", "random_bisection", "base_points",
}


def test_groupoid_classes_share_one_interface():
    # callers never branch on the groupoid kind, so both classes must offer the same methods;
    # pinning the set makes every new per-layout method a visible decision
    def methods(cls):
        return {name for name, value in vars(cls).items() if callable(value) and not name.startswith("_")}

    assert len(GROUPOID_METHODS) == 24
    assert methods(PairGroupoid) == GROUPOID_METHODS
    assert methods(TrivialGaugeGroupoid) == GROUPOID_METHODS


# -- properties: the Taylor sum against the frozen seed kernel, inverses, associativity -------


def _load_reference_kernel():
    # the frozen seed poly.py imports its weil.py relatively, so both load as one package;
    # nothing in it runs on import but definitions
    root = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
    package = types.ModuleType("microlie_reference_kernel")
    package.__path__ = [str(root)]
    sys.modules.setdefault(package.__name__, package)
    weil = importlib.import_module(f"{package.__name__}.weil")
    poly = importlib.import_module(f"{package.__name__}.poly")
    return weil, poly


REF_WEIL, REF_POLY = _load_reference_kernel()
TAYLOR_DOMAINS = (D, D2, D3, AXES2, WITNESS_DOMAIN)
SMALL = st.one_of(st.integers(min_value=-3, max_value=3), st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _exponents(n, degree):
    out = [()]
    for _ in range(n):
        out = [e + (k,) for e in out for k in range(degree + 1)]
    return [e for e in out if sum(e) <= degree]


def _weil_terms(draw, domain, n, degree, monomials):
    """One {exponents: {monomial: coefficient}} dict per component, drawn sparsely."""
    return [
        {
            e: {m: draw(SMALL) for m in monomials if draw(st.booleans())}
            for e in _exponents(n, degree)
            if draw(st.booleans())
        }
        for _ in range(n)
    ]


def _scalar_part(draw, kind, n):
    ident = [{tuple(int(t == i) for t in range(n)): 1} for i in range(n)]
    if kind == "identity":
        return ident
    degree = {"affine": 1, "general": 2, "cubic": 3}[kind]
    return [{e: draw(SMALL) for e in _exponents(n, degree)} for _ in range(n)]


def _both_kernels(groupoid, domain, comps):
    """The same map as a jet and as a tuple of seed-kernel polynomials over Weil coefficients."""
    n = groupoid.dim
    twin = REF_WEIL.InfinitesimalDomain(domain.generator_count, domain.zero_monomials)
    elements, ref = {}, []
    for i, terms in enumerate(comps):
        for e, table in terms.items():
            elements[i, e] = WeilElement(domain, table)
        ref.append(REF_POLY.Poly(n, twin, {e: REF_WEIL.WeilElement(twin, table) for e, table in terms.items()}))
    return pair_data_of(groupoid, domain, elements), tuple(ref)


def _merge(scalar, nilpotent):
    out = [{e: {frozenset(): c} for e, c in comp.items()} for comp in scalar]
    for comp, terms in zip(out, nilpotent):
        for e, table in terms.items():
            comp.setdefault(e, {}).update(table)
    return out


def _map_terms(draw, domain, n, kind, degree, every_mask=False):
    """A map's components: a scalar part of the given kind plus sparse nilpotent terms; an identity jet has none."""
    if kind == "identity jet":
        return _merge(_scalar_part(draw, "identity", n), [{}] * n)
    monomials = domain.monomials()
    nilpotent = _weil_terms(draw, domain, n, degree, monomials[1:])
    if every_mask:  # a nonzero part on every nilpotent mask, so every set of disjoint masks has its weights
        for m in monomials[1:]:
            comp = nilpotent[draw(st.integers(0, n - 1))]
            comp.setdefault(draw(st.sampled_from(_exponents(n, 2))), {})[m] = draw(SMALL.filter(bool))
    return _merge(_scalar_part(draw, kind, n), nilpotent)


def _check_taylor_sum(draw, domain, n, outer_kind, inner_kind, outer_degree, every_mask):
    groupoid = PairGroupoid(n)
    outer = _map_terms(draw, domain, n, outer_kind, outer_degree)
    inner = _map_terms(draw, domain, n, inner_kind, 2, every_mask)
    f, ref_f = _both_kernels(groupoid, domain, outer)
    g, ref_g = _both_kernels(groupoid, domain, inner)
    expected = REF_POLY.compose_map(ref_f, ref_g)
    got = {}
    for (i, e), w in pair_elements(groupoid.star_data(f, g)).items():
        got.setdefault(i, {})[e] = dict(w.coeffs)
    for i, comp in enumerate(expected):
        assert got.get(i, {}) == {e: c.coeffs for e, c in comp.terms.items()}


KINDS = st.sampled_from(["identity", "affine", "general", "cubic"])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_taylor_sum_agrees_with_the_seed_kernel(data):
    draw = data.draw
    domain = draw(st.sampled_from(TAYLOR_DOMAINS))
    n = draw(st.integers(min_value=1, max_value=3))
    _check_taylor_sum(draw, domain, n, draw(KINDS), draw(KINDS), 2, draw(st.booleans()))


@settings(max_examples=10, deadline=None)  # the largest cases: half the time is the seed kernel's composition
@given(st.data())
def test_taylor_sum_agrees_with_the_seed_kernel_on_every_mask_of_d3(data):
    # a cubic outer scalar part has nonzero third derivatives, so the weights of the three-mask set are read
    draw = data.draw
    _check_taylor_sum(draw, D3, draw(st.integers(min_value=1, max_value=3)), "cubic", draw(KINDS), 3, True)


@pytest.mark.parametrize("side", ["outer", "inner"])
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_taylor_sum_agrees_with_the_seed_kernel_at_an_identity_jet(side, data):
    draw = data.draw
    kinds = ("identity jet", draw(KINDS)) if side == "outer" else (draw(KINDS), "identity jet")
    domain = draw(st.sampled_from(TAYLOR_DOMAINS))
    _check_taylor_sum(draw, domain, draw(st.integers(min_value=1, max_value=3)), *kinds, 2, draw(st.booleans()))


PRINTED_COEFFS = st.one_of(
    st.sampled_from([0, 1, -1]), SMALL, st.fractions(min_value=-40, max_value=40, max_denominator=30)
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(st.just(n), st.dictionaries(st.sampled_from(_exponents(n, 3)), PRINTED_COEFFS))
    )
)
@example((2, {}))
@example((1, {(0,): 0, (1,): 0}))
@example((1, {(0,): 1}))
@example((2, {(0, 0): Fraction(-5, 3), (1, 0): -1, (0, 1): 1, (2, 1): Fraction(7, 2)}))
def test_a_polynomial_prints_as_the_seed_kernel(case):
    # the seed printed through a polynomial with Weil coefficients over the point; a polynomial now prints itself
    n, terms = case
    assert str(Poly(n, terms)) == str(REF_POLY.Poly(n, REF_WEIL.InfinitesimalDomain(0), terms))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_pair_section_prints_as_the_seed_kernel(data):
    draw = data.draw
    domain = draw(st.sampled_from(TAYLOR_DOMAINS))
    n = draw(st.integers(min_value=1, max_value=3))
    jet, ref = _both_kernels(PairGroupoid(n), domain, _map_terms(draw, domain, n, draw(KINDS), 2))
    assert PairGroupoid(n).section_repr(jet) == f"x -> ({'; '.join(map(str, ref))})"


def _derivative_calls(monkeypatch):
    calls = []
    derivative = Poly.derivative
    monkeypatch.setattr(Poly, "derivative", lambda p, i: calls.append(p) or derivative(p, i))
    return calls


@pytest.mark.parametrize("domain", [D2, D3], ids=["D^2", "D^3"])
def test_a_product_of_flows_takes_no_derivative_of_the_identity(monkeypatch, domain):
    # the outer flow's identity scalar part contributes the inner flow itself
    x, y = ag(P2, "x0*x1; 1 - x0"), ag(P2, "x1^2; x0")
    d = generators(domain)
    outer, inner = section_at(x, d[0]), section_at(y, reduce(mul, d[1:]))
    calls = _derivative_calls(monkeypatch)
    product = star(outer, inner)
    assert calls and not any(p is c for p in calls for c in identity_map(2))
    assert all(a is b for a, b in zip(product.data[0], identity_map(2)))


def test_an_identity_jet_on_either_side_returns_the_other_operand(monkeypatch):
    jet = P2.random_section(random.Random(0), D2, 2).data
    flow = section_at(ag(P2, "x0*x1; 1 - x0"), generators(D2)[0]).data
    ident = P2.identity_data(D2)
    calls = _derivative_calls(monkeypatch)
    for other in (jet, flow, ident):
        assert groupoids._compose(other, ident) is other
        assert groupoids._compose(ident, other) is other
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([P1, P2, PairGroupoid(3)]),
    st.sampled_from([D, D2, AXES2]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**32),
)
def test_formal_inverse_is_two_sided(groupoid, domain, degree, seed):
    sigma = groupoid.random_bisection(random.Random(seed), domain, degree)
    tau = invert_bisection(sigma)
    ident = WSection.identity(groupoid, domain)
    assert star(sigma, tau) == ident
    assert star(tau, sigma) == ident


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([P1, P2, GG, TrivialGaugeGroupoid(3, 1)]),
    st.sampled_from([D, D2, AXES2]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**32),
)
def test_star_is_associative(groupoid, domain, degree, seed):
    rng = random.Random(seed)
    a, b, c = (groupoid.random_section(rng, domain, degree) for _ in range(3))
    assert star(star(a, b), c) == star(a, star(b, c))


@pytest.mark.parametrize(
    "operation",
    [lambda a, b, x: star(a, b), lambda a, b, x: invert_bisection(b), lambda a, b, x: a.arrow_at(x)],
    ids=["star", "invert_bisection", "arrow_at"],
)
def test_compositions_leave_no_reference_cycles(operation):
    # the scratch tables of compose_map and _compose must be freed by reference counting alone
    rng = random.Random(0)
    a, b = P2.random_section(rng, D2, 2), P2.random_bisection(rng, D2, 2)
    x = P2.base_points(rng, D2)[0]
    gc.collect()
    gc.disable()
    try:
        operation(a, b, x)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- property: section substitution against substituting every coefficient on its own ----------


def _substitute_each_coefficient(section, target, images):
    """Substitution as it was done before sections had their own: coefficient by coefficient, then rebuilt."""
    groupoid, image = section.groupoid, lambda w: w.substitute(target, images)
    if isinstance(groupoid, PairGroupoid):
        data = pair_data_of(groupoid, target, {term: image(w) for term, w in pair_elements(section.data).items()})
    else:
        tables = tuple(tuple(tuple(map(image, row)) for row in t) for t in weil_tables(groupoid, section.data))
        data = gauge_data(groupoid, target, section.data[0], tables)
    return WSection(groupoid, target, data)


def _weil_element(draw, domain):
    return WeilElement(domain, {m: draw(SMALL) for m in domain.monomials() if draw(st.booleans())})


def _substitution(draw, source):
    """Generator images for ``source`` that respect its relations, with their target domain."""
    n = source.generator_count
    kind = draw(st.sampled_from(["zero", "relabel", "fixed"]))
    if kind == "zero":
        target = draw(st.sampled_from(TAYLOR_DOMAINS))
        return target, [WeilElement.zero(target)] * n
    if kind == "relabel":
        # di -> d_perm(i) * u: square-zero, and zero on every relabelled relation, for any u
        perm = draw(st.permutations(range(1, n + 1)))
        target = source.permuted(perm)
        plain = draw(st.booleans())  # a bare generator permutation
        units = [WeilElement.one(target) if plain else _weil_element(draw, target) for _ in perm]
        return target, [WeilElement.generator(target, p) * u for p, u in zip(perm, units)]
    r = lambda: draw(SMALL)
    d = WeilElement.generator(D, 1)
    d1, d2 = generators(D2)
    e1, e2 = generators(AXES2)
    zero, zero2 = WeilElement.zero(D), WeilElement.zero(D2)
    maps = {
        D: [(D2, [d1 * r() + d1 * d2 * r()]), (AXES2, [e1 * r() + e2 * r()])],
        D2: [(D2, [d1 * r(), d2 * r() + d1 * d2 * r()]), (D, [d, zero]), (D, [zero, d])],
        D3: [(D2, [d1 * r(), d2 * r(), d1 * d2 * r()])],
        AXES2: [(D, [d * r(), d * r()])],
        WITNESS_DOMAIN: [(D2, [d1 * r(), d2 * r(), d1 * d2 * r()]), (D2, [d1, d2, zero2]), (D, [zero, zero, d * r()])],
    }
    return draw(st.sampled_from(maps[source]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_section_substitution_agrees_with_substituting_each_coefficient(data):
    draw = data.draw
    source = draw(st.sampled_from(TAYLOR_DOMAINS))
    groupoid = draw(st.sampled_from([P1, P2, GG, TrivialGaugeGroupoid(3, 1)]))
    build = draw(st.sampled_from([groupoid.random_section, groupoid.random_bisection]))
    section = build(random.Random(draw(st.integers(min_value=0, max_value=2**32))), source, draw(st.integers(0, 2)))
    target, images = _substitution(draw, source)
    got = section.substitute(target, images)
    assert type(got) is type(section) and got.domain == target
    assert got == _substitute_each_coefficient(section, target, images)


def _broken_substitutions():
    """``(source, target, images, relation)``: images that break ``relation`` of ``source``."""
    d1, d2 = generators(D2)
    e1, e2, e3 = generators(D3)
    return [
        (D, D2, [d1 + d2], "relation d1\\^2 = 0"),
        (D2, D2, [d1, WeilElement.one(D2)], "nonzero scalar part"),
        (D2, D2, [d1], "expected 2 generator images"),
        (AXES2, D2, [d1, d2], "relation d1\\*d2 = 0"),
        (WITNESS_DOMAIN, D3, [e1, e2, e3], "relation d[12]\\*d3 = 0"),
    ]


@pytest.mark.parametrize("groupoid", [P2, GG], ids=["pair", "gauge"])
@pytest.mark.parametrize("case", range(len(_broken_substitutions())))
def test_broken_images_raise_the_element_error_on_every_section(groupoid, case):
    source, target, images, relation = _broken_substitutions()[case]
    with pytest.raises(SubstitutionError, match=relation) as expected:
        WeilElement.one(source).substitute(target, images)
    sections = [
        groupoid.random_section(random.Random(case), source, 2),
        WSection.identity(groupoid, source),  # no nonzero part off the scalar one
    ]
    if isinstance(groupoid, PairGroupoid):
        sections.append(WSection(groupoid, source, Jet(source, {0: groupoid.ag_zero()})))  # no coefficient at all
    for section in sections:
        with pytest.raises(SubstitutionError) as caught:
            section.substitute(target, images)
        assert str(caught.value) == str(expected.value)


@pytest.mark.parametrize("groupoid", [P2, GG], ids=["pair", "gauge"])
@pytest.mark.parametrize(
    "monomial, error", [({1, 2}, ZeroMonomialError), ({5}, ValueError)], ids=["vanishing", "out-of-range"]
)
def test_read_coefficient_rejects_what_the_element_rejects(groupoid, monomial, error):
    with pytest.raises(error) as expected:
        WeilElement.one(AXES2).coefficient(monomial)
    section = groupoid.random_section(random.Random(0), AXES2, 2)
    with pytest.raises(error) as caught:
        groupoid.read_coefficient(section.data, monomial)
    assert type(caught.value) is error and str(caught.value) == str(expected.value)


# -- gauge data: jets of integer matrices against matrices of Weil elements -------------------


@pytest.mark.parametrize("bad", [1.0, True, False], ids=["float", "True", "False"])
def test_gauge_base_map_entries_must_be_int(bad):
    jet = WSection.identity(GG, D).data[1]
    for base_map in ((bad, 1), (1, bad)):
        with pytest.raises(TypeError, match="base map entries must be int"):
            WSection(GG, D, (base_map, jet))


@pytest.mark.parametrize("table", [((1, 2, 5), (3, 4)), ((1, 2), (3,))], ids=["long-row", "short-row"])
def test_ragged_gauge_tables_are_rejected(table):
    with pytest.raises(ValueError, match="tables must be k x k"):
        AGSection(TrivialGaugeGroupoid(1, 2), [table])


@pytest.mark.parametrize("base_size, message", [(1, "expected 1 tables"), (2, "tables must be k x k")])
def test_a_bare_table_is_a_shape_error(base_size, message):
    # one table where the list of tables belongs: its rows count as tables and its entries as rows
    with pytest.raises(ValueError, match=message):
        AGSection(TrivialGaugeGroupoid(base_size, 2), [[Fraction(1, 2), Fraction(-2, 3)], [0, 3]])


def test_one_stray_mask_check_serves_every_mask_keyed_constructor():
    with pytest.raises(ZeroMonomialError) as expected:
        D.check_masks({0, 2})
    assert str(expected.value) == "masks [2] do not survive in D"
    builds = [
        lambda: WeilElement.from_masks(D, {2: 1}),
        lambda: WPoint.from_masks(AffineSpace(1), D, {2: [1]}),
        lambda: Jet(D, {0: (1,), 2: (1,)}),
    ]
    for build in builds:
        with pytest.raises(ZeroMonomialError) as caught:
            build()
        assert str(caught.value) == str(expected.value)


def _gauge_case(draw):
    """A gauge groupoid with 1-4 base points and 1-3 square matrices, and a Weil domain."""
    groupoid = TrivialGaugeGroupoid(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    return groupoid, draw(st.sampled_from(TAYLOR_DOMAINS))


def _base_map(draw, groupoid):
    m = groupoid.base_size
    return tuple(draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)))


def _invertible(draw, k):
    """A dense invertible rational matrix: unit lower triangular times upper triangular."""
    nonzero = SMALL.filter(bool)
    lower = tuple(tuple(1 if i == j else draw(SMALL) if j < i else 0 for j in range(k)) for i in range(k))
    upper = tuple(tuple(draw(nonzero) if i == j else draw(SMALL) if j > i else 0 for j in range(k)) for i in range(k))
    return mat_mul(lower, upper)


def _gauge_tables(draw, groupoid, domain, invertible=False):
    """One matrix of Weil elements with fractional coefficients per base point; invertible scalar parts if asked."""
    k = groupoid.matrix_size
    tables = []
    for _ in range(groupoid.base_size):
        t = tuple(tuple(_weil_element(draw, domain) for _ in range(k)) for _ in range(k))
        if invertible:
            scalar = _invertible(draw, k)
            t = tuple(
                tuple(w + WeilElement.scalar(domain, c - w.scalar_part) for w, c in zip(row, srow))
                for row, srow in zip(t, scalar)
            )
        tables.append(t)
    return tuple(tables)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gauge_star_agrees_with_weil_matrices(data):
    draw = data.draw
    g, domain = _gauge_case(draw)
    f_s, s = _base_map(draw, g), _gauge_tables(draw, g, domain)
    f_r, r = _base_map(draw, g), _gauge_tables(draw, g, domain)
    got = g.star_data(gauge_data(g, domain, f_s, s), gauge_data(g, domain, f_r, r))
    products = tuple(mat_mul(s[y], h) for y, h in zip(f_r, r))
    assert got == gauge_data(g, domain, tuple(f_s[y] for y in f_r), products)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gauge_arrows_compose_as_weil_matrices(data):
    # the old arrow path, matrices of Weil elements multiplied entrywise, is the reference
    draw = data.draw
    g, domain = _gauge_case(draw)
    k = g.matrix_size
    f_s, s = _base_map(draw, g), _gauge_tables(draw, g, domain)
    f_r, r = _base_map(draw, g), _gauge_tables(draw, g, domain)
    sigma, rho = gauge_data(g, domain, f_s, s), gauge_data(g, domain, f_r, r)
    for x in range(g.base_size):
        h1 = g.arrow_at(rho, domain, x)
        h2 = g.arrow_at(sigma, domain, h1.target)
        assert (weil_matrix(h1.fiber, k), weil_matrix(h2.fiber, k)) == (r[x], s[f_r[x]])
        h = compose_arrows(h2, h1)
        assert (h.target, h.source) == (f_s[f_r[x]], x)
        assert weil_matrix(h.fiber, k) == mat_mul(weil_matrix(h2.fiber, k), weil_matrix(h1.fiber, k))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gauge_inverse_is_two_sided_on_weil_matrices(data):
    draw = data.draw
    g, domain = _gauge_case(draw)
    base_map = tuple(draw(st.permutations(range(g.base_size))))
    tables = _gauge_tables(draw, g, domain, invertible=True)
    off_identity = (w.scalar_part != (i == j) for t in tables for i, row in enumerate(t) for j, w in enumerate(row))
    assume(any(off_identity))  # some scalar table is not den * I, so the inverse needs its adjugate
    inverse = invert_bisection(gauge_section(g, domain, base_map, tables, cls=WBisection)).data
    inverse_tables = weil_tables(g, inverse)
    ident = weil_identity(g.matrix_size, domain)
    for y, x in enumerate(base_map):  # the inverse sends x back to y, through the inverse of y's matrix
        assert inverse[0][x] == y
        assert mat_mul(inverse_tables[x], tables[y]) == ident
        assert mat_mul(tables[y], inverse_tables[x]) == ident


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gauge_flow_agrees_with_weil_matrices(data):
    draw = data.draw
    g, domain = _gauge_case(draw)
    k = g.matrix_size
    tables = tuple(tuple(tuple(draw(SMALL) for _ in range(k)) for _ in range(k)) for _ in range(g.base_size))
    i = draw(st.integers(1, domain.generator_count))
    e = _weil_element(draw, domain) * WeilElement.generator(domain, i)  # square-zero, no scalar part
    got = g.flow_data(g.ag_data(tables), e)
    ident = weil_identity(k, domain)
    flows = tuple(tuple(tuple(w + e * c for w, c in zip(*rows)) for rows in zip(ident, t)) for t in tables)
    assert got == gauge_data(g, domain, tuple(range(g.base_size)), flows)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gauge_substitution_agrees_with_weil_matrices(data):
    draw = data.draw
    g, source = _gauge_case(draw)
    # a section's scalar tables are invertible, and a substitution keeps them
    base_map, tables = _base_map(draw, g), _gauge_tables(draw, g, source, invertible=True)
    target, images = _substitution(draw, source)
    got = gauge_section(g, source, base_map, tables).substitute(target, images)
    images_of_tables = tuple(tuple(tuple(w.substitute(target, images) for w in row) for row in t) for t in tables)
    assert got == gauge_section(g, target, base_map, images_of_tables)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gauge_read_coefficient_agrees_with_weil_matrices(data):
    draw = data.draw
    g, domain = _gauge_case(draw)
    tables = _gauge_tables(draw, g, domain)
    section = gauge_data(g, domain, _base_map(draw, g), tables)
    for monomial in domain.monomials():
        expected = tuple(tuple(tuple(w.coefficient(monomial) for w in row) for row in t) for t in tables)
        assert AGSection(g, g.read_coefficient(section, monomial)) == AGSection(g, expected)


def _reference_product(ok, left, right, k):
    """Part M of a jet product, matrix by matrix: the sum of ``left[b1] @ right[b2]`` with ``b1 | b2 = M``."""
    blocks = lambda part: [
        tuple(tuple(part[at + i * k : at + i * k + k]) for i in range(k)) for at in range(0, len(part), k * k)
    ]
    sums = {}
    for b1, a in left.items():
        for b2, c in right.items():
            if not b1 & b2 and b1 | b2 in ok:
                flat = [n for x, y in zip(blocks(a), blocks(c)) for row in mat_mul(x, y) for n in row]
                sums[b1 | b2] = list(map(add, sums.get(b1 | b2, [0] * len(flat)), flat))
    return sums


@pytest.mark.parametrize(
    "domain, k, left, right",
    [
        (D, 1, {0: (3,), 1: (-2,)}, {0: (5,), 1: (7,)}),
        (D, 2, {0: (1, 2, 3, 4)}, {0: (0, 1, -1, 5)}),
        (D, 2, {0: (1, 2, 3, 4, 2, 0, 1, 1), 1: (0,) * 8}, {0: (0, 1, -1, 5, 1, 1, 0, 3), 1: (2, 0, 0, -1, 1, 2, 3, 4)}),
        # over D(2): d2 * d1 vanishes, and d2 * d2 repeats a generator
        (A2, 3, {0: tuple(range(9)), 2: tuple(range(9, 0, -1))}, {1: (1, 0, 2, 0, 1, 0, 3, 0, 1), 2: (1,) * 9}),
        (D, 2, {}, {0: I2}),
        (D, 2, {0: I2}, {}),
    ],
    ids=["one-entry", "mask-0-only", "zero-nilpotent-part", "k3-vanishing-union", "empty-left", "empty-right"],
)
def test_gauge_product_kernel_agrees_matrix_by_matrix(domain, k, left, right):
    # the mask-0-only and zero-part cases multiply matrices that do not commute, so a swapped
    # layout of rows and columns multiplies in the wrong order and fails
    got = groupoids._product(domain._products, left, right, k)
    assert got == _reference_product(domain.masks, left, right, k)


@pytest.mark.parametrize(
    "k, table, square", [(1, (2,), (4,)), (2, (1, 2, 3, 5), (7, 12, 18, 31))], ids=["gauge:1:1", "gauge:1:2"]
)
def test_gauge_sections_with_only_a_scalar_part_star_and_invert(k, table, square):
    # no nilpotent part: the inverse's series multiplies by an empty jet and ends at once
    g = TrivialGaugeGroupoid(1, k)
    sigma = WBisection(g, D, ((0,), Jet(D, {0: table})))
    inverse = invert_bisection(sigma)
    assert set(inverse.data[1]) == {0}
    assert star(sigma, inverse) == star(inverse, sigma) == WSection.identity(g, D)
    assert star(sigma, sigma).data[1][0] == square


# -- gauge Lie algebroid data: integer table jets against a Fraction-table reference ----------------

RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def _rational_tables(draw, groupoid):
    """One k x k table of rationals per base point; the first entry has a denominator above 1."""
    k = groupoid.matrix_size
    tables = [[[draw(RATIONAL) for _ in range(k)] for _ in range(k)] for _ in range(groupoid.base_size)]
    tables[0][0][0] = draw(st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(-5, 6)]))
    return tuple(tuple(map(tuple, t)) for t in tables)


def _fraction_bracket(a, b):
    """Reference: the table ``x -> B(x) A(x) - A(x) B(x)``, in ``Fraction`` arithmetic."""
    sub = lambda p, q: tuple(tuple(x - y for x, y in zip(rp, rq)) for rp, rq in zip(p, q))
    return tuple(sub(mat_mul(q, p), mat_mul(p, q)) for p, q in zip(a, b))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gauge_table_jets_agree_with_fraction_tables(data):
    draw = data.draw
    g = TrivialGaugeGroupoid(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    a, b, c = _rational_tables(draw, g), _rational_tables(draw, g), draw(RATIONAL)
    x, y = AGSection(g, a), AGSection(g, b)
    assert x.data.domain is D0 and x.data.den > 1
    assert g.ag_repr(x.data) == str(a) and x == AGSection(g, x.data)
    entrywise = lambda f, p, q: tuple(tuple(tuple(map(f, rp, rq)) for rp, rq in zip(tp, tq)) for tp, tq in zip(p, q))
    assert x + y == AGSection(g, entrywise(add, a, b))
    assert x - y == AGSection(g, entrywise(lambda u, v: u - v, a, b))
    assert x.scaled(c) == AGSection(g, tuple(tuple(tuple(c * u for u in row) for row in t) for t in a))
    expected = _fraction_bracket(a, b)
    assert g.oracle_bracket(x.data, y.data) == expected
    assert AGSection(g, g.oracle_bracket(x.data, y.data)) == AGSection(g, expected)
    assert ag_from_flow(section_at(x, WeilElement.generator(D, 1))) == x


def test_gauge_table_repr_prints_every_entry_as_a_fraction():
    x = AGSection(TrivialGaugeGroupoid(1, 2), [[[Fraction(1, 2), Fraction(-2, 3)], [0, 3]]])
    assert repr(x) == (
        "AGSection(TrivialGaugeGroupoid(base_size=1, matrix_size=2); "
        "(((Fraction(1, 2), Fraction(-2, 3)), (Fraction(0, 1), Fraction(3, 1))),))"
    )


@pytest.mark.parametrize(
    "jet, error, message",
    [
        (Jet(D, {0: I2 * 2}), ValueError, "over the domain with no generators"),
        (Jet(D0, {0: I2}), ValueError, "must hold 2 tables of 2 x 2 numerators"),
        (Jet(D0, {0: (Fraction(1, 2), 0, 0, 1) + I2}), TypeError, "must hold int numerators"),
        (Jet(D0, {0: (0.5, 0, 0, 1) + I2}), TypeError, "must hold int numerators"),
    ],
    ids=["domain", "length", "Fraction", "float"],
)
def test_gauge_table_jets_are_checked(jet, error, message):
    with pytest.raises(error, match=message):
        AGSection(GG, jet)


@pytest.mark.parametrize("groupoid", [P2, GG], ids=["pair", "gauge"])
def test_equal_sections_hash_equal(groupoid):
    x, y = (groupoid.random_ag(random.Random(4), 1) for _ in range(2))  # equal, built apart
    assert x is not y and x == y and hash(x) == hash(y)
    assert len({x, y, x + AGSection.zero(groupoid), x.scaled(2)}) == 2
    d = WeilElement.generator(D, 1)
    flows = [section_at(x, d), section_at(y, d), WSection(groupoid, D, section_at(x, d).data)]
    assert flows[0] == flows[1] == flows[2] and len({hash(s) for s in flows}) == 1
    assert isinstance(flows[0], WBisection) and not isinstance(flows[2], WBisection)
    assert len({*flows, section_at(x, -d), star(flows[0], flows[1])}) == 3


# -- trial draws ---------------------------------------------------------------------------------


def test_coefficient_draws_are_randint_draws():
    # the same values and the same generator state, with other draws of the stream in between
    bound = groupoids.COEFF_BOUND
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        for k in range(40):
            assert groupoids._rand_int(ours) == theirs.randint(-bound, bound)
            if k % 3 == 0:
                assert ours.random() == theirs.random()
        assert ours.getstate() == theirs.getstate()


# -- the section checks: exact on integer numerators, on every construction path ---------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pair_witness_agrees_with_the_rational_linear_part(data):
    draw = data.draw
    n = draw(st.integers(1, 3))
    entry = st.integers(-2, 2)
    numerators = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):  # make the last row a multiple of the first (zero when n = 1): singular
        c = draw(entry)
        numerators[-1] = [c * a for a in numerators[0]] if n > 1 else [0]
    dens = [draw(st.integers(1, 6)) for _ in range(n)]  # one denominator per component
    matrix = tuple(tuple(Fraction(a, d) for a in row) for row, d in zip(numerators, dens))
    units = [tuple(int(t == j) for t in range(n)) for j in range(n)]
    comps = tuple(Poly(n, {(0,) * n: draw(SMALL), **dict(zip(units, row))}) for row in matrix)
    jet = Jet(D, {0: comps})
    common = lcm(*dens)  # the rows cleared over one denominator have the rank of the rational matrix
    if matrices._determinant([[a * (common // d) for a in row] for row, d in zip(numerators, dens)]):
        PairGroupoid(n).check_bisection(jet)
        sigma = WBisection(PairGroupoid(n), D, jet)
        inverse = invert_bisection(sigma)  # A^-1 from the adjugate of the numerator rows and their denominators
        assert star(inverse, sigma) == WSection.identity(sigma.groupoid, D) == star(sigma, inverse)
    else:
        with pytest.raises(InvertibilityError, match="singular linear term"):
            PairGroupoid(n).check_bisection(jet)


def test_pair_witness_rejects_every_term_of_degree_two():
    for e in ((2, 0), (1, 1), (0, 2)):
        jet = Jet(D, {0: (Poly(2, {(1, 0): 1, e: Fraction(1, 3)}), Poly.variable(2, 1))})
        with pytest.raises(InvertibilityError, match="is not affine; no invertibility witness"):
            P2.check_bisection(jet)


def _determinant_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(groupoids, "_determinant", lambda rows: calls.append(rows) or matrices._determinant(rows))
    return calls


def test_a_scaled_identity_table_needs_no_determinant(monkeypatch):
    third = ((Fraction(1, 3), 0), (0, 0))
    flow = section_at(AGSection(GG, [third, third]), WeilElement.generator(D, 1))
    calls = _determinant_calls(monkeypatch)
    product = star(flow, flow)  # a derived bisection whose scalar tables are den * I with den = 3
    assert product.data[1].den == 3 and product.data[1][0] == (3, 0, 0, 3) * 2
    assert calls == []
    two_thirds = ((Fraction(2, 3), 0), (0, 0))
    assert product == section_at(AGSection(GG, [two_thirds] * 2), WeilElement.generator(D, 1))


def test_other_scalar_tables_take_the_determinant(monkeypatch):
    calls = _determinant_calls(monkeypatch)
    doubled = Jet(D, {0: (2, 0, 0, 2, 1, 0, 0, 1)})  # 2 I over den 1, then I
    WBisection(GG, D, ((0, 1), doubled))
    assert calls == [[(2, 0), (0, 2)]]
    calls.clear()
    singular = Jet(D, {0: (1, 1, 1, 1, 1, 0, 0, 1), 1: (1, 0, 0, 0, 0, 0, 0, 0)})
    with pytest.raises(InvertibilityError, match="fiber matrix has singular scalar part"):
        WSection(GG, D, ((0, 1), singular))
    assert calls == [[(1, 1), (1, 1)]]


def test_the_identity_scalar_part_takes_no_determinant(monkeypatch):
    x, y = ag(P2, "x0*x1; 1 - x0"), ag(P2, "x1^2; x0")
    d1, d2 = generators(D2)
    calls = _determinant_calls(monkeypatch)
    product = star(section_at(x, d1), section_at(y, d2))  # flows and their product: identity scalar parts
    assert isinstance(product, WBisection)
    assert all(a is b for a, b in zip(product.data[0], identity_map(2)))  # the inner flow's own scalar part
    equal = (Poly(2, {(1, 0): 1}), Poly(2, {(0, 1): 1}))  # equal to the identity, not the same objects
    WBisection(P2, D, Jet(D, {0: equal, 1: equal}))
    assert calls == []
    shifted = (Poly(2, {(1, 0): 1, (0, 0): 1}), Poly(2, {(0, 1): 1}))
    WBisection(P2, D, Jet(D, {0: shifted, 1: equal}))
    assert calls == [[(1, 0), (0, 1)]]


@pytest.mark.parametrize(
    "scalar, message",
    [
        ("x0; 0", "scalar part has a singular linear term"),
        ("x0; x0", "scalar part has a singular linear term"),
        ("x0 + x0^2; x1", "scalar part x0 + x0^2 is not affine; no invertibility witness"),
        ("x0; x1 + x0*x1", "scalar part x1 + x0*x1 is not affine; no invertibility witness"),
    ],
    ids=["zero-row", "repeated-row", "square-term", "cross-term"],
)
def test_scalar_parts_next_to_the_identity_are_still_rejected(scalar, message):
    jet = Jet(D, {0: parse_vector_field(scalar, 2), 1: identity_map(2)})
    with pytest.raises(InvertibilityError, match=re.escape(message)):
        P2.check_bisection(jet)
    with pytest.raises(InvertibilityError, match=re.escape(message)):
        WBisection(P2, D, jet)


def test_a_commutator_square_builds_eight_product_tables(monkeypatch):
    # 22 Taylor sums; 14 of them are one product with 1, which is the other factor
    x, y = ag(P2, "x0*x1; 1 - x0"), ag(P2, "x1^2; 2*x0 + x1")
    expected = liealg.commutator_square(x, y)
    builds, sum_of_products = [], poly.sum_of_products

    def counted(nvars, pairs):
        out = sum_of_products(nvars, pairs)
        builds.append(all(out is not factor for pair in pairs for factor in pair))
        return out

    monkeypatch.setattr(groupoids, "sum_of_products", counted)
    monkeypatch.setattr(poly, "sum_of_products", counted)
    assert liealg.commutator_square(x, y) == expected
    assert (len(builds), sum(builds)) == (22, 8)


@pytest.mark.parametrize("groupoid", [P2, GG], ids=["pair", "gauge"])
def test_every_construction_path_runs_the_checks(groupoid, monkeypatch):
    d = WeilElement.generator(D, 1)
    x = groupoid.random_ag(random.Random(0), 1)
    sigma = section_at(x, d)
    d1, d2 = generators(D2)
    square, flat = section_at(x, d1 * d2), WSection.identity(groupoid, D2)  # they agree on both axes
    plain = WSection(groupoid, D2, square.data)  # a section, not a bisection
    seen = []
    for name in ("section_data", "check_bisection"):
        check = getattr(type(groupoid), name)
        spy = lambda self, *args, check=check, name=name: seen.append(name) or check(self, *args)
        monkeypatch.setattr(type(groupoid), name, spy)
    paths = {
        "star": (lambda: star(sigma, sigma), True),
        "invert_bisection": (lambda: invert_bisection(sigma), True),
        "substitute": (lambda: sigma.substitute(D, [-d]), True),
        "restrict": (lambda: sigma.restrict(D), True),
        "permute_generators": (lambda: sigma.permute_generators((1,)), True),
        "section_at": (lambda: section_at(x, -d), True),
        "strong_difference": (lambda: strong_difference(square, flat), True),
        "strong_difference of sections": (lambda: strong_difference(plain, flat), False),
    }
    for path, (build, bisection) in paths.items():
        seen.clear()
        build()
        assert seen == ["section_data", "check_bisection"] if bisection else ["section_data"], path


@pytest.mark.parametrize(
    "groupoid, data",
    [
        (P1, lambda: Jet(D, {0: (Poly.variable(1, 0),), 2: (Poly.variable(1, 0),)})),
        (GG, lambda: ((0, 1), Jet(D, {0: I2 * 2, 2: I2 * 2}))),
    ],
    ids=["pair", "gauge"],
)
def test_sections_reject_stray_masks(groupoid, data):
    with pytest.raises(ZeroMonomialError, match="masks \\[2\\] do not survive in D"):
        WSection(groupoid, D, data())


@pytest.mark.parametrize(
    "parts",
    [{0: I2 * 2, 1: (1, 2, 3) + I2}, {0: I2 * 2, 1: I2}, {0: I2 * 2, 1: I2 * 3}],
    ids=["short-table", "one-base-point", "three-base-points"],
)
def test_gauge_sections_check_the_shape_of_every_part(parts):
    with pytest.raises(ValueError, match="fiber tables must be 2 x 2 over 2 base points"):
        WSection(GG, D, ((0, 1), Jet(D, parts)))


@pytest.mark.parametrize(
    "part",
    [(Poly.scalar(1, 1),), (Fraction(1, 2),), (1.0,)],
    ids=["pair-jet", "Fraction", "float"],
)
def test_gauge_sections_take_only_int_numerators(part):
    # a one-component pair jet has the length of a gauge:base=1:k=1 part
    with pytest.raises(TypeError, match="fiber tables must hold int numerators"):
        WSection(TrivialGaugeGroupoid(1, 1), D, ((0,), Jet(D, {0: part})))


# -- one jet for every family: the invariants, over each kind of part --------------------------

# a part whose entries scale with c: pair sections hold polynomials, gauge sections and
# points int numerators
JET_PARTS = {
    "pair": lambda c: (Poly.scalar(1, c), Poly.scalar(1, 0)),
    "gauge": lambda c: (c, 0, 0, c),
    "point": lambda c: (c, 0),
}


def _stray_mask(part):
    with pytest.raises(ZeroMonomialError, match="masks \\[2\\] do not survive in D"):
        Jet(D, {0: part(1), 2: part(1)})


def _missing_scalar_part(part):
    with pytest.raises(ValueError, match="a jet needs its scalar part, mask 0"):
        Jet(D, {1: part(1)})


def _bad_den(den):
    def check(part):
        with pytest.raises(ValueError, match="positive integer denominator"):
            Jet(D, {0: part(1)}, den)

    return check


def _zero_parts_dropped(part):
    jet = Jet(D2, {0: part(0), 1: list(part(0)), 2: part(3)})
    assert dict(jet) == {0: part(0), 2: part(3)} and jet.den == 1
    assert jet.get(1) is None and jet.coefficient({1}) is None and jet.coefficient({2}) == part(3)


def _lowest_terms(part):
    jet = Jet(D, {0: (2, 0, 0, 2), 1: (4, 0, 0, 6)}, 6)
    assert jet.den == 3 and dict(jet) == {0: (1, 0, 0, 1), 1: (2, 0, 0, 3)}
    assert jet == Jet(D, {0: (1, 0, 0, 1), 1: (2, 0, 0, 3)}, 3)


def _equal_jets_hash_equal(part):
    a, b = Jet(D, {0: part(1), 1: part(0)}), Jet(D, {0: list(part(1))})
    assert a == b and hash(a) == hash(b)
    assert a != Jet(D, {0: part(2)}) and a != Jet(D2, {0: part(1)}) and a != dict(a)


def _immutable(part):
    jet = Jet(D, {0: part(1)})
    with pytest.raises(AttributeError, match="Jet is immutable"):
        jet.den = 2
    with pytest.raises(TypeError):
        jet[1] = part(1)


JET_INVARIANTS = {
    "stray-mask": _stray_mask,
    "missing-scalar-part": _missing_scalar_part,
    "den-zero": _bad_den(0),
    "den-negative": _bad_den(-1),
    "den-Fraction": _bad_den(Fraction(1, 2)),
    "den-float": _bad_den(1.0),
    "zero-parts-dropped": _zero_parts_dropped,
    "lowest-terms": _lowest_terms,  # only integer parts carry a denominator
    "equal-jets-hash-equal": _equal_jets_hash_equal,
    "immutable": _immutable,
}


@pytest.mark.parametrize(
    "kind, invariant",
    [(k, i) for k in JET_PARTS for i in JET_INVARIANTS if i != "lowest-terms" or k == "gauge"],
    ids=lambda v: v,
)
def test_jet_invariants(kind, invariant):
    JET_INVARIANTS[invariant](JET_PARTS[kind])


@pytest.mark.parametrize("groupoid", [P2, GG], ids=["pair", "gauge"])
def test_relabelling_a_jet_is_permuting_the_generators(groupoid):
    jet = (lambda data: data) if groupoid is P2 else (lambda data: data[1])
    domain = InfinitesimalDomain(3, [(1, 2)])  # a relation, so the domain moves too
    rng = random.Random(11)
    for perm in [(1, 2, 3), (2, 1, 3), (3, 1, 2), (2, 3, 1), (1, 3, 2), (3, 2, 1)]:
        sigma = groupoid.random_section(rng, domain, 2)
        permuted = sigma.permute_generators(perm)
        relabelled = jet(sigma.data).relabel(perm)
        assert relabelled == jet(permuted.data)
        target = domain.permuted(perm)
        assert relabelled.domain is target
        # the reference: substitution of di by the generator d_perm(i) of the permuted domain
        assert permuted == sigma.substitute(target, [generators(target)[i - 1] for i in perm])


@pytest.mark.parametrize("groupoid", [P2, GG], ids=["pair", "gauge"])
def test_restricting_a_section_is_substituting_the_generators(groupoid):
    rng = random.Random(5)
    coarsenings = [
        (D2, D2),
        (D2, AXES2),
        (D3, InfinitesimalDomain(3, [(1, 2)])),
        (D3, InfinitesimalDomain.first_order(3)),
        (WITNESS_DOMAIN, InfinitesimalDomain.first_order(3)),
    ]
    for source, sub in coarsenings:
        for build in (groupoid.random_section, groupoid.random_bisection):
            sigma = build(rng, source, 2)
            restricted = sigma.restrict(sub)
            assert type(restricted) is type(sigma) and restricted.domain is sub
            assert restricted == sigma.substitute(sub, generators(sub))
    sigma = groupoid.random_section(rng, AXES2, 2)
    for other in (D2, D3, D):
        with pytest.raises(RestrictionError) as caught:
            sigma.restrict(other)
        assert str(caught.value) == f"{other!r} is not a coarsening of D(2)"


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([P2, GG]),
    st.integers(min_value=0, max_value=2**32),
    st.booleans(),
    st.sets(st.sampled_from([1, 2, 3])),
)
def test_the_identity_on_d2_is_the_identity_on_each_axis(groupoid, seed, identity_scalar, masks):
    # a random D^2 section keeps its parts on ``masks`` only, over its own scalar part or the identity's
    jet = (lambda data: data) if groupoid is P2 else (lambda data: data[1])
    drawn = groupoid.random_section(random.Random(seed), D2, 2).data
    parts = jet(drawn)
    base = groupoid.identity_data(D2) if identity_scalar else drawn
    data = groupoid.map_jet(lambda j: Jet(D2, {0: j[0], **{b: parts[b] for b in masks if b in parts}}), base)
    section = WSection(groupoid, D2, data)
    d, zero = WeilElement.generator(D, 1), WeilElement.zero(D)
    ident = WSection.identity(groupoid, D)
    on_each_axis = section.substitute(D, [d, zero]) == ident and section.substitute(D, [zero, d]) == ident
    assert (section.restrict(AXES2) == WSection.identity(groupoid, AXES2)) is on_each_axis


# -- the per-trial memo -------------------------------------------------------------------------------


@pytest.mark.parametrize("groupoid", [P2, GG], ids=["pair", "gauge"])
def test_equal_calls_share_one_value_inside_a_memo_block_only(groupoid):
    d = WeilElement.generator(D, 1)

    def calls():
        x, y = (groupoid.random_ag(random.Random(seed), 1) for seed in (4, 5))  # equal each time, built apart
        sigma, rho = section_at(x, d), WSection(groupoid, D, section_at(y, -d).data)
        return [section_at(x, d), star(sigma, rho), invert_bisection(sigma), liealg.bracket(x, y)]

    assert groupoids._MEMO is None
    first, again = calls(), calls()
    assert first == again and all(a is not b for a, b in zip(first, again))
    with groupoids._memoised():
        first, again = calls(), calls()
        assert first == again and all(a is b for a, b in zip(first, again))
    assert groupoids._MEMO is None


@pytest.mark.parametrize("groupoid", [P2, GG], ids=["pair", "gauge"])
def test_memo_keys_tell_a_section_from_a_bisection_of_equal_data(groupoid):
    ident = WSection.identity(groupoid, D)
    sigma = section_at(groupoid.random_ag(random.Random(4), 1), WeilElement.generator(D, 1))
    plain = WSection(groupoid, D, sigma.data)
    with groupoids._memoised():
        for first, then in ((plain, sigma), (sigma, plain)):
            assert type(star(ident, first)) is type(first)
            assert type(star(ident, then)) is type(then)


def test_a_call_that_raises_is_not_memoised():
    x = P2.random_ag(random.Random(4), 1)
    d1, d2 = generators(D2)
    not_a_bisection = pair_section(P2, D, {(1, 0): 1}, {(1, 0): 1})  # a singular linear part
    with groupoids._memoised():
        for _ in range(2):
            with pytest.raises(NotDPointError):
                section_at(x, d1 + d2)
            with pytest.raises(InvertibilityError):
                invert_bisection(not_a_bisection)
        assert groupoids._MEMO == {}


def test_leaving_a_memo_block_by_an_exception_restores_the_outer_memo():
    with groupoids._memoised():
        outer = groupoids._MEMO
        with pytest.raises(ZeroDivisionError):
            with groupoids._memoised():
                assert groupoids._MEMO is not outer
                1 / 0
        assert groupoids._MEMO is outer
    assert groupoids._MEMO is None
    groupoid, degree = harness.parse_groupoid_spec("pair:dim=2:deg=2")
    config = harness.SuiteConfig(suite="bracket", groupoid=groupoid, degree=degree, trials=3, seed=0)
    assert not harness.run_suite(config, mutation="flip-bracket-sign").ok
    assert groupoids._MEMO is None
