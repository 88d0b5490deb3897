from fractions import Fraction

import pytest

from microlie import matrices
from microlie.groupoids import (
    AGSection,
    Arrow,
    GroupoidMismatchError,
    InvertibilityError,
    NotDPointError,
    PairGroupoid,
    SectionChart,
    TrivialGaugeGroupoid,
    WBisection,
    WSection,
    compose_arrows,
    formal_inverse,
    invert_bisection,
    section_at,
    star,
)
from microlie.poly import Poly, identity_map
from microlie.vfexpr import parse_vector_field
from microlie.weil import DomainMismatchError, InfinitesimalDomain, WeilElement, generators

D = InfinitesimalDomain.line()
D2 = InfinitesimalDomain.power(2)
A2 = InfinitesimalDomain.first_order(2)

P1 = PairGroupoid(1)
P2 = PairGroupoid(2)
GG = TrivialGaugeGroupoid(2, 2)


def pair_section(groupoid, domain, *term_dicts):
    return WSection(groupoid, domain, tuple(Poly(groupoid.dim, domain, t) for t in term_dicts))


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
        sigma = WSection(GG, D, ((0, 1), (s_table, matrices.identity(2, D))))
        rho = WSection(GG, D, ((0, 1), (r_table, matrices.identity(2, D))))
        product = star(sigma, rho)
        assert product.data[0] == (0, 1)
        assert product.data[1][0] == matrices.mul(s_table, r_table)

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
            point = (WeilElement.scalar(D2, x),)
            rho_arrow = rho.arrow_at(point)
            assert product.arrow_at(point) == compose_arrows(sigma.arrow_at(rho_arrow.target), rho_arrow)


class TestFormalInverse:
    def test_nilpotent_quadratic(self):
        eps = WeilElement.generator(D, 1)
        f = (Poly(1, D, {(1,): 1, (2,): eps}),)
        g = formal_inverse(f)
        assert g == (Poly(1, D, {(1,): 1, (2,): -1 * eps}),)

    def test_identity(self):
        ident = identity_map(2, D2)
        assert formal_inverse(ident) == ident

    def test_affine_with_nilpotent_shift(self):
        eps = WeilElement.generator(D, 1)
        f = (Poly(1, D, {(1,): 2, (0,): eps}),)
        g = formal_inverse(f)
        assert g == (Poly(1, D, {(1,): Fraction(1, 2), (0,): Fraction(-1, 2) * eps}),)

    def test_non_affine_scalar_part_rejected(self):
        f = (Poly(1, D, {(2,): 1}),)
        with pytest.raises(InvertibilityError):
            formal_inverse(f)

    def test_singular_linear_part_rejected(self):
        f = (
            Poly(2, D, {(1, 0): 1, (0, 1): 1}),
            Poly(2, D, {(1, 0): 1, (0, 1): 1}),
        )
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
        h1 = matrices.identity(2, D)
        sigma = WBisection(GG, D, ((1, 0), (h0, h1)))
        tau = invert_bisection(sigma)
        # formula: inverse base map, then inverted matrix at the pulled-back point
        assert tau.data[0] == (1, 0)
        assert tau.data[1][0] == matrices.w_inverse(h1, D)
        assert tau.data[1][1] == matrices.w_inverse(h0, D)
        ident = WSection.identity(GG, D)
        assert star(sigma, tau) == ident
        assert star(tau, sigma) == ident

    def test_two_sided_inverse_pair(self):
        d1, d2 = generators(D2)
        sigma = WBisection(
            P2,
            D2,
            (
                Poly(2, D2, {(1, 0): 1, (0, 1): 1, (2, 0): d1}),
                Poly(2, D2, {(0, 1): 1, (0, 0): WeilElement.scalar(D2, 3) + d2, (1, 1): d1 * d2}),
            ),
        )
        tau = invert_bisection(sigma)
        ident = WSection.identity(P2, D2)
        assert star(sigma, tau) == ident
        assert star(tau, sigma) == ident

    def test_witness_failures(self):
        with pytest.raises(InvertibilityError):
            WBisection(P1, D, (Poly(1, D, {(2,): 1}),))
        with pytest.raises(InvertibilityError):
            WBisection(GG, D, ((0, 0), (matrices.identity(2, D), matrices.identity(2, D))))

    def test_singular_scalar_parts_rejected(self):
        one, d = WeilElement.one(D), WeilElement.generator(D, 1)
        singular = ((one, one + d), (one, one))  # scalar part has two equal rows
        with pytest.raises(InvertibilityError, match="singular scalar part"):
            WSection(GG, D, ((0, 1), (singular, matrices.identity(2, D))))
        linear = (Poly(2, D, {(1, 0): 1, (0, 1): 2}), Poly(2, D, {(1, 0): 2, (0, 1): 4, (0, 0): d}))
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

    def test_product_generator_flow(self):
        x = ag(P1, "x0^3")
        d1, d2 = generators(D2)
        flow = section_at(x, d1 * d2)
        assert flow.data[0] == Poly(1, D2, {(1,): 1, (3,): d1 * d2})


class TestArrows:
    def test_pair_compose_and_invert(self):
        a = Arrow(P1, (1,), (0,))
        b = Arrow(P1, (2,), (1,))
        assert compose_arrows(b, a) == Arrow(P1, (2,), (0,))
        assert compose_arrows(Arrow(P1, (0,), (1,)), a) == Arrow(P1, (0,), (0,))
        with pytest.raises(ValueError):
            compose_arrows(a, b)

    def test_gauge_compose_and_invert(self):
        h = ((WeilElement.one(D), WeilElement.generator(D, 1)), (WeilElement.zero(D), WeilElement.one(D)))
        a = Arrow(GG, (1,), (0,), h)
        ident = Arrow(GG, (1,), (1,), matrices.identity(2, D))
        assert compose_arrows(ident, a) == a
        back = Arrow(GG, (0,), (1,), matrices.w_inverse(h, D))
        assert compose_arrows(back, a) == Arrow(GG, (0,), (0,), matrices.identity(2, D))


def chart_sections():
    d1, d2 = generators(D2)
    pair = pair_section(P2, D2, {(1, 0): 1, (2, 1): d1}, {(0, 1): 1, (0, 0): d1 * d2})
    one = matrices.identity(2, D2)
    table = ((WeilElement.one(D2) + d1, d1 * d2), (WeilElement.zero(D2), WeilElement.one(D2) - d2))
    gauge = WSection(GG, D2, ((1, 1), (table, one)))
    return {"pair": pair, "gauge": gauge}


class TestCharts:
    @pytest.mark.parametrize("kind", ["pair", "gauge"])
    def test_round_trip(self, kind):
        sigma = chart_sections()[kind]
        chart = SectionChart.for_sections(sigma)
        assert chart.to_section(chart.to_point(sigma)) == sigma
        g = sigma.groupoid
        assert g.from_slots(*g.slots(sigma.data), sigma.domain) == sigma.data

    def test_gauge_over_point_is_the_matrix(self):
        gg1 = TrivialGaugeGroupoid(1, 2)
        d = WeilElement.generator(D, 1)
        table = ((WeilElement.one(D), d), (WeilElement.zero(D), WeilElement.one(D)))
        sigma = WSection(gg1, D, ((0,), (table,)))
        point = SectionChart.for_sections(sigma).to_point(sigma)
        assert point.coords == tuple(w for row in table for w in row)

    def test_chart_requires_covered_slots(self):
        sigma = pair_section(P1, D, {(1,): 1})
        rho = pair_section(P1, D, {(2,): WeilElement.generator(D, 1), (1,): 1})
        chart = SectionChart.for_sections(sigma)
        with pytest.raises(ValueError):
            chart.to_point(rho)

    def test_gauge_charts_need_shared_base_map(self):
        one = matrices.identity(2, D)
        sigma = WSection(GG, D, ((0, 1), (one, one)))
        rho = WSection(GG, D, ((1, 0), (one, one)))
        with pytest.raises(ValueError):
            SectionChart.for_sections(sigma, rho)
        with pytest.raises(ValueError):
            SectionChart.for_sections(sigma).to_point(rho)


def test_monoid_associativity_with_nonbisections():
    # sections with non-invertible target maps still form a monoid
    a = pair_section(P1, D, {(2,): 1})
    b = pair_section(P1, D, {(0,): 1, (1,): WeilElement.generator(D, 1)})
    c = pair_section(P1, D, {(1,): -2})
    assert star(star(a, b), c) == star(a, star(b, c))


GROUPOID_METHODS = {
    "spec", "bounds_error", "sample_spaces",
    "fiber_product", "beta", "arrow_at",
    "section_data", "check_bisection", "identity_data", "star_data", "inverse_data", "flow_data",
    "read_coefficient", "section_repr",
    "slots", "from_slots",
    "ag_data", "ag_zero", "ag_add", "ag_scale", "ag_repr", "oracle_bracket",
    "random_ag", "random_section", "random_bisection", "base_points",
}


def test_groupoid_classes_share_one_interface():
    # callers never branch on the groupoid kind, so both classes must offer the same methods;
    # pinning the set makes every new per-layout method a visible decision
    def methods(cls):
        return {name for name, value in vars(cls).items() if callable(value) and not name.startswith("_")}

    assert len(GROUPOID_METHODS) == 26
    assert methods(PairGroupoid) == GROUPOID_METHODS
    assert methods(TrivialGaugeGroupoid) == GROUPOID_METHODS
