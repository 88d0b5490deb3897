import random
from fractions import Fraction
from functools import reduce
from operator import add, mul, sub

import pytest

from microlie.groupoids import (
    AGSection,
    PairGroupoid,
    TrivialGaugeGroupoid,
    WSection,
    section_at,
    star,
    star_word,
)
from microlie import liealg
from microlie.liealg import (
    AxisCheckError,
    bracket,
    bracket_via_strong_difference,
    circledast,
    commutator_square,
    lambda_witness,
    lie_derivative,
    pushforward,
    six_microcubes,
)
from microlie.spaces import relative_strong_difference as rsd, strong_difference, tangent_combine
from microlie.vfexpr import parse_vector_field
from microlie.poly import Poly
from microlie.weil import D0, InfinitesimalDomain, Jet, WeilElement, generators

D = InfinitesimalDomain(1)
D2 = InfinitesimalDomain(2)
D3 = InfinitesimalDomain(3)

P1 = PairGroupoid(1)
P2 = PairGroupoid(2)
GPT = TrivialGaugeGroupoid(1, 2)  # gauge groupoid over a single point


def ag(groupoid, text):
    return AGSection(groupoid, parse_vector_field(text, groupoid.dim))


def gauge(*rows):
    return AGSection(GPT, (tuple(tuple(Fraction(v) for v in r) for r in rows),))


A12 = ((0, 1), (0, 0))
A21 = ((0, 0), (1, 0))
E12 = gauge(*A12)
E21 = gauge(*A21)


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


def weil_identity(k, domain):
    return lift(tuple(tuple(int(i == j) for j in range(k)) for i in range(k)), domain)


def gauge_point_section(domain, table):
    """A section of the gauge groupoid over a single point, from its matrix of Weil elements."""
    entries = [w for row in table for w in row]
    jet = Jet.of_rationals(domain, {b: [w.mask_coeffs().get(b, 0) for w in entries] for b in domain.masks})
    return WSection(GPT, domain, ((0,), jet))


def fiber_matrix(arrow):
    """A gauge arrow's fiber jet as its matrix of Weil elements."""
    fiber, k = arrow.fiber, arrow.groupoid.matrix_size
    entry = lambda s: WeilElement.from_masks(fiber.domain, {b: Fraction(p[s], fiber.den) for b, p in fiber.items()})
    return tuple(tuple(entry(i * k + j) for j in range(k)) for i in range(k))


def random_sections(groupoid, count, seed, degree=2):
    rng = random.Random(seed)
    return tuple(groupoid.random_ag(rng, degree) for _ in range(count))


class TestModuleOps:
    def test_add_zero(self):
        x = ag(P2, "x0; x1^2")
        assert x + AGSection.zero(P2) == x

    def test_add_fields(self):
        x = ag(P1, "1")
        y = ag(P1, "x0")
        assert x + y == ag(P1, "1 + x0")

    def test_add_gauge_tables(self):
        assert E12 + E21 == gauge((0, 1), (1, 0))

    def test_scale(self):
        x = ag(P2, "x1; x0^2")
        assert x.scaled(1) == x
        assert x.scaled(0) == AGSection.zero(P2)
        d = WeilElement.generator(D, 1)
        assert section_at(x.scaled(-1), d) == section_at(x, -d)


class TestCommutatorSquare:
    def test_gauge_expansion(self):
        # (I - d2 B)(I - d1 A)(I + d2 B)(I + d1 A) = I + d1 d2 (BA - AB)
        square = commutator_square(E12, E21)
        d1, d2 = generators(D2)
        a = lift(A12, D2)
        b = lift(A21, D2)
        expected = mat_add(weil_identity(2, D2), mat_scale(d1 * d2, mat_sub(mat_mul(b, a), mat_mul(a, b))))
        assert fiber_matrix(square.arrow_at(0)) == expected

    def test_axes_vanish_for_any_pair(self):
        x, y = random_sections(P2, 2, seed=3)
        square = commutator_square(x, y)
        d = WeilElement.generator(D, 1)
        zero = WeilElement.zero(D)
        ident = WSection.identity(P2, D)
        assert square.substitute(D, [d, zero]) == ident
        assert square.substitute(D, [zero, d]) == ident

    @pytest.mark.parametrize("groupoid", [P2, GPT], ids=["pair", "gauge"])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_a_square_off_the_identity_on_one_axis_is_refused(self, groupoid, axis, monkeypatch):
        x, y = random_sections(groupoid, 2, seed=axis)
        commutator_square(x, y)  # the true square passes
        off_axis = section_at(x, generators(D2)[axis - 1])  # X on one axis, the identity on the other
        monkeypatch.setattr(liealg, "star_word", lambda *factors: off_axis)
        with pytest.raises(AxisCheckError) as caught:
            commutator_square(x, y)
        assert str(caught.value) == "commutator square does not restrict to the identity on D(2)"

    def test_zero_sections_give_identity_square(self):
        z = AGSection.zero(P2)
        square = commutator_square(z, z)
        assert square == WSection.identity(P2, D2)


class TestBracket:
    def test_pair_oracle_example(self):
        # xi = (1, 0), eta = (0, x0): classical bracket is (0, 1)
        x = ag(P2, "1; 0")
        y = ag(P2, "0; x0")
        assert bracket(x, y) == ag(P2, "0; 1")

    def test_self_bracket_vanishes(self):
        x, = random_sections(P2, 1, seed=5)
        assert bracket(x, x) == AGSection.zero(P2)

    def test_gauge_oracle_example(self):
        # A = E12, B = E21: bracket table is BA - AB = diag(-1, 1)
        assert bracket(E12, E21) == gauge((-1, 0), (0, 1))

    def test_flow_consistency(self):
        x, y = random_sections(GPT, 2, seed=8)
        b = bracket(x, y)
        d1, d2 = generators(D2)
        assert section_at(b, d1 * d2) == commutator_square(x, y)


class TestPushforward:
    def test_identity_bisection(self):
        x = ag(P2, "x0*x1; x1^2")
        assert pushforward(WSection.identity(P2, D0), x) == x

    def test_gauge_conjugation(self):
        s = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
        sigma = gauge_point_section(D0, lift(s, D0))
        pushed = pushforward(sigma, E12)
        s_inv = ((1, -1), (0, 1))
        assert mat_mul(s, s_inv) == ((1, 0), (0, 1))
        expected = mat_mul(mat_mul(s, A12), s_inv)
        assert pushed == AGSection(GPT, (expected,))

    def test_pair_linear_rescaling(self):
        # sigma: x -> 2x, field 1: pushforward field is the constant 2
        sigma = WSection(P1, D0, Jet(D0, {0: (Poly(1, {(1,): 2}),)}))
        x = ag(P1, "1")
        assert pushforward(sigma, x) == ag(P1, "2")

    def test_rejects_infinitesimal_bisections(self):
        x0 = Poly.variable(1, 0)
        sigma = WSection(P1, D, Jet(D, {0: (x0,), 1: (x0,)}))  # x -> (1 + d) x
        with pytest.raises(ValueError, match="over the point D\\^0, not over D"):
            pushforward(sigma, ag(P1, "x0"))

    @pytest.mark.parametrize("groupoid", [P1, GPT], ids=["pair", "gauge"])
    def test_rejects_a_constant_bisection_over_d(self, groupoid):
        # a bisection with no infinitesimal part still lives over D, not over the point
        sigma = WSection.identity(groupoid, D)
        with pytest.raises(ValueError, match="over the point D\\^0, not over D"):
            pushforward(sigma, AGSection.zero(groupoid))


class TestLieDerivative:
    def test_equals_bracket(self):
        for groupoid, seed in ((P2, 13), (GPT, 14)):
            x, y = random_sections(groupoid, 2, seed=seed)
            assert lie_derivative(x, y) == bracket(x, y)

    def test_zero_field(self):
        y = ag(P2, "x0^2; x1")
        assert lie_derivative(AGSection.zero(P2), y) == AGSection.zero(P2)

    def test_frozen_example(self):
        assert lie_derivative(ag(P2, "1; 0"), ag(P2, "0; x0")) == ag(P2, "0; 1")

    def test_leibniz_rule(self):
        x, y, z = random_sections(P2, 3, seed=21)
        lhs = lie_derivative(x, bracket(y, z))
        rhs = bracket(lie_derivative(x, y), z) + bracket(y, lie_derivative(x, z))
        assert lhs == rhs


class TestFlowCubes:
    def test_single_factor_is_the_flow(self):
        x = ag(P1, "x0")
        assert circledast([x]) == section_at(x, WeilElement.generator(D, 1))

    def test_two_factor_order(self):
        x, y = random_sections(P2, 2, seed=31)
        d1, d2 = generators(D2)
        assert circledast([x, y]) == star(section_at(y, d2), section_at(x, d1))

    def test_gauge_expansion(self):
        # Y (*) X = I + d1 A + d2 B + d1 d2 B A
        cube = circledast([E12, E21])
        d1, d2 = generators(D2)
        a = lift(A12, D2)
        b = lift(A21, D2)
        expected = mat_add(
            mat_add(weil_identity(2, D2), mat_scale(d1, a)),
            mat_add(mat_scale(d2, b), mat_scale(d1 * d2, mat_mul(b, a))),
        )
        assert fiber_matrix(cube.arrow_at(0)) == expected

    def test_six_cubes_as_direct_words(self):
        x, y, z = random_sections(P2, 3, seed=33, degree=1)
        cubes = six_microcubes(x, y, z)
        d1, d2, d3 = generators(D3)
        flows = {1: section_at(x, d1), 2: section_at(y, d2), 3: section_at(z, d3)}
        assert list(cubes) == ["123", "132", "213", "231", "312", "321"]
        for key, cube in cubes.items():
            a, b, c = (int(ch) for ch in key)
            assert cube == star_word(flows[c], flows[b], flows[a])

    def test_zero_sections_give_identity_cubes(self):
        z = AGSection.zero(P2)
        for cube in six_microcubes(z, z, z).values():
            assert cube == WSection.identity(P2, D3)

    def test_four_factor_cube_permitted(self):
        w, x, y, z = random_sections(GPT, 4, seed=35)
        cube = circledast([w, x, y, z])
        domain = InfinitesimalDomain(4)
        gens = generators(domain)
        expected = star_word(
            section_at(z, gens[3]),
            section_at(y, gens[2]),
            section_at(x, gens[1]),
            section_at(w, gens[0]),
        )
        assert cube == expected
        with pytest.raises(ValueError):
            circledast([w, x, y, z, w])


class TestSecondRoute:
    def test_matches_commutator_bracket(self):
        for groupoid, seed in ((P2, 41), (GPT, 42), (TrivialGaugeGroupoid(2, 2), 43)):
            x, y = random_sections(groupoid, 2, seed=seed)
            assert bracket_via_strong_difference(x, y) == bracket(x, y)

    def test_zero_section(self):
        y = ag(P2, "x0; x1")
        assert bracket_via_strong_difference(AGSection.zero(P2), y) == AGSection.zero(P2)

    def test_gauge_oracle(self):
        assert bracket_via_strong_difference(E12, E21) == gauge((-1, 0), (0, 1))

    def test_lambda_witness_checks(self):
        for groupoid, seed in ((P2, 51), (GPT, 52)):
            x, y = random_sections(groupoid, 2, seed=seed)
            witness = lambda_witness(x, y)
            assert witness.domain == InfinitesimalDomain(3, [(1, 3), (2, 3)])
            # spot-check the d3 = 0 slice once more, outside the constructor
            e1, e2 = generators(D2)
            zero = WeilElement.zero(D2)
            assert witness.substitute(D2, [e1, e2, zero]) == star(
                section_at(x, e1), section_at(y, e2)
            )

    def test_six_cube_identities_and_jacobi(self):
        for groupoid, seed in ((P2, 61), (GPT, 62)):
            x, y, z = random_sections(groupoid, 3, seed=seed, degree=1)
            g = six_microcubes(x, y, z)  # the relative differences act on the flow cubes themselves
            nested = (
                bracket(x, bracket(y, z)),
                bracket(y, bracket(z, x)),
                bracket(z, bracket(x, y)),
            )
            d = WeilElement.generator(D, 1)
            e1 = strong_difference(rsd(1, g["123"], g["132"]), rsd(1, g["231"], g["321"]))
            e2 = strong_difference(rsd(2, g["231"], g["213"]), rsd(2, g["312"], g["132"]))
            e3 = strong_difference(rsd(3, g["312"], g["321"]), rsd(3, g["123"], g["213"]))
            assert (e1, e2, e3) == tuple(section_at(b, d) for b in nested)
            assert tangent_combine(tangent_combine(e1, e2), e3) == WSection.identity(groupoid, D)
