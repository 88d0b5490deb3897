import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from microlie import matrices
from microlie.spaces import (
    AffineSpace,
    CompatibilityError,
    MatrixGroup,
    MembershipError,
    Tangent,
    WPoint,
    psi,
    relative_strong_difference,
    relative_strong_difference_curried,
    restrict_point,
    sigma_perm,
    strong_difference,
    tangent_combine,
)
from microlie.weil import LINE, InfinitesimalDomain, RestrictionError, WeilElement, generators, monomial_images

D = InfinitesimalDomain(1)
D2 = InfinitesimalDomain(2)
D3 = InfinitesimalDomain(3)
A2 = InfinitesimalDomain.first_order(2)
A3 = AffineSpace(3)


def tangent(space, base, direction):
    """The tangent at ``base`` with ``direction``: a point over ``D``."""
    return Tangent(WPoint(space, LINE, {(): base, (1,): direction}))


def weil_point(space, domain, coords):
    """The point whose coordinates are the given Weil elements, through the monomial-keyed constructor."""
    return WPoint(space, domain, {m: [w.coefficient(m) for w in coords] for m in domain.monomials()})


def weil_coords(point):
    """A point's coordinates as Weil elements, built from its coefficient vectors."""
    monomials = point.domain.monomials()
    columns = [point.coefficient(m) for m in monomials]
    return tuple(
        WeilElement(point.domain, dict(zip(monomials, (v[i] for v in columns)))) for i in range(point.space.flat_dim)
    )


def assert_integer_jet(point):
    """A point's jet holds ``int`` numerators only, over a positive ``int`` denominator in lowest terms."""
    jet = point.parts
    assert all(type(n) is int for part in jet.values() for n in part)
    assert type(jet.den) is int and jet.den > 0 and gcd(jet.den, *(n for part in jet.values() for n in part)) == 1
    assert all(len(part) == point.space.flat_dim for part in jet.values())


def affine_square(*coeff_rows):
    """Build a microsquare in 3-space from per-coordinate coefficient dicts."""
    return weil_point(A3, D2, [WeilElement(D2, c) for c in coeff_rows])


def coordinate_cube():
    return weil_point(A3, D3, generators(D3))


class TestPoints:
    def test_restrict_microsquare(self):
        p = affine_square({(1,): 1}, {(2,): 1}, {(1, 2): 7})
        r = restrict_point(p, A2)
        expected = weil_point(A3, A2, (WeilElement(A2, {(1,): 1}), WeilElement(A2, {(2,): 1}), WeilElement.zero(A2)))
        assert r == expected
        assert restrict_point(p, D2) == p

    def test_matrix_point_membership(self):
        singular = (WeilElement.zero(D),) * 4
        with pytest.raises(MembershipError, match="singular scalar part"):
            weil_point(MatrixGroup(2), D, singular)

    def test_coordinate_count_checked(self):
        with pytest.raises(ValueError, match="expected 4 coordinates, got 3"):
            weil_point(MatrixGroup(2), D, (WeilElement.one(D),) * 3)
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            weil_point(A3, D, (WeilElement.one(D),) * 4)

    def test_matrix_restriction(self):
        # row-major entries of [[1 + 2 d1 + 3 d1 d2, 0], [0, 1]]
        entries = (
            WeilElement(D2, {(): 1, (1,): 2, (1, 2): 3}),
            WeilElement.zero(D2),
            WeilElement.zero(D2),
            WeilElement.one(D2),
        )
        p = weil_point(MatrixGroup(2), D2, entries)
        r = restrict_point(p, A2)
        assert weil_coords(r)[0] == WeilElement(A2, {(): 1, (1,): 2})

    @pytest.mark.parametrize("space", [A3, MatrixGroup(2)])
    def test_from_coefficients_round_trip(self, space):
        rng = random.Random(3)
        n = space.flat_dim
        columns = {m: [Fraction(rng.randint(-3, 3)) for _ in range(n)] for m in D2.monomials()}
        if isinstance(space, MatrixGroup):
            columns[frozenset()] = [Fraction(1), Fraction(2), Fraction(0), Fraction(1)]  # invertible
        p = WPoint(space, D2, columns)
        for m, vector in columns.items():
            assert p.coefficient(m) == tuple(vector)
        assert WPoint(space, D2, {m: p.coefficient(m) for m in D2.monomials()}) == p
        assert WPoint.from_masks(space, D2, {D2.mask_of(m): vector for m, vector in columns.items()}) == p

    def test_parts_are_in_normal_form(self):
        p = WPoint(A3, D2, {(1,): (0, 0, 0), (1, 2): (1, 0, Fraction(1, 2))})
        assert dict(p.parts) == {0: (0, 0, 0), 3: (2, 0, 1)} and p.parts.den == 2
        assert_integer_jet(p)
        assert p == WPoint.from_masks(A3, D2, {3: (1, 0, Fraction(1, 2))})
        assert p.coefficient({1, 2}) == (1, 0, Fraction(1, 2))
        assert all(type(c) is Fraction for c in p.coefficient({1, 2}))
        halves = WPoint(A3, D2, {(): (Fraction(2, 4), 0, 0), (1,): (Fraction(3, 2), 0, Fraction(-6, 4))})
        assert dict(halves.parts) == {0: (1, 0, 0), 1: (3, 0, -3)} and halves.parts.den == 2
        assert p.coefficient({2}) == (0, 0, 0) and all(type(c) is Fraction for c in p.coefficient({2}))
        with pytest.raises(TypeError):
            p.parts[1] = (1, 1, 1)
        with pytest.raises(AttributeError, match="immutable"):
            p.parts = {}

    def test_a_monomial_given_twice_is_rejected(self):
        with pytest.raises(ValueError, match="given twice"):
            WPoint(A3, D2, {(1, 2): (1, 0, 0), (2, 1): (0, 1, 0)})

    def test_restricting_without_coordinates_still_checks_the_domain(self):
        with pytest.raises(RestrictionError, match="not a coarsening"):
            restrict_point(WPoint(AffineSpace(0), D2, {}), D3)

    def test_from_coefficients_checks_lengths_and_membership(self):
        with pytest.raises(ValueError, match="expected 4 coordinates, got 3"):
            WPoint(MatrixGroup(2), D, {frozenset(): (1, 0, 0)})
        with pytest.raises(MembershipError):
            WPoint(MatrixGroup(2), D, {frozenset({1}): (1, 0, 0, 1)})

    def test_restriction_and_relabelling_take_no_determinant(self, monkeypatch):
        # both keep the scalar part of a checked point, which is all that membership reads
        calls = []
        check = matrices._determinant
        monkeypatch.setattr(matrices, "_determinant", lambda rows: calls.append(rows) or check(rows))
        gamma = WPoint(MatrixGroup(2), D3, {(): (1, 2, 0, 1), (1, 3): (1, 0, 0, 0), (2,): (0, 0, 3, 0)})
        assert len(calls) == 1
        restricted, permuted = restrict_point(gamma, InfinitesimalDomain(3, [(1, 3)])), sigma_perm(gamma, (2, 3, 1))
        assert len(calls) == 1
        assert set(restricted.parts) == {0, 2} and restricted.coefficient({2}) == (0, 0, 3, 0)
        assert permuted.coefficient({2, 1}) == (1, 0, 0, 0) and permuted.coefficient({3}) == (0, 0, 3, 0)
        assert permuted.parts[0] is gamma.parts[0]
        with pytest.raises(MembershipError, match="singular scalar part"):
            WPoint(MatrixGroup(2), D3, {(): (1, 2, 2, 4)})
        assert len(calls) == 2
        plus = WPoint(MatrixGroup(2), D2, {(): (1, 2, 0, 1), (1, 2): (Fraction(1, 3), 0, 0, 0)})
        minus = WPoint(MatrixGroup(2), D2, {(): (1, 2, 0, 1)})
        cubes = [
            WPoint(MatrixGroup(2), D3, {(): (1, 2, 0, 1), m: (0, 0, Fraction(1, 2), 0)})
            for m in ((1, 2), (1, 2, 3))
        ]
        assert len(calls) == 6
        # the differences keep plus's scalar part, so they take no determinant either
        strong_difference(plus, minus), relative_strong_difference(3, *cubes)
        assert len(calls) == 6

    def test_point_text_is_pinned(self):
        # counterexamples print points and tangents: the coordinates as Weil elements, and Fraction tuples
        p = WPoint(AffineSpace(2), D2, {(): (Fraction(1, 2), 0), (1, 2): (Fraction(-2, 3), 5)})
        assert repr(p) == "WPoint(AffineSpace(dim=2), D^2; 1/2 - 2/3*d1*d2, 5*d1*d2)"
        t = tangent(AffineSpace(2), (Fraction(1, 2), 1), (Fraction(-1, 3), 0))
        assert repr(t) == (
            "Tangent(base=(Fraction(1, 2), Fraction(1, 1)), direction=(Fraction(-1, 3), Fraction(0, 1)))"
        )
        q = WPoint(MatrixGroup(2), LINE, {(): (Fraction(1, 2), 0, 0, 3), (1,): (Fraction(1, 4), 0, 0, 0)})
        assert repr(q) == "WPoint(MatrixGroup(size=2), D; 1/2 + 1/4*d1, 0, 0, 3)"


def test_space_classes_share_one_interface():
    # callers never branch on the space kind, so both classes must offer the same members
    def members(cls):
        return {
            name
            for name, value in vars(cls).items()
            if not name.startswith("_") and (callable(value) or isinstance(value, property))
        }

    assert members(AffineSpace) == members(MatrixGroup)
    assert {"flat_dim", "check"} <= members(AffineSpace)


class TestStrongDifference:
    def test_coefficient_rule(self):
        plus = affine_square({(1,): 1}, {(2,): 1}, {(1, 2): 5})
        minus = affine_square({(1,): 1}, {(2,): 1}, {(1, 2): 2})
        t = strong_difference(plus, minus)
        assert t.base == (0, 0, 0)
        assert t.direction == (0, 0, 3) and not t.is_zero

    def test_equal_points_give_zero(self):
        p = affine_square({(): 1, (1,): 2}, {(2,): 1}, {(1, 2): 4})
        t = strong_difference(p, p)
        assert t.is_zero and t.base == (1, 0, 0)

    def test_matrix_directions_subtract(self):
        one = WeilElement.one(D2)
        zero = WeilElement.zero(D2)
        d1d2 = WeilElement(D2, {(1, 2): 1})

        def pt(c):
            return weil_point(MatrixGroup(2), D2, (one, c * d1d2, zero, one))

        t = strong_difference(pt(4), pt(1))
        assert t.direction == (0, 3, 0, 0)

    def test_incompatible_squares_rejected(self):
        plus = affine_square({(1,): 1}, {}, {})
        minus = affine_square({(1,): 2}, {}, {})
        with pytest.raises(CompatibilityError, match="D\\(2\\)"):
            strong_difference(plus, minus)

    def test_axis_recovery(self):
        gamma = affine_square({(): 1, (1,): 2, (1, 2): -3}, {(2,): 1}, {(1, 2): 7})
        flattened = WPoint(gamma.space, D2, {m: gamma.coefficient(m) for m in A2.monomials()})
        t = strong_difference(gamma, flattened)
        assert t.direction == gamma.coefficient({1, 2})


class TestRelabelings:
    def test_psi3_fixes_keys(self):
        cube = coordinate_cube()
        assert psi(3, cube) == cube

    def test_psi1_rotates_roles(self):
        d1, d2, d3 = generators(D3)
        assert psi(1, coordinate_cube()) == weil_point(A3, D3, (d3, d1, d2))

    def test_psi_bijective(self):
        cube = weil_point(A3, D3, [WeilElement(D3, {(1,): i, (2, 3): 2 * i, (1, 2, 3): 3 + i}) for i in range(3)])
        # psi(i) is sigma_perm by these permutations; undo each by its inverse
        for i, p in {1: (3, 1, 2), 2: (1, 3, 2), 3: (1, 2, 3)}.items():
            inverse = tuple(p.index(j) + 1 for j in (1, 2, 3))
            assert psi(i, sigma_perm(cube, inverse)) == cube
            assert sigma_perm(psi(i, cube), inverse) == cube

    def test_sigma_identity(self):
        cube = coordinate_cube()
        assert sigma_perm(cube, (1, 2, 3)) == cube

    def test_sigma_three_cycle(self):
        d1, d2, d3 = generators(D3)
        assert sigma_perm(coordinate_cube(), (2, 3, 1)) == weil_point(A3, D3, (d2, d3, d1))

    def test_sigma_respects_domain_relations(self):
        dom = InfinitesimalDomain(3, [(1, 3), (2, 3)])
        p = weil_point(AffineSpace(1), dom, (WeilElement(dom, {(1, 2): 1}),))
        q = sigma_perm(p, (3, 2, 1))
        assert q.domain == InfinitesimalDomain(3, [(1, 3), (1, 2)])
        assert weil_coords(q)[0] == WeilElement(q.domain, {(2, 3): 1})


def affine_cube(*coeff_rows):
    return weil_point(A3, D3, [WeilElement(D3, c) for c in coeff_rows])


class TestRelativeStrongDifference:
    def test_axis3_example(self):
        plus = affine_cube({(1,): 1}, {(2,): 1}, {(3,): 1, (1, 2): 4})
        minus = affine_cube({(1,): 1}, {(2,): 1}, {(3,): 1})
        mu = relative_strong_difference(3, plus, minus)
        # expected microsquare (0, 0, t + 4 s) over fresh generators (s, t)
        assert weil_coords(mu) == (WeilElement.zero(D2), WeilElement.zero(D2), WeilElement(D2, {(1,): 4, (2,): 1}))

    def test_degenerate_equal_cubes(self):
        cube = affine_cube({(1,): 1, (1, 2): 2}, {(2,): 1}, {(3,): 1, (1, 2, 3): 5})
        mu = relative_strong_difference(1, cube, cube)
        assert mu.coefficient({1}) == (0, 0, 0)
        assert mu.coefficient({1, 2}) == (0, 0, 0)

    def test_precondition_enforced(self):
        plus = affine_cube({(1,): 1}, {}, {})
        minus = affine_cube({(1,): 2}, {}, {})
        with pytest.raises(CompatibilityError, match="axis 3"):
            relative_strong_difference(3, plus, minus)

    def _random_pair(self, rng, space, axis):
        j, k = sorted({1, 2, 3} - {axis})
        dim = space.flat_dim
        shared = {m: [Fraction(rng.randint(-3, 3)) for _ in range(dim)] for m in D3.monomials()}
        if isinstance(space, MatrixGroup):
            shared[frozenset()] = [Fraction(int(i == j2)) for i in range(space.size) for j2 in range(space.size)]
        deltas = {
            frozenset({j, k}): [rng.randint(-3, 3) for _ in range(dim)],
            frozenset({1, 2, 3}): [rng.randint(-3, 3) for _ in range(dim)],
        }
        plus_flat, minus_flat = [], []
        for i in range(dim):
            cp = {m: shared[m][i] for m in shared}
            cm = dict(cp)
            for m, delta in deltas.items():
                cm[m] = cm[m] - delta[i]
            plus_flat.append(WeilElement(D3, cp))
            minus_flat.append(WeilElement(D3, cm))
        return weil_point(space, D3, plus_flat), weil_point(space, D3, minus_flat)

    def test_rule_matches_curried_definition(self):
        rng = random.Random(7)
        for space in (A3, AffineSpace(1), MatrixGroup(2), MatrixGroup(3)):
            for axis in (1, 2, 3):
                for _ in range(5):
                    plus, minus = self._random_pair(rng, space, axis)
                    assert relative_strong_difference(
                        axis, plus, minus
                    ) == relative_strong_difference_curried(axis, plus, minus)


class TestTangents:
    def test_combine(self):
        a = tangent(AffineSpace(2), (0, 0), (1, 0))
        b = tangent(AffineSpace(2), (0, 0), (0, 1))
        assert tangent_combine(a, b).direction == (1, 1)
        assert tangent_combine(b, b).direction == (0, 2)
        directions = ((Fraction(1, 2), 0), (0, Fraction(1, 3)))
        half, third = (tangent(AffineSpace(2), (1, 0), v) for v in directions)
        total = tangent_combine(half, third)  # over the lcm of the denominators 2 and 3
        assert total.base == (1, 0) and total.direction == (Fraction(1, 2), Fraction(1, 3))
        assert_integer_jet(total.point)

    def test_base_mismatch(self):
        a = tangent(AffineSpace(1), (0,), (1,))
        b = tangent(AffineSpace(1), (1,), (1,))
        with pytest.raises(ValueError):
            tangent_combine(a, b)

    def test_equal_tangents_hash_equal(self):
        a = tangent(AffineSpace(1), [1], [2])
        b = tangent(AffineSpace(1), [Fraction(2, 2)], (Fraction(4, 2),))
        c = tangent(AffineSpace(1), [1], [3])
        assert a == b and hash(a) == hash(b)
        assert {a, b, c} == {a, c} and len({a, b, c}) == 2


def random_square_family(rng, count):
    base = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
    a1 = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
    a2 = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
    out = []
    for _ in range(count):
        top = [rng.randint(-3, 3) for _ in range(3)]
        out.append(
            affine_square(
                *(
                    {(): b, (1,): u, (2,): v, (1, 2): t}
                    for b, u, v, t in zip(base, a1, a2, top)
                )
            )
        )
    return out


def test_cocycle_identity():
    rng = random.Random(11)
    for _ in range(10):
        g1, g2, g3 = random_square_family(rng, 3)
        total = tangent_combine(
            tangent_combine(strong_difference(g1, g2), strong_difference(g2, g3)),
            strong_difference(g3, g1),
        )
        assert total.is_zero


# -- property: each point operation against the same operation on every coordinate --------------
#
# The reference reads a point's coordinates as Weil elements (from ``coefficient``), applies the
# element operation to each, and builds the point back.

SPACES = (A3, MatrixGroup(2))
POINT_DOMAINS = (D, D2, D3, A2)
# denominators up to 4, so two points rarely share one and the differences rescale both
RATIONAL = st.builds(Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=4))


def _columns(draw, space, domain):
    return {m: [draw(RATIONAL) for _ in range(space.flat_dim)] for m in domain.monomials()}


def _point(space, domain, columns):
    try:
        return WPoint(space, domain, columns)
    except MembershipError:
        assume(False)  # a singular matrix at the scalar part is not a point


def _pair(draw, space, domain, free):
    """Two points; unless drawn independent, the second redraws only the vectors on ``free``."""
    columns = _columns(draw, space, domain)
    other = dict(columns)
    if draw(st.booleans()):
        other.update((m, v) for m, v in _columns(draw, space, domain).items() if m in free)
    else:
        other = _columns(draw, space, domain)
    return _point(space, domain, columns), _point(space, domain, other)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_restrict_point_acts_on_every_coordinate(data):
    draw = data.draw
    space = draw(st.sampled_from(SPACES))
    domain, sub = draw(st.sampled_from(POINT_DOMAINS)), draw(st.sampled_from(POINT_DOMAINS))
    p = _point(space, domain, _columns(draw, space, domain))
    try:
        expected = weil_point(space, sub, [w.restrict(sub) for w in weil_coords(p)])
    except RestrictionError:
        with pytest.raises(RestrictionError):
            restrict_point(p, sub)
    else:
        assert restrict_point(p, sub) == expected
        assert_integer_jet(restrict_point(p, sub))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sigma_perm_and_psi_act_on_every_coordinate(data):
    draw = data.draw
    space, domain = draw(st.sampled_from(SPACES)), draw(st.sampled_from(POINT_DOMAINS))
    p = _point(space, domain, _columns(draw, space, domain))

    def by_substitution(perm):
        target = domain.permuted(perm)
        table = monomial_images(domain, target, [WeilElement.generator(target, i) for i in perm])
        return weil_point(space, target, [w.image(table) for w in weil_coords(p)])

    perm = tuple(draw(st.permutations(range(1, domain.generator_count + 1))))
    assert sigma_perm(p, perm) == by_substitution(perm)
    assert_integer_jet(sigma_perm(p, perm))
    if domain is D3:
        for axis in (1, 2, 3):
            j, k = sorted({1, 2, 3} - {axis})
            # axis becomes the inner generator 3; the other two keep their order as 1, 2
            perm = tuple({axis: 3, j: 1, k: 2}[g] for g in (1, 2, 3))
            assert psi(axis, p) == by_substitution(perm)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_strong_difference_acts_on_every_coordinate(data):
    draw = data.draw
    space = draw(st.sampled_from(SPACES))
    plus, minus = _pair(draw, space, D2, {frozenset({1, 2})})
    pairs = list(zip(weil_coords(plus), weil_coords(minus)))
    if any(a.restrict(A2) != b.restrict(A2) for a, b in pairs):
        with pytest.raises(CompatibilityError):
            strong_difference(plus, minus)
        return
    t = strong_difference(plus, minus)
    assert t.base == tuple(a.scalar_part for a, _ in pairs)
    assert t.direction == tuple(a.coefficient({1, 2}) - b.coefficient({1, 2}) for a, b in pairs)
    assert_integer_jet(t.point)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_relative_strong_differences_act_on_every_coordinate(data):
    draw = data.draw
    space, axis = draw(st.sampled_from(SPACES)), draw(st.sampled_from((1, 2, 3)))
    j, k = sorted({1, 2, 3} - {axis})
    plus, minus = _pair(draw, space, D3, {frozenset({j, k}), frozenset({1, 2, 3})})
    pairs = list(zip(weil_coords(plus), weil_coords(minus)))
    agreement = InfinitesimalDomain(3, [(j, k)])
    if any(a.restrict(agreement) != b.restrict(agreement) for a, b in pairs):
        for difference in (relative_strong_difference, relative_strong_difference_curried):
            with pytest.raises(CompatibilityError):
                difference(axis, plus, minus)
        return
    # the definition on one coordinate: make the axis d3 (psi), curry along d3 into a microsquare
    # of (value, d3-part) pairs, and take the strong difference of the two microsquares
    perm = tuple({axis: 3, j: 1, k: 2}[g] for g in (1, 2, 3))
    table = monomial_images(D3, D3, [WeilElement.generator(D3, i) for i in perm])
    coords = []
    for a, b in pairs:
        a, b = a.image(table), b.image(table)
        top, cube = frozenset({1, 2}), frozenset({1, 2, 3})
        coords.append(
            WeilElement(
                D2,
                {
                    (): a.scalar_part,
                    (1,): a.coefficient(top) - b.coefficient(top),
                    (2,): a.coefficient({3}),
                    (1, 2): a.coefficient(cube) - b.coefficient(cube),
                },
            )
        )
    expected = weil_point(space, D2, coords)
    for difference in (relative_strong_difference, relative_strong_difference_curried):
        assert difference(axis, plus, minus) == expected
        assert_integer_jet(difference(axis, plus, minus))
