import random
from fractions import Fraction

import pytest

from microlie.spaces import (
    AffineSpace,
    CompatibilityError,
    MatrixGroup,
    MembershipError,
    WPoint,
    psi,
    relative_strong_difference,
    relative_strong_difference_curried,
    restrict_point,
    sigma_perm,
    strong_difference,
    tangent_combine,
    tangent_from_parts,
)
from microlie.weil import InfinitesimalDomain, WeilElement, generators

D = InfinitesimalDomain(1)
D2 = InfinitesimalDomain(2)
D3 = InfinitesimalDomain(3)
A2 = InfinitesimalDomain.first_order(2)
A3 = AffineSpace(3)


def affine_square(*coeff_rows):
    """Build a microsquare in 3-space from per-coordinate coefficient dicts."""
    return WPoint(A3, D2, tuple(WeilElement(D2, c) for c in coeff_rows))


def coordinate_cube():
    return WPoint(A3, D3, tuple(WeilElement.generator(D3, i) for i in (1, 2, 3)))


class TestPoints:
    def test_restrict_microsquare(self):
        p = affine_square({(1,): 1}, {(2,): 1}, {(1, 2): 7})
        r = restrict_point(p, A2)
        expected = WPoint(
            A3,
            A2,
            (
                WeilElement(A2, {(1,): 1}),
                WeilElement(A2, {(2,): 1}),
                WeilElement.zero(A2),
            ),
        )
        assert r == expected
        assert restrict_point(p, D2) == p

    def test_matrix_point_membership(self):
        singular = (WeilElement.zero(D),) * 4
        with pytest.raises(MembershipError, match="singular scalar part"):
            WPoint(MatrixGroup(2), D, singular)

    def test_coordinate_count_checked(self):
        with pytest.raises(ValueError, match="expected 4 coordinates, got 3"):
            WPoint(MatrixGroup(2), D, (WeilElement.one(D),) * 3)
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            WPoint(A3, D, (WeilElement.one(D),) * 4)

    def test_matrix_restriction(self):
        # row-major entries of [[1 + 2 d1 + 3 d1 d2, 0], [0, 1]]
        entries = (
            WeilElement(D2, {(): 1, (1,): 2, (1, 2): 3}),
            WeilElement.zero(D2),
            WeilElement.zero(D2),
            WeilElement.one(D2),
        )
        p = WPoint(MatrixGroup(2), D2, entries)
        r = restrict_point(p, A2)
        assert r.coords[0] == WeilElement(A2, {(): 1, (1,): 2})

    @pytest.mark.parametrize("space", [A3, MatrixGroup(2)])
    def test_from_coefficients_round_trip(self, space):
        rng = random.Random(3)
        n = space.flat_dim
        columns = {m: [Fraction(rng.randint(-3, 3)) for _ in range(n)] for m in D2.monomials()}
        if isinstance(space, MatrixGroup):
            columns[frozenset()] = [Fraction(1), Fraction(2), Fraction(0), Fraction(1)]  # invertible
        p = WPoint.from_coefficients(space, D2, columns)
        for m, vector in columns.items():
            assert p.coefficient(m) == tuple(vector)
        assert WPoint.from_coefficients(space, D2, {m: p.coefficient(m) for m in D2.monomials()}) == p

    def test_from_coefficients_checks_lengths_and_membership(self):
        with pytest.raises(ValueError, match="4 entries"):
            WPoint.from_coefficients(MatrixGroup(2), D, {frozenset(): (1, 0, 0)})
        with pytest.raises(MembershipError):
            WPoint.from_coefficients(MatrixGroup(2), D, {frozenset({1}): (1, 0, 0, 1)})


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
        assert t.direction == (0, 0, 3)

    def test_equal_points_give_zero(self):
        p = affine_square({(): 1, (1,): 2}, {(2,): 1}, {(1, 2): 4})
        t = strong_difference(p, p)
        assert t.is_zero and t.base == (1, 0, 0)

    def test_matrix_directions_subtract(self):
        one = WeilElement.one(D2)
        zero = WeilElement.zero(D2)
        d1d2 = WeilElement(D2, {(1, 2): 1})

        def pt(c):
            return WPoint(MatrixGroup(2), D2, (one, c * d1d2, zero, one))

        t = strong_difference(pt(4), pt(1))
        assert t.direction == (0, 3, 0, 0)

    def test_incompatible_squares_rejected(self):
        plus = affine_square({(1,): 1}, {}, {})
        minus = affine_square({(1,): 2}, {}, {})
        with pytest.raises(CompatibilityError, match="D\\(2\\)"):
            strong_difference(plus, minus)

    def test_axis_recovery(self):
        gamma = affine_square({(): 1, (1,): 2, (1, 2): -3}, {(2,): 1}, {(1, 2): 7})
        flattened = WPoint.from_coefficients(gamma.space, D2, {m: gamma.coefficient(m) for m in A2.monomials()})
        t = strong_difference(gamma, flattened)
        assert t.direction == gamma.coefficient({1, 2})


class TestRelabelings:
    def test_psi3_fixes_keys(self):
        cube = coordinate_cube()
        assert psi(3, cube) == cube

    def test_psi1_rotates_roles(self):
        d1, d2, d3 = generators(D3)
        assert psi(1, coordinate_cube()) == WPoint(A3, D3, (d3, d1, d2))

    def test_psi_bijective(self):
        cube = WPoint(
            A3,
            D3,
            tuple(
                WeilElement(D3, {(1,): i, (2, 3): 2 * i, (1, 2, 3): 3 + i}) for i in range(3)
            ),
        )
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
        assert sigma_perm(coordinate_cube(), (2, 3, 1)) == WPoint(A3, D3, (d2, d3, d1))

    def test_sigma_respects_domain_relations(self):
        dom = InfinitesimalDomain(3, [(1, 3), (2, 3)])
        p = WPoint(AffineSpace(1), dom, (WeilElement(dom, {(1, 2): 1}),))
        q = sigma_perm(p, (3, 2, 1))
        assert q.domain == InfinitesimalDomain(3, [(1, 3), (1, 2)])
        assert q.coords[0] == WeilElement(q.domain, {(2, 3): 1})


def affine_cube(*coeff_rows):
    return WPoint(A3, D3, tuple(WeilElement(D3, c) for c in coeff_rows))


class TestRelativeStrongDifference:
    def test_axis3_example(self):
        plus = affine_cube({(1,): 1}, {(2,): 1}, {(3,): 1, (1, 2): 4})
        minus = affine_cube({(1,): 1}, {(2,): 1}, {(3,): 1})
        mu = relative_strong_difference(3, plus, minus)
        # expected microsquare (0, 0, t + 4 s) over fresh generators (s, t)
        assert mu.coords[0] == WeilElement.zero(D2)
        assert mu.coords[1] == WeilElement.zero(D2)
        assert mu.coords[2] == WeilElement(D2, {(1,): 4, (2,): 1})

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
        return WPoint(space, D3, tuple(plus_flat)), WPoint(space, D3, tuple(minus_flat))

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
        a = tangent_from_parts(AffineSpace(2), (0, 0), (1, 0))
        b = tangent_from_parts(AffineSpace(2), (0, 0), (0, 1))
        assert tangent_combine(a, b).direction == (1, 1)
        assert tangent_combine(b, b).direction == (0, 2)

    def test_base_mismatch(self):
        a = tangent_from_parts(AffineSpace(1), (0,), (1,))
        b = tangent_from_parts(AffineSpace(1), (1,), (1,))
        with pytest.raises(ValueError):
            tangent_combine(a, b)


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
