"""Representable spaces, their Weil points, and the strong-difference calculus.

A point of a space over an InfinitesimalDomain packages one Weil element
per ambient coordinate.  Over the one-generator domain such a point is a
tangent vector; over ``D^2`` a microsquare; over ``D^3`` a microcube.

Conventions, pinned once and enforced by the law suites:

* the strong difference of two microsquares that agree off the top
  monomial is the tangent whose direction is the difference of their
  ``d1*d2`` coefficients, based at the common scalar part;
* ``sigma_perm(gamma, eps)`` realizes ``(d1, ..., dn) -> gamma(d_eps(1),
  ..., d_eps(n))``, i.e. coefficient at ``eps(S)`` reads the source
  coefficient at ``S``;
* the relativized differences along an axis arise by currying the cube
  into a microsquare valued in tangents; the closed-form coefficient rule
  below is cross-checked against that definition by
  :func:`relative_strong_difference_curried`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import matrices
from .weil import (
    InfinitesimalDomain,
    Monomial,
    Rational,
    WeilElement,
    check_permutation,
)


class MembershipError(ValueError):
    """Coordinates fail the space's membership predicate."""


class CompatibilityError(ValueError):
    """A strong difference was requested for points that do not agree where required."""


class InternalInvariantError(RuntimeError):
    """A construction produced a value its own postcondition rules out."""


@dataclass(frozen=True)
class AffineSpace:
    dim: int

    @property
    def flat_dim(self) -> int:
        return self.dim


@dataclass(frozen=True)
class MatrixGroup:
    size: int

    @property
    def flat_dim(self) -> int:
        return self.size * self.size


@dataclass(frozen=True)
class FiniteBase:
    size: int


Space = AffineSpace | MatrixGroup | FiniteBase

LINE = InfinitesimalDomain.line()


class WPoint:
    """A point of a space with coordinates in a Weil algebra."""

    __slots__ = ("space", "domain", "coords", "index")

    def __init__(self, space: Space, domain: InfinitesimalDomain, data) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "domain", domain)
        if isinstance(space, AffineSpace):
            coords = tuple(data)
            if len(coords) != space.dim:
                raise ValueError(f"expected {space.dim} coordinates, got {len(coords)}")
            self._check_domains(coords)
            object.__setattr__(self, "coords", coords)
            object.__setattr__(self, "index", None)
        elif isinstance(space, MatrixGroup):
            entries = matrices.from_rows(data)
            if len(entries) != space.size:
                raise ValueError(f"expected a {space.size}x{space.size} matrix")
            self._check_domains([x for row in entries for x in row])
            if not matrices.q_is_invertible(matrices.scalar_part(entries)):
                raise MembershipError("matrix point has singular scalar part")
            object.__setattr__(self, "coords", entries)
            object.__setattr__(self, "index", None)
        elif isinstance(space, FiniteBase):
            idx = data
            if isinstance(idx, WeilElement):
                if not idx.is_scalar or idx.scalar_part.denominator != 1:
                    raise MembershipError(
                        f"points of a discrete base are constant; got {idx}"
                    )
                idx = int(idx.scalar_part)
            if not isinstance(idx, int) or not 0 <= idx < space.size:
                raise MembershipError(f"index {idx} outside base of size {space.size}")
            object.__setattr__(self, "coords", ())
            object.__setattr__(self, "index", idx)
        else:
            raise TypeError(f"unknown space {space!r}")

    def _check_domains(self, elements) -> None:
        for w in elements:
            if not isinstance(w, WeilElement) or w.domain != self.domain:
                raise ValueError("all coordinates must be WeilElements over the point's domain")

    def __setattr__(self, name, value) -> None:
        raise AttributeError("WPoint is immutable")

    # -- flat coordinate access (uniform across space kinds) --------------------

    def flat(self) -> tuple[WeilElement, ...]:
        if isinstance(self.space, MatrixGroup):
            return tuple(x for row in self.coords for x in row)
        return self.coords

    def with_flat(self, flat: Sequence[WeilElement], domain: InfinitesimalDomain) -> "WPoint":
        if isinstance(self.space, FiniteBase):
            return WPoint(self.space, domain, self.index)
        return point_from_flat(self.space, domain, flat)

    def map_coords(self, fn, domain: InfinitesimalDomain) -> "WPoint":
        return self.with_flat(tuple(fn(w) for w in self.flat()), domain)

    def coefficient(self, monomial) -> tuple[Fraction, ...]:
        """The given monomial's coefficient in every ambient coordinate."""
        return tuple(w.coefficient(monomial) for w in self.flat())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WPoint)
            and self.space == other.space
            and self.domain == other.domain
            and self.coords == other.coords
            and self.index == other.index
        )

    def __repr__(self) -> str:
        if isinstance(self.space, FiniteBase):
            return f"WPoint({self.space}, {self.index})"
        body = ", ".join(str(c) for c in self.flat())
        return f"WPoint({self.space}, {self.domain!r}; {body})"


def point_from_flat(
    space: AffineSpace | MatrixGroup, domain: InfinitesimalDomain, flat: Sequence[WeilElement]
) -> WPoint:
    """The point with the given flat coordinates (row-major for a matrix group)."""
    if isinstance(space, MatrixGroup):
        k = space.size
        return WPoint(space, domain, tuple(tuple(flat[i * k + j] for j in range(k)) for i in range(k)))
    return WPoint(space, domain, tuple(flat))


class Tangent:
    """A point over the one-generator domain, with base/direction accessors."""

    __slots__ = ("point",)

    def __init__(self, point: WPoint) -> None:
        if point.domain != LINE:
            raise ValueError("a tangent is a point over the one-generator domain")
        object.__setattr__(self, "point", point)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("Tangent is immutable")

    @property
    def space(self) -> Space:
        return self.point.space

    @property
    def base(self) -> tuple[Fraction, ...]:
        return tuple(w.scalar_part for w in self.point.flat())

    @property
    def direction(self) -> tuple[Fraction, ...]:
        return tuple(w.coefficient({1}) for w in self.point.flat())

    @property
    def is_zero(self) -> bool:
        return all(not v for v in self.direction)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tangent) and self.point == other.point

    def __repr__(self) -> str:
        return f"Tangent(base={self.base}, direction={self.direction})"


def tangent_from_parts(
    space: Space,
    base: Sequence[Rational],
    direction: Sequence[Rational],
    index: int | None = None,
) -> Tangent:
    if isinstance(space, FiniteBase):
        if any(direction):
            raise MembershipError("a discrete base admits only zero tangents")
        return Tangent(WPoint(space, LINE, index))
    flat = tuple(
        WeilElement(LINE, {frozenset(): Fraction(b), frozenset({1}): Fraction(v)})
        for b, v in zip(base, direction)
    )
    try:
        return Tangent(point_from_flat(space, LINE, flat))
    except MembershipError as exc:
        raise InternalInvariantError(f"tangent escapes the space: {exc}") from exc


# -- restriction -----------------------------------------------------------------


def restrict_point(p: WPoint, sub: InfinitesimalDomain) -> WPoint:
    return p.map_coords(lambda w: w.restrict(sub), sub)


def extend_point(p: WPoint, sup: InfinitesimalDomain) -> WPoint:
    return p.map_coords(lambda w: w.extend(sup), sup)


# -- strong difference of microsquares ---------------------------------------------


D2 = InfinitesimalDomain.power(2)
D3 = InfinitesimalDomain.power(3)
_D2_AXES = InfinitesimalDomain.first_order(2)
TOP_SQUARE: Monomial = frozenset({1, 2})


def strong_difference(plus: WPoint, minus: WPoint) -> Tangent:
    """Tangent measuring the top-coefficient discrepancy of two microsquares.

    Defined exactly when both points agree after killing ``d1*d2``.
    """
    if plus.space != minus.space:
        raise CompatibilityError("points live in different spaces")
    if plus.domain != D2 or minus.domain != D2:
        raise ValueError("strong difference expects microsquares over D^2")
    if restrict_point(plus, _D2_AXES) != restrict_point(minus, _D2_AXES):
        raise CompatibilityError("not D(2)-compatible")
    base = tuple(w.scalar_part for w in plus.flat())
    direction = tuple(
        p.coefficient(TOP_SQUARE) - m.coefficient(TOP_SQUARE)
        for p, m in zip(plus.flat(), minus.flat())
    )
    return tangent_from_parts(plus.space, base, direction, plus.index)


# -- permutation action and axis relabelings ---------------------------------------


def sigma_perm(gamma: WPoint, eps: Sequence[int]) -> WPoint:
    """Permute the cube's arguments: result(d1..dn) = gamma(d_eps(1), ..., d_eps(n))."""
    p = check_permutation(eps, gamma.domain.generator_count)
    new_domain = gamma.domain.permuted(p)
    return gamma.map_coords(lambda w: w.permute_generators(p), new_domain)


_PSI_PERM = {1: (3, 1, 2), 2: (1, 3, 2), 3: (1, 2, 3)}


def psi(i: int, cube: WPoint) -> WPoint:
    """Relabel a microcube so axis i becomes the inner tangent direction.

    The inner direction is generator 3 of the result; the remaining two
    original axes keep their relative order as the outer square (1, 2).
    """
    if i not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    if cube.domain.generator_count != 3:
        raise ValueError("psi expects a three-generator domain")
    return sigma_perm(cube, _PSI_PERM[i])


def psi_inverse(i: int, cube: WPoint) -> WPoint:
    if i not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    p = _PSI_PERM[i]
    inverse = tuple(p.index(j) + 1 for j in (1, 2, 3))
    return sigma_perm(cube, inverse)


# -- relativized strong differences -------------------------------------------------


def _other_axes(i: int) -> tuple[int, int]:
    j, k = sorted({1, 2, 3} - {i})
    return j, k


def relative_strong_difference(i: int, plus: WPoint, minus: WPoint) -> WPoint:
    """Strong difference of microcubes along axis i; the result is a microsquare.

    Defined exactly when plus and minus agree after killing the product of
    the two non-i generators.  Coefficients of the result over fresh
    generators (s, t) = (1, 2):

    ==========  =================================
    monomial    value (per ambient coordinate)
    ==========  =================================
    1           scalar part of plus
    s           coeff_{jk}(plus) - coeff_{jk}(minus)
    t           coeff_i(plus)
    s*t         coeff_{ijk}(plus) - coeff_{ijk}(minus)
    ==========  =================================
    """
    if i not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    if plus.space != minus.space:
        raise CompatibilityError("points live in different spaces")
    if plus.domain != D3 or minus.domain != D3:
        raise ValueError("relative strong difference expects microcubes over D^3")
    j, k = _other_axes(i)
    agreement = InfinitesimalDomain(3, [(j, k)])
    if restrict_point(plus, agreement) != restrict_point(minus, agreement):
        raise CompatibilityError(f"not D(2)xD-compatible along axis {i}")
    side = frozenset({j, k})
    top = frozenset({i, j, k})
    axis = frozenset({i})
    flats = []
    for p, m in zip(plus.flat(), minus.flat()):
        flats.append(
            WeilElement(
                D2,
                {
                    frozenset(): p.scalar_part,
                    frozenset({1}): p.coefficient(side) - m.coefficient(side),
                    frozenset({2}): p.coefficient(axis),
                    frozenset({1, 2}): p.coefficient(top) - m.coefficient(top),
                },
            )
        )
    try:
        return plus.with_flat(tuple(flats), D2)
    except MembershipError as exc:
        raise InternalInvariantError(f"relativized difference escapes the space: {exc}") from exc


def relative_strong_difference_curried(i: int, plus: WPoint, minus: WPoint) -> WPoint:
    """The same operation computed from its definition, for cross-checking.

    Curry each cube along axis i into a microsquare valued in tangents
    (doubled ambient coordinates), take the microsquare strong difference
    there, and un-curry the resulting tangent-of-tangents back into a
    microsquare on the original space.
    """
    if plus.space != minus.space:
        raise CompatibilityError("points live in different spaces")
    if plus.domain != D3 or minus.domain != D3:
        raise ValueError("relative strong difference expects microcubes over D^3")
    relabeled_plus = psi(i, plus)
    relabeled_minus = psi(i, minus)
    m = len(plus.flat())
    doubled = AffineSpace(2 * m)

    def curry(cube: WPoint) -> WPoint:
        # coordinates of the tangent-space point: (value part, inner-direction part)
        value = []
        inner = []
        for w in cube.flat():
            val = {mm: c for mm, c in w.coeffs.items() if 3 not in mm}
            der = {mm - {3}: c for mm, c in w.coeffs.items() if 3 in mm}
            value.append(WeilElement(D2, val))
            inner.append(WeilElement(D2, der))
        return WPoint(doubled, D2, tuple(value) + tuple(inner))

    t = strong_difference(curry(relabeled_plus), curry(relabeled_minus))
    base, direction = t.base, t.direction
    flats = []
    for idx in range(m):
        flats.append(
            WeilElement(
                D2,
                {
                    frozenset(): base[idx],
                    frozenset({1}): direction[idx],
                    frozenset({2}): base[m + idx],
                    frozenset({1, 2}): direction[m + idx],
                },
            )
        )
    return plus.with_flat(tuple(flats), D2)


def tangent_combine(a: Tangent, b: Tangent, ca: Rational = 1, cb: Rational = 1) -> Tangent:
    """Linear combination in a common tangent space (same space, same base)."""
    if a.space != b.space or a.point.index != b.point.index:
        raise ValueError("tangents live in different spaces")
    if a.base != b.base:
        raise ValueError("tangents have different base points")
    direction = tuple(
        Fraction(ca) * x + Fraction(cb) * y for x, y in zip(a.direction, b.direction)
    )
    return tangent_from_parts(a.space, a.base, direction, a.point.index)
