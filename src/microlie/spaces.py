"""Representable spaces, their Weil points, and the strong-difference calculus.

Two spaces are supported: affine space (:class:`AffineSpace`) and the
invertible matrices (:class:`MatrixGroup`).  A point of a space over an
InfinitesimalDomain is a flat tuple of Weil elements, one per coordinate;
a matrix point lists its entries row-major.  Each space class gives its
number of coordinates (``flat_dim``) and its membership test (``check``),
so no code here asks which kind of space it holds.  Over the
one-generator domain a point is a tangent vector; over ``D^2`` a
microsquare; over ``D^3`` a microcube.  :meth:`WPoint.coefficient` reads
one monomial's coefficient across all coordinates and
:meth:`WPoint.from_coefficients` builds a point from such vectors.
:func:`restrict_point` drops the coefficients that vanish in a coarser
domain, and :func:`tangent_combine` adds two tangents at one base point.

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
from typing import Mapping, Sequence

from . import matrices
from .weil import (
    AXES2,
    D2,
    D3,
    LINE,
    SCALAR,
    InfinitesimalDomain,
    Monomial,
    Rational,
    WeilElement,
    check_permutation,
    monomial_images,
)


class MembershipError(ValueError):
    """Coordinates fail the space's membership predicate."""


class CompatibilityError(ValueError):
    """A strong difference was requested for points that do not agree where required."""


class InternalInvariantError(RuntimeError):
    """A construction produced a value its own postcondition rules out."""


@dataclass(frozen=True)
class AffineSpace:
    """Affine space of dimension ``dim``: every coordinate tuple is a point."""

    dim: int

    @property
    def flat_dim(self) -> int:
        return self.dim

    def check(self, coords: Sequence[WeilElement]) -> None:
        """Accept every tuple of ``dim`` coordinates."""


@dataclass(frozen=True)
class MatrixGroup:
    """Invertible ``size x size`` matrices, with the entries as row-major coordinates."""

    size: int

    @property
    def flat_dim(self) -> int:
        return self.size * self.size

    def check(self, coords: Sequence[WeilElement]) -> None:
        """Reject a matrix whose scalar part is singular."""
        k = self.size
        scalar = tuple(tuple(coords[i * k + j].scalar_part for j in range(k)) for i in range(k))
        if not matrices.q_is_invertible(scalar):
            raise MembershipError("matrix point has singular scalar part")


Space = AffineSpace | MatrixGroup


class WPoint:
    """A point of a space: one Weil element per flat coordinate of the space."""

    __slots__ = ("space", "domain", "coords")

    def __init__(self, space: Space, domain: InfinitesimalDomain, coords: Sequence[WeilElement]) -> None:
        coords = tuple(coords)
        if len(coords) != space.flat_dim:
            raise ValueError(f"expected {space.flat_dim} coordinates, got {len(coords)}")
        for w in coords:
            if not isinstance(w, WeilElement) or w.domain is not domain:
                raise ValueError("all coordinates must be WeilElements over the point's domain")
        space.check(coords)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_coefficients(
        cls,
        space: Space,
        domain: InfinitesimalDomain,
        columns: Mapping[Monomial, Sequence[Rational]],
    ) -> "WPoint":
        """The point whose coordinate ``i`` has coefficient ``columns[m][i]`` at each monomial ``m``.

        The write-side twin of :meth:`coefficient`; absent monomials are zero.
        """
        n = space.flat_dim
        if any(len(vector) != n for vector in columns.values()):
            raise ValueError(f"every coefficient vector must have {n} entries")
        return cls(
            space,
            domain,
            tuple(WeilElement(domain, {m: vector[i] for m, vector in columns.items()}) for i in range(n)),
        )

    def __setattr__(self, name, value) -> None:
        raise AttributeError("WPoint is immutable")

    def map_coords(self, fn, domain: InfinitesimalDomain) -> "WPoint":
        return WPoint(self.space, domain, tuple(fn(w) for w in self.coords))

    def coefficient(self, monomial) -> tuple[Fraction, ...]:
        """The given monomial's coefficient in every coordinate."""
        return tuple(w.coefficient(monomial) for w in self.coords)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WPoint)
            and self.space == other.space
            and self.domain is other.domain
            and self.coords == other.coords
        )

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.coords)
        return f"WPoint({self.space}, {self.domain!r}; {body})"


class Tangent:
    """A point over the one-generator domain, with base/direction accessors."""

    __slots__ = ("point",)

    def __init__(self, point: WPoint) -> None:
        if point.domain is not LINE:
            raise ValueError("a tangent is a point over the one-generator domain")
        object.__setattr__(self, "point", point)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("Tangent is immutable")

    @property
    def space(self) -> Space:
        return self.point.space

    @property
    def base(self) -> tuple[Fraction, ...]:
        return self.point.coefficient(SCALAR)

    @property
    def direction(self) -> tuple[Fraction, ...]:
        return self.point.coefficient({1})

    @property
    def is_zero(self) -> bool:
        return all(not v for v in self.direction)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tangent) and self.point == other.point

    def __repr__(self) -> str:
        return f"Tangent(base={self.base}, direction={self.direction})"


def tangent_from_parts(space: Space, base: Sequence[Rational], direction: Sequence[Rational]) -> Tangent:
    try:
        return Tangent(WPoint.from_coefficients(space, LINE, {SCALAR: base, frozenset({1}): direction}))
    except MembershipError as exc:
        raise InternalInvariantError(f"tangent escapes the space: {exc}") from exc


# -- restriction -----------------------------------------------------------------


def restrict_point(p: WPoint, sub: InfinitesimalDomain) -> WPoint:
    return p.map_coords(lambda w: w.restrict(sub), sub)


# -- strong difference of microsquares ---------------------------------------------


TOP_SQUARE: Monomial = frozenset({1, 2})


def _difference(plus: WPoint, minus: WPoint, monomial: Monomial) -> tuple[Fraction, ...]:
    return tuple(p - m for p, m in zip(plus.coefficient(monomial), minus.coefficient(monomial)))


def strong_difference(plus: WPoint, minus: WPoint) -> Tangent:
    """Tangent measuring the top-coefficient discrepancy of two microsquares.

    Defined exactly when both points agree after killing ``d1*d2``.
    """
    if plus.space != minus.space:
        raise CompatibilityError("points live in different spaces")
    if plus.domain is not D2 or minus.domain is not D2:
        raise ValueError("strong difference expects microsquares over D^2")
    if restrict_point(plus, AXES2) != restrict_point(minus, AXES2):
        raise CompatibilityError("not D(2)-compatible")
    return tangent_from_parts(
        plus.space, plus.coefficient(SCALAR), _difference(plus, minus, TOP_SQUARE)
    )


# -- permutation action and axis relabelings ---------------------------------------


def sigma_perm(gamma: WPoint, eps: Sequence[int]) -> WPoint:
    """Permute the cube's arguments: result(d1..dn) = gamma(d_eps(1), ..., d_eps(n))."""
    p = check_permutation(eps, gamma.domain.generator_count)
    new_domain = gamma.domain.permuted(p)
    table = monomial_images(gamma.domain, new_domain, [WeilElement.generator(new_domain, i) for i in p])
    return gamma.map_coords(lambda w: w.image(table), new_domain)


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
    if plus.domain is not D3 or minus.domain is not D3:
        raise ValueError("relative strong difference expects microcubes over D^3")
    j, k = _other_axes(i)
    agreement = InfinitesimalDomain(3, [(j, k)])
    if restrict_point(plus, agreement) != restrict_point(minus, agreement):
        raise CompatibilityError(f"not D(2)xD-compatible along axis {i}")
    columns = {
        SCALAR: plus.coefficient(SCALAR),
        frozenset({1}): _difference(plus, minus, frozenset({j, k})),
        frozenset({2}): plus.coefficient({i}),
        TOP_SQUARE: _difference(plus, minus, frozenset({i, j, k})),
    }
    try:
        return WPoint.from_coefficients(plus.space, D2, columns)
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
    if plus.domain is not D3 or minus.domain is not D3:
        raise ValueError("relative strong difference expects microcubes over D^3")
    relabeled_plus = psi(i, plus)
    relabeled_minus = psi(i, minus)
    m = plus.space.flat_dim
    doubled = AffineSpace(2 * m)

    def curry(cube: WPoint) -> WPoint:
        # coordinates of the tangent-space point: (value part, inner-direction part)
        parts = [w.split_last(D2) for w in cube.coords]
        return WPoint(doubled, D2, tuple(v for v, _ in parts) + tuple(d for _, d in parts))

    t = strong_difference(curry(relabeled_plus), curry(relabeled_minus))
    base, direction = t.base, t.direction
    columns = {
        SCALAR: base[:m],
        frozenset({1}): direction[:m],
        frozenset({2}): base[m:],
        TOP_SQUARE: direction[m:],
    }
    return WPoint.from_coefficients(plus.space, D2, columns)


def tangent_combine(a: Tangent, b: Tangent) -> Tangent:
    """Sum in a common tangent space (same space, same base)."""
    if a.space != b.space:
        raise ValueError("tangents live in different spaces")
    if a.base != b.base:
        raise ValueError("tangents have different base points")
    direction = tuple(x + y for x, y in zip(a.direction, b.direction))
    return tangent_from_parts(a.space, a.base, direction)
