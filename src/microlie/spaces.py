"""Representable spaces, their Weil points, and the strong-difference calculus.

Two spaces are supported: affine space (:class:`AffineSpace`) and the
invertible matrices (:class:`MatrixGroup`), whose flat coordinates are the
entries row-major.  Each space class gives its number of coordinates
(``flat_dim``) and its membership test on the scalar part's integer
numerators (``check``; a membership that a positive common factor cannot
change), so no code here asks which kind of space it holds.

By the Kock-Lawvere axiom a point of a space over an InfinitesimalDomain
is its family of coefficient vectors, one per surviving monomial, and a
:class:`WPoint` stores just that as a :class:`~microlie.weil.Jet` of
integer numerators over one denominator.  Over the one-generator domain a
point is a tangent vector; over ``D^2`` a microsquare; over ``D^3`` a
microcube.  A point built from given coordinates is checked in full.
:func:`restrict_point` (the jet's ``restrict``) and :func:`sigma_perm` (its
``relabel``) keep the scalar part of a checked point, so they check nothing
again.  Only the edges build a ``Fraction`` or a Weil element:
:meth:`WPoint.coefficient`, :attr:`Tangent.base`, :attr:`Tangent.direction`
and both ``repr`` s.

The strong differences, :func:`sigma_perm`, :func:`psi` and
:func:`tangent_combine` act on a value through its jet, so they take
sections as well as points: the bisections of a microlinear groupoid form a
microlinear space (Kock and Lavendhomme, *Strong infinitesimal linearity*,
Cahiers 25, 1984).  For a section the space is its groupoid, and the
groupoid's ``section_data``, which the section constructor runs, is the
membership test.  They sum the operands' parts, brought over the lcm of
their denominators, through the one dispatch on the part type that
:meth:`~microlie.weil.Jet.image` uses, so a point's result keeps its
checked scalar part and a section's is checked again.  A strong difference
of points is a :class:`Tangent`; of sections, the section over the
one-generator domain.  :func:`relative_strong_difference_curried` takes
points only.

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
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

from . import matrices
from .weil import AXES2, D0, D2, D3, LINE, SCALAR, Immutable, InfinitesimalDomain, Jet, Rational
from .weil import _element, _frac, _sum_parts


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

    def check(self, scalar: Sequence[int]) -> None:
        """Accept every point."""


@dataclass(frozen=True)
class MatrixGroup:
    """Invertible ``size x size`` matrices, with the entries as row-major coordinates."""

    size: int

    @property
    def flat_dim(self) -> int:
        return self.size * self.size

    def check(self, scalar: Sequence[int]) -> None:
        """Reject a matrix whose scalar part, given as row-major numerators over one denominator, is singular."""
        k = self.size
        if not matrices._determinant([scalar[i * k : i * k + k] for i in range(k)]):
            raise MembershipError("matrix point has singular scalar part")


Space = AffineSpace | MatrixGroup


class WPoint(Immutable):
    """A point of a space over a Weil domain, stored as its jet.

    ``parts`` is the :class:`~microlie.weil.Jet` of the point: each mask's
    vector of ``flat_dim`` integer numerators over the jet's denominator,
    with mask 0, the scalar part, always present and every other all-zero
    vector left out, so equal points have equal parts.  The constructor
    takes rational vectors keyed by monomial and :meth:`from_masks` keyed by
    mask; absent monomials are zero.  Both check every coordinate and the
    scalar part's membership.
    """

    __slots__ = ("space", "parts")

    def __new__(
        cls, space: Space, domain: InfinitesimalDomain, columns: Mapping[Iterable[int], Sequence[Rational]]
    ) -> "WPoint":
        parts = {domain.mask_of(m): vector for m, vector in columns.items()}
        if len(parts) != len(columns):
            raise ValueError("a monomial is given twice")
        return cls.from_masks(space, domain, parts)

    @classmethod
    def from_masks(cls, space: Space, domain: InfinitesimalDomain, parts: Mapping[int, Sequence[Rational]]) -> "WPoint":
        """The point with coordinate vector ``parts[b]`` on the monomial of each surviving mask ``b``."""
        n = space.flat_dim
        table = {0: (0,) * n, **{b: tuple(vector) for b, vector in parts.items()}}
        for vector in table.values():
            if len(vector) != n:
                raise ValueError(f"expected {n} coordinates, got {len(vector)}")
        jet = Jet.of_rationals(domain, table)
        space.check(jet[0])
        return _point(space, jet)

    @property
    def domain(self) -> InfinitesimalDomain:
        return self.parts.domain

    def coefficient(self, monomial: Iterable[int]) -> tuple[Fraction, ...]:
        """The given monomial's coefficient in every coordinate, as ``Fraction`` s."""
        jet = self.parts
        return tuple(_frac(n, jet.den) for n in jet.coefficient(monomial, (0,) * self.space.flat_dim))

    def _mapped(self, domain: InfinitesimalDomain, change: Callable[..., Jet], *others: "WPoint") -> "WPoint":
        """The point of this space whose jet is ``change`` of this point's and ``others``' jets, over ``domain``."""
        if not all(isinstance(o, WPoint) and o.space == self.space for o in others):
            raise CompatibilityError("points live in different spaces")
        return _point(self.space, change(self.parts, *(o.parts for o in others)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WPoint) and self.space == other.space and self.parts == other.parts

    def __hash__(self) -> int:
        return hash((self.space, self.parts))

    def __repr__(self) -> str:
        jet = self.parts
        coords = (
            _element(Jet(jet.domain, {b: (v[i],) for b, v in jet.items()}, jet.den)) for i in range(self.space.flat_dim)
        )
        return f"WPoint({self.space}, {self.domain!r}; {', '.join(map(str, coords))})"


def _point(space: Space, jet: Jet) -> WPoint:
    """The point with the given jet of ``flat_dim`` numerators per mask, whose scalar part lies in the space."""
    point = object.__new__(WPoint)
    object.__setattr__(point, "space", space)
    object.__setattr__(point, "parts", jet)
    return point


class Tangent(Immutable):
    """A point over the one-generator domain, with base/direction accessors."""

    __slots__ = ("point",)

    def __init__(self, point: WPoint) -> None:
        if point.domain is not LINE:
            raise ValueError("a tangent is a point over the one-generator domain")
        object.__setattr__(self, "point", point)

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
        return 1 not in self.point.parts

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tangent) and self.point == other.point

    def __hash__(self) -> int:
        return hash(self.point)

    def __repr__(self) -> str:
        return f"Tangent(base={self.base}, direction={self.direction})"


# -- restriction -----------------------------------------------------------------


def restrict_point(p: WPoint, sub: InfinitesimalDomain) -> WPoint:
    """Push a point into a coarser domain: the vectors of newly vanishing monomials drop."""
    return _point(p.space, p.parts.restrict(sub))


# -- the jet core: points and sections alike ---------------------------------------
#
# A point and a section both offer ``_mapped(domain, change, *others)``: the
# value of its own kind whose jet is ``change`` of the operands' jets.  A
# point checks that the others lie in its space; a section, that they are
# sections of its groupoid, and its constructor checks the result.


def _combination(domain: InfinitesimalDomain, rows: Mapping[int, Sequence[tuple[int, Jet, int]]]) -> Jet:
    """The jet over ``domain`` whose part M sums ``c * jet[b]`` over the ``(c, jet, b)`` of ``rows[M]``.

    The parts are brought over the lcm of the jets' denominators, and an
    absent part is zero; ``rows[0]`` starts with a scalar part.
    """
    q = lcm(*(jet.den for ts in rows.values() for _, jet, _ in ts))
    terms = {M: [(c * (q // jet.den), jet[b]) for c, jet, b in ts if b in jet] for M, ts in rows.items()}
    return _sum_parts(domain, terms, q)


def _tangent(value):
    """A point over the one-generator domain as a :class:`Tangent`; a section is its own tangent."""
    return Tangent(value) if isinstance(value, WPoint) else value


# -- strong difference of microsquares ---------------------------------------------


def strong_difference(plus, minus):
    """Tangent measuring the top-coefficient discrepancy of two microsquares.

    The operands are points of one space, which give a :class:`Tangent`,
    or sections of one groupoid, which give a section over the
    one-generator domain.  Defined exactly when both agree after killing
    ``d1*d2``.
    """
    if plus.domain is not D2 or minus.domain is not D2:
        raise ValueError("strong difference expects microsquares over D^2")

    def difference(p: Jet, m: Jet) -> Jet:
        if p.restrict(AXES2) != m.restrict(AXES2):
            raise CompatibilityError("not D(2)-compatible")
        return _combination(LINE, {0: [(1, p, 0)], 1: [(1, p, 3), (-1, m, 3)]})  # mask 3 is d1*d2

    return _tangent(plus._mapped(LINE, difference, minus))


# -- permutation action and axis relabelings ---------------------------------------


def sigma_perm(gamma, eps: Sequence[int]):
    """Permute the cube's arguments: result(d1..dn) = gamma(d_eps(1), ..., d_eps(n)), for a point or a section."""
    # the part on monomial S moves to eps(S)
    return gamma._mapped(gamma.domain.permuted(eps), lambda jet: jet.relabel(eps))


_PSI_PERM = {1: (3, 1, 2), 2: (1, 3, 2), 3: (1, 2, 3)}


def psi(i: int, cube):
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


def relative_strong_difference(i: int, plus, minus):
    """Strong difference of microcubes along axis i; the result is a microsquare of the operands' kind.

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
    if plus.domain is not D3 or minus.domain is not D3:
        raise ValueError("relative strong difference expects microcubes over D^3")
    j, k = sorted({1, 2, 3} - {i})
    agreement = InfinitesimalDomain(3, [(j, k)])
    side = 1 << j - 1 | 1 << k - 1  # d_j*d_k; mask 7 is d1*d2*d3

    def difference(p: Jet, m: Jet) -> Jet:
        if p.restrict(agreement) != m.restrict(agreement):
            raise CompatibilityError(f"not D(2)xD-compatible along axis {i}")
        rows = {0: [(1, p, 0)], 2: [(1, p, 1 << i - 1)]}
        rows.update({M: [(1, p, b), (-1, m, b)] for M, b in ((1, side), (3, 7))})
        return _combination(D2, rows)

    return plus._mapped(D2, difference, minus)


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

    zero = (0,) * m

    def curry(cube: WPoint) -> WPoint:
        # split on generator 3: the value part (no d3) then the inner-direction part (the d3 factor)
        parts = cube.parts
        return _point(doubled, Jet(D2, {b: parts.get(b, zero) + parts.get(b | 4, zero) for b in D2.masks}, parts.den))

    t = strong_difference(curry(relabeled_plus), curry(relabeled_minus)).point.parts
    base, direction = t[0], t.get(1, zero + zero)
    return _point(plus.space, Jet(D2, {0: base[:m], 1: direction[:m], 2: base[m:], 3: direction[m:]}, t.den))


def tangent_combine(a, b):
    """Sum in a common tangent space (same space, same base): of two tangents, or of two sections over D."""
    a, b = (t.point if isinstance(t, Tangent) else t for t in (a, b))
    if a.domain is not LINE or b.domain is not LINE:
        raise ValueError("tangents live over the one-generator domain")

    def total(p: Jet, m: Jet) -> Jet:
        if Jet(D0, {0: p[0]}, p.den) != Jet(D0, {0: m[0]}, m.den):
            raise ValueError("tangents have different base points")
        return _combination(LINE, {0: [(1, p, 0)], 1: [(1, p, 1), (1, m, 1)]})

    return _tangent(a._mapped(LINE, total, b))
