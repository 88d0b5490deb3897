"""Concrete groupoids, Weil-parametrized sections and bisections.

Two instances are built: the pair groupoid of an affine space (arrows are
ordered pairs of base points, sections are polynomial self-maps recorded
through their target map), and the gauge groupoid of a trivial bundle over
a finite base (arrows are ``(target, matrix, source)`` triples, sections
are per-point tables).

A section sigma assigns to each base point an arrow sourced there, so it
is determined by its target map ``beta . sigma`` together with (for the
gauge case) the fiber matrices.  The product is
``(sigma * rho)(x) = sigma(beta(rho(x))) . rho(x)``; on the stored data
this is exact polynomial/table composition.  A bisection additionally has
an invertible target map; invertibility is witnessed by the scalar part
(an invertible affine map, or a base permutation) and inverses are
computed exactly through nilpotent Newton iteration.

Each groupoid class owns its data layout; ``WSection``, ``AGSection``,
``SectionChart``, ``star``, ``section_at`` and the harness only call its
methods, and never ask which groupoid they hold.  A new groupoid provides:

* ``spec(degree)``, ``bounds_error(degree)`` and ``sample_spaces()`` for
  the harness configuration;
* ``fiber_product``, ``beta`` and ``arrow_at`` for arrows;
* ``section_data`` (validate and normalise), ``check_bisection``,
  ``identity_data``, ``star_data``, ``inverse_data``, ``flow_data``,
  ``read_coefficient`` and ``section_repr`` for section data;
* ``slots`` and ``from_slots``, the one coefficient view of section data:
  ``slots(data)`` returns ``(shape, {slot: WeilElement})`` and
  ``from_slots`` rebuilds the data.  Mapping coefficients
  (:func:`map_data`), testing them and charting sections go through these
  two alone;
* ``ag_data``, ``ag_zero``, ``ag_add``, ``ag_scale``, ``ag_repr`` and
  ``oracle_bracket`` for Lie algebroid data;
* ``random_ag``, ``random_section``, ``random_bisection`` and
  ``base_points`` for seeded trial data, with coefficients in
  ``[-COEFF_BOUND, COEFF_BOUND]``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import matrices
from .matrices import Matrix
from .oracles import PolyVectorField, classical_vf_bracket, matrix_table_bracket
from .poly import RATIONALS, Poly, compose_map, identity_map
from .spaces import AffineSpace, MatrixGroup, WPoint
from .weil import (
    DomainMismatchError,
    InfinitesimalDomain,
    Rational,
    WeilElement,
    check_permutation,
)


class GroupoidMismatchError(ValueError):
    """Operands belong to different groupoids."""


class InvertibilityError(ValueError):
    """The invertibility witness of a would-be bisection fails."""


class NotDPointError(ValueError):
    """A flow was requested at an element that is not square-zero."""


# -- trial sampling -----------------------------------------------------------------
#
# Each helper draws from ``rng`` in a fixed order; the harness's reports
# depend on that order, so changing it changes every report.

COEFF_BOUND = 3  # random integer coefficients lie in [-COEFF_BOUND, COEFF_BOUND]


def _rand_int(rng: random.Random) -> int:
    return rng.randint(-COEFF_BOUND, COEFF_BOUND)


def _exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for _ in range(nvars):
        out = [e + (k,) for e in out for k in range(degree + 1)]
    return sorted(e for e in out if sum(e) <= degree)


def _rand_element(
    rng: random.Random, domain: InfinitesimalDomain, nilpotent_only: bool = False
) -> WeilElement:
    coeffs = {}
    for m in domain.monomials():
        if nilpotent_only and not m:
            continue
        if rng.random() < 0.6:
            coeffs[m] = _rand_int(rng)
    return WeilElement(domain, coeffs)


def _rand_poly(
    rng: random.Random, nvars: int, degree: int, domain: InfinitesimalDomain, density: float, draw
) -> Poly:
    """Each monomial of degree <= ``degree`` gets a coefficient ``draw()`` with probability ``density``."""
    return Poly(nvars, domain, {e: draw() for e in _exponents(nvars, degree) if rng.random() < density})


def _rand_matrix(rng: random.Random, k: int) -> Matrix:
    return tuple(tuple(Fraction(_rand_int(rng)) for _ in range(k)) for _ in range(k))


def _rand_invertible(rng: random.Random, k: int) -> Matrix:
    while True:
        m = _rand_matrix(rng, k)
        if matrices.q_is_invertible(m):
            return m


def _rand_fiber(rng: random.Random, k: int, domain: InfinitesimalDomain, scalar_exact: bool) -> Matrix:
    """An invertible scalar matrix plus, unless ``scalar_exact``, a nilpotent one."""
    t = matrices.lift(_rand_invertible(rng, k), domain)
    if scalar_exact:
        return t
    nil = tuple(tuple(_rand_element(rng, domain, nilpotent_only=True) for _ in range(k)) for _ in range(k))
    return matrices.add(t, nil)


MAX_FIELD_DEGREE = 3  # largest degree of a pair-groupoid vector field, in verify and bracket


# -- the two groupoids ------------------------------------------------------------


@dataclass(frozen=True)
class PairGroupoid:
    """Arrows are pairs (target point, source point) of an affine base.

    Section data is the tuple of polynomial components of the target map;
    Lie algebroid data is a polynomial vector field with rational
    coefficients; a base point is a tuple of coordinates.
    """

    dim: int

    def spec(self, degree: int) -> str:
        return f"pair:dim={self.dim}:deg={degree}"

    def bounds_error(self, degree: int) -> str | None:
        if not 1 <= self.dim <= 3:
            return "pair groupoid dimension must be between 1 and 3"
        if not 0 <= degree <= MAX_FIELD_DEGREE:
            return f"field degree must be between 0 and {MAX_FIELD_DEGREE}"
        return None

    def sample_spaces(self) -> tuple[AffineSpace, MatrixGroup]:
        return (AffineSpace(self.dim), MatrixGroup(2))

    # -- arrows --------------------------------------------------------------------

    def fiber_product(self, h2, h1) -> None:
        return None

    def beta(self, arrow: "Arrow") -> tuple:
        return arrow.target

    def arrow_at(self, data, domain: InfinitesimalDomain, x) -> "Arrow":
        point = tuple(v if isinstance(v, WeilElement) else WeilElement.scalar(domain, v) for v in x)
        at_point = tuple(Poly.constant(0, v) for v in point)
        return Arrow(self, tuple(c.compose(at_point).coefficient(()) for c in data), point)

    # -- section data -----------------------------------------------------------------

    def section_data(self, domain: InfinitesimalDomain, data) -> tuple[Poly, ...]:
        comps = tuple(data)
        if len(comps) != self.dim:
            raise ValueError(f"expected {self.dim} map components")
        for c in comps:
            if not isinstance(c, Poly) or c.nvars != self.dim or c.domain != domain:
                raise ValueError("components must be polynomials over the section's domain")
        return comps

    def check_bisection(self, data) -> None:
        _affine_witness(data)

    def identity_data(self, domain: InfinitesimalDomain) -> tuple[Poly, ...]:
        return identity_map(self.dim, domain)

    def star_data(self, sigma, rho) -> tuple[Poly, ...]:
        return compose_map(sigma, rho)

    def inverse_data(self, data, domain: InfinitesimalDomain) -> tuple[Poly, ...]:
        return formal_inverse(data)

    def flow_data(self, fields, e: WeilElement) -> tuple[Poly, ...]:
        return tuple(
            Poly.variable(self.dim, e.domain, i) + field.with_domain(e.domain) * e
            for i, field in enumerate(fields)
        )

    def read_coefficient(self, data, monomial) -> tuple[Poly, ...]:
        return map_data(self, data, lambda w: w.coefficient(monomial), RATIONALS)

    def section_repr(self, data) -> str:
        return f"x -> ({'; '.join(str(c) for c in data)})"

    # -- coefficient view: one slot per (component, exponent tuple) term; no shape --------

    def slots(self, data) -> tuple[None, dict]:
        return None, {(i, e): w for i, comp in enumerate(data) for e, w in comp.terms.items()}

    def from_slots(self, shape: None, coeffs, domain: InfinitesimalDomain) -> tuple[Poly, ...]:
        terms = [{} for _ in range(self.dim)]
        for (i, e), w in coeffs.items():
            terms[i][e] = w
        return tuple(Poly(self.dim, domain, t) for t in terms)

    # -- Lie algebroid data -------------------------------------------------------------

    def ag_data(self, data) -> tuple[Poly, ...]:
        comps = tuple(data)
        if len(comps) != self.dim:
            raise ValueError(f"expected {self.dim} field components")
        for c in comps:
            if not isinstance(c, Poly) or c.nvars != self.dim:
                raise ValueError("field components must be polynomials in the base variables")
            if c.domain.generator_count != 0:
                raise ValueError("field coefficients must be plain rationals")
        return comps

    def ag_zero(self) -> tuple[Poly, ...]:
        return tuple(Poly.zero(self.dim, RATIONALS) for _ in range(self.dim))

    def ag_add(self, a, b) -> tuple[Poly, ...]:
        return tuple(x + y for x, y in zip(a, b))

    def ag_scale(self, a, c: Fraction) -> tuple[Poly, ...]:
        return tuple(comp * c for comp in a)

    def ag_repr(self, data) -> str:
        return "; ".join(str(c) for c in data)

    def oracle_bracket(self, x, y) -> tuple[Poly, ...]:
        return classical_vf_bracket(PolyVectorField(x), PolyVectorField(y)).components

    # -- random trial data -------------------------------------------------------------------

    def random_ag(self, rng: random.Random, degree: int) -> "AGSection":
        draw = lambda: _rand_int(rng)
        fields = [_rand_poly(rng, self.dim, degree, RATIONALS, 0.6, draw) for _ in range(self.dim)]
        return AGSection(self, fields)

    def random_section(self, rng: random.Random, domain, degree: int) -> "WSection":
        """An arbitrary section (not necessarily a bisection)."""
        draw = lambda: _rand_element(rng, domain)
        comps = [_rand_poly(rng, self.dim, degree, domain, 0.5, draw) for _ in range(self.dim)]
        return WSection(self, domain, comps)

    def random_bisection(
        self, rng: random.Random, domain, degree: int, scalar_exact: bool = False
    ) -> "WBisection":
        n = self.dim
        nilpotent = lambda: _rand_element(rng, domain, nilpotent_only=True)
        a = _rand_invertible(rng, n)
        b = [_rand_int(rng) for _ in range(n)]
        comps = []
        for i in range(n):
            terms = {(0,) * n: b[i]}
            terms.update((tuple(1 if t == j else 0 for t in range(n)), a[i][j]) for j in range(n))
            poly = Poly(n, domain, terms)
            if not scalar_exact:
                poly = poly + _rand_poly(rng, n, degree, domain, 0.4, nilpotent)
            comps.append(poly)
        return WBisection(self, domain, comps)

    def base_points(self, rng: random.Random, domain) -> list[tuple]:
        """The points a pointwise law checks: three random ones."""
        draw = lambda: WeilElement.scalar(domain, _rand_int(rng))
        return [tuple(draw() for _ in range(self.dim)) for _ in range(3)]


@dataclass(frozen=True)
class TrivialGaugeGroupoid:
    """Arrows are triples (target index, fiber matrix, source index).

    Section data is ``(base_map, tables)``: a tuple of target indices and
    one fiber matrix per source point.  Lie algebroid data is a table of
    rational matrices, one per base point; a base point is an index.
    """

    base_size: int
    matrix_size: int

    def spec(self, degree: int) -> str:
        return f"gauge:base={self.base_size}:k={self.matrix_size}"

    def bounds_error(self, degree: int) -> str | None:
        if not 1 <= self.base_size <= 4:
            return "gauge base size must be between 1 and 4"
        if not 1 <= self.matrix_size <= 3:
            return "gauge matrix size must be between 1 and 3"
        return None

    def sample_spaces(self) -> tuple[AffineSpace, MatrixGroup]:
        return (AffineSpace(3), MatrixGroup(self.matrix_size))

    # -- arrows --------------------------------------------------------------------

    def fiber_product(self, h2: Matrix, h1: Matrix) -> Matrix:
        return matrices.mul(h2, h1)

    def beta(self, arrow: "Arrow") -> int:
        return arrow.target[0]

    def arrow_at(self, data, domain: InfinitesimalDomain, x: int) -> "Arrow":
        base_map, tables = data
        return Arrow(self, (base_map[x],), (x,), tables[x])

    # -- section data -----------------------------------------------------------------

    def section_data(self, domain: InfinitesimalDomain, data) -> tuple:
        base_map, tables = data
        base_map = tuple(base_map)
        tables = tuple(matrices.from_rows(t) for t in tables)
        m, k = self.base_size, self.matrix_size
        if len(base_map) != m or len(tables) != m:
            raise ValueError(f"expected tables over {m} base points")
        if any(not 0 <= i < m for i in base_map):
            raise ValueError("base map leaves the base")
        for t in tables:
            if len(t) != k or any(w.domain != domain for row in t for w in row):
                raise ValueError("fiber tables must be k x k over the section's domain")
            if not matrices.q_is_invertible(matrices.scalar_part(t)):
                raise InvertibilityError("fiber matrix has singular scalar part")
        return base_map, tables

    def check_bisection(self, data) -> None:
        if sorted(data[0]) != list(range(self.base_size)):
            raise InvertibilityError(f"base map {data[0]} is not a permutation")

    def identity_data(self, domain: InfinitesimalDomain) -> tuple:
        ident = matrices.identity(self.matrix_size, domain)
        return tuple(range(self.base_size)), (ident,) * self.base_size

    def star_data(self, sigma, rho) -> tuple:
        (f_s, h_s), (f_r, h_r) = sigma, rho
        return tuple(f_s[y] for y in f_r), tuple(matrices.mul(h_s[y], h) for y, h in zip(f_r, h_r))

    def inverse_data(self, data, domain: InfinitesimalDomain) -> tuple:
        base_map, tables = data
        inverse_map = tuple(base_map.index(x) for x in range(len(base_map)))
        return inverse_map, tuple(matrices.w_inverse(tables[y], domain) for y in inverse_map)

    def flow_data(self, fields, e: WeilElement) -> tuple:
        ident = matrices.identity(self.matrix_size, e.domain)
        tables = tuple(matrices.add(ident, matrices.scale(e, t)) for t in fields)
        return tuple(range(self.base_size)), tables

    def read_coefficient(self, data, monomial) -> tuple[Matrix, ...]:
        return map_data(self, data, lambda w: w.coefficient(monomial), RATIONALS)[1]

    def section_repr(self, data) -> str:
        return f"base {data[0]}"

    # -- coefficient view: one slot per (base point, row, column); the shape is the base map

    def slots(self, data) -> tuple[tuple[int, ...], dict]:
        base_map, tables = data
        return base_map, {
            (x, i, j): w for x, t in enumerate(tables) for i, row in enumerate(t) for j, w in enumerate(row)
        }

    def from_slots(self, shape: tuple[int, ...], coeffs, domain: InfinitesimalDomain) -> tuple:
        m, k = self.base_size, self.matrix_size
        return shape, tuple(
            tuple(tuple(coeffs[x, i, j] for j in range(k)) for i in range(k)) for x in range(m)
        )

    # -- Lie algebroid data -------------------------------------------------------------

    def ag_data(self, data) -> tuple[Matrix, ...]:
        tables = tuple(matrices.rational_rows(t) for t in data)
        if len(tables) != self.base_size:
            raise ValueError(f"expected {self.base_size} tables")
        if any(len(t) != self.matrix_size for t in tables):
            raise ValueError("tables must be k x k")
        return tables

    def ag_zero(self) -> tuple[Matrix, ...]:
        k = self.matrix_size
        zero = tuple(tuple(Fraction(0) for _ in range(k)) for _ in range(k))
        return (zero,) * self.base_size

    def ag_add(self, a, b) -> tuple[Matrix, ...]:
        return tuple(matrices.add(x, y) for x, y in zip(a, b))

    def ag_scale(self, a, c: Fraction) -> tuple[Matrix, ...]:
        return tuple(matrices.scale(c, t) for t in a)

    def ag_repr(self, data) -> str:
        return str(data)

    def oracle_bracket(self, x, y) -> tuple[Matrix, ...]:
        return matrix_table_bracket(x, y)

    # -- random trial data -------------------------------------------------------------------

    def random_ag(self, rng: random.Random, degree: int) -> "AGSection":
        return AGSection(self, [_rand_matrix(rng, self.matrix_size) for _ in range(self.base_size)])

    def random_section(self, rng: random.Random, domain, degree: int) -> "WSection":
        """An arbitrary section (not necessarily a bisection)."""
        m, k = self.base_size, self.matrix_size
        base_map = tuple(rng.randrange(m) for _ in range(m))
        tables = [_rand_fiber(rng, k, domain, False) for _ in range(m)]
        return WSection(self, domain, (base_map, tables))

    def random_bisection(
        self, rng: random.Random, domain, degree: int, scalar_exact: bool = False
    ) -> "WBisection":
        perm = list(range(self.base_size))
        rng.shuffle(perm)
        tables = [_rand_fiber(rng, self.matrix_size, domain, scalar_exact) for _ in perm]
        return WBisection(self, domain, (perm, tables))

    def base_points(self, rng: random.Random, domain) -> range:
        """The points a pointwise law checks: all of them, drawing nothing from ``rng``."""
        return range(self.base_size)


GroupoidInstance = PairGroupoid | TrivialGaugeGroupoid


# -- arrows ---------------------------------------------------------------------


@dataclass(frozen=True)
class Arrow:
    groupoid: GroupoidInstance
    target: tuple
    source: tuple
    fiber: Matrix | None = None


def compose_arrows(g2: Arrow, g1: Arrow) -> Arrow:
    if g2.groupoid != g1.groupoid:
        raise GroupoidMismatchError("arrows from different groupoids")
    if g2.source != g1.target:
        raise ValueError(f"arrows do not match: {g2.source} vs {g1.target}")
    return Arrow(g2.groupoid, g2.target, g1.source, g2.groupoid.fiber_product(g2.fiber, g1.fiber))


# -- sections ---------------------------------------------------------------------


def map_data(groupoid: GroupoidInstance, data, fn, domain: InfinitesimalDomain):
    """Section data with ``fn`` applied to every coefficient, over ``domain``."""
    shape, coeffs = groupoid.slots(data)
    return groupoid.from_slots(shape, {slot: fn(w) for slot, w in coeffs.items()}, domain)


class WSection:
    """A Weil-parametrized section of the source projection.

    ``data`` is laid out by the groupoid class (see its docstring).
    """

    __slots__ = ("groupoid", "domain", "data")

    def __init__(self, groupoid: GroupoidInstance, domain: InfinitesimalDomain, data) -> None:
        object.__setattr__(self, "groupoid", groupoid)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "data", groupoid.section_data(domain, data))

    def __setattr__(self, name, value) -> None:
        raise AttributeError("WSection is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, groupoid: GroupoidInstance, domain: InfinitesimalDomain) -> "WBisection":
        return WBisection(groupoid, domain, groupoid.identity_data(domain))

    # -- accessors ----------------------------------------------------------------

    def arrow_at(self, x) -> Arrow:
        """Evaluate the section at a base point."""
        return self.groupoid.arrow_at(self.data, self.domain, x)

    # -- coefficientwise transforms --------------------------------------------------

    def map_coefficients(self, fn, domain: InfinitesimalDomain) -> "WSection":
        return type(self)(self.groupoid, domain, map_data(self.groupoid, self.data, fn, domain))

    def substitute(self, target: InfinitesimalDomain, images: Sequence[WeilElement]) -> "WSection":
        """Substitute Weil generators in every coefficient (reparametrize the family)."""
        return self.map_coefficients(lambda w: w.substitute(target, images), target)

    def permute_generators(self, perm: Sequence[int]) -> "WSection":
        p = check_permutation(perm, self.domain.generator_count)
        new_domain = self.domain.permuted(p)
        return self.map_coefficients(lambda w: w.permute_generators(p), new_domain)

    @property
    def is_scalar_exact(self) -> bool:
        return all(w.is_scalar for w in self.groupoid.slots(self.data)[1].values())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WSection)
            and self.groupoid == other.groupoid
            and self.domain == other.domain
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"WSection({self.groupoid}, {self.domain!r}; {self.groupoid.section_repr(self.data)})"


class WBisection(WSection):
    """A section whose target map is invertible (witnessed by its scalar part)."""

    __slots__ = ()

    def __init__(self, groupoid, domain, data) -> None:
        super().__init__(groupoid, domain, data)
        groupoid.check_bisection(self.data)


def _affine_witness(components: Sequence[Poly]) -> tuple[Matrix, tuple[Fraction, ...]]:
    """Check the scalar part is an invertible affine map; return (matrix, shift)."""
    n = len(components)
    rows = []
    shift = []
    for comp in components:
        scalar = comp.scalar_poly()
        if scalar.degree > 1:
            raise InvertibilityError(
                f"scalar part {scalar} is not affine; no invertibility witness"
            )
        row = []
        for j in range(n):
            alpha = tuple(1 if t == j else 0 for t in range(n))
            row.append(scalar.coefficient(alpha).scalar_part)
        rows.append(tuple(row))
        shift.append(scalar.coefficient((0,) * n).scalar_part)
    matrix = tuple(rows)
    if not matrices.q_is_invertible(matrix):
        raise InvertibilityError("scalar part has a singular linear term")
    return matrix, tuple(shift)


# -- the section product -------------------------------------------------------------


def star(sigma: WSection, rho: WSection) -> WSection:
    """(sigma * rho)(x) = sigma(beta(rho(x))) . rho(x), computed on the data."""
    if sigma.groupoid != rho.groupoid:
        raise GroupoidMismatchError("sections of different groupoids")
    if sigma.domain != rho.domain:
        raise DomainMismatchError("sections over different Weil domains")
    cls = WBisection if isinstance(sigma, WBisection) and isinstance(rho, WBisection) else WSection
    return cls(sigma.groupoid, sigma.domain, sigma.groupoid.star_data(sigma.data, rho.data))


def star_word(*sections: WSection) -> WSection:
    """Product of several sections, leftmost outermost."""
    acc = sections[-1]
    for s in reversed(sections[:-1]):
        acc = star(s, acc)
    return acc


# -- formal inversion -------------------------------------------------------------------


def formal_inverse(components: Sequence[Poly]) -> tuple[Poly, ...]:
    """Two-sided compositional inverse of a polynomial self-map.

    Requires the scalar part to be an invertible affine map.  Newton
    iteration preconditioned by the scalar linear part,
    ``g <- g - A^-1 (f . g - id)``, gains one nilpotency degree per step
    and therefore terminates exactly.  (The unpreconditioned step only
    converges when the scalar part is the identity.)
    """
    f = tuple(components)
    n = len(f)
    domain = f[0].domain
    matrix, shift = _affine_witness(f)
    inv = matrices.q_inverse(matrix)
    ident = identity_map(n, domain)
    # seed: the exact inverse A^-1 (x - b) of the scalar affine part
    g = []
    for i in range(n):
        acc = Poly.scalar(n, domain, sum((-inv[i][j]) * shift[j] for j in range(n)))
        for j in range(n):
            acc = acc + Poly.variable(n, domain, j) * inv[i][j]
        g.append(acc)
    g = tuple(g)
    for _ in range(domain.nilpotency_order + 1):
        err = tuple(e - x for e, x in zip(compose_map(f, g), ident))
        if not any(err):
            back = tuple(e - x for e, x in zip(compose_map(g, f), ident))
            if any(back):
                raise InvertibilityError("one-sided inverse only; map is not a bisection datum")
            return g
        g = tuple(
            gi - sum((err[j] * inv[i][j] for j in range(n)), Poly.zero(n, domain))
            for i, gi in enumerate(g)
        )
    raise AssertionError("nilpotent Newton iteration failed to terminate")


def invert_bisection(sigma: WSection) -> WBisection:
    """The group inverse: x -> sigma(inverse-target(x)) inverted arrowwise."""
    if not isinstance(sigma, WBisection):
        sigma = WBisection(sigma.groupoid, sigma.domain, sigma.data)  # witness check
    return WBisection(sigma.groupoid, sigma.domain, sigma.groupoid.inverse_data(sigma.data, sigma.domain))


# -- sections of the Lie algebroid ------------------------------------------------------


class AGSection:
    """Exact data for a tangent vector to the bisection group at the identity.

    ``data`` is laid out by the groupoid class (see its docstring).
    Evaluating the flow at 0 always yields the identity section.
    """

    __slots__ = ("groupoid", "data")

    def __init__(self, groupoid: GroupoidInstance, data) -> None:
        object.__setattr__(self, "groupoid", groupoid)
        object.__setattr__(self, "data", groupoid.ag_data(data))

    def __setattr__(self, name, value) -> None:
        raise AttributeError("AGSection is immutable")

    @classmethod
    def zero(cls, groupoid: GroupoidInstance) -> "AGSection":
        return cls(groupoid, groupoid.ag_zero())

    def __add__(self, other: "AGSection") -> "AGSection":
        if not isinstance(other, AGSection):
            return NotImplemented
        if self.groupoid != other.groupoid:
            raise GroupoidMismatchError("sections of different groupoids")
        return AGSection(self.groupoid, self.groupoid.ag_add(self.data, other.data))

    def __neg__(self) -> "AGSection":
        return self.scaled(-1)

    def __sub__(self, other: "AGSection") -> "AGSection":
        return self + (-other)

    def scaled(self, a: Rational) -> "AGSection":
        return AGSection(self.groupoid, self.groupoid.ag_scale(self.data, Fraction(a)))

    def __rmul__(self, a: Rational) -> "AGSection":
        return self.scaled(a)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AGSection)
            and self.groupoid == other.groupoid
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"AGSection({self.groupoid}; {self.groupoid.ag_repr(self.data)})"


def section_at(x_section: AGSection, e: WeilElement) -> WBisection:
    """The flow of a Lie algebroid section at a square-zero element.

    ``e`` must have zero scalar part and ``e*e = 0``; the same recipe then
    yields flows at generators, sums, negatives, and products such as
    ``d1*d2``.
    """
    if e.scalar_part:
        raise NotDPointError(f"not a D-point: scalar part {e.scalar_part} is nonzero")
    if e * e:
        raise NotDPointError(f"not a D-point: square is {e * e}, not 0")
    groupoid = x_section.groupoid
    return WBisection(groupoid, e.domain, groupoid.flow_data(x_section.data, e))


def ag_from_flow(section: WSection) -> AGSection:
    """Read a first-order flow (a section over the one-generator domain) back.

    The scalar part must be the identity section; the generator
    coefficient is the section data.
    """
    domain = section.domain
    if domain.generator_count != 1:
        raise ValueError("expected a section over the one-generator domain")
    groupoid = section.groupoid
    scalar = map_data(groupoid, section.data, lambda w: WeilElement.scalar(domain, w.scalar_part), domain)
    if scalar != groupoid.identity_data(domain):
        raise ValueError("flow's scalar part is not the identity section")
    return AGSection(groupoid, groupoid.read_coefficient(section.data, {1}))


# -- flattening sections into ambient points ----------------------------------------------


@dataclass(frozen=True)
class SectionChart:
    """A common coordinate system for a family of sections.

    One coordinate per slot (see ``slots``) of any charted section or of
    the identity section, in sorted order.  The charted sections must share
    a shape (the gauge base map), which is stored so points can be turned
    back into sections.
    """

    groupoid: GroupoidInstance
    slots: tuple
    shape: tuple | None = None

    @classmethod
    def for_sections(cls, *sections: WSection) -> "SectionChart":
        if not sections:
            raise ValueError("chart needs at least one section")
        groupoid = sections[0].groupoid
        if any(s.groupoid != groupoid for s in sections):
            raise GroupoidMismatchError("sections of different groupoids")
        views = [groupoid.slots(s.data) for s in sections]
        shape = views[0][0]
        if any(v[0] != shape for v in views):
            raise ValueError("charted sections must share a shape")
        slots = {slot for _, coeffs in views for slot in coeffs}
        # always include the identity section's slots so it is chartable
        slots.update(groupoid.slots(groupoid.identity_data(sections[0].domain))[1])
        return cls(groupoid, tuple(sorted(slots)), shape)

    @property
    def space(self) -> AffineSpace:
        return AffineSpace(len(self.slots))

    def to_point(self, section: WSection) -> WPoint:
        if section.groupoid != self.groupoid:
            raise GroupoidMismatchError("section not over the chart's groupoid")
        shape, coeffs = self.groupoid.slots(section.data)
        if shape != self.shape:
            raise ValueError("section has a different shape than the chart")
        missing = coeffs.keys() - set(self.slots)
        if missing:
            raise ValueError(f"section uses slots outside the chart: {sorted(missing)}")
        zero = WeilElement.zero(section.domain)
        return WPoint(self.space, section.domain, tuple(coeffs.get(slot, zero) for slot in self.slots))

    def to_section(self, point: WPoint) -> WSection:
        if point.space != self.space:
            raise ValueError("point does not live in the chart's space")
        data = self.groupoid.from_slots(self.shape, dict(zip(self.slots, point.coords)), point.domain)
        return WSection(self.groupoid, point.domain, data)
