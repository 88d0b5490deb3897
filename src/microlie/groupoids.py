"""Concrete groupoids, Weil-parametrized sections and bisections.

Two instances are built: the pair groupoid of an affine space (arrows are
ordered pairs of points, sections are polynomial self-maps recorded
through their target map), and the gauge groupoid of a trivial bundle over
a finite base (arrows are ``(target, matrix, source)`` triples, sections
are per-point tables).

A section sigma assigns to each base point an arrow sourced there, so it
is determined by its target map ``beta . sigma`` together with (for the
gauge case) the fiber matrices.  The product is
``(sigma * rho)(x) = sigma(beta(rho(x))) . rho(x)``; on the stored data
this is exact map/table composition.  A bisection additionally has an
invertible target map; invertibility is witnessed by the scalar part (an
invertible affine map, or a base permutation) and inverses are computed
exactly, by nilpotent Newton iteration (pair) or a finite nilpotent series
(gauge).

Every constructed section is checked, derived ones included: ``WSection``
runs the groupoid's ``section_data`` and ``WBisection`` also its
``check_bisection``, whether the data comes from a caller or from ``star``,
``invert_bisection``, ``substitute``, ``restrict``, ``permute_generators``,
``section_at`` or a strong difference.  A memo hit (see :func:`_memoised`)
returns a section built, and so checked, earlier in the same trial.  The
checks read integer numerators and build no ``Fraction``; the jet
constructor has already checked the masks, the scalar part and the
denominator.  Pair
``section_data`` checks the component shapes; pair ``check_bisection``
rejects a scalar part with a term of degree above 1 and takes the Bareiss
determinant of the linear part's numerator rows (clearing each row's
denominator scales the determinant by a nonzero factor).  Gauge
``section_data`` checks the base map, the length of every part, that every
entry is an ``int`` and that every scalar table is nonsingular: a table
equal to ``den * I`` is (its determinant is ``den^k``), and any other takes
a Bareiss determinant.  Gauge ``check_bisection`` checks that the base map
is a permutation.

Both groupoids store a Weil-parametrised section through one
:class:`~microlie.weil.Jet`, keyed by mask.  A pair section is the jet of
its target map: one tuple of rational polynomials per surviving Weil
monomial.  By the Kock-Lawvere axiom a map of such a family is its finite
Taylor polynomial in the nilpotent generators, so composing jets is a
finite Taylor sum (:func:`_compose`), exact at the identity on both sides
as every flow and star word of flows is: an inner identity scalar part
needs no substitution, and an outer one adds the inner jet itself.
Evaluation at a Weil point is composition with the point's jet of
constants, and the arrow's ends are :class:`~microlie.spaces.WPoint` s.

A gauge section is ``(base_map, jet)``: by the same axiom a table of
matrices over a Weil domain is its family of coefficient tables, and the
jet's part on each mask is one flat tuple of integer numerators, the k x k
matrix of every base point in turn, over the jet's denominator.  The
product sums matrix products over the pairs of masks that the domain's
multiplication table lists, each output mask in one gathered
multiply-and-sum over all of its pairs (:func:`_product`); the inverse
inverts the scalar part once per table, as its integer adjugate over its
determinant, and sums the finite nilpotent series.  An arrow's fiber is the
jet of one base point's block; arrows over one Weil domain compose by the
same product.  Gauge Lie algebroid data, a table of rational matrices, is a
jet over the point ``D0`` with one part laid out like a section's, so
flows, coefficient reads and module operations are integer.

Each groupoid class owns its data layout; ``WSection``, ``AGSection``,
``star``, ``section_at``, the strong differences and the harness only call
its methods, and never ask which groupoid they hold.  A new groupoid
provides:

* ``spec(degree)``, ``bounds_error(degree)`` and ``sample_spaces()`` for
  the harness configuration.  A groupoid built with a size that is not an
  ``int`` raises ``TypeError``; the ranges that ``bounds_error`` reports
  are what ``verify`` and ``bracket`` accept, not what the groupoid needs;
* ``fiber_product`` and ``arrow_at`` for arrows;
* ``section_data`` (validate and normalise), ``check_bisection``,
  ``identity_data``, ``star_data``, ``inverse_data``, ``flow_data``,
  ``read_coefficient`` and ``section_repr`` for section data;
* ``map_jet(change, *data)``, which applies a map of jets to the jets of
  one or more data and keeps the rest, which they must share (the gauge
  base map): :meth:`WSection.substitute`, :meth:`WSection.restrict` and
  :meth:`WSection.permute_generators` pass one datum and
  :meth:`~microlie.weil.Jet.image`, :meth:`~microlie.weil.Jet.restrict` and
  :meth:`~microlie.weil.Jet.relabel`, the reparametrisations of a jet; the
  strong differences of :mod:`microlie.spaces` pass two, and a combination
  of their parts.  Sections are points of a microlinear space, so those
  act on a section's jet as on a point's;
* ``ag_data``, ``ag_zero``, ``ag_add``, ``ag_scale``, ``ag_repr`` and
  ``oracle_bracket`` for Lie algebroid data; ``oracle_bracket`` returns the
  classical oracle's own value, which ``ag_data`` accepts;
* ``random_ag``, ``random_section``, ``random_bisection(rng, domain,
  degree)`` (a constant one is drawn over ``D0``) and ``base_points`` for
  seeded trial data, with coefficients in ``[-COEFF_BOUND, COEFF_BOUND]``.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, wraps
from itertools import chain
from math import gcd, lcm
from operator import add, itemgetter, mul
from typing import Sequence

from .matrices import Matrix, _adjugate, _determinant
from .oracles import PolyVectorField, classical_vf_bracket, matrix_table_bracket
from .poly import (
    Poly,
    _linear_combination,
    _monomial_text,
    affine_row,
    compose_map,
    from_numerators,
    identity_map,
    sum_of_products,
)
from .spaces import AffineSpace, CompatibilityError, MatrixGroup, WPoint
from .weil import (
    D0,
    DomainMismatchError,
    Immutable,
    InfinitesimalDomain,
    Jet,
    Rational,
    WeilElement,
    _mask,
    _rational,
    _require_same,
    generators,
    monomial_images,
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
_COEFF_WIDTH = 2 * COEFF_BOUND + 1
_COEFF_BITS = _COEFF_WIDTH.bit_length()


def _rand_int(rng: random.Random) -> int:
    """``rng.randint(-COEFF_BOUND, COEFF_BOUND)``, drawn as CPython draws it, in one frame.

    ``randint`` is ``-COEFF_BOUND + _randbelow(width)``, which redraws
    ``getrandbits(width.bit_length())`` while the result is ``width`` or
    more; this loop consumes the same stream.
    """
    n = rng.getrandbits(_COEFF_BITS)
    while n >= _COEFF_WIDTH:
        n = rng.getrandbits(_COEFF_BITS)
    return n - COEFF_BOUND


def _exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for _ in range(nvars):
        out = [e + (k,) for e in out for k in range(degree + 1)]
    return sorted(e for e in out if sum(e) <= degree)


def _rand_element(rng: random.Random, domain: InfinitesimalDomain, nilpotent_only: bool = False) -> dict[int, int]:
    """Integer coefficients by mask: each monomial's, in ``monomials()`` order, is drawn with probability 0.6."""
    coeffs = {}
    for m in domain.monomials():
        if nilpotent_only and not m:
            continue
        if rng.random() < 0.6:
            coeffs[_mask(m)] = _rand_int(rng)
    return coeffs


def _rand_terms(rng: random.Random, nvars: int, degree: int, density: float, draw) -> dict:
    """Each monomial of degree <= ``degree`` gets a coefficient ``draw()`` with probability ``density``."""
    return {e: draw() for e in _exponents(nvars, degree) if rng.random() < density}


def _rand_map(
    rng: random.Random, domain, n: int, degree: int, density: float, nilpotent_only: bool, scalar=None
) -> Jet:
    """The jet of ``n`` random polynomial components: each term's Weil coefficient is drawn by ``_rand_element``.

    ``scalar`` gives the scalar part's terms, one ``{exponents: int}`` per
    component, when every drawn coefficient is nilpotent.
    """
    draw = lambda: _rand_element(rng, domain, nilpotent_only)
    parts = {0: scalar or [{} for _ in range(n)]}
    for i in range(n):
        for e, cs in _rand_terms(rng, n, degree, density, draw).items():
            for b, c in cs.items():
                parts.setdefault(b, [{} for _ in range(n)])[i][e] = c
    return Jet(domain, {b: tuple(from_numerators(n, terms, 1) for terms in comps) for b, comps in parts.items()})


def _rand_invertible(rng: random.Random, k: int) -> tuple[tuple[int, ...], ...]:
    while True:
        m = tuple(tuple(_rand_int(rng) for _ in range(k)) for _ in range(k))
        if _determinant(m):
            return m


def _rand_fiber(rng: random.Random, k: int, domain: InfinitesimalDomain) -> dict[int, list[int]]:
    """An invertible scalar matrix plus a nilpotent one, as flat integer parts by mask."""
    parts = {0: [n for row in _rand_invertible(rng, k) for n in row]}
    for e in range(k * k):
        for b, n in _rand_element(rng, domain, nilpotent_only=True).items():
            parts.setdefault(b, [0] * (k * k))[e] = n
    return parts


MAX_FIELD_DEGREE = 3  # largest degree of a pair-groupoid vector field, in verify and bracket


def _not_int(**values: object) -> str | None:
    """A message naming the first of ``values`` that is not an ``int`` (a ``bool`` is not one), or None."""
    for name, value in values.items():
        if type(value) is not int:
            return f"{name} must be an integer, got {value!r}"
    return None


def _format_terms(terms: Mapping[int, WeilElement], nvars: int) -> str:
    """A polynomial with Weil coefficients by packed key, written ``c*x0^2 + ...`` by degree, then exponents."""
    if not terms:
        return "0"
    parts = []
    for key in sorted(terms):
        c = terms[key]
        body = _monomial_text(key, nvars)
        cs = str(c)
        needs_parens = " " in cs or not c.is_scalar
        if not body:
            parts.append(f"({cs})" if needs_parens else cs)
        elif c == WeilElement.one(c.domain):
            parts.append(body)
        else:
            parts.append(f"({cs})*{body}" if needs_parens else f"{cs}*{body}")
    return " + ".join(parts)


# -- the two groupoids ------------------------------------------------------------


@dataclass(frozen=True)
class PairGroupoid:
    """Arrows are pairs (target point, source point) of an affine base.

    Section data is the :class:`Jet` of the target map: one tuple of
    rational polynomial components per Weil monomial.  Lie algebroid data
    is a polynomial vector field with rational coefficients; a base point,
    like either end of an arrow, is a :class:`~microlie.spaces.WPoint` of
    ``AffineSpace(dim)`` over the section's domain.
    """

    dim: int

    def __post_init__(self) -> None:
        if problem := _not_int(dim=self.dim):
            raise TypeError(problem)

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

    def arrow_at(self, data, domain: InfinitesimalDomain, x: WPoint) -> "Arrow":
        # a point is a jet of constant maps, so evaluating is composing with it
        if x.domain is not domain:
            raise DomainMismatchError(f"point over {x.domain!r}, section over {domain!r}")
        den = x.parts.den
        constants = {b: tuple(Poly.scalar(0, Fraction(n, den)) for n in v) for b, v in x.parts.items()}
        image = _compose(data, Jet(domain, constants))
        target = {b: [c.coefficient(()) for c in comps] for b, comps in image.items()}
        return Arrow(self, WPoint.from_masks(x.space, domain, target), x)

    # -- section data -----------------------------------------------------------------

    def section_data(self, domain: InfinitesimalDomain, data) -> "Jet":
        if not isinstance(data, Jet) or data.domain is not domain:
            raise ValueError("pair section data must be a jet over the section's domain")
        for comps in data.values():
            if len(comps) != self.dim or any(not isinstance(c, Poly) or c.nvars != self.dim for c in comps):
                raise ValueError(f"expected {self.dim} map components in {self.dim} variables")
        return data

    def check_bisection(self, data) -> None:
        if data[0] != identity_map(self.dim):  # the identity is its own witness
            _check_affine(data)

    def identity_data(self, domain: InfinitesimalDomain) -> "Jet":
        return Jet(domain, {0: identity_map(self.dim)})

    def star_data(self, sigma, rho) -> "Jet":
        return _compose(sigma, rho)

    def inverse_data(self, data, domain: InfinitesimalDomain) -> "Jet":
        return formal_inverse(data)

    def flow_data(self, fields, e: WeilElement) -> "Jet":
        # X_e = id + e X, for a square-zero e with no scalar part (section_at checks)
        parts = {b: tuple(field * c for field in fields) for b, c in e.mask_coeffs().items()}
        return Jet(e.domain, {**parts, 0: identity_map(self.dim)})

    def read_coefficient(self, data, monomial) -> tuple[Poly, ...]:
        return data.coefficient(monomial, self.ag_zero())

    def map_jet(self, change: Callable[..., Jet], *data) -> "Jet":
        return change(*data)

    def section_repr(self, data) -> str:
        comps: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(self.dim)]
        for b, part in data.items():
            for comp, p in zip(comps, part):
                for key, n in p._num.items():
                    comp.setdefault(key, {})[b] = Fraction(n, p._den)
        terms = ({key: WeilElement.from_masks(data.domain, cs) for key, cs in comp.items()} for comp in comps)
        return f"x -> ({'; '.join(_format_terms(t, self.dim) for t in terms)})"

    # -- Lie algebroid data -------------------------------------------------------------

    def ag_data(self, data) -> tuple[Poly, ...]:
        comps = tuple(data)
        if len(comps) != self.dim:
            raise ValueError(f"expected {self.dim} field components")
        for c in comps:
            if not isinstance(c, Poly) or c.nvars != self.dim:
                raise ValueError("field components must be polynomials in the base variables")
        return comps

    def ag_zero(self) -> tuple[Poly, ...]:
        return tuple(Poly.zero(self.dim) for _ in range(self.dim))

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
        fields = [Poly(self.dim, _rand_terms(rng, self.dim, degree, 0.6, draw)) for _ in range(self.dim)]
        return AGSection(self, fields)

    def random_section(self, rng: random.Random, domain, degree: int) -> "WSection":
        """An arbitrary section (not necessarily a bisection)."""
        return WSection(self, domain, _rand_map(rng, domain, self.dim, degree, 0.5, False))

    def random_bisection(self, rng: random.Random, domain, degree: int) -> "WBisection":
        n = self.dim
        a = _rand_invertible(rng, n)
        shifts = [_rand_int(rng) for _ in range(n)]
        units = [tuple(int(t == j) for t in range(n)) for j in range(n)]
        scalar = [{(0,) * n: c, **dict(zip(units, row))} for c, row in zip(shifts, a)]
        return WBisection(self, domain, _rand_map(rng, domain, n, degree, 0.4, True, scalar))

    def base_points(self, rng: random.Random, domain) -> list[WPoint]:
        """The points a pointwise law checks: three random ones."""
        space = AffineSpace(self.dim)
        return [WPoint.from_masks(space, domain, {0: [_rand_int(rng) for _ in range(self.dim)]}) for _ in range(3)]


@dataclass(frozen=True)
class TrivialGaugeGroupoid:
    """Arrows are triples (target index, fiber matrix, source index).

    Section data is ``(base_map, jet)``: a tuple of target indices and a
    :class:`~microlie.weil.Jet` whose part on each Weil mask is one flat
    tuple of ``m * k * k`` integer numerators over the jet's denominator:
    the row-major fiber matrix of every source point, base point by base
    point, so entry ``(x, i, j)`` is numerator ``(x * k + i) * k + j``.  An
    arrow's fiber is the jet of one such block, over the same denominator; a
    base point is an index.  Lie algebroid data, a table of rational k x k
    matrices, one per base point, is the jet over the point ``D0`` whose one
    part is laid out the same way; a caller may pass the rational tables
    instead.
    """

    base_size: int
    matrix_size: int

    def __post_init__(self) -> None:
        if problem := _not_int(base_size=self.base_size, matrix_size=self.matrix_size):
            raise TypeError(problem)

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

    def fiber_product(self, h2: Jet, h1: Jet) -> Jet:
        _require_same(h2.domain, h1.domain)
        return Jet(h1.domain, _product(h1.domain._products, h2, h1, self.matrix_size), h2.den * h1.den)

    def arrow_at(self, data, domain: InfinitesimalDomain, x: int) -> "Arrow":
        base_map, jet = data
        at = x * self.matrix_size**2
        fiber = Jet(domain, {b: p[at : at + self.matrix_size**2] for b, p in jet.items()}, jet.den)
        return Arrow(self, base_map[x], x, fiber)

    # -- section data -----------------------------------------------------------------

    def section_data(self, domain: InfinitesimalDomain, data) -> tuple:
        base_map, jet = data
        base_map = tuple(base_map)
        m, k = self.base_size, self.matrix_size
        if not all(issubclass(t, int) and t is not bool for t in set(map(type, base_map))):
            raise TypeError(f"base map entries must be int: {base_map!r}")
        if len(base_map) != m:
            raise ValueError(f"expected a base map over {m} base points")
        if min(base_map) < 0 or max(base_map) >= m:
            raise ValueError("base map leaves the base")
        if not isinstance(jet, Jet) or jet.domain is not domain:
            raise ValueError("gauge section data must be a matrix jet over the section's domain")
        kk = k * k
        for part in jet.values():
            if len(part) != m * kk:
                raise ValueError(f"fiber tables must be {k} x {k} over {m} base points")
            try:  # a one-component pair jet has the length of a gauge:base=1:k=1 part
                gcd(*part)  # a TypeError unless every entry is an int, and cheaper than a type test per entry
            except TypeError:
                raise TypeError("fiber tables must hold int numerators") from None
        # den * I has determinant den^k, so it needs no determinant
        scaled_identity = _identity(k) if jet.den == 1 else tuple(jet.den * n for n in _identity(k))
        scalar = jet[0]
        for at in range(0, m * kk, kk):
            t = scalar[at : at + kk]
            if t != scaled_identity and not _determinant(_matrices(t, k)[0]):
                raise InvertibilityError("fiber matrix has singular scalar part")
        return base_map, jet

    def check_bisection(self, data) -> None:
        if sorted(data[0]) != list(range(self.base_size)):
            raise InvertibilityError(f"base map {data[0]} is not a permutation")

    def identity_data(self, domain: InfinitesimalDomain) -> tuple:
        m = self.base_size
        return tuple(range(m)), Jet(domain, {0: _identity(self.matrix_size) * m})

    def star_data(self, sigma, rho) -> tuple:
        (f_s, s), (f_r, r) = sigma, rho
        k = self.matrix_size
        left = {b: _gather(part, f_r, k) for b, part in s.items()}  # sigma's fiber at beta(rho(x))
        parts = _product(r.domain._products, left, r, k)
        return tuple(f_s[y] for y in f_r), Jet(r.domain, parts, s.den * r.den)

    def inverse_data(self, data, domain: InfinitesimalDomain) -> tuple:
        """Invert each table by the finite series ``(sum_r C^r) A0^-1`` with ``C = -A0^-1 (A - A0)``."""
        base_map, jet = data
        m, k = self.base_size, self.matrix_size
        inverse_map = tuple(base_map.index(x) for x in range(m))
        parts = {b: _gather(part, inverse_map, k) for b, part in jet.items()}
        # A0^-1 = den Q / q, from each table t = den A0 as adj(t) / det(t) in lowest terms, and q common to all
        inverses = []
        for t in _matrices(parts.pop(0), k):
            adj, det = _adjugate(t)
            g = gcd(det, *chain.from_iterable(adj))
            inverses.append(([n // g for row in adj for n in row], det // g))
        q = lcm(*(det for _, det in inverses))
        Q = [n * (q // det) for adj, det in inverses for n in adj]
        # C over q: (den Q / q)(P_b / den) = Q P_b / q
        c = _product(domain._products, {0: [-n for n in Q]}, parts, k)
        series, power, den = {0: _identity(k) * m}, c, 1  # series holds sum_{r <= R} C^r over q^R
        while power:
            series = {b: [n * q for n in part] for b, part in series.items()}
            for b, part in power.items():
                _accumulate(series, b, part)
            den *= q
            power = {b: part for b, part in _product(domain._products, c, power, k).items() if any(part)}
        right = {0: [jet.den * n for n in Q]}
        return inverse_map, Jet(domain, _product(domain._products, series, right, k), den * q)

    def flow_data(self, fields: Jet, e: WeilElement) -> tuple:
        # X_e = I + e X, for a square-zero e with no scalar part (section_at checks)
        m, k = self.base_size, self.matrix_size
        q, jet = fields.den, e.jet
        parts = {b: [n * x for x in fields[0]] for b, (n,) in jet.items() if b}
        parts[0] = [jet.den * q * n for n in _identity(k)] * m
        return tuple(range(m)), Jet(e.domain, parts, jet.den * q)

    def read_coefficient(self, data, monomial) -> Jet:
        jet = data[1]
        part = jet.coefficient(monomial)
        return self.ag_zero() if part is None else Jet(D0, {0: part}, jet.den)

    def map_jet(self, change: Callable[..., Jet], *data) -> tuple:
        base_map = data[0][0]
        if any(d[0] != base_map for d in data):
            raise CompatibilityError("sections have different base maps")
        return base_map, change(*(d[1] for d in data))

    def section_repr(self, data) -> str:
        return f"base {data[0]}"

    # -- Lie algebroid data -------------------------------------------------------------

    def ag_data(self, data) -> Jet:
        """A table jet, checked, or the jet of a sequence of rational k x k tables."""
        m, k = self.base_size, self.matrix_size
        if not isinstance(data, Jet):
            tables = tuple(data)
            if len(tables) != m:
                raise ValueError(f"expected {m} tables")
            square = lambda rows: isinstance(rows, Sequence) and len(rows) == k
            if not all(square(t) and all(map(square, t)) for t in tables):
                raise ValueError("tables must be k x k")
            data = Jet.of_rationals(D0, {0: [c for t in tables for row in t for c in row]})
        if data.domain is not D0:  # whose only mask is 0, so the jet has one part
            raise ValueError("a table jet must be over the domain with no generators")
        if len(data[0]) != m * k * k:
            raise ValueError(f"a table jet must hold {m} tables of {k} x {k} numerators")
        try:
            gcd(*data[0])
        except TypeError:
            raise TypeError("a table jet must hold int numerators") from None
        return data

    def ag_zero(self) -> Jet:
        return Jet(D0, {0: (0,) * (self.base_size * self.matrix_size**2)})

    def ag_add(self, a: Jet, b: Jet) -> Jet:
        q = lcm(a.den, b.den)
        return Jet(D0, {0: [q // a.den * x + q // b.den * y for x, y in zip(a[0], b[0])]}, q)

    def ag_scale(self, a: Jet, c: Fraction) -> Jet:
        return Jet(D0, {0: [c.numerator * n for n in a[0]]}, a.den * c.denominator)

    def ag_repr(self, data: Jet) -> str:
        return str(self._tables(data))

    def oracle_bracket(self, x: Jet, y: Jet) -> tuple[Matrix, ...]:
        return matrix_table_bracket(self._tables(x), self._tables(y))

    def _tables(self, jet: Jet) -> tuple[Matrix, ...]:  # the rational k x k matrices, one per base point
        den, k = jet.den, self.matrix_size
        return tuple(tuple(tuple(Fraction(n, den) for n in row) for row in t) for t in _matrices(jet[0], k))

    # -- random trial data -------------------------------------------------------------------

    def random_ag(self, rng: random.Random, degree: int) -> "AGSection":
        n = self.base_size * self.matrix_size**2  # one k x k matrix per base point, drawn row by row
        return AGSection(self, Jet(D0, {0: [_rand_int(rng) for _ in range(n)]}))

    def random_section(self, rng: random.Random, domain, degree: int) -> "WSection":
        """An arbitrary section (not necessarily a bisection)."""
        m = self.base_size
        base_map = tuple(rng.randrange(m) for _ in range(m))
        return WSection(self, domain, (base_map, self._rand_tables(rng, domain)))

    def random_bisection(self, rng: random.Random, domain, degree: int) -> "WBisection":
        perm = list(range(self.base_size))
        rng.shuffle(perm)
        return WBisection(self, domain, (perm, self._rand_tables(rng, domain)))

    def _rand_tables(self, rng: random.Random, domain) -> Jet:
        m, kk = self.base_size, self.matrix_size**2
        parts: dict[int, list[int]] = {}
        for at in range(0, m * kk, kk):
            for b, t in _rand_fiber(rng, self.matrix_size, domain).items():
                parts.setdefault(b, [0] * (m * kk))[at : at + kk] = t
        return Jet(domain, parts)

    def base_points(self, rng: random.Random, domain) -> range:
        """The points a pointwise law checks: all of them, drawing nothing from ``rng``."""
        return range(self.base_size)


GroupoidInstance = PairGroupoid | TrivialGaugeGroupoid


# -- arrows ---------------------------------------------------------------------


@dataclass(frozen=True)
class Arrow:
    groupoid: GroupoidInstance
    target: WPoint | int
    source: WPoint | int
    fiber: Jet | None = None


def compose_arrows(g2: Arrow, g1: Arrow) -> Arrow:
    if g2.groupoid != g1.groupoid:
        raise GroupoidMismatchError("arrows from different groupoids")
    if g2.source != g1.target:
        raise ValueError(f"arrows do not match: {g2.source} vs {g1.target}")
    return Arrow(g2.groupoid, g2.target, g1.source, g2.groupoid.fiber_product(g2.fiber, g1.fiber))


# -- sections ---------------------------------------------------------------------


class WSection(Immutable):
    """A Weil-parametrized section of the source projection.

    ``data`` is laid out by the groupoid class (see its docstring).
    """

    __slots__ = ("groupoid", "domain", "data")

    def __init__(self, groupoid: GroupoidInstance, domain: InfinitesimalDomain, data) -> None:
        object.__setattr__(self, "groupoid", groupoid)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "data", groupoid.section_data(domain, data))

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, groupoid: GroupoidInstance, domain: InfinitesimalDomain) -> "WBisection":
        return WBisection(groupoid, domain, groupoid.identity_data(domain))

    # -- accessors ----------------------------------------------------------------

    def arrow_at(self, x) -> Arrow:
        """Evaluate the section at a base point."""
        return self.groupoid.arrow_at(self.data, self.domain, x)

    # -- reparametrisation -----------------------------------------------------------

    def substitute(self, target: InfinitesimalDomain, images: Sequence[WeilElement]) -> "WSection":
        """Reparametrise the family by the Weil homomorphism sending generator i to images[i-1]."""
        table = monomial_images(self.domain, target, images)
        return self._mapped(target, lambda jet: jet.image(table))

    def restrict(self, sub: InfinitesimalDomain) -> "WSection":
        """The family over a coarser domain: the parts of newly vanishing monomials drop."""
        return self._mapped(sub, lambda jet: jet.restrict(sub))

    def permute_generators(self, perm: Sequence[int]) -> "WSection":
        """Relabel generator i as perm[i-1]; the domain's relations follow."""
        return self._mapped(self.domain.permuted(perm), lambda jet: jet.relabel(perm))

    def _mapped(self, domain: InfinitesimalDomain, change: Callable[..., Jet], *others: "WSection") -> "WSection":
        """The section whose jet is ``change`` of this section's and ``others``' jets, over ``domain``, checked."""
        if not all(isinstance(o, WSection) and o.groupoid == self.groupoid for o in others):
            raise GroupoidMismatchError("sections of different groupoids")
        data = self.groupoid.map_jet(change, self.data, *(o.data for o in others))
        return type(self)(self.groupoid, domain, data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WSection)
            and self.groupoid == other.groupoid
            and self.domain is other.domain
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.groupoid, self.domain, self.data))

    def __repr__(self) -> str:
        return f"WSection({self.groupoid}, {self.domain!r}; {self.groupoid.section_repr(self.data)})"


class WBisection(WSection):
    """A section whose target map is invertible (witnessed by its scalar part)."""

    __slots__ = ()

    def __init__(self, groupoid, domain, data) -> None:
        super().__init__(groupoid, domain, data)
        groupoid.check_bisection(self.data)


def _check_affine(jet: "Jet") -> list[tuple[tuple[int, ...], int, int]]:
    """Check the scalar part is an invertible affine map, on its integer numerators.

    Row i of the linear part is component i's numerators over its
    denominator; clearing each row's denominator scales the determinant by a
    nonzero factor, so the integer determinant decides invertibility.
    Returns each component's :func:`~microlie.poly.affine_row`.
    """
    rows = []
    for comp in jet[0]:
        row = affine_row(comp)
        if row is None:
            raise InvertibilityError(f"scalar part {comp} is not affine; no invertibility witness")
        rows.append(row)
    if not _determinant([num for num, _, _ in rows]):
        raise InvertibilityError("scalar part has a singular linear term")
    return rows


# -- the section product -------------------------------------------------------------


_MEMO: dict | None = None  # the open _memoised() block's values by call, of functions pure on normal forms


@contextmanager
def _memoised():
    """In the block, equal calls of a ``_memo`` function share one value; a call that raises keeps none."""
    global _MEMO
    outer, _MEMO = _MEMO, {}
    try:
        yield
    finally:
        _MEMO = outer


def _memo(fn):
    @wraps(fn)
    def cached(*args):
        if _MEMO is None:
            return fn(*args)
        key = (fn, *((type(a), a) for a in args))  # a WSection equals a WBisection of equal data
        if (value := _MEMO.get(key)) is None:
            value = _MEMO[key] = fn(*args)
        return value

    return cached


@_memo
def star(sigma: WSection, rho: WSection) -> WSection:
    """(sigma * rho)(x) = sigma(beta(rho(x))) . rho(x), computed on the data."""
    if sigma.groupoid != rho.groupoid:
        raise GroupoidMismatchError("sections of different groupoids")
    if sigma.domain is not rho.domain:
        raise DomainMismatchError("sections over different Weil domains")
    cls = WBisection if isinstance(sigma, WBisection) and isinstance(rho, WBisection) else WSection
    return cls(sigma.groupoid, sigma.domain, sigma.groupoid.star_data(sigma.data, rho.data))


def star_word(*sections: WSection) -> WSection:
    """Product of several sections, leftmost outermost."""
    acc = sections[-1]
    for s in reversed(sections[:-1]):
        acc = star(s, acc)
    return acc


# -- jet arithmetic: flat tables of integer matrices, then polynomial maps ------------------------


@cache
def _identity(k: int) -> tuple[int, ...]:
    return tuple(int(i == j) for i in range(k) for j in range(k))


def _matrices(part: Sequence[int], k: int) -> list[list[Sequence[int]]]:
    """The k x k matrices of a flat table, one list of rows per base point."""
    return [[part[i : i + k] for i in range(at, at + k * k, k)] for at in range(0, len(part), k * k)]


def _gather(part: Sequence[int], points: Sequence[int], k: int) -> list[int]:
    """The k x k blocks of a flat table at the given base points, in their order."""
    kk = k * k
    return [n for y in points for n in part[y * kk : y * kk + kk]]


@cache
def _plan(k: int, n: int) -> tuple[Callable, Callable]:
    """The gathers of a pointwise product of flat tables of ``n`` entries, row-major k x k matrices in turn.

    Both lay out ``k * n`` factors by inner index ``l``, then by output entry
    ``e = (x, i, j)``: ``rows(a)[l * n + e]`` is ``a[x, i, l]`` and
    ``cols(c)[l * n + e]`` is ``c[x, l, j]``.
    """
    kk = k * k
    rows = [e - e % k + l for l in range(k) for e in range(n)]
    cols = [e - e % kk + l * k + e % k for l in range(k) for e in range(n)]
    # itemgetter of one index returns the entry itself, not a tuple of it
    gather = lambda idx: itemgetter(*idx) if len(idx) > 1 else lambda t: (t[idx[0]],)
    return gather(rows), gather(cols)


def _product(products: Mapping, left: Mapping, right: Mapping, k: int) -> dict[int, list[int]]:
    """Numerators of a jet product: part M sums ``left[b1] @ right[b2]`` pointwise.

    The sum runs over the pairs with ``products[b1][b2] = M``, a domain's multiplication table.
    Each pair is one multiply of the gathered factors, cut into its ``k``
    chunks of one ``l`` each; each entry of part M sums its column of the
    chunks of all of M's pairs.
    """
    if not left or not right:
        return {}
    n = len(next(iter(right.values())))
    rows, cols = _plan(k, n)
    right_cols = [(b2, cols(c)) for b2, c in right.items()]
    chunks: dict[int, list[tuple[int, ...]]] = {}
    for b1, a in left.items():
        a_rows, row = rows(a), products[b1]
        for b2, c_cols in right_cols:
            b = row.get(b2)
            if b is not None:
                chunks.setdefault(b, []).extend(zip(*[map(mul, a_rows, c_cols)] * n))
    return {b: list(map(sum, zip(*cs))) for b, cs in chunks.items()}


def _accumulate(sums: dict[int, list[int]], b: int, part: list[int]) -> None:
    """Add the integer ``part`` into ``sums[b]``, entry by entry."""
    acc = sums.get(b)
    sums[b] = part if acc is None else list(map(add, acc, part))


def _compose(f: Jet, g: Jet) -> Jet:
    """The jet of ``f o g``, by the finite Taylor sum (Kock-Lawvere).

    ``(f o g)_M`` is the sum of ``D^r f_m(g_0)[g_s1, ..., g_sr]`` over the
    masks ``m`` of ``f`` and the sets ``s1 < ... < sr`` of nonzero masks of
    ``g`` whose product with ``m`` in the domain's multiplication table is M.
    Monomials are square-free, so the ``1/r!`` of the Taylor series meets
    the ``r!`` orders of each set and no factorial remains.  The sum is
    exact at the identity on both sides.  When ``g_0`` is the identity the
    derivatives of ``f_m`` are used as they are; otherwise each is composed
    with ``g_0``.  When ``f_0`` is the identity its terms sum to ``g``
    itself, so each output part starts from ``g``'s part and only ``f``'s
    nonzero masks are differentiated.  An identity jet on either side
    returns the other operand.  Weights are built only for the sets that
    meet a nonzero derivative, and for their prefixes.
    """
    domain = g.domain
    products = domain._products
    g0 = g[0]
    n = len(g0)
    nvars = g0[0].nvars
    ident = identity_map(n)
    at_identity = g0 == ident
    outer_identity = f[0] == ident
    if outer_identity and len(f) == 1:
        return g
    if at_identity and len(g) == 1:
        return f
    sets = [((), 0)]  # each set of nonzero masks of g with a nonzero product, with that product
    for s in sorted(b for b in g if b):
        sets += [(S + (s,), products[u][s]) for S, u in sets if s in products[u]]

    # the multisets J of r variables, sorted, in the order the weights below fill them
    multisets = [((),)]
    for _ in range(max(len(S) for S, _ in sets)):
        multisets.append(tuple(dict.fromkeys(tuple(sorted(J + (v,))) for J in multisets[-1] for v in range(n))))
    # d^J f_m from d^J[:-1] f_m, met at S[:-1]; composed with g_0 below unless g_0 is the identity
    partials = {(m, ()): part for m, part in f.items()}
    width = len(f[0])
    terms = []  # (M, m, J, S): mask M gets d^J f_m times the weight of J in S
    needed = {()}
    for m in (b for b in f if b or not outer_identity):  # an identity f_0 adds g itself, below
        row = products[m]
        for S, u in sets:
            if u not in row:
                continue
            for J in multisets[len(S)]:
                p = partials.get((m, J))
                if p is None:
                    p = partials[m, J] = tuple(c.derivative(J[-1]) for c in partials[m, J[:-1]])
                if any(p):
                    terms.append((row[u], m, J, S))
                    needed.add(S)
    for S, _ in reversed(sets):
        if S in needed:
            needed.add(S[:-1])

    # per needed set S = (s1..sr): each multiset J of r variables, with the sum over the orders
    # (j1..jr) of J of g_s1[j1] * ... * g_sr[jr]; split on the last factor, as S[:-1] comes first
    # in sets; a one-mask set's weights are the components of g_s1 themselves
    one = Poly.scalar(nvars, 1)
    weights = {(): {(): one}}
    for S, _ in sets[1:]:
        if S not in needed:
            continue
        if len(S) == 1:
            weights[S] = dict(zip(multisets[1], g[S[0]]))
            continue
        orders: dict[tuple[int, ...], list[tuple[Poly, Poly]]] = {}
        for J, w in weights[S[:-1]].items():
            for v, comp in enumerate(g[S[-1]]):
                orders.setdefault(tuple(sorted(J + (v,))), []).append((w, comp))
        weights[S] = {J: sum_of_products(nvars, pairs) for J, pairs in orders.items()}

    derivatives = partials
    if not at_identity:
        # one composition with g_0 for every derivative, so all share the powers of g_0
        keys = list(dict.fromkeys((m, J) for _, m, J, _ in terms))
        flat = compose_map([c for key in keys for c in partials[key]], g0)
        derivatives = {key: flat[k * width : (k + 1) * width] for k, key in enumerate(keys)}
    if outer_identity:  # the terms of f_0 = id are g itself
        sums = {M: [[(c, one)] for c in part] for M, part in g.items()}
    else:  # a jet keeps its scalar part, even a zero one
        sums = {0: [[] for _ in range(width)]}
    for M, _, _, _ in terms:
        sums.setdefault(M, [[] for _ in range(width)])
    for M, m, J, S in terms:
        w = weights[S][J]
        for i, d in enumerate(derivatives[m, J]):
            if d:
                sums[M][i].append((d, w))
    return Jet(domain, {M: tuple(sum_of_products(nvars, p) for p in pairs) for M, pairs in sums.items()})


def _minus_identity(jet: Jet, ident: tuple[Poly, ...]) -> dict[int, tuple[Poly, ...]]:
    """The nonzero parts of ``jet - id``, by mask."""
    parts = dict(jet)
    parts[0] = tuple(p - x for p, x in zip(parts[0], ident))
    return {b: comps for b, comps in parts.items() if any(comps)}


# -- formal inversion -------------------------------------------------------------------


def formal_inverse(f: Jet) -> Jet:
    """Two-sided compositional inverse of a jet of polynomial self-maps.

    Requires the scalar part to be an invertible affine map.  Newton
    iteration preconditioned by the scalar linear part,
    ``g <- g - A^-1 (f . g - id)``, gains one nilpotency degree per step
    and therefore terminates exactly.  (The unpreconditioned step only
    converges when the scalar part is the identity.)  With row i of ``A``
    the integer row ``N_i`` over ``den_i``, ``A^-1`` is ``adj(N) diag(den)``
    over ``det(N)``, made positive, so each step is one integer combination.
    """
    domain = f.domain
    n = len(f[0])
    rows = _check_affine(f)
    adj, det = _adjugate([num for num, _, _ in rows])
    if det < 0:
        adj, det = [[-a for a in row] for row in adj], -det
    inv = [[a * den for a, (_, _, den) in zip(row, rows)] for row in adj]  # A^-1 over det
    neg = [[-a for a in row] for row in inv]
    ident = identity_map(n)
    # seed: the exact inverse A^-1 (x - b) of the scalar affine part; A^-1 b = adj(N) c / det for b_j = c_j / den_j
    shift = [Poly.scalar(n, -sum(a * c for a, (_, c, _) in zip(row, rows))) for row in adj]
    g = Jet(domain, {0: tuple(_linear_combination(n, det, [*zip(row, ident), (1, s)]) for row, s in zip(inv, shift))})
    zero = (Poly.zero(n),) * n
    for _ in range(domain.nilpotency_order + 1):
        err = _minus_identity(_compose(f, g), ident)
        if not err:
            if _minus_identity(_compose(g, f), ident):
                raise InvertibilityError("one-sided inverse only; map is not a bisection datum")
            return g
        parts = dict(g)
        for b, e in err.items():
            gb = parts.get(b, zero)
            parts[b] = tuple(_linear_combination(n, det, [(det, gi), *zip(row, e)]) for gi, row in zip(gb, neg))
        g = Jet(domain, parts)
    raise AssertionError("nilpotent Newton iteration failed to terminate")


@_memo
def invert_bisection(sigma: WSection) -> WBisection:
    """The group inverse: x -> sigma(inverse-target(x)) inverted arrowwise."""
    if not isinstance(sigma, WBisection):
        sigma = WBisection(sigma.groupoid, sigma.domain, sigma.data)  # witness check
    return WBisection(sigma.groupoid, sigma.domain, sigma.groupoid.inverse_data(sigma.data, sigma.domain))


# -- sections of the Lie algebroid ------------------------------------------------------


class AGSection(Immutable):
    """Exact data for a tangent vector to the bisection group at the identity.

    ``data`` is laid out by the groupoid class (see its docstring).
    Evaluating the flow at 0 always yields the identity section.
    """

    __slots__ = ("groupoid", "data")

    def __init__(self, groupoid: GroupoidInstance, data) -> None:
        object.__setattr__(self, "groupoid", groupoid)
        object.__setattr__(self, "data", groupoid.ag_data(data))

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
        return AGSection(self.groupoid, self.groupoid.ag_scale(self.data, _rational(a)))

    def __rmul__(self, a: Rational) -> "AGSection":
        return self.scaled(a)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AGSection)
            and self.groupoid == other.groupoid
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.groupoid, self.data))

    def __repr__(self) -> str:
        return f"AGSection({self.groupoid}; {self.groupoid.ag_repr(self.data)})"


@_memo
def section_at(x_section: AGSection, e: WeilElement) -> WBisection:
    """The flow of a Lie algebroid section at a square-zero element.

    ``e`` must have zero scalar part and ``e*e = 0``; the same recipe then
    yields flows at generators, sums, negatives, and products such as
    ``d1*d2``.
    """
    scalar = e.scalar_part
    if scalar:
        raise NotDPointError(f"not a D-point: scalar part {scalar} is nonzero")
    square = e * e
    if square:
        raise NotDPointError(f"not a D-point: square is {square}, not 0")
    groupoid = x_section.groupoid
    return WBisection(groupoid, e.domain, groupoid.flow_data(x_section.data, e))


def ag_from_flow(section: WSection) -> AGSection:
    """Read a first-order flow (a section over the one-generator domain) back.

    The generator coefficient is the section data ``x``; the section must be
    the flow of ``x`` at the generator: over D, its scalar part is the identity.
    """
    domain = section.domain
    if domain.generator_count != 1:
        raise ValueError("expected a section over the one-generator domain")
    groupoid = section.groupoid
    x = AGSection(groupoid, groupoid.read_coefficient(section.data, {1}))
    if section_at(x, *generators(domain)) != section:
        raise ValueError("flow's scalar part is not the identity section")
    return x
