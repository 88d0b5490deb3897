"""Exact arithmetic in square-free nilpotent monomial algebras.

An :class:`InfinitesimalDomain` fixes ``n`` generators ``d1 .. dn``, each
squaring to zero, plus an optional set of extra monomials that vanish.
There is one domain object per presentation, so domains compare by
identity, and :meth:`InfinitesimalDomain.mask_of` is the one checked
conversion from a monomial to its mask.  An
element of the resulting algebra is a finite family of exact rational
coefficients indexed by the surviving square-free monomials; the empty
monomial is the scalar part.  Every type is read-only (:class:`Immutable`)
and every operation is exact, so equality is structural and zero-tolerance.

The named domains are :data:`D0`, the point, whose Weil algebra is the
rationals (a map out of it is a constant, such as a bisection with no
infinitesimal part), :data:`LINE` (``D``), :data:`D2`, :data:`D3` and
:data:`AXES2` (``D(2)``).

Generator indices are 1-based throughout (``frozenset({1, 2})`` is the
monomial ``d1*d2``); this keeps permutations and axis labels aligned with
the usual subscript notation for microsquares and microcubes.

Inside, a monomial is a bitmask (bit ``i - 1`` for ``di``), and each domain
keeps the set of masks that survive (``masks``) and its multiplication
table, which every product of Weil coefficients reads.

By the Kock-Lawvere axiom a map out of a Weil domain into ``R^n`` is an
``n``-tuple of elements of its Weil algebra, that is, its family of
coefficients, and one :class:`Jet` stores every such family: pair and gauge
sections, points, and so the ends and fibers of arrows, and a
:class:`WeilElement`, the ``n = 1`` case.  A part is either a tuple of
rational polynomials (a pair jet) or a tuple of integer numerators over
the jet's one positive denominator (everything else).  The jet constructor
is the one normal form: every mask survives
(:meth:`InfinitesimalDomain.check_masks`), the scalar part is present, any
other all-zero part is left out, and integer parts are in lowest terms with
the denominator, so zero has denominator 1 and equal families are equal
jets.  :meth:`Jet.of_rationals` is the one conversion from rational parts to
integer ones.  A jet owns the operations on masks: a checked
``coefficient`` lookup, ``restrict`` (a filter on masks: the pullback
along the inclusion of a coarser domain), ``relabel`` (a renaming of mask
bits: a generator permutation) and ``image``, the general reparametrisation,
by a table of monomial images that :func:`monomial_images` checks and
builds.  Points and sections are restricted and relabelled through the
first two, so only a substitution that is neither builds a table.
``image`` and :func:`_combination`, the one linear combination of jets,
sum parts through one dispatch on the part type (:func:`_sum_parts`).

A Weil element speaks ``frozenset`` monomials and ``Fraction`` coefficients
at its edges, and takes ``int`` or ``Fraction`` coefficients only
(:func:`_rational`): the constructor, ``coefficient``, ``scalar_part``, the
read-only ``coeffs`` mapping and ``str``; ``from_masks`` and
``mask_coeffs`` convert to and from coefficients keyed by mask.  Weil
elements are the scalars of the ring laws and of reparametrisation: no
arrow, strong difference or random section is built from them.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from math import gcd, lcm
from operator import index
from types import MappingProxyType
from typing import Iterable, Sequence

Monomial = frozenset[int]
Rational = Fraction | int

SCALAR: Monomial = frozenset()


class DomainMismatchError(ValueError):
    """Two elements from incompatible algebras were combined."""


class RestrictionError(ValueError):
    """The target of a restriction is not a legal coarsening."""


class SubstitutionError(ValueError):
    """A generator substitution does not respect the source relations."""


class ZeroMonomialError(ValueError):
    """A coefficient was requested or supplied on a vanishing monomial."""


class Immutable:
    """A read-only type: setting or deleting an attribute raises, and no instance has a ``__dict__``.

    A subclass lists its fields in ``__slots__`` and fills each once, with
    ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


def _monomial(indices: Iterable[int]) -> Monomial:
    m = frozenset(indices)
    if not all(isinstance(i, int) and i >= 1 for i in m):
        raise ValueError(f"generator indices must be positive integers: {sorted(m)}")
    return m


def _monomial_name(m: Iterable[int]) -> str:
    if not m:
        return "1"
    return "*".join(f"d{i}" for i in sorted(m))


def _mask(m: Iterable[int]) -> int:
    b = 0
    for i in m:
        b |= 1 << (i - 1)
    return b


def _indices(b: int) -> tuple[int, ...]:
    """The generator indices of a mask, in increasing order."""
    return tuple(i + 1 for i in range(b.bit_length()) if b >> i & 1)


def _frac(n: int, den: int) -> Fraction:
    return Fraction(n) if den == 1 else Fraction(n, den)


def _rational(value: object) -> Fraction:
    """An exact coefficient from outside the kernel: only an ``int`` or a ``Fraction`` is one."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, not {type(value).__name__}: {value!r}")
    return value if type(value) is Fraction else Fraction(value)


class InfinitesimalDomain(Immutable):
    """A finite set of square-zero generators with extra vanishing monomials.

    There is one object per presentation: ``zero_monomials`` is reduced to
    its minimal antichain, and ``InfinitesimalDomain(n, zero_monomials)``
    returns the instance held for ``(n, minimal relations)``, built on first
    request.  So equal domains are the same object, and domains compare by
    identity.  A monomial vanishes iff it contains one of the stored sets or
    repeats a generator.  ``masks`` is the set of surviving monomials as
    bitmasks (bit ``i - 1`` for ``di``); it is closed under subsets, and
    :meth:`mask_of` answers every question about a monomial from it, as
    does the multiplication table ``_products``, derived from it once.
    """

    __slots__ = ("generator_count", "zero_monomials", "masks", "_monomials", "_products")

    def __new__(cls, generator_count: int, zero_monomials: Iterable[Iterable[int]] = ()) -> "InfinitesimalDomain":
        generator_count = index(generator_count)
        if generator_count < 0:
            raise ValueError("generator_count must be nonnegative")
        sets = [_monomial(z) for z in zero_monomials]
        for z in sets:
            if len(z) < 2:
                raise ValueError(f"zero monomials must have at least two generators: {_monomial_name(z)}")
            if max(z) > generator_count:
                raise ValueError(f"zero monomial {_monomial_name(z)} exceeds generator range")
        # minimal antichain: drop any set containing a strictly smaller member
        sets.sort(key=len)
        minimal: list[Monomial] = []
        for z in sets:
            if not any(m <= z for m in minimal):
                minimal.append(z)
        key = (generator_count, frozenset(minimal))
        self = _DOMAINS.get(key)
        if self is not None:
            return self
        # surviving masks, grown one generator above the top one at a time:
        # every subset of a surviving monomial survives
        zero_masks = [_mask(z) for z in minimal]
        ok = [0]
        for b in ok:
            for i in range(b.bit_length(), generator_count):
                c = b | 1 << i
                if not any(z & c == z for z in zero_masks):
                    ok.append(c)
        # the empty monomial first, then by size, then lexicographic
        named = sorted((frozenset(_indices(b)) for b in ok), key=lambda m: (len(m), sorted(m)))
        self = object.__new__(cls)
        object.__setattr__(self, "generator_count", generator_count)
        object.__setattr__(self, "zero_monomials", key[1])
        object.__setattr__(self, "masks", frozenset(ok))
        object.__setattr__(self, "_monomials", tuple(named))
        products = {b1: {b2: b1 | b2 for b2 in ok if not b1 & b2 and b1 | b2 in self.masks} for b1 in ok}
        object.__setattr__(self, "_products", products)
        _DOMAINS[key] = self
        return self

    @classmethod
    def first_order(cls, n: int) -> "InfinitesimalDomain":
        """n generators with every pairwise product zero."""
        return cls(n, combinations(range(1, n + 1), 2))

    # -- queries ------------------------------------------------------------

    def mask_of(self, monomial: Iterable[int]) -> int:
        """The mask of a surviving monomial; out of range is a ``ValueError``, vanishing a ``ZeroMonomialError``."""
        indices = tuple(monomial)  # a one-shot iterable is read once; a repeated generator squares to zero
        m = _monomial(indices)
        if max(m, default=0) > self.generator_count:
            raise ValueError(f"monomial {_monomial_name(m)} exceeds generator range")
        b = _mask(m)
        if len(m) < len(indices) or b not in self.masks:
            raise ZeroMonomialError(f"monomial {_monomial_name(indices)} vanishes in {self!r}")
        return b

    def check_masks(self, masks: Iterable[int]) -> None:
        """Raise ``ZeroMonomialError`` unless every mask survives."""
        if not self.masks.issuperset(masks):
            stray = set(masks) - self.masks
            raise ZeroMonomialError(f"masks {sorted(stray)} do not survive in {self!r}")

    def monomials(self) -> tuple[Monomial, ...]:
        """All surviving monomials, the empty one first, then by size."""
        return self._monomials

    @property
    def nilpotency_order(self) -> int:
        """Smallest k with (nilradical)^k = 0."""
        return max((len(m) for m in self.monomials()), default=0) + 1

    def coarsens(self, other: "InfinitesimalDomain") -> bool:
        """True if self kills at least everything other kills (same rank)."""
        return self.generator_count == other.generator_count and self.masks <= other.masks

    def permuted(self, perm: Sequence[int]) -> "InfinitesimalDomain":
        check_permutation(perm, self.generator_count)
        return InfinitesimalDomain(
            self.generator_count, [{perm[i - 1] for i in z} for z in self.zero_monomials]
        )

    def __repr__(self) -> str:
        n = self.generator_count
        if not self.zero_monomials:
            return "D" if n == 1 else f"D^{n}"
        if self.zero_monomials == frozenset(
            frozenset(c) for c in combinations(range(1, n + 1), 2)
        ):
            return f"D({n})"
        zeros = ", ".join(f"{name}=0" for name in sorted(_monomial_name(z) for z in self.zero_monomials))
        return f"D^{n}{{{zeros}}}"


# one domain per presentation: (generator count, minimal relations) -> its only instance
_DOMAINS: dict[tuple[int, frozenset[Monomial]], InfinitesimalDomain] = {}


def check_permutation(perm: Sequence[int], n: int) -> tuple[int, ...]:
    """Validate a 1-based permutation given as the tuple (eps(1), ..., eps(n))."""
    p = tuple(perm)
    if len(p) != n or sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {p}")
    return p


# the point and the domains of tangents, microsquares, microcubes and the first-order square
D0 = InfinitesimalDomain(0)
LINE = InfinitesimalDomain(1)
D2 = InfinitesimalDomain(2)
D3 = InfinitesimalDomain(3)
AXES2 = InfinitesimalDomain.first_order(2)


class Jet(Mapping, Immutable):
    """A map out of a Weil domain, stored as its family of coefficients (Kock-Lawvere).

    ``jet[b]`` is the part on the monomial of ``domain`` with mask ``b``: a
    tuple of the family's coefficients over the positive denominator
    ``den``.  There are two kinds of part: rational polynomials, for a pair
    section or field (``den`` is 1), and integer numerators, for everything
    else: Weil elements, gauge sections and tables, arrow fibers and points.
    Every mask survives and mask 0, the scalar part, is present; any other
    all-zero part is left out, and when ``den`` is not 1 the integer parts
    are in lowest terms with it, so equal families are equal jets.  Jets are
    read-only and hash consistently with ``==``; the hash is computed once,
    on first use, and kept in the ``_hash`` slot.
    """

    __slots__ = ("domain", "den", "_parts", "_hash")

    def __init__(self, domain: InfinitesimalDomain, parts: Mapping[int, Sequence], den: int = 1) -> None:
        domain.check_masks(parts)
        if 0 not in parts:
            raise ValueError("a jet needs its scalar part, mask 0")
        if type(den) is not int or den <= 0:
            raise ValueError(f"a jet needs a positive integer denominator, got {den!r}")
        table = {b: tuple(part) for b, part in parts.items() if not b or any(part)}
        if den != 1:
            g = gcd(den, *chain.from_iterable(table.values()))
            if g != 1:
                den //= g
                table = {b: tuple(n // g for n in part) for b, part in table.items()}
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_parts", table)

    @classmethod
    def of_rationals(cls, domain: InfinitesimalDomain, parts: Mapping[int, Sequence[Rational]]) -> "Jet":
        """The jet of parts of ``int`` or ``Fraction`` coefficients, as numerators over their common denominator.

        An ``int`` is its own numerator over 1 and stays as it is.
        """
        parts = {b: [c if type(c) is int else _rational(c) for c in part] for b, part in parts.items()}
        den = lcm(1, *(c.denominator for part in parts.values() for c in part))
        return cls(domain, {b: [c.numerator * (den // c.denominator) for c in part] for b, part in parts.items()}, den)

    def __getitem__(self, b: int) -> tuple:
        return self._parts[b]

    def __iter__(self):
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def items(self):
        return self._parts.items()

    def values(self):
        return self._parts.values()

    def coefficient(self, monomial: Iterable[int], default=None):
        """The part on a surviving monomial (checked by ``mask_of``), or ``default`` where it is zero."""
        return self._parts.get(self.domain.mask_of(monomial), default)

    def restrict(self, sub: InfinitesimalDomain) -> "Jet":
        """The jet over a coarser domain: the parts of newly vanishing monomials drop."""
        if not sub.coarsens(self.domain):
            raise RestrictionError(f"{sub!r} is not a coarsening of {self.domain!r}")
        ok = sub.masks
        return Jet(sub, {b: part for b, part in self._parts.items() if b in ok}, self.den)

    def relabel(self, perm: Sequence[int]) -> "Jet":
        """Rename generator i as ``perm[i-1]``: the part on S moves to perm(S), over the permuted domain."""
        bits = [1 << (i - 1) for i in check_permutation(perm, self.domain.generator_count)]
        return Jet(
            self.domain.permuted(perm),
            {sum(bits[i - 1] for i in _indices(b)): part for b, part in self._parts.items()},
            self.den,
        )

    def image(self, table: Mapping[int, "WeilElement"]) -> "Jet":
        """Reparametrise by a :func:`monomial_images` table: part M sums ``c * part b`` over the terms ``c d^M`` of ``table[b]``.

        The coefficients ``c`` are brought over the lcm ``q`` of the images'
        denominators, and :func:`_sum_parts` sums the parts over ``den * q``.
        """
        images = [(part, table[b].jet) for b, part in self._parts.items()]
        q = lcm(1, *(w.den for _, w in images))
        terms: dict[int, list[tuple[int, tuple]]] = {0: []}  # part M: each (c, part b), c / q the coefficient of d^M
        for part, w in images:
            f = q // w.den
            for M, (n,) in w._parts.items():
                if n:
                    terms.setdefault(M, []).append((n * f, part))
        return _sum_parts(table[0].domain, terms, self.den * q)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Jet)
            and self.domain is other.domain
            and self.den == other.den
            and self._parts == other._parts
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.domain, self.den, frozenset(self._parts.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return f"Jet({self.domain!r}; {self._parts} / {self.den})"


def _sum_parts(domain: InfinitesimalDomain, terms: Mapping[int, Sequence[tuple[int, tuple]]], den: int) -> Jet:
    """The jet over ``domain`` whose part M is ``sum(c * part for c, part in terms[M]) / den``, for integers ``c``.

    This is the one dispatch on the part type, and ``terms[0]`` names a part
    of it.  Integer parts are summed as numerators over ``den``; polynomial
    parts (a pair section's or field's, whose jet is over 1) keep their own
    denominators, so each component is one linear combination over ``den``,
    by the part type's ``_linear_combination``.
    """
    sample = terms[0][0][1]
    width = range(len(sample))
    if width and type(sample[0]) is not int:
        nvars, combination = sample[0].nvars, type(sample[0])._linear_combination
        sums = lambda ts: tuple(combination(nvars, den, [(c, part[i]) for c, part in ts]) for i in width)
        return Jet(domain, {M: sums(ts) for M, ts in terms.items()})
    parts = {}
    for M, ts in terms.items():
        acc = [0] * len(width)
        for c, part in ts:
            acc = [a + c * x for a, x in zip(acc, part)]
        parts[M] = acc
    return Jet(domain, parts, den)


def _combination(domain: InfinitesimalDomain, rows: Mapping[int, Sequence[tuple[int, Jet, int]]]) -> Jet:
    """The jet over ``domain`` whose part M sums ``c * jet[b]`` over the ``(c, jet, b)`` of ``rows[M]``.

    The parts are brought over the lcm of the jets' denominators, and an
    absent part is zero; ``rows[0]`` starts with a scalar part.
    """
    q = lcm(*(jet.den for ts in rows.values() for _, jet, _ in ts))
    terms = {M: [(c * (q // jet.den), jet[b]) for c, jet, b in ts if b in jet] for M, ts in rows.items()}
    return _sum_parts(domain, terms, q)


def _require_same(a: InfinitesimalDomain, b: InfinitesimalDomain) -> None:
    if a is not b:
        raise DomainMismatchError(f"incompatible algebras: {a!r} vs {b!r}")


class WeilElement(Immutable):
    """An exact element of an InfinitesimalDomain's algebra: a jet of one coordinate.

    ``jet`` is the :class:`Jet` whose part on each surviving mask is the
    1-tuple of its monomial's integer numerator over ``jet.den``, in the
    jet's normal form, so equality is structural.  The jet is all it
    stores: ``coeffs``, the read-only map from monomials to nonzero
    ``Fraction`` coefficients, is built on each read.
    """

    __slots__ = ("jet",)

    def __init__(
        self,
        domain: InfinitesimalDomain,
        coeffs: Mapping[Iterable[int], Rational] | None = None,
    ) -> None:
        coeffs = coeffs or {}
        parts = {domain.mask_of(key): (value,) for key, value in coeffs.items()}
        if len(parts) != len(coeffs):
            raise ValueError("a monomial is given twice")
        object.__setattr__(self, "jet", Jet.of_rationals(domain, {0: (0,), **parts}))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, domain: InfinitesimalDomain) -> "WeilElement":
        return _element(Jet(domain, {0: (0,)}))

    @classmethod
    def one(cls, domain: InfinitesimalDomain) -> "WeilElement":
        return _element(Jet(domain, {0: (1,)}))

    @classmethod
    def scalar(cls, domain: InfinitesimalDomain, c: Rational) -> "WeilElement":
        c = _rational(c)
        return _element(Jet(domain, {0: (c.numerator,)}, c.denominator))

    @classmethod
    def from_masks(cls, domain: InfinitesimalDomain, coeffs: Mapping[int, Rational]) -> "WeilElement":
        """The element with coefficient ``coeffs[b]`` on the monomial of each surviving mask ``b``."""
        return _element(Jet.of_rationals(domain, {0: (0,), **{b: (c,) for b, c in coeffs.items()}}))

    @classmethod
    def generator(cls, domain: InfinitesimalDomain, i: int) -> "WeilElement":
        if not 1 <= i <= domain.generator_count:
            raise ValueError(f"no generator d{i} in {domain!r}")
        return _element(Jet(domain, {0: (0,), 1 << (i - 1): (1,)}))

    # -- ring structure --------------------------------------------------------

    def __add__(self, other: "WeilElement") -> "WeilElement":
        if not isinstance(other, WeilElement):
            return NotImplemented
        a, b = self.jet, other.jet
        _require_same(a.domain, b.domain)
        q = lcm(a.den, b.den)
        fa, fb = q // a.den, q // b.den
        table = {m: n * fa for m, (n,) in a._parts.items()}
        for m, (n,) in b._parts.items():
            table[m] = table.get(m, 0) + n * fb
        return _element(Jet(a.domain, {m: (n,) for m, n in table.items()}, q))

    def __sub__(self, other: "WeilElement") -> "WeilElement":
        return self + (-other)

    def __neg__(self) -> "WeilElement":
        a = self.jet
        return _element(Jet(a.domain, {m: (-n,) for m, (n,) in a._parts.items()}, a.den))

    def __mul__(self, other: "WeilElement | Rational") -> "WeilElement":
        a = self.jet
        if not isinstance(other, WeilElement):
            if isinstance(other, (int, Fraction)):
                # a rational only scales the numerators: no monomial pairs to test
                p = other.numerator
                return _element(Jet(a.domain, {m: (n * p,) for m, (n,) in a._parts.items()}, a.den * other.denominator))
            return NotImplemented
        b = other.jet
        domain = a.domain
        _require_same(domain, b.domain)
        table: dict[int, int] = {}  # gets mask 0 from the two scalar parts
        right = b._parts.items()
        for m1, (n1,) in a._parts.items():
            row = domain._products[m1]
            for m2, (n2,) in right:
                m = row.get(m2)
                if m is not None:
                    table[m] = table.get(m, 0) + n1 * n2
        return _element(Jet(domain, {m: (n,) for m, n in table.items()}, a.den * b.den))

    def __rmul__(self, other: Rational) -> "WeilElement":
        return self * other

    # -- structure maps -------------------------------------------------------

    @property
    def domain(self) -> InfinitesimalDomain:
        return self.jet.domain

    @property
    def coeffs(self) -> Mapping[Monomial, Fraction]:
        """Read-only map from each monomial with a nonzero coefficient to that coefficient."""
        return MappingProxyType({frozenset(_indices(m)): c for m, c in self.mask_coeffs().items()})

    def mask_coeffs(self) -> dict[int, Fraction]:
        """``coeffs`` keyed by monomial mask (see ``InfinitesimalDomain.masks``), as a new dict."""
        den = self.jet.den
        return {m: _frac(n, den) for m, (n,) in self.jet._parts.items() if n}

    @property
    def scalar_part(self) -> Fraction:
        return _frac(self.jet[0][0], self.jet.den)

    @property
    def is_scalar(self) -> bool:
        return len(self.jet) == 1

    def coefficient(self, monomial: Iterable[int]) -> Fraction:
        (n,) = self.jet.coefficient(monomial, (0,))
        return _frac(n, self.jet.den)

    def restrict(self, sub: InfinitesimalDomain) -> "WeilElement":
        """Push into a coarser domain: newly vanishing coefficients drop."""
        return _element(self.jet.restrict(sub))

    def substitute(self, target: InfinitesimalDomain, images: Sequence["WeilElement"]) -> "WeilElement":
        """Apply the algebra homomorphism sending generator i to images[i-1] (see :func:`monomial_images`)."""
        return self.image(monomial_images(self.domain, target, images))

    def image(self, table: Mapping[int, "WeilElement"]) -> "WeilElement":
        """Apply a homomorphism given as a :func:`monomial_images` table (see :meth:`Jet.image`)."""
        return _element(self.jet.image(table))

    # -- comparisons / formatting ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, WeilElement) and self.jet == other.jet

    def __hash__(self) -> int:
        return hash(self.jet)

    def __bool__(self) -> bool:
        return len(self.jet) > 1 or self.jet[0] != (0,)

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for m in sorted(coeffs, key=lambda k: (len(k), sorted(k))):
            c = coeffs[m]
            if m == SCALAR:
                text = str(c)
            elif c == 1:
                text = _monomial_name(m)
            elif c == -1:
                text = f"-{_monomial_name(m)}"
            else:
                text = f"{c}*{_monomial_name(m)}"
            if parts and not text.startswith("-"):
                parts.append(f"+ {text}")
            elif parts:
                parts.append(f"- {text[1:]}")
            else:
                parts.append(text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"WeilElement({self.domain!r}; {self})"


def _element(jet: Jet) -> WeilElement:
    """The element stored as ``jet``, whose parts are 1-tuples of integer numerators."""
    out = object.__new__(WeilElement)
    object.__setattr__(out, "jet", jet)
    return out


def monomial_images(
    source: InfinitesimalDomain, target: InfinitesimalDomain, images: Sequence[WeilElement]
) -> dict[int, WeilElement]:
    """The image of every surviving monomial of ``source`` under ``di -> images[i-1]``, keyed by mask.

    Valid only when every source relation is respected: the image of each
    generator must square to zero in the target, and so must the image of
    every vanishing monomial.
    """
    n = source.generator_count
    if len(images) != n:
        raise SubstitutionError(f"expected {n} generator images, got {len(images)}")
    for i, im in enumerate(images, start=1):
        if im.domain is not target:
            raise DomainMismatchError(f"image of d{i} lives in {im.domain!r}, not {target!r}")
        if im.scalar_part:
            raise SubstitutionError(f"image of d{i} has nonzero scalar part {im.scalar_part}")
        if im * im:
            raise SubstitutionError(f"relation d{i}^2 = 0 violated: image squares to {im * im}")
    for z in source.zero_monomials:
        prod = WeilElement.one(target)
        for i in sorted(z):
            prod = prod * images[i - 1]
        if prod:
            raise SubstitutionError(f"relation {_monomial_name(z)} = 0 violated: image is {prod}")
    table = {0: WeilElement.one(target)}
    for b in sorted(source.masks - {0}):  # b without its top generator is smaller, so already built
        top = b.bit_length()
        table[b] = table[b ^ (1 << (top - 1))] * images[top - 1]
    return table


@cache  # domains are interned, so this holds one tuple per domain ever asked for
def generators(domain: InfinitesimalDomain) -> tuple[WeilElement, ...]:
    return tuple(WeilElement.generator(domain, i) for i in range(1, domain.generator_count + 1))
