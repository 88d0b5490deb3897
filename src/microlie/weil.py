"""Exact arithmetic in square-free nilpotent monomial algebras.

An :class:`InfinitesimalDomain` fixes ``n`` generators ``d1 .. dn``, each
squaring to zero, plus an optional set of extra monomials that vanish.  An
element of the resulting algebra is a finite family of exact rational
coefficients indexed by the surviving square-free monomials; the empty
monomial is the scalar part.  Everything is immutable and every operation
is exact, so equality is structural and zero-tolerance.

Generator indices are 1-based throughout (``frozenset({1, 2})`` is the
monomial ``d1*d2``); this keeps permutations and axis labels aligned with
the usual subscript notation for microsquares and microcubes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

Monomial = frozenset[int]
Rational = Fraction | int

SCALAR: Monomial = frozenset()


class DomainMismatchError(ValueError):
    """Two elements from incompatible algebras were combined."""


class RestrictionError(ValueError):
    """The target of a restriction (or extension) is not a legal coarsening."""


class SubstitutionError(ValueError):
    """A generator substitution does not respect the source relations."""


class ZeroMonomialError(ValueError):
    """A coefficient was requested or supplied on a vanishing monomial."""


def _monomial(indices: Iterable[int]) -> Monomial:
    m = frozenset(indices)
    if not all(isinstance(i, int) and i >= 1 for i in m):
        raise ValueError(f"generator indices must be positive integers: {sorted(m)}")
    return m


def _monomial_name(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(f"d{i}" for i in sorted(m))


class InfinitesimalDomain:
    """A finite set of square-zero generators with extra vanishing monomials.

    ``zero_monomials`` is stored as its minimal antichain; a monomial
    vanishes iff it contains one of the stored sets (or repeats a
    generator, which the square-free representation rules out by
    construction).
    """

    __slots__ = ("generator_count", "zero_monomials", "_allowed")

    def __init__(self, generator_count: int, zero_monomials: Iterable[Iterable[int]] = ()) -> None:
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
        object.__setattr__(self, "generator_count", generator_count)
        object.__setattr__(self, "zero_monomials", frozenset(minimal))
        object.__setattr__(self, "_allowed", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("InfinitesimalDomain is immutable")

    # -- named constructors -------------------------------------------------

    @classmethod
    def scalars(cls) -> "InfinitesimalDomain":
        """The trivial algebra: plain rationals, no generators."""
        return cls(0)

    @classmethod
    def line(cls) -> "InfinitesimalDomain":
        """One square-zero generator."""
        return cls(1)

    @classmethod
    def power(cls, n: int) -> "InfinitesimalDomain":
        """n independent square-zero generators (microcube domain)."""
        return cls(n)

    @classmethod
    def first_order(cls, n: int) -> "InfinitesimalDomain":
        """n generators with every pairwise product zero."""
        return cls(n, combinations(range(1, n + 1), 2))

    @classmethod
    def product(cls, a: "InfinitesimalDomain", b: "InfinitesimalDomain") -> "InfinitesimalDomain":
        """Disjoint union of generators; b's indices are shifted past a's."""
        shift = a.generator_count
        zeros = [set(z) for z in a.zero_monomials]
        zeros += [{i + shift for i in z} for z in b.zero_monomials]
        return cls(a.generator_count + b.generator_count, zeros)

    # -- queries ------------------------------------------------------------

    def is_zero_monomial(self, m: Monomial) -> bool:
        return any(z <= m for z in self.zero_monomials)

    def in_range(self, m: Monomial) -> bool:
        return all(1 <= i <= self.generator_count for i in m)

    def monomials(self) -> tuple[Monomial, ...]:
        """All surviving monomials, the empty one first, then by size."""
        cached = self._allowed
        if cached is None:
            gens = range(1, self.generator_count + 1)
            out = []
            for size in range(self.generator_count + 1):
                for combo in combinations(gens, size):
                    m = frozenset(combo)
                    if not self.is_zero_monomial(m):
                        out.append(m)
            cached = tuple(out)
            object.__setattr__(self, "_allowed", cached)
        return cached

    @property
    def nilpotency_order(self) -> int:
        """Smallest k with (nilradical)^k = 0."""
        return max((len(m) for m in self.monomials()), default=0) + 1

    def coarsens(self, other: "InfinitesimalDomain") -> bool:
        """True if self kills at least everything other kills (same rank)."""
        return self.generator_count == other.generator_count and all(
            self.is_zero_monomial(z) for z in other.zero_monomials
        )

    def permuted(self, perm: Sequence[int]) -> "InfinitesimalDomain":
        check_permutation(perm, self.generator_count)
        return InfinitesimalDomain(
            self.generator_count, [{perm[i - 1] for i in z} for z in self.zero_monomials]
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, InfinitesimalDomain)
            and self.generator_count == other.generator_count
            and self.zero_monomials == other.zero_monomials
        )

    def __hash__(self) -> int:
        return hash((self.generator_count, self.zero_monomials))

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


def check_permutation(perm: Sequence[int], n: int) -> tuple[int, ...]:
    """Validate a 1-based permutation given as the tuple (eps(1), ..., eps(n))."""
    p = tuple(perm)
    if len(p) != n or sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {p}")
    return p


# the domains of tangents, microsquares, microcubes and the first-order square
LINE = InfinitesimalDomain.line()
D2 = InfinitesimalDomain.power(2)
D3 = InfinitesimalDomain.power(3)
AXES2 = InfinitesimalDomain.first_order(2)


class WeilElement:
    """An exact element of an InfinitesimalDomain's algebra.

    Stored as a normalized map from surviving monomials to nonzero
    rationals; absent keys are zero, so equality is structural.
    """

    __slots__ = ("domain", "coeffs")

    def __init__(
        self,
        domain: InfinitesimalDomain,
        coeffs: Mapping[Iterable[int], Rational] | None = None,
    ) -> None:
        table: dict[Monomial, Fraction] = {}
        for key, value in (coeffs or {}).items():
            m = _monomial(key)
            if not domain.in_range(m):
                raise ValueError(f"monomial {_monomial_name(m)} exceeds generator range")
            if domain.is_zero_monomial(m):
                raise ZeroMonomialError(f"monomial {_monomial_name(m)} vanishes in {domain!r}")
            c = Fraction(value)
            if c:
                table[m] = table.get(m, Fraction(0)) + c
                if not table[m]:
                    del table[m]
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "coeffs", table)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("WeilElement is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, domain: InfinitesimalDomain) -> "WeilElement":
        return cls(domain)

    @classmethod
    def one(cls, domain: InfinitesimalDomain) -> "WeilElement":
        return cls(domain, {SCALAR: 1})

    @classmethod
    def scalar(cls, domain: InfinitesimalDomain, c: Rational) -> "WeilElement":
        return cls(domain, {SCALAR: c})

    @classmethod
    def generator(cls, domain: InfinitesimalDomain, i: int) -> "WeilElement":
        if not 1 <= i <= domain.generator_count:
            raise ValueError(f"no generator d{i} in {domain!r}")
        return cls(domain, {frozenset({i}): 1})

    # -- ring structure --------------------------------------------------------

    def _require_same_domain(self, other: "WeilElement") -> None:
        if self.domain != other.domain:
            raise DomainMismatchError(f"incompatible algebras: {self.domain!r} vs {other.domain!r}")

    def _raw(self, table: dict[Monomial, Fraction]) -> "WeilElement":
        out = WeilElement.__new__(WeilElement)
        object.__setattr__(out, "domain", self.domain)
        object.__setattr__(out, "coeffs", {m: c for m, c in table.items() if c})
        return out

    def __add__(self, other: "WeilElement") -> "WeilElement":
        if not isinstance(other, WeilElement):
            return NotImplemented
        self._require_same_domain(other)
        table = dict(self.coeffs)
        for m, c in other.coeffs.items():
            table[m] = table.get(m, Fraction(0)) + c
        return self._raw(table)

    def __sub__(self, other: "WeilElement") -> "WeilElement":
        return self + (-other)

    def __neg__(self) -> "WeilElement":
        return self._raw({m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other: "WeilElement | Rational") -> "WeilElement":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return self._raw({m: v * c for m, v in self.coeffs.items()})
        if not isinstance(other, WeilElement):
            return NotImplemented
        self._require_same_domain(other)
        domain = self.domain
        table: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                if m1 & m2:
                    continue  # repeated generator: square is zero
                m = m1 | m2
                if domain.is_zero_monomial(m):
                    continue
                table[m] = table.get(m, Fraction(0)) + c1 * c2
        return self._raw(table)

    def __rmul__(self, other: Rational) -> "WeilElement":
        return self * other

    # -- structure maps -------------------------------------------------------

    @property
    def scalar_part(self) -> Fraction:
        return self.coeffs.get(SCALAR, Fraction(0))

    @property
    def is_scalar(self) -> bool:
        return all(m == SCALAR for m in self.coeffs)

    def coefficient(self, monomial: Iterable[int]) -> Fraction:
        m = _monomial(monomial)
        if not self.domain.in_range(m):
            raise ValueError(f"monomial {_monomial_name(m)} exceeds generator range")
        if self.domain.is_zero_monomial(m):
            raise ZeroMonomialError(f"monomial {_monomial_name(m)} vanishes in {self.domain!r}")
        return self.coeffs.get(m, Fraction(0))

    def restrict(self, sub: InfinitesimalDomain) -> "WeilElement":
        """Push into a coarser domain: newly vanishing coefficients drop."""
        if not sub.coarsens(self.domain):
            raise RestrictionError(f"{sub!r} is not a coarsening of {self.domain!r}")
        out = WeilElement.__new__(WeilElement)
        object.__setattr__(out, "domain", sub)
        object.__setattr__(
            out, "coeffs", {m: c for m, c in self.coeffs.items() if not sub.is_zero_monomial(m)}
        )
        return out

    def extend(self, sup: InfinitesimalDomain) -> "WeilElement":
        """Re-read in a finer domain (one that this element's domain coarsens)."""
        if not self.domain.coarsens(sup):
            raise RestrictionError(f"{self.domain!r} is not a coarsening of {sup!r}")
        return WeilElement(sup, self.coeffs)

    def substitute(self, target: InfinitesimalDomain, images: Sequence["WeilElement"]) -> "WeilElement":
        """Apply the algebra homomorphism sending generator i to images[i-1].

        Valid only when every source relation is respected: the image of
        each generator must square to zero in the target, and the image of
        every vanishing monomial must vanish.
        """
        n = self.domain.generator_count
        if len(images) != n:
            raise SubstitutionError(f"expected {n} generator images, got {len(images)}")
        for i, im in enumerate(images, start=1):
            if im.domain != target:
                raise DomainMismatchError(f"image of d{i} lives in {im.domain!r}, not {target!r}")
            if im.scalar_part:
                raise SubstitutionError(f"image of d{i} has nonzero scalar part {im.scalar_part}")
            if (im * im).coeffs:
                raise SubstitutionError(f"relation d{i}^2 = 0 violated: image squares to {im * im}")
        for z in self.domain.zero_monomials:
            prod = WeilElement.one(target)
            for i in sorted(z):
                prod = prod * images[i - 1]
            if prod.coeffs:
                raise SubstitutionError(
                    f"relation {_monomial_name(z)} = 0 violated: image is {prod}"
                )
        acc = WeilElement.zero(target)
        for m, c in self.coeffs.items():
            term = WeilElement.scalar(target, c)
            for i in sorted(m):
                term = term * images[i - 1]
            acc = acc + term
        return acc

    def permute_generators(self, perm: Sequence[int]) -> "WeilElement":
        """Relabel generator i as perm[i-1]; the domain's relations follow."""
        p = check_permutation(perm, self.domain.generator_count)
        new_domain = self.domain.permuted(p)
        return WeilElement(new_domain, {frozenset(p[i - 1] for i in m): c for m, c in self.coeffs.items()})

    def inverse(self) -> "WeilElement":
        """Exact inverse; defined iff the scalar part is nonzero."""
        s = self.scalar_part
        if not s:
            raise ZeroDivisionError(f"no inverse: zero scalar part in {self}")
        unit = self * (Fraction(1) / s)  # 1 + nilpotent
        nil = unit - WeilElement.one(self.domain)
        acc = WeilElement.one(self.domain)
        power = -nil
        while power.coeffs:
            acc = acc + power
            power = power * (-nil)
        return acc * (Fraction(1) / s)

    # -- comparisons / formatting ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeilElement)
            and self.domain == other.domain
            and self.coeffs == other.coeffs
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs, key=lambda k: (len(k), sorted(k))):
            c = self.coeffs[m]
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


def generators(domain: InfinitesimalDomain) -> tuple[WeilElement, ...]:
    return tuple(WeilElement.generator(domain, i) for i in range(1, domain.generator_count + 1))
