"""Multivariate polynomials whose coefficients are Weil-algebra elements.

Variables are written ``x0 .. x(n-1)`` (0-based, matching the expression
grammar); exponent tuples key the terms.  Rational polynomials are the
special case over :meth:`InfinitesimalDomain.scalars`.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .weil import DomainMismatchError, InfinitesimalDomain, Rational, WeilElement

Exponents = tuple[int, ...]


def _as_exponents(alpha: Iterable[int], nvars: int) -> Exponents:
    e = tuple(alpha)
    if len(e) != nvars or any(k < 0 or not isinstance(k, int) for k in e):
        raise ValueError(f"bad exponent tuple {e} for {nvars} variables")
    return e


class Poly:
    """Exact polynomial over a fixed InfinitesimalDomain.

    ``terms`` is a read-only map from exponent tuples to nonzero coefficients.
    """

    __slots__ = ("nvars", "domain", "terms")

    def __init__(
        self,
        nvars: int,
        domain: InfinitesimalDomain,
        terms: Mapping[Iterable[int], WeilElement | Rational] | None = None,
    ) -> None:
        table: dict[Exponents, WeilElement] = {}
        for alpha, c in (terms or {}).items():
            e = _as_exponents(alpha, nvars)
            w = c if isinstance(c, WeilElement) else WeilElement.scalar(domain, c)
            if w.domain != domain:
                raise DomainMismatchError(f"coefficient domain {w.domain!r} is not {domain!r}")
            if not w:
                continue
            prev = table.get(e)
            acc = w if prev is None else prev + w
            if acc:
                table[e] = acc
            elif e in table:
                del table[e]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "terms", MappingProxyType(table))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, domain: InfinitesimalDomain) -> "Poly":
        return cls(nvars, domain)

    @classmethod
    def constant(cls, nvars: int, value: WeilElement) -> "Poly":
        return cls(nvars, value.domain, {(0,) * nvars: value})

    @classmethod
    def scalar(cls, nvars: int, domain: InfinitesimalDomain, c: Rational) -> "Poly":
        return cls(nvars, domain, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, domain: InfinitesimalDomain, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable x{i} out of range for {nvars} variables")
        alpha = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, domain, {alpha: 1})

    def _raw(self, table: dict[Exponents, WeilElement]) -> "Poly":
        out = Poly.__new__(Poly)
        object.__setattr__(out, "nvars", self.nvars)
        object.__setattr__(out, "domain", self.domain)
        object.__setattr__(out, "terms", MappingProxyType({e: c for e, c in table.items() if c}))
        return out

    # -- arithmetic -------------------------------------------------------------

    def _require_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars or self.domain != other.domain:
            raise DomainMismatchError("polynomials over different rings")

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_compatible(other)
        table = dict(self.terms)
        for e, c in other.terms.items():
            prev = table.get(e)
            table[e] = c if prev is None else prev + c
        return self._raw(table)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return self._raw({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Poly | WeilElement | Rational") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self._raw({e: c * other for e, c in self.terms.items()})
        if isinstance(other, WeilElement):
            return self._raw({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_compatible(other)
        table: dict[Exponents, WeilElement] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                c = c1 * c2
                if not c:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                prev = table.get(e)
                table[e] = c if prev is None else prev + c
        return self._raw(table)

    def __rmul__(self, other: WeilElement | Rational) -> "Poly":
        return self * other

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.scalar(self.nvars, self.domain, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- calculus / evaluation ----------------------------------------------------

    def coefficient(self, alpha: Iterable[int]) -> WeilElement:
        e = _as_exponents(alpha, self.nvars)
        return self.terms.get(e, WeilElement.zero(self.domain))

    def derivative(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable x{i} out of range")
        table: dict[Exponents, WeilElement] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = tuple(k - 1 if j == i else k for j, k in enumerate(e))
            table[e2] = table.get(e2, WeilElement.zero(self.domain)) + c * e[i]
        return self._raw(table)

    def compose(self, args: Sequence["Poly"]) -> "Poly":
        """Substitute args[i] for xi; exact, no truncation beyond nilpotency."""
        if len(args) != self.nvars:
            raise ValueError(f"expected {self.nvars} arguments, got {len(args)}")
        if not args:
            return self
        target_nvars = args[0].nvars
        for g in args:
            if g.nvars != target_nvars or g.domain != self.domain:
                raise DomainMismatchError("composition arguments over different rings")
        acc = Poly.zero(target_nvars, self.domain)
        powers: dict[tuple[int, int], Poly] = {}

        def power(i: int, k: int) -> Poly:
            if (i, k) not in powers:
                powers[(i, k)] = (
                    Poly.scalar(target_nvars, self.domain, 1) if k == 0 else power(i, k - 1) * args[i]
                )
            return powers[(i, k)]

        for e, c in self.terms.items():
            term = Poly.constant(target_nvars, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            acc = acc + term
        return acc

    def map_coefficients(
        self, fn: Callable[[WeilElement], WeilElement], domain: InfinitesimalDomain
    ) -> "Poly":
        return Poly(self.nvars, domain, {e: fn(c) for e, c in self.terms.items()})

    def with_domain(self, domain: InfinitesimalDomain) -> "Poly":
        """Lift a polynomial with purely scalar coefficients into another domain."""
        if any(not c.is_scalar for c in self.terms.values()):
            raise DomainMismatchError("coefficients carry infinitesimals; cannot re-home")
        return Poly(self.nvars, domain, {e: c.scalar_part for e, c in self.terms.items()})

    def scalar_poly(self) -> "Poly":
        """The scalar part, as a polynomial over the trivial domain."""
        return Poly(self.nvars, RATIONALS, {e: c.scalar_part for e, c in self.terms.items()})

    # -- queries ----------------------------------------------------------------

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.domain, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[e]
            names = [f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k]
            body = "*".join(names)
            cs = str(c)
            needs_parens = " " in cs or not c.is_scalar
            if not body:
                parts.append(f"({cs})" if needs_parens else cs)
            elif c == WeilElement.one(self.domain):
                parts.append(body)
            else:
                parts.append(f"({cs})*{body}" if needs_parens else f"{cs}*{body}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.nvars} vars over {self.domain!r}; {self})"


def identity_map(nvars: int, domain: InfinitesimalDomain) -> tuple[Poly, ...]:
    """The tuple (x0, ..., x(n-1)) as a polynomial self-map."""
    return tuple(Poly.variable(nvars, domain, i) for i in range(nvars))


def compose_map(f: Sequence[Poly], g: Sequence[Poly]) -> tuple[Poly, ...]:
    """Componentwise composition f(g(x))."""
    return tuple(fi.compose(tuple(g)) for fi in f)


RATIONALS = InfinitesimalDomain.scalars()


def rational_poly(nvars: int, terms: Mapping[Iterable[int], Rational]) -> Poly:
    return Poly(nvars, RATIONALS, terms)
