"""Multivariate polynomials with exact rational coefficients.

Variables are written ``x0 .. x(n-1)`` (0-based, matching the expression
grammar).  Inside, a polynomial stores integer numerators over one positive
common denominator, in lowest terms, the normal form of a
:class:`~microlie.weil.Jet` of integer parts with a packed key in place of
a mask: no numerator is zero, the gcd of the denominator and all numerators
is 1, and zero has denominator 1, so equality is structural.

Each monomial is keyed by one packed ``int`` (the packed exponent vectors
of Monagan and Pearce, *Polynomial division using dynamic arrays, heaps,
and packed exponent vectors*, CASC 2007): a ``_W``-bit digit per exponent,
``x0`` highest, under a top digit holding the total degree.  The key of a
product of monomials is the sum of their keys, and keys order monomials by
degree, then exponents.  Every digit is at most the total degree, so a
degree at most :data:`MAX_DEGREE` never carries; a product above it raises
``OverflowError``.  Exponent tuples appear only at the API edges: the
constructor, ``coefficient``, the read-only ``coeffs`` mapping,
``derivative``'s variable and ``degree``, which speak ``Fraction`` for
coefficients, and :func:`from_numerators`, which takes integer numerators
by exponent tuple.  The numerators
are the only stored form (beside them a polynomial keeps only its hash,
computed on first use): ``coeffs``, and ``terms`` (``coeffs`` with each
coefficient as a scalar Weil element over the point
:data:`~microlie.weil.D0`, read only by the benchmark's tracer), are built
on each read.  ``str`` and :func:`format_poly` (the input grammar of
:mod:`microlie.vfexpr`) print from the numerators, and write each
monomial straight from the digits of its key.

A Weil-parametrised family of polynomial maps is not a polynomial with
Weil coefficients here: the pair groupoid stores it as a jet, one rational
polynomial map per Weil monomial (see :mod:`microlie.groupoids`).

Two loops accumulate numerators over one denominator, reduced once:
:func:`sum_of_products` sums products (every product and power of
polynomials, and the pair groupoid's Taylor sums), and the private
``_linear_combination`` sums integer multiples over an integer (``+``,
``-``, scaling by a rational, the parser's sums, ``Jet.image`` and the
strong differences on a pair section, :func:`compose_map` and
``formal_inverse``).  The parser
multiplies the numbers and variables of a term as monomials, by adding
keys, and calls :func:`sum_of_products` only for a parenthesised factor.
A polynomial is immutable, so one product with the polynomial 1
(frequent: a flow's scalar part is the identity) is the other factor
itself; so is one term ``1 * p`` over 1, and so ``p * 1``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .weil import D0, Immutable, Rational, WeilElement, _frac, _rational

Exponents = tuple[int, ...]

# The pair laws reach degree 27 (degree-9 maps composed with degree-3 ones);
# 7-bit digits leave room for that and keep a key in dimension 3 (four
# digits, 28 bits) inside one 30-bit CPython int digit.
_W = 7
MAX_DEGREE = (1 << _W) - 1


def _degree_error(degree: int) -> OverflowError:
    return OverflowError(f"degree {degree} is above the polynomial degree limit {MAX_DEGREE}")


def _key(alpha: Iterable[int], nvars: int) -> int:
    """The packed key of an exponent tuple, checked."""
    e = tuple(alpha)
    if len(e) != nvars or any(k < 0 or not isinstance(k, int) for k in e):
        raise ValueError(f"bad exponent tuple {e} for {nvars} variables")
    key = sum(e)
    if key > MAX_DEGREE:
        raise _degree_error(key)
    for k in e:
        key = key << _W | k
    return key


def _exponents(key: int, nvars: int) -> Exponents:
    return tuple(key >> s & MAX_DEGREE for s in range(_W * (nvars - 1), -1, -_W))


def _unit(nvars: int, i: int) -> int:
    """The key of ``x_i``."""
    return 1 << _W * nvars | 1 << _W * (nvars - 1 - i)


def _linear_combination(nvars: int, den: int, pairs: Sequence[tuple[int, Poly]]) -> Poly:
    """``sum(n * p for n, p in pairs) / den`` for integers, reduced once; ``1 * p / 1`` is ``p``."""
    if den == 1 and len(pairs) == 1 and pairs[0][0] == 1:
        return pairs[0][1]
    common = lcm(1, *(p._den for _, p in pairs))
    table: dict[int, int] = {}
    for n, p in pairs:
        n *= common // p._den
        for key, m in p._num.items():
            table[key] = table.get(key, 0) + n * m
    return _reduced(nvars, table, den * common)


class Poly(Immutable):
    """Exact rational polynomial in ``nvars`` variables.

    Stored as integer numerators keyed by packed exponent key over one
    denominator, in lowest terms (see the module docstring).  The hash is
    computed once, on first use, and kept in the ``_hash`` slot.
    """

    __slots__ = ("nvars", "_num", "_den", "_hash")
    _linear_combination = staticmethod(_linear_combination)  # weil._sum_parts reads it from a polynomial part's type

    def __init__(self, nvars: int, terms: Mapping[Iterable[int], Rational] | None = None) -> None:
        table: dict[int, Fraction] = {}
        for alpha, value in (terms or {}).items():
            key = _key(alpha, nvars)
            c = _rational(value)
            if c:
                table[key] = table.get(key, 0) + c
        den = lcm(1, *(c.denominator for c in table.values()))
        lowest = _reduced(nvars, {key: int(c * den) for key, c in table.items()}, den)
        _init(self, nvars, lowest._num, lowest._den)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return _make(nvars, {}, 1)

    @classmethod
    def scalar(cls, nvars: int, c: Rational) -> "Poly":
        if type(c) is not int:  # an int is its own numerator over 1
            c = _rational(c)
        return _make(nvars, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable x{i} out of range for {nvars} variables")
        return _make(nvars, {_unit(nvars, i): 1}, 1)

    # -- arithmetic -------------------------------------------------------------

    def _require_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"polynomials in {self.nvars} and {other.nvars} variables")

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_compatible(other)
        return _linear_combination(self.nvars, 1, ((1, self), (1, other)))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_compatible(other)
        return _linear_combination(self.nvars, 1, ((1, self), (-1, other)))

    def __neg__(self) -> "Poly":
        return _make(self.nvars, {key: -n for key, n in self._num.items()}, self._den)

    def __mul__(self, other: "Poly | Rational") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return _linear_combination(self.nvars, other.denominator, ((other.numerator, self),))
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_compatible(other)
        return sum_of_products(self.nvars, ((self, other),))

    def __rmul__(self, other: Rational) -> "Poly":
        return self * other

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        if not k:
            return Poly.scalar(self.nvars, 1)
        base = self
        while not k & 1:  # square up to the lowest set bit, whose power starts the product
            base, k = base * base, k >> 1
        out = base
        while k := k >> 1:
            base = base * base
            if k & 1:
                out = out * base
        return out

    # -- calculus -----------------------------------------------------------------

    def coefficient(self, alpha: Iterable[int]) -> Fraction:
        return _frac(self._num.get(_key(alpha, self.nvars), 0), self._den)

    def derivative(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable x{i} out of range")
        shift = _W * (self.nvars - 1 - i)
        unit = _unit(self.nvars, i)
        table = {}
        for key, n in self._num.items():
            k = key >> shift & MAX_DEGREE
            if k:
                table[key - unit] = n * k
        return _reduced(self.nvars, table, self._den)

    # -- queries ----------------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[Exponents, Fraction]:
        """Read-only map from each exponent tuple with a nonzero coefficient to that coefficient."""
        den, nvars = self._den, self.nvars
        return MappingProxyType({_exponents(key, nvars): _frac(n, den) for key, n in self._num.items()})

    @property
    def terms(self) -> Mapping[Exponents, WeilElement]:
        """``coeffs`` with each coefficient as a scalar Weil element over the point ``D0``."""
        return MappingProxyType({e: WeilElement.scalar(D0, c) for e, c in self.coeffs.items()})

    @property
    def degree(self) -> int:
        # the top digit of the largest key
        return max(self._num, default=0) >> _W * self.nvars

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.nvars, self._den, frozenset(self._num.items())))
            _set_hash(self, h)
            return h

    def __str__(self) -> str:
        """``c*x0^2 + ...`` by degree, then exponents: the order of the packed keys."""
        if not self._num:
            return "0"
        nvars, den = self.nvars, self._den
        parts = []
        for key in sorted(self._num):
            c, body = _frac(self._num[key], den), _monomial_text(key, nvars)
            parts.append(str(c) if not body else body if c == 1 else f"{c}*{body}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.nvars} vars over {D0!r}; {self})"


_set_nvars = Poly.nvars.__set__
_set_num = Poly._num.__set__
_set_den = Poly._den.__set__
_set_hash = Poly._hash.__set__
_new = object.__new__


def _init(out: Poly, nvars: int, num: dict[int, int], den: int) -> None:
    _set_nvars(out, nvars)
    _set_num(out, num)
    _set_den(out, den)


def _make(nvars: int, num: dict[int, int], den: int) -> Poly:
    """A polynomial from numerators and a denominator already in lowest terms."""
    out = _new(Poly)
    _init(out, nvars, num, den)
    return out


def _reduced(nvars: int, table: dict[int, int], den: int) -> Poly:
    """A polynomial from numerators (zeros allowed) over ``den > 0``, brought to lowest terms."""
    num = {key: n for key, n in table.items() if n}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {key: n // g for key, n in num.items()}
    return _make(nvars, num, den)


_ONE = {0: 1}  # the numerators of the polynomial 1, over 1


def sum_of_products(nvars: int, pairs: Sequence[tuple[Poly, Poly]]) -> Poly:
    """``sum(a * b for a, b in pairs)``, accumulated over one denominator and reduced once.

    A single product with the polynomial 1 is the other factor itself, which
    is immutable and already in lowest terms.  Raises ``OverflowError`` when
    a product's degree is above ``MAX_DEGREE``.
    """
    if len(pairs) == 1:
        a, b = pairs[0]
        if b._den == 1 and b._num == _ONE and a.nvars == nvars:
            return a
        if a._den == 1 and a._num == _ONE and b.nvars == nvars:
            return b
    den = lcm(1, *(a._den * b._den for a, b in pairs))
    table: dict[int, int] = {}
    for a, b in pairs:
        scale = den // (a._den * b._den)
        right = b._num.items()
        for k1, n1 in a._num.items():
            n1 *= scale
            for k2, n2 in right:
                k = k1 + k2
                table[k] = table.get(k, 0) + n1 * n2
    # a product above the limit has a top digit above it, carry or not
    if table and max(table) >> _W * nvars > MAX_DEGREE:
        raise _degree_error(max(a.degree + b.degree for a, b in pairs))
    return _reduced(nvars, table, den)


def affine_row(p: Poly) -> tuple[tuple[int, ...], int, int] | None:
    """The numerators of ``x0 .. x(n-1)`` and of 1 in ``p``, and their denominator; None unless ``p`` is affine."""
    if p.degree > 1:
        return None
    num = p._num
    return tuple(num.get(_unit(p.nvars, i), 0) for i in range(p.nvars)), num.get(0, 0), p._den


def from_numerators(nvars: int, num: Mapping[Exponents, int], den: int) -> Poly:
    """The polynomial with integer numerators ``num`` by exponent tuple over ``den > 0``.

    Exponent tuples are checked as the constructor checks them, and the
    result is reduced once.
    """
    if type(den) is not int or den <= 0:
        raise ValueError(f"a polynomial needs a positive integer denominator, got {den!r}")
    if any(type(n) is not int for n in num.values()):
        raise TypeError("numerators must be int")
    return _reduced(nvars, {_key(e, nvars): n for e, n in num.items()}, den)


def _monomial_text(key: int, nvars: int) -> str:
    """The monomial with packed key ``key``, written ``x0^2*x1``; empty for the constant one."""
    text = []
    shift = _W * nvars
    for i in range(nvars):
        shift -= _W
        k = key >> shift & MAX_DEGREE
        if k:
            text.append(f"x{i}^{k}" if k > 1 else f"x{i}")
    return "*".join(text)


def format_poly(p: Poly) -> str:
    """``p`` in the input grammar of :mod:`microlie.vfexpr`, by degree, then exponents descending.

    Each coefficient is written from its numerator over the denominator,
    reduced by their gcd, so no ``Fraction`` is built.
    """
    if not p._num:
        return "0"
    nvars, den, num = p.nvars, p._den, p._num
    top = _W * nvars
    parts: list[str] = []
    for key in sorted(num, key=lambda k: (k >> top, -k)):  # one degree's keys order as its exponents
        n = num[key]
        a = abs(n)
        g = gcd(a, den)
        c = str(a // g) if g == den else f"{a // g}/{den // g}"
        body = _monomial_text(key, nvars)
        body = c if not body else body if a == den else f"{c}*{body}"
        if parts:
            body = ("+ " if n > 0 else "- ") + body
        elif n < 0:
            body = "-" + body
        parts.append(body)
    return " ".join(parts)


@cache
def identity_map(nvars: int) -> tuple[Poly, ...]:
    """The tuple (x0, ..., x(n-1)) as a polynomial self-map."""
    return tuple(Poly.variable(nvars, i) for i in range(nvars))


def compose_map(f: Sequence[Poly], g: Sequence[Poly]) -> tuple[Poly, ...]:
    """Componentwise composition f(g(x)); the products of powers of g are shared by all of f."""
    nvars = len(g)
    if any(fi.nvars != nvars for fi in f):
        raise ValueError(f"expected {nvars} arguments")
    if not g:
        return tuple(f)
    target = g[0].nvars
    if any(gi.nvars != target for gi in g):
        raise ValueError("composition arguments in different numbers of variables")
    units = [_unit(nvars, i) for i in range(nvars)]
    # prod(g_i ** e_i) by the packed key of e: the product for e less one factor of its last
    # variable i (the lowest nonzero digit), a smaller key, times g_i; so filled in key order
    last: dict[int, int] = {}  # each key needed, with its i
    for key in (key for fi in f for key in fi._num):
        while key and key not in last:
            i = last[key] = nvars - 1 - ((key & -key).bit_length() - 1) // _W
            key -= units[i]
    products = {0: _make(target, {0: 1}, 1)}
    for key in sorted(last):
        products[key] = products[key - units[last[key]]] * g[last[key]]
    return tuple(_linear_combination(target, fi._den, [(n, products[key]) for key, n in fi._num.items()]) for fi in f)
