"""Expression grammar for polynomial vector fields.

Components are separated by ``;``.  Within a component: variables
``x0 .. x(n-1)``, integer and rational literals (``3``, ``1/2``), the
operators ``+ - * ^`` with ``^`` a nonnegative integer power, and
parentheses.  Numbers and variable indices are ASCII digits ``0``-``9``;
any other digit is an unexpected character.  The unicode minus sign is
accepted.  Whitespace is insignificant.  Parentheses nest at most 100
deep.  Errors report the offending position and what was expected there.

A term is built without polynomial products where it can be: its numbers
and variables, with their powers, multiply into one coefficient (``int``
or ``Fraction``) and one packed monomial key of :mod:`microlie.poly`, so a
product adds keys and a power multiplies the key.  Only a parenthesised
factor is a ``Poly``, multiplied through
:func:`~microlie.poly.sum_of_products`.  A sum is parsed in one pass: its
terms, one ``Poly`` each, are collected with their signs, ``1`` or ``-1``,
and added as one linear combination over one denominator, so the running
sum is not copied and reduced once per term.

Every product and power is bounded before it is expanded, by the
polynomial degree limit :data:`~microlie.poly.MAX_DEGREE` or by an optional
lower degree limit, which also bounds every exponent, so a short input
cannot ask for an arbitrarily large polynomial.  A check reads the degree
of the product so far, which is 0 once a factor is zero: a zero
coefficient carries key 0, as the zero ``Poly`` has degree 0.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import _W, MAX_DEGREE, Poly, _linear_combination, _make, _unit, format_poly, sum_of_products
from .weil import Rational


class VectorFieldSyntaxError(ValueError):
    def __init__(self, position: int, message: str) -> None:
        super().__init__(f"position {position}: {message}")
        self.position = position


# a token is a plain (kind, text, pos) tuple, kind one of NUM VAR + - * ^ / ( ) ; END; a field has
# a few hundred tokens, and a plain tuple builds several times faster than a NamedTuple
_Token = tuple[str, str, int]

_DIGITS = frozenset("0123456789")


def _unexpected(text: str, i: int) -> VectorFieldSyntaxError:
    return VectorFieldSyntaxError(
        i, f"unexpected character {text[i]!r}; expected a number, variable, or operator"
    )


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("NUM", text[i:j], i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j == i + 1:
                if text[j : j + 1].isdigit():  # a digit, but not an ASCII one
                    raise _unexpected(text, j)
                raise VectorFieldSyntaxError(i, "expected a variable index after 'x'")
            tokens.append(("VAR", text[i:j], i))
            i = j
            continue
        if ch == "−":  # unicode minus
            ch = "-"
        if ch in "+-*^/();":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise _unexpected(text, i)
    tokens.append(("END", "", n))
    return tokens


# each level costs four stack frames (expr, term, factor, atom); this stays
# well inside the interpreter's default recursion limit of 1000
_MAX_NESTING = 100

_SIGNS = {"+": 1, "-": -1}


def _int(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # longer than the interpreter converts
        raise VectorFieldSyntaxError(pos, f"number of {len(text)} digits is too long") from None


class _Parser:
    def __init__(self, tokens: list[_Token], nvars: int, max_degree: int | None) -> None:
        self.tokens = tokens
        self.k = 0
        self.nvars = nvars
        self.bounds_exponents = max_degree is not None
        self.limit = MAX_DEGREE if max_degree is None else min(max_degree, MAX_DEGREE)
        self.depth = 0
        self.top = _W * nvars  # the shift of a packed key's degree digit

    def check_degree(self, degree: int, pos: int, what: str = "degree") -> None:
        if degree > self.limit:
            raise VectorFieldSyntaxError(pos, f"{what} {degree} is above the degree limit {self.limit}")

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.k][0]

    def take(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.take()
        if tok[0] != kind:
            found = tok[1] or "end of input"
            raise VectorFieldSyntaxError(tok[2], f"expected {what}, found {found!r}")
        return tok

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def expr(self) -> Poly:
        op = self.take()[0] if self.peek() in "+-" else "+"
        pairs = [(_SIGNS[op], self.term())]
        while self.peek() in "+-":
            op = self.take()[0]
            pairs.append((_SIGNS[op], self.term()))
        return _linear_combination(self.nvars, 1, pairs)

    def degree(self, key: int, p: Poly | None) -> int:
        """The degree of ``x^key * p``; the top digit of a packed key is its degree."""
        return (key >> self.top) + (0 if p is None else p.degree)

    # term := factor ('*' factor)*
    def term(self) -> Poly:
        # the product so far is c * x^key * p: numbers and variables multiply into one monomial by
        # adding keys, and only parenthesised factors into p, None for 1; a zero product has key 0
        # and no p, so its degree is 0 as a zero Poly's is
        c, key, p = self.factor()
        while self.peek() == "*":
            pos = self.take()[2]
            c2, key2, p2 = self.factor()
            self.check_degree(self.degree(key, p) + self.degree(key2, p2), pos)
            c *= c2
            if not c:
                c, key, p = 0, 0, None
                continue
            key += key2
            if p2 is not None:
                p = p2 if p is None else p * p2
        monomial = _make(self.nvars, {key: c.numerator} if c else {}, c.denominator)
        return monomial if p is None else sum_of_products(self.nvars, ((monomial, p),))

    # factor := atom ['^' NUM]
    def factor(self) -> tuple[Rational, int, Poly | None]:
        c, key, p = self.atom()
        if self.peek() != "^":
            return c, key, p
        self.take()
        _, text, pos = self.expect("NUM", "a nonnegative integer exponent")
        k = _int(text, pos)
        if self.bounds_exponents:
            self.check_degree(k, pos, "exponent")
        self.check_degree(self.degree(key, p) * k, pos)
        if not k:
            return 1, 0, None
        return c**k, key * k, None if p is None else p**k

    # atom := NUM ['/' NUM] | VAR | '(' expr ')', as (c, key, p): the factor c * x^key * p
    def atom(self) -> tuple[Rational, int, Poly | None]:
        kind, text, pos = self.take()
        if kind == "NUM":
            value = _int(text, pos)
            if self.peek() == "/":
                self.take()
                _, text, pos = self.expect("NUM", "a denominator")
                d = _int(text, pos)
                if d == 0:
                    raise VectorFieldSyntaxError(pos, "zero denominator")
                value = Fraction(value, d)
            return value, 0, None
        if kind == "VAR":
            index = _int(text[1:], pos)
            if index >= self.nvars:
                raise VectorFieldSyntaxError(pos, f"variable {text} out of range; dimension is {self.nvars}")
            return 1, _unit(self.nvars, index), None
        if kind == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise VectorFieldSyntaxError(pos, f"parentheses nested deeper than {_MAX_NESTING}")
            inner = self.expr()
            self.expect(")", "a closing parenthesis")
            self.depth -= 1
            return (1, 0, inner) if inner else (0, 0, None)
        found = text or "end of input"
        raise VectorFieldSyntaxError(pos, f"expected a number, variable, or '(' , found {found!r}")


def parse_component(text: str, nvars: int, max_degree: int | None = None) -> Poly:
    parser = _Parser(_tokenize(text), nvars, max_degree)
    poly = parser.expr()
    kind, text, pos = parser.take()
    if kind != "END":
        raise VectorFieldSyntaxError(pos, f"expected an operator or end of input, found {text!r}")
    return poly


def parse_vector_field(text: str, dimension: int, max_degree: int | None = None) -> tuple[Poly, ...]:
    """Parse ';'-separated components into polynomials over the rationals.

    A product or power above ``MAX_DEGREE`` is a syntax error, and with
    ``max_degree`` so is a product, power or exponent above it.
    """
    pieces = text.split(";")
    if len(pieces) != dimension:
        raise VectorFieldSyntaxError(
            0, f"expected {dimension} components separated by ';', found {len(pieces)}"
        )
    out = []
    offset = 0
    for piece in pieces:
        try:
            out.append(parse_component(piece, dimension, max_degree))
        except VectorFieldSyntaxError as exc:
            raise VectorFieldSyntaxError(offset + exc.position, str(exc).split(": ", 1)[1]) from None
        offset += len(piece) + 1
    return tuple(out)


def format_vector_field(components) -> str:
    return "; ".join(format_poly(c) for c in components)
