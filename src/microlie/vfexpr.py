"""Expression grammar for polynomial vector fields.

Components are separated by ``;``.  Within a component: variables
``x0 .. x(n-1)``, integer and rational literals (``3``, ``1/2``), the
operators ``+ - * ^`` with ``^`` a nonnegative integer power, and
parentheses.  Numbers and variable indices are ASCII digits ``0``-``9``;
any other digit is an unexpected character.  The unicode minus sign is
accepted.  Whitespace is insignificant.  Parentheses nest at most 100
deep.  Errors report the offending position and what was expected there.

A sum is parsed in one pass: its terms are collected with their signs,
``1`` or ``-1``, and added as one linear combination over one denominator,
so the running sum is not copied and reduced once per term.

Every product and power is bounded before it is expanded, by the
polynomial degree limit :data:`~microlie.poly.MAX_DEGREE` or by an optional
lower degree limit, which also bounds every exponent, so a short input
cannot ask for an arbitrarily large polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .poly import MAX_DEGREE, Poly, _linear_combination, format_poly


class VectorFieldSyntaxError(ValueError):
    def __init__(self, position: int, message: str) -> None:
        super().__init__(f"position {position}: {message}")
        self.position = position


class _Token(NamedTuple):
    kind: str  # NUM VAR + - * ^ / ( ) ; END
    text: str
    pos: int


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
            tokens.append(_Token("NUM", text[i:j], i))
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
            tokens.append(_Token("VAR", text[i:j], i))
            i = j
            continue
        if ch == "−":  # unicode minus
            ch = "-"
        if ch in "+-*^/();":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise _unexpected(text, i)
    tokens.append(_Token("END", "", n))
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

    def check_degree(self, degree: int, tok: _Token, what: str = "degree") -> None:
        if degree > self.limit:
            raise VectorFieldSyntaxError(tok.pos, f"{what} {degree} is above the degree limit {self.limit}")

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def take(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise VectorFieldSyntaxError(tok.pos, f"expected {what}, found {found!r}")
        return self.take()

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def expr(self) -> Poly:
        op = self.take().kind if self.peek().kind in "+-" else "+"
        pairs = [(_SIGNS[op], self.term())]
        while self.peek().kind in "+-":
            op = self.take().kind
            pairs.append((_SIGNS[op], self.term()))
        return _linear_combination(self.nvars, 1, pairs)

    # term := factor ('*' factor)*
    def term(self) -> Poly:
        acc = self.factor()
        while self.peek().kind == "*":
            tok = self.take()
            rhs = self.factor()
            self.check_degree(acc.degree + rhs.degree, tok)
            acc = acc * rhs
        return acc

    # factor := atom ['^' NUM]
    def factor(self) -> Poly:
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            exp = self.expect("NUM", "a nonnegative integer exponent")
            k = _int(exp.text, exp.pos)
            if self.bounds_exponents:
                self.check_degree(k, exp, "exponent")
            self.check_degree(base.degree * k, exp)
            return base ** k
        return base

    # atom := NUM ['/' NUM] | VAR | '(' expr ')'
    def atom(self) -> Poly:
        tok = self.peek()
        if tok.kind == "NUM":
            self.take()
            value = _int(tok.text, tok.pos)
            if self.peek().kind == "/":
                self.take()
                denom = self.expect("NUM", "a denominator")
                d = _int(denom.text, denom.pos)
                if d == 0:
                    raise VectorFieldSyntaxError(denom.pos, "zero denominator")
                value = Fraction(value, d)
            return Poly.scalar(self.nvars, value)
        if tok.kind == "VAR":
            self.take()
            index = _int(tok.text[1:], tok.pos)
            if index >= self.nvars:
                raise VectorFieldSyntaxError(
                    tok.pos, f"variable {tok.text} out of range; dimension is {self.nvars}"
                )
            return Poly.variable(self.nvars, index)
        if tok.kind == "(":
            self.take()
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise VectorFieldSyntaxError(tok.pos, f"parentheses nested deeper than {_MAX_NESTING}")
            inner = self.expr()
            self.expect(")", "a closing parenthesis")
            self.depth -= 1
            return inner
        found = tok.text or "end of input"
        raise VectorFieldSyntaxError(
            tok.pos, f"expected a number, variable, or '(' , found {found!r}"
        )


def parse_component(text: str, nvars: int, max_degree: int | None = None) -> Poly:
    parser = _Parser(_tokenize(text), nvars, max_degree)
    poly = parser.expr()
    tok = parser.peek()
    if tok.kind != "END":
        raise VectorFieldSyntaxError(tok.pos, f"expected an operator or end of input, found {tok.text!r}")
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
