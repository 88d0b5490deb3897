from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from microlie.poly import Poly
from microlie.vfexpr import (
    VectorFieldSyntaxError,
    format_vector_field,
    parse_component,
    parse_vector_field,
)


def test_unicode_minus_and_components():
    fields = parse_vector_field("−x1; x0", 2)
    assert fields == (Poly(2, {(0, 1): -1}), Poly(2, {(1, 0): 1}))


def test_powers_and_products():
    fields = parse_vector_field("x0^2*x1 - 3*x1; x0", 2)
    assert fields[0] == Poly(2, {(2, 1): 1, (0, 1): -3})
    assert fields[1] == Poly(2, {(1, 0): 1})


def test_rational_literals():
    (p,) = parse_vector_field("1/2*x0 - 2/3", 1)
    assert p == Poly(1, {(1,): Fraction(1, 2), (0,): Fraction(-2, 3)})


def test_parentheses():
    (p,) = parse_vector_field("(x0 + 1)^2", 1)
    assert p == Poly(1, {(2,): 1, (1,): 2, (0,): 1})


def test_whitespace_insignificant():
    assert parse_vector_field("  x0 +1 ;x1 ", 2) == parse_vector_field("x0+1;x1", 2)


def test_component_count_checked():
    with pytest.raises(VectorFieldSyntaxError, match="2 components"):
        parse_vector_field("x0", 2)


def test_variable_range_checked():
    with pytest.raises(VectorFieldSyntaxError, match="x5 out of range"):
        parse_vector_field("x5; x0", 2)


def test_error_reports_position_and_expectation():
    with pytest.raises(VectorFieldSyntaxError, match="position 5.*expected"):
        parse_vector_field("x0 + ", 1)
    with pytest.raises(VectorFieldSyntaxError, match="position"):
        parse_vector_field("x0 ** 2", 1)
    with pytest.raises(VectorFieldSyntaxError, match="exponent"):
        parse_vector_field("x0^x0", 1)


def test_nesting_depth_checked():
    assert parse_vector_field("(" * 100 + "x0" + ")" * 100, 1) == parse_vector_field("x0", 1)
    with pytest.raises(VectorFieldSyntaxError, match="position 100: parentheses nested deeper than 100"):
        parse_vector_field("(" * 2000 + "x0" + ")" * 2000, 1)


def test_unknown_character():
    with pytest.raises(VectorFieldSyntaxError, match="unexpected character"):
        parse_vector_field("x0 $ 1", 1)


def test_format_round_trip():
    texts = ["x0^2*x1 - 3*x1; x0", "-x1; x0", "1/2*x0; 0"]
    for text in texts:
        fields = parse_vector_field(text, 2)
        assert parse_vector_field(format_vector_field(fields), 2) == fields
    # monomials are printed from their packed keys: x2, two-digit exponents, a negative rational lead
    texts = [
        "-3/7*x0^12*x2^10 + x1^11 - 2; x2^13 - 5/2*x0*x1^10*x2; 1/3 - x0^10*x1^10*x2^10",
        "-1/2*x2^10; x0^99*x2 + x1^27; -12/5",
    ]
    for text in texts:
        fields = parse_vector_field(text, 3)
        assert parse_vector_field(format_vector_field(fields), 3) == fields
    fields = parse_vector_field(texts[0], 3)
    assert str(fields[1]) == "-5/2*x0*x1^10*x2 + x2^13"
    assert format_vector_field(fields) == (
        "-2 + x1^11 - 3/7*x0^12*x2^10; -5/2*x0*x1^10*x2 + x2^13; 1/3 - x0^10*x1^10*x2^10"
    )


def test_degree_limit_checked_before_expansion():
    with pytest.raises(VectorFieldSyntaxError, match="position 13: exponent 100000 is above the degree limit"):
        parse_vector_field("(x0+x1+x2+1)^100000; 0; 0", 3, max_degree=3)
    with pytest.raises(VectorFieldSyntaxError, match="position 4: degree 4 is above the degree limit 3"):
        parse_vector_field("x0^2*x1^2; 0", 2, max_degree=3)
    with pytest.raises(VectorFieldSyntaxError, match="degree 6 is above"):
        parse_vector_field("0; (x0*x1)^3", 2, max_degree=3)
    with pytest.raises(VectorFieldSyntaxError, match="exponent 4 is above"):
        parse_vector_field("2^4*x0", 1, max_degree=3)
    with pytest.raises(VectorFieldSyntaxError, match="position 3: number of 5000 digits is too long"):
        parse_vector_field("x0^" + "1" * 5000, 1, max_degree=3)
    # each check reads the degree of the product so far, whatever the factors before it
    with pytest.raises(VectorFieldSyntaxError, match="^position 2: degree 4 is above the degree limit 3$"):
        parse_vector_field("x0*x1^3; 0; 0", 3, max_degree=3)
    with pytest.raises(VectorFieldSyntaxError, match="^position 8: degree 4 is above the degree limit 3$"):
        parse_vector_field("0^0*x0^3*x1; 0; 0", 3, max_degree=3)


def test_degree_limit_allows_degree_three_and_no_limit_by_default():
    expanded = parse_vector_field("3*x0^2 + 3*x0 + 1", 1)
    assert parse_vector_field("(x0+1)^3 - x0^3", 1, max_degree=3) == expanded
    (p,) = parse_vector_field("x0^5 + x0^2*x0^3", 1)
    assert p == Poly(1, {(5,): 2})
    # a zero factor makes the product so far zero, of degree 0, so the factors after it stay in the limit
    for text in ("0*x0*x1^3", "x0*0*x1^3", "(x0 - x0)*x1^3"):
        assert parse_vector_field(f"{text}; 0; 0", 3, max_degree=3) == (Poly.zero(3),) * 3, text


@pytest.mark.parametrize(
    ("text", "position", "character"),
    [("x0^²", 3, "²"), ("²", 0, "²"), ("x0 + ٣", 5, "٣"), ("x٣", 1, "٣")],
    ids=["superscript-exponent", "superscript-alone", "arabic-indic-number", "arabic-indic-index"],
)
def test_only_ascii_digits(text, position, character):
    with pytest.raises(VectorFieldSyntaxError) as caught:
        parse_vector_field(text, 1)
    assert caught.value.position == position
    assert str(caught.value) == (
        f"position {position}: unexpected character {character!r}; expected a number, variable, or operator"
    )


# -- differential test: printed expression trees against the same trees evaluated with Poly ----

NVARS = 3
SIGNS = ("+", "-", "−")  # the last is the unicode minus


def _exprs(atoms):
    """expr := ['+'|'-'] term (('+'|'-') term)*, a term a list of (atom, exponent or None) factors."""
    factor = st.tuples(atoms, st.none() | st.integers(0, 3))
    term = st.lists(factor, min_size=1, max_size=3)
    return st.tuples(st.sampled_from(("",) + SIGNS), term, st.lists(st.tuples(st.sampled_from(SIGNS), term), max_size=2))


LEAVES = st.one_of(
    st.tuples(st.just("num"), st.integers(0, 30), st.none() | st.integers(1, 9)),
    st.tuples(st.just("var"), st.integers(0, NVARS - 1)),
)
ATOMS = LEAVES
for _ in range(2):  # parentheses nest up to two deep
    ATOMS = st.one_of(LEAVES, LEAVES, _exprs(ATOMS).map(lambda e: ("paren", e)))


def _text(expr) -> str:
    lead, first, rest = expr
    out = lead + _term_text(first)
    for op, term in rest:
        out += f" {op} " + _term_text(term)
    return out


def _term_text(term) -> str:
    return "*".join(_atom_text(atom) + ("" if k is None else f"^{k}") for atom, k in term)


def _atom_text(atom) -> str:
    if atom[0] == "num":
        return str(atom[1]) if atom[2] is None else f"{atom[1]}/{atom[2]}"
    if atom[0] == "var":
        return f"x{atom[1]}"
    return "(" + _text(atom[1]) + ")"


def _degree_bound(expr) -> int:
    lead, first, rest = expr
    return max(sum(_atom_degree(atom) * (1 if k is None else k) for atom, k in term) for term in [first] + [t for _, t in rest])


def _atom_degree(atom) -> int:
    return _degree_bound(atom[1]) if atom[0] == "paren" else int(atom[0] == "var")


def _value(expr) -> Poly:
    lead, first, rest = expr
    out = -_term_value(first) if lead in ("-", "−") else _term_value(first)
    for op, term in rest:
        out = out + _term_value(term) if op == "+" else out - _term_value(term)
    return out


def _term_value(term) -> Poly:
    out = Poly.scalar(NVARS, 1)
    for atom, k in term:
        base = _atom_value(atom)
        out = out * (base if k is None else base**k)
    return out


def _atom_value(atom) -> Poly:
    if atom[0] == "num":
        return Poly.scalar(NVARS, Fraction(atom[1], atom[2] or 1))
    if atom[0] == "var":
        return Poly.variable(NVARS, atom[1])
    return _value(atom[1])


@settings(max_examples=150, deadline=None)
@given(_exprs(ATOMS))
def test_parser_agrees_with_poly_arithmetic(expr):
    assume(_degree_bound(expr) <= 12)  # nested powers can ask for a large expansion
    text = _text(expr)
    assert parse_component(text, NVARS) == _value(expr), text
