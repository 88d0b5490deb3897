from fractions import Fraction

import pytest

from microlie.poly import Poly
from microlie.vfexpr import (
    VectorFieldSyntaxError,
    format_vector_field,
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


def test_degree_limit_allows_degree_three_and_no_limit_by_default():
    expanded = parse_vector_field("3*x0^2 + 3*x0 + 1", 1)
    assert parse_vector_field("(x0+1)^3 - x0^3", 1, max_degree=3) == expanded
    (p,) = parse_vector_field("x0^5 + x0^2*x0^3", 1)
    assert p == Poly(1, {(5,): 2})
