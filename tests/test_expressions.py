import pytest

from wolstenholme.errors import ExpressionError
from wolstenholme.expressions import parse_expression


def test_ratio_with_grouped_denominator():
    numer, denom = parse_expression("(7+k)^9 / ((3+k)^13 (8+k)^8)")
    assert numer == [(7, 9)]
    assert denom == [(3, 13), (8, 8)]


def test_plain_product():
    numer, denom = parse_expression("(14+k)^3 (10+k)^8 (4+k)^9")
    assert numer == [(14, 3), (10, 8), (4, 9)]
    assert denom == []


def test_one_over_product():
    numer, denom = parse_expression("1/((7+k)^16 (13+k)^17 (18+k)^19)")
    assert numer == []
    assert denom == [(7, 16), (13, 17), (18, 19)]


def test_k_factors_and_default_exponent():
    numer, denom = parse_expression("k^5 (3+k)")
    assert numer == [(0, 5), (3, 1)]
    assert denom == []
    numer, _ = parse_expression("k")
    assert numer == [(0, 1)]


def test_whitespace_insensitive():
    a = parse_expression("(3+k)^2(5+k)^4/k^3")
    b = parse_expression("  ( 3 + k ) ^ 2   ( 5 + k ) ^ 4 /  k ^ 3 ")
    assert a == b == ([(3, 2), (5, 4)], [(0, 3)])


def test_nested_grouping():
    numer, denom = parse_expression("((3+k)^2 (5+k))")
    assert numer == [(3, 2), (5, 1)]
    assert denom == []


def test_denominator_without_parens():
    numer, denom = parse_expression("(3+k) / (5+k)^2")
    assert numer == [(3, 1)]
    assert denom == [(5, 2)]


def test_parse_errors():
    bad = [
        "",
        "(3+k)^0",
        "(3+k)^-2",
        "(3+k $",
        "(3+k",
        "3+k",
        "(k+3)",
        "(3+k)/(5+k)/(7+k)",
        "(3+k) 1",
        "((3+k)^2)^3",
        "2 (3+k)",
    ]
    for text in bad:
        with pytest.raises(ExpressionError):
            parse_expression(text)
    # an unclosed offset term is reported at what it lacks, not read as a group
    for text, message in (("(1+k", "unexpected end of expression"),
                          ("(12+k", "unexpected end of expression"),
                          ("(1+k^2", "expected ')', got '^'")):
        with pytest.raises(ExpressionError) as exc:
            parse_expression(text)
        assert str(exc.value) == message, text


@pytest.mark.parametrize("depth", [5_000, 100_000])
def test_deep_nesting_parses_without_recursion(depth):
    # groups nest on an explicit stack, so depth is bounded by memory, not
    # by the interpreter's recursion limit
    assert parse_expression("(" * depth + "(1+k)" + ")" * depth) == ([(1, 1)], [])
    assert parse_expression("1/" + "(" * depth + "k^2 (3+k)" + ")" * depth) == (
        [], [(0, 2), (3, 1)])
    for text, message in (("(" * depth + "(1+k)" + ")" * (depth - 1), "unexpected end of expression"),
                          ("(" * depth + ")" * depth, "expected a factor, got ')'"),
                          ("(" * depth + "(1+k))^2" + ")" * (depth - 1),
                           "exponents apply to single factors, not groups"),
                          ("(" * depth + "(1+" + ")" * depth, "expected 'k', got ')'")):
        with pytest.raises(ExpressionError) as exc:
            parse_expression(text)
        assert str(exc.value) == message
