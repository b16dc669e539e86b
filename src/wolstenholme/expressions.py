"""Parser for sum expressions like "(7+k)^9 / ((3+k)^13 (8+k)^8)".

Grammar (whitespace-insensitive):

    expr    := product [ '/' product ]
    product := '1' | factors
    factors := one or more of:  term [ '^' INT ]
    term    := 'k' | '(' INT '+' 'k' ')' | '(' factors ')'

Factors multiply by juxtaposition; exponents default to 1 and must be >= 1;
offsets are nonnegative integers.  The result is two factor lists (numerator,
denominator) of (offset, exponent) pairs.
"""

from __future__ import annotations

import re

from .errors import ExpressionError

_TOKEN = re.compile(r"\s*(\d+|[()+/^k])")

Factor = tuple[int, int]


def _tokenize(text: str) -> list[str]:
    tokens = []
    text = text.rstrip()
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExpressionError(f"unexpected character at position {pos}: {text[pos]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> str | None:
        j = self.i + ahead
        return self.tokens[j] if j < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ExpressionError(f"expected {tok!r}, got {got!r}")

    def parse_expr(self) -> tuple[list[Factor], list[Factor]]:
        numer = self.parse_product()
        denom: list[Factor] = []
        if self.peek() == "/":
            self.take()
            denom = self.parse_product()
        if self.i != len(self.tokens):
            raise ExpressionError(f"trailing input from token {self.peek()!r}")
        return numer, denom

    def parse_product(self) -> list[Factor]:
        # a group's factors join the product around it, so one list holds
        # them all; starts holds where each open product's factors begin
        factors: list[Factor] = []
        starts = [0]
        while True:
            tok = self.peek()
            if tok == "1" and (self.i == 0 or self.tokens[self.i - 1] in ("/", "(")):
                self.take()  # a whole product: at the start, after '/' or a group's '('
            elif tok == "k" or (tok == "(" and self._starts_factor()):
                off = 0
                if self.take() == "(":
                    off = self.parse_int()
                    self.expect("+")
                    self.expect("k")
                    self.expect(")")
                exp = 1
                if self.peek() == "^":
                    self.take()
                    exp = self.parse_int()
                    if exp < 1:
                        raise ExpressionError(f"exponent must be >= 1, got {exp}")
                factors.append((off, exp))
                continue
            elif tok == "(":
                self.take()
                starts.append(len(factors))
                continue
            elif len(factors) == starts[-1]:
                raise ExpressionError(f"expected a factor, got {tok!r}")
            starts.pop()  # the innermost open product ends here
            if not starts:
                return factors
            self.expect(")")
            if self.peek() == "^":
                raise ExpressionError("exponents apply to single factors, not groups")

    def _starts_factor(self) -> bool:
        # '(' INT '+' opens an offset term, as no group can; parse_product
        # then names whatever of 'k' ')' is missing
        return self.peek(1) is not None and self.peek(1).isdigit() and self.peek(2) == "+"

    def parse_int(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ExpressionError(f"expected an integer, got {tok!r}")
        return int(tok)


def parse_expression(text: str) -> tuple[list[Factor], list[Factor]]:
    """Parse into (numerator factors, denominator factors)."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    return _Parser(tokens).parse_expr()
