"""Independently transcribed p = 11 symbolic tables used as golden data.

Each row is stored as a human-readable polynomial string (signed
coefficients allowed) and parsed into a coefficient dict; the parser lives
here so the reference data stays literal and eyeball-checkable.

The polynomial helpers at the end add polynomials, evaluate them at a point,
build a table row from a dense grid, multiply out a product of binomial
powers and build the weighted-sum rows of identities.comp_tables by their
recurrence: checks need these, the library does not.
"""

import re
from itertools import zip_longest
from math import comb

from wolstenholme.polyring import BiPolyZp, poly

# sum over k of (a+k)^7 (b+k)^7 k^s mod 11, rows s = 1..10
SUM_7_7 = {
    1: "a^5+8 a^4 b+2 a^3 b^2+2 a^2 b^3+8 a b^4+b^5",
    2: "4 a^6+7 a^5 b+2 a^4 b^2+7 a^3 b^3+2 a^2 b^4+7 a b^5+4 b^6",
    3: "-a^7+6 a^6 b+10 a^5 b^2+7 a^4 b^3+7 a^3 b^4+10 a^2 b^5+6 a b^6-b^7",
    4: "4 a^7 b+7 a^6 b^2+2 a^5 b^3+7 a^4 b^4+2 a^3 b^5+7 a^2 b^6+4 a b^7",
    5: "a^7 b^2+8 a^6 b^3+2 a^5 b^4+2 a^4 b^5+8 a^3 b^6+a^2 b^7",
    6: "-1+9 a^7 b^3+8 a^6 b^4+10 a^5 b^5+8 a^4 b^6+9 a^3 b^7",
    7: "4 a+4 b+9 a^7 b^4+7 a^6 b^5+7 a^5 b^6+9 a^4 b^7",
    8: "a^2+6 a b+b^2+a^7 b^5+6 a^6 b^6+a^5 b^7",
    9: "9 a^3+7 a^2 b+7 a b^2+9 b^3+4 a^7 b^6+4 a^6 b^7",
    10: "9 a^4+8 a^3 b+10 a^2 b^2+8 a b^3+9 b^4+10 a^7 b^7",
}

# sum over k of (a+k)^6 (b+k)^9 k^s mod 11, rows s = 1..10
SUM_6_9 = {
    1: "10 a^6+a^5 b+10 a^4 b^2+3 a^3 b^3+2 a^2 b^4+3 a b^5+4 b^6",
    2: "2 a^6 b+4 a^5 b^2+5 a^4 b^3+10 a^3 b^4+2 a^2 b^5+2 a b^6+8 b^7",
    3: "8 a^6 b^2+2 a^5 b^3+2 a^4 b^4+10 a^3 b^5+5 a^2 b^6+4 a b^7+2 b^8",
    4: "4 a^6 b^3+3 a^5 b^4+2 a^4 b^5+3 a^3 b^6+10 a^2 b^7+a b^8+10 b^9",
    5: "-1+6 a^6 b^4+3 a^5 b^5+5 a^4 b^6+6 a^3 b^7+8 a^2 b^8+5 a b^9",
    6: "5 a+2 b+6 a^6 b^5+2 a^5 b^6+10 a^4 b^7+7 a^3 b^8+7 a^2 b^9",
    7: "7 a^2+a b+8 b^2+4 a^6 b^6+4 a^5 b^7+8 a^4 b^8+2 a^3 b^9",
    8: "2 a^3+8 a^2 b+4 a b^2+4 b^3+8 a^6 b^7+a^5 b^8+7 a^4 b^9",
    9: "7 a^4+7 a^3 b+10 a^2 b^2+2 a b^3+6 b^4+2 a^6 b^8+5 a^5 b^9",
    10: "5 a^5+8 a^4 b+6 a^3 b^2+5 a^2 b^3+3 a b^4+6 b^5+10 a^6 b^9",
}

# coefficient of x^j in -(a+x)^7 (b+x)^7 mod 11, rows j = 0..14
COEFF_7_7 = {
    0: "10 a^7 b^7",
    1: "4 a^7 b^6+4 a^6 b^7",
    2: "a^7 b^5+6 a^6 b^6+a^5 b^7",
    3: "9 a^7 b^4+7 a^6 b^5+7 a^5 b^6+9 a^4 b^7",
    4: "9 a^7 b^3+8 a^6 b^4+10 a^5 b^5+8 a^4 b^6+9 a^3 b^7",
    5: "a^7 b^2+8 a^6 b^3+2 a^5 b^4+2 a^4 b^5+8 a^3 b^6+a^2 b^7",
    6: "4 a^7 b+7 a^6 b^2+2 a^5 b^3+7 a^4 b^4+2 a^3 b^5+7 a^2 b^6+4 a b^7",
    7: "-a^7+6 a^6 b+10 a^5 b^2+7 a^4 b^3+7 a^3 b^4+10 a^2 b^5+6 a b^6-b^7",
    8: "4 a^6+7 a^5 b+2 a^4 b^2+7 a^3 b^3+2 a^2 b^4+7 a b^5+4 b^6",
    9: "a^5+8 a^4 b+2 a^3 b^2+2 a^2 b^3+8 a b^4+b^5",
    10: "9 a^4+8 a^3 b+10 a^2 b^2+8 a b^3+9 b^4",
    11: "9 a^3+7 a^2 b+7 a b^2+9 b^3",
    12: "a^2+6 a b+b^2",
    13: "4 a+4 b",
    14: "-1",
}

# coefficient of x^j in -(a+x)^6 (b+x)^9 mod 11, rows j = 0..15
COEFF_6_9 = {
    0: "10 a^6 b^9",
    1: "2 a^6 b^8+5 a^5 b^9",
    2: "8 a^6 b^7+a^5 b^8+7 a^4 b^9",
    3: "4 a^6 b^6+4 a^5 b^7+8 a^4 b^8+2 a^3 b^9",
    4: "6 a^6 b^5+2 a^5 b^6+10 a^4 b^7+7 a^3 b^8+7 a^2 b^9",
    5: "6 a^6 b^4+3 a^5 b^5+5 a^4 b^6+6 a^3 b^7+8 a^2 b^8+5 a b^9",
    6: "4 a^6 b^3+3 a^5 b^4+2 a^4 b^5+3 a^3 b^6+10 a^2 b^7+a b^8+10 b^9",
    7: "8 a^6 b^2+2 a^5 b^3+2 a^4 b^4+10 a^3 b^5+5 a^2 b^6+4 a b^7+2 b^8",
    8: "2 a^6 b+4 a^5 b^2+5 a^4 b^3+10 a^3 b^4+2 a^2 b^5+2 a b^6+8 b^7",
    9: "10 a^6+a^5 b+10 a^4 b^2+3 a^3 b^3+2 a^2 b^4+3 a b^5+4 b^6",
    10: "5 a^5+8 a^4 b+6 a^3 b^2+5 a^2 b^3+3 a b^4+6 b^5",
    11: "7 a^4+7 a^3 b+10 a^2 b^2+2 a b^3+6 b^4",
    12: "2 a^3+8 a^2 b+4 a b^2+4 b^3",
    13: "7 a^2+a b+8 b^2",
    14: "5 a+2 b",
    15: "-1",
}

_MONOMIAL = re.compile(
    r"^(?P<coeff>\d+)?\s*(?:a(?:\^(?P<ae>\d+))?)?\s*(?:b(?:\^(?P<be>\d+))?)?$"
)


def parse_row(text: str, p: int) -> dict[tuple[int, int], int]:
    """Parse a polynomial row string into {(a_exp, b_exp): coeff mod p}."""
    out: dict[tuple[int, int], int] = {}
    normalized = text.replace("-", "+-").lstrip("+")
    for chunk in normalized.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        m = _MONOMIAL.match(chunk)
        if not m or not chunk:
            raise ValueError(f"cannot parse monomial {chunk!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        has_a = "a" in chunk
        has_b = "b" in chunk.replace("a", "", 1) if has_a else "b" in chunk
        ae = int(m.group("ae")) if m.group("ae") else (1 if has_a else 0)
        be = int(m.group("be")) if m.group("be") else (1 if has_b else 0)
        key = (ae, be)
        out[key] = (out.get(key, 0) + sign * coeff) % p
    return {k: v for k, v in out.items() if v}


def grid_of(table_row: str, p: int, rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    """Dense (rows x cols) coefficient grid of a row string."""
    mono = parse_row(table_row, p)
    return tuple(
        tuple(mono.get((i, j), 0) for j in range(cols)) for i in range(rows)
    )


def poly_add(f, g):
    """f + g, reduced mod p and trimmed."""
    return poly(f.pr, [x + y for x, y in zip_longest(f.coeffs, g.coeffs, fillvalue=0)])


def evaluate(f, x: int) -> int:
    """f(x) mod p by Horner's rule."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * x + c) % f.pr.p
    return acc


def bipoly(pr, grid) -> BiPolyZp:
    """The BiPolyZp of a dense grid, grid[i][j] = coefficient of a^i b^j."""
    p = pr.p
    terms = [(i, j, c % p) for i, row in enumerate(grid) for j, c in enumerate(row) if c % p]
    terms.sort(key=lambda t: (t[0] + t[1], -t[0]))
    shape = (len(grid), max(map(len, grid), default=0))
    return BiPolyZp(pr, shape, tuple(terms))


def bipoly_evaluate(row: BiPolyZp, a: int, b: int) -> int:
    """A table row at the point (a, b), mod p."""
    p = row.pr.p
    return sum(c * pow(a, i, p) * pow(b, j, p) for i, j, c in row.terms) % p


def binomial_product(p: int, exps, bases) -> list[int]:
    """Coefficients of (1+b_1 x)^m_1 ... (1+b_r x)^m_r mod p, lowest first:
    schoolbook convolution, one factor at a time, with math.comb binomials."""
    out = [1]
    for m, b in zip(exps, bases):
        row = [comb(m, j) * pow(b, j, p) % p for j in range(m + 1)]
        nxt = [0] * (len(out) + m)
        for i, c in enumerate(out):
            for j, w in enumerate(row):
                nxt[i + j] += c * w
        out = [c % p for c in nxt]
    return out


def comp_rows_by_recurrence(p: int, u: int, v: int, m: int) -> list[list[int]]:
    """[[x^M] (1+ux)^m (1+vx)^t for M = 0..p-2] for t = 0..p-1, mod p: row 0
    from math.comb, each later row the one before times (1+vx), truncated
    at x^(p-2)."""
    row = [comb(m, M) * pow(u, M, p) % p for M in range(p - 1)]
    rows = [row]
    for _ in range(1, p):
        row = [(x + v * y) % p for x, y in zip(row, [0, *row])]
        rows.append(row)
    return rows
