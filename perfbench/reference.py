"""Naive recomputations that the benchmark checks program outputs against.

Nothing here imports wolstenholme: every value is summed term by term with
Python's built-in pow (which inverts modulo p for negative exponents) and
math.comb, so a bug shared by the package's own routes cannot hide.
"""

from __future__ import annotations

from math import comb


def eval_sum(p: int, terms) -> int:
    """Sum over k in [0, p) of the product of (c+k)^e, skipping every k where
    a negative-exponent base vanishes."""
    total = 0
    for k in range(p):
        prod = 1
        for c, e in terms:
            base = (c + k) % p
            if base == 0 and e < 0:
                break
            prod = prod * pow(base, e, p) % p
        else:
            total += prod
    return total % p


def residue_cell(p: int, a: int, m: int, n: int) -> int:
    """Entry (m, n) of the residue matrix: sum over k in [1, p) minus {a} of
    k^m (a-k)^-n."""
    return sum(
        pow(k, m, p) * pow((a - k) % p, -n, p) for k in range(1, p) if k != a
    ) % p


def coeff_row(p: int, m: int, n: int, j: int) -> dict[tuple[int, int], int]:
    """Row j of the coefficient table, -[x^j] (a+x)^m (b+x)^n, as
    {(a_exp, b_exp): coeff} over its nonzero monomials."""
    out = {}
    for i1 in range(m + 1):
        i2 = m + n - j - i1
        if 0 <= i2 <= n:
            c = -comb(m, i1) * comb(n, i2) % p
            if c:
                out[(i1, i2)] = c
    return out


def sum_row(p: int, m: int, n: int, s: int) -> dict[tuple[int, int], int]:
    """Row s of the sum table, the sum over k of (a+k)^m (b+k)^n k^s with a
    and b kept symbolic, as {(a_exp, b_exp): coeff} over nonzero monomials."""
    power_sums: dict[int, int] = {}
    out = {}
    for i1 in range(m + 1):
        for i2 in range(n + 1):
            e = (m - i1) + (n - i2) + s
            if e not in power_sums:
                power_sums[e] = sum(pow(k, e, p) for k in range(1, p)) % p
            c = comb(m, i1) * comb(n, i2) * power_sums[e] % p
            if c:
                out[(i1, i2)] = c
    return out
