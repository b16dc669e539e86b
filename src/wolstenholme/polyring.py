"""Dense univariate and sparse bivariate polynomials over Z/pZ.

PolyZp and build_product back the esp route's polynomial coefficients for
the n-term sums; cyclic_product gives the coefficient route its product in
Z_p[x]/(x^(p-1) - 1), every factor a packed row.  Both read each factor
(b + x)^m as Prime.weighted_row(m, b) reversed, so neither builds a p-long
power table.  BiPolyZp reproduces the symbolic coefficient and sum tables
exactly, keeping a and b as formal symbols (no Fermat reduction of their
exponents).  A table row holds only its nonzero monomials, a few
anti-diagonals i1 + i2 = t, so a table costs O(p^2) for its power sums plus
O(1) per monomial, not O(p·m·n).  No route or table adds polynomials or
evaluates one at a point, so neither is here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import HypothesisViolationError, ModulusMismatchError
from .modarith import Prime, pack_slots, unpack_slots
from .oracle import power_moments


@dataclass(frozen=True)
class PolyZp:
    """Dense coefficient list, coeffs[j] = coefficient of x^j, trimmed."""

    pr: Prime
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise HypothesisViolationError("trailing zero coefficients must be trimmed")

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.coeffs) - 1


def poly(pr: Prime, coeffs) -> PolyZp:
    """Build a PolyZp, reducing coefficients mod p and trimming zeros."""
    cs = [c % pr.p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return PolyZp(pr, tuple(cs))


def poly_mul(f: PolyZp, g: PolyZp) -> PolyZp:
    """Product by Kronecker substitution: one big-integer multiplication.

    Each coefficient list is packed into one int, `width` bytes per
    coefficient.  A product coefficient sums at most min(len f, len g)
    terms of at most (p-1)^2 each, so `width` bytes hold it and no carry
    crosses into the next slot: the product's bytes unpack to the exact
    integer convolution, which poly() then reduces mod p.
    """
    if f.pr.p != g.pr.p:
        raise ModulusMismatchError(f"moduli differ: {f.pr.p} vs {g.pr.p}")
    if not f.coeffs or not g.coeffs:
        return PolyZp(f.pr, ())
    bound = min(len(f.coeffs), len(g.coeffs)) * (f.pr.p - 1) ** 2
    width = (bound.bit_length() + 7) // 8
    if width <= 8:  # a native array's slot: 1, 2, 4 or 8 bytes
        width = 1 << (width - 1).bit_length()
    packed = pack_slots(f.coeffs, width) * pack_slots(g.coeffs, width)
    return poly(f.pr, unpack_slots(packed, width, len(f.coeffs) + len(g.coeffs) - 1))


def coeff(f: PolyZp, j: int) -> int:
    """Coefficient of x^j, zero outside the support."""
    if j < 0 or j > f.degree:
        return 0
    return f.coeffs[j]


def build_product(pr: Prime, offsets, exps) -> PolyZp:
    """The monic product of (b_i + x)^(m_i); the empty product is 1."""
    out = None
    for b, m in zip(offsets, exps):
        if m < 1:
            raise HypothesisViolationError("build_product requires exponents >= 1")
        factor = poly(pr, pr.weighted_row(m, b)[::-1])
        out = factor if out is None else poly_mul(out, factor)
    return poly(pr, [1]) if out is None else out


def cyclic_product(pr: Prime, offsets, exps) -> list[int]:
    """The coefficients of the product of (b_i + x)^(m_i) mod x^(p-1) - 1:
    slot j sums the product's coefficients at every index congruent to j
    mod p-1.  Only the slots the product reaches are returned, min(p-1,
    sum(m_i)+1) of them; every later slot is 0.  Requires 1 <= m_i <= p-1;
    the empty product is [1].

    A factor's row C(m, j) b^(m-j), j = 0..m, is Prime.weighted_row(m, b)
    reversed, its x^(p-1) (at m = p-1) folded onto x^0, and packed at
    Prime.pack_width.  Its product with the packed running product has at
    most 2p-3 slots; one shift, one mask and one add fold the top p-2 onto
    the bottom, and only the slots the product reaches, at most p-1, are
    unpacked, reduced and repacked.  A folded slot sums at most p-1 products
    of two residues, below p (p-1)^2, so no carry crosses a slot.
    """
    p = pr.p
    n = p - 1
    shift = 8 * pr.pack_width * n
    mask = (1 << shift) - 1
    out = [1]
    for b, m in zip(offsets, exps):
        if not 1 <= m <= n:
            raise HypothesisViolationError("cyclic_product requires exponents in [1, p-1]")
        row = list(pr.weighted_row(m, b)[::-1])
        if m == n:
            row[0] = (row[0] + row.pop()) % p
        if len(out) > 1:  # else out is the empty product 1
            full = pr.pack(out) * pr.pack(row)
            row = pr.unpack((full & mask) + (full >> shift), min(n, len(out) + len(row) - 1))
        out = row
    return out


@dataclass(frozen=True)
class BiPolyZp:
    """A polynomial in formal a and b, held as its nonzero monomials.

    `terms` lists each once as (a_exp, b_exp, coeff), in monomials() order:
    ascending total degree, then descending a-exponent.  `shape` = (rows,
    cols) <= (p, p) bounds a_exp < rows and b_exp < cols; it is the shape of
    the dense grid `coeffs`.
    """

    pr: Prime
    shape: tuple[int, int]
    terms: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        p = self.pr.p
        rows, cols = self.shape
        if max(rows, cols) > p:
            raise HypothesisViolationError("degrees in a and b must stay below p")
        if self.terms:
            ia, ib, cs = zip(*self.terms)
            if min(ia) < 0 or max(ia) >= rows or min(ib) < 0 or max(ib) >= cols:
                raise HypothesisViolationError("monomial exponents must lie inside the shape")
            if min(cs) < 1 or max(cs) >= p:
                raise HypothesisViolationError("coefficients must be canonical nonzero residues")

    @property
    def coeffs(self) -> tuple[tuple[int, ...], ...]:
        """The dense grid, coeffs[i][j] = coefficient of a^i b^j."""
        rows, cols = self.shape
        grid = [[0] * cols for _ in range(rows)]
        for i, j, c in self.terms:
            grid[i][j] = c
        return tuple(map(tuple, grid))

    def monomials(self) -> list[tuple[int, int, int]]:
        """Nonzero (a_exp, b_exp, coeff), ascending total degree then descending a."""
        return list(self.terms)

    def render(self, signed: bool = False) -> str:
        """Canonical text form, e.g. "10 + 9 a^7 b^3 + 8 a^6 b^4".

        Coefficients print in [0, p); signed mode shows balanced residues
        instead (purely a display choice).
        """
        if not self.terms:
            return "0"
        p = self.pr.p
        half = p // 2 if signed else p
        parts = []
        for i, j, c in self.terms:
            cc = p - c if c > half else c
            bits = [str(cc)] if cc != 1 or i == j == 0 else []
            if i:
                bits.append("a" if i == 1 else f"a^{i}")
            if j:
                bits.append("b" if j == 1 else f"b^{j}")
            parts.append(("- " if c > half else "+ ") + " ".join(bits))
        text = " ".join(parts)  # "+ t1 - t2 ...": the leading sign is "" or "-"
        return text[2:] if text[0] == "+" else "-" + text[2:]


def _anti_diagonal(rm, rn, t: int, scale: int, p: int) -> list[tuple[int, int, int]]:
    """The monomials a^i1 b^i2 with i1 + i2 = t in descending i1, coefficient
    rm[i1] rn[i2] scale mod p (rm, rn: the binomial rows of m and n)."""
    hi = min(len(rm) - 1, t)
    lo = max(0, t - (len(rn) - 1))
    cs = [x * y * scale % p for x, y in zip(rm[lo : hi + 1][::-1], rn[t - hi : t - lo + 1])]
    return list(zip(range(hi, lo - 1, -1), range(t - hi, t - lo + 1), cs))


def check_table_exponents(p: int, m: int, n: int) -> None:
    """The symbolic tables' exponent check, which needs only p: m, n in [1, p-1]."""
    if not 1 <= m <= p - 1 or not 1 <= n <= p - 1:
        raise HypothesisViolationError("table exponents must lie in [1, p-1]")


def symbolic_coeff_table(pr: Prime, m: int, n: int) -> list[BiPolyZp]:
    """Row j = the bivariate polynomial -[x^j] (a+x)^m (b+x)^n, j = 0..m+n.

    The coefficient of a^i1 b^i2 in row j is -C(m,i1) C(n,i2) whenever
    (m-i1) + (n-i2) = j, so row j is the one anti-diagonal i1 + i2 = m+n-j:
    at most min(m, n)+1 monomials, all nonzero since m, n < p.
    """
    p = pr.p
    check_table_exponents(p, m, n)
    rm = pr.binom_row(m)
    rn = pr.binom_row(n)
    shape = (m + 1, n + 1)
    return [
        BiPolyZp(pr, shape, tuple(_anti_diagonal(rm, rn, m + n - j, p - 1, p)))
        for j in range(m + n + 1)
    ]


def symbolic_sum_table(pr: Prime, m: int, n: int) -> list[BiPolyZp]:
    """Row index s-1 = sum over k of (a+k)^m (b+k)^n k^s symbolically, s = 1..p-1.

    Expanding both shifted binomials symbolically in a, b gives the cell
    C(m,i1) C(n,i2) S[m-i1+n-i2+s] for the monomial a^i1 b^i2, where
    S[e] = sum over k = 1..p-1 of k^e is summed literally, every e at once,
    by one power_moments run.  A cell's S depends only on its anti-diagonal
    t = i1 + i2, so row s visits just the t whose computed S is nonzero.
    The per-variable degrees stay at m and n < p, so nothing collapses
    before evaluation.
    """
    p = pr.p
    check_table_exponents(p, m, n)
    rm = pr.binom_row(m)
    rn = pr.binom_row(n)
    # S[e] for e = 0..p-2; k = 0 adds nothing since every exponent is >= 1,
    # and k != 0 repeats with period p-1 (Fermat) up to e = m+n+p-1
    period = power_moments(pr, ((1, k) for k in range(1, p)))[: p - 1]
    sums = [period[e % (p - 1)] for e in range(m + n + p)]
    shape = (m + 1, n + 1)
    rows = []
    for s in range(1, p):
        terms = []
        for t in range(m + n + 1):
            if sums[m + n + s - t]:
                terms += _anti_diagonal(rm, rn, t, sums[m + n + s - t], p)
        rows.append(BiPolyZp(pr, shape, tuple(terms)))
    return rows


def table_to_json(pr: Prime, rows: list[BiPolyZp], start_index: int = 0) -> str:
    """{"p", "rows": [{"index", "monomials"}]}, encoded one row at a time so
    that only one row's monomial dicts exist at once."""
    encoded = (json.dumps({"index": start_index + i, "monomials": [
        {"ca": ai, "cb": bi, "coeff": c} for ai, bi, c in row.terms]})
        for i, row in enumerate(rows))
    return f'{{"p": {pr.p}, "rows": [{", ".join(encoded)}]}}'
