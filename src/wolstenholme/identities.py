"""Binomial-coefficient congruence identities, both sides computed separately.

Each operation evaluates its left and right side independently (no shared
subexpressions) and returns the pair (lhs, rhs), so a test can assert
equality rather than trust either side.  The weighted sums on either side
of comp_general, and the left side of vandermonde, are coefficients
[x^M] (1+ax)^m (1+bx)^n of a product of shifted binomials, read by the one
convolution modarith.conv.  A single coefficient comes from the factorial
tables, as in conv, and only whole rows from Prime.binom_row: sampled
thm3.11 at p = 10007 (budget 1000), one cong_general a point, took 10.7 s
and 1,851 MB with a cached row per term, and takes 0.31 s and 18 MB (on a
2-core VM).  cong_rows gives both sides of cong_general at every j at once,
and vandermonde_rows both sides of vandermonde at every M, its left side one
product of two packed binomial rows.  For the weighted-sum identity,
comp_tables yields the table of one side for every m in turn, each the one
before times (1+ux): one shift, one mask, one add and one slot-wise
reduction mod p inside the packed int, so no big-integer product is built.
The sweep reads all the instances of one (a, b, m) from two such tables.
The right-side table of (a, b) is the left-side table of (a-b, -b) and the
other way round, so one table pair serves both pairs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .errors import (
    EqualOffsetsError,
    HypothesisViolationError,
    RangeViolationError,
)
from .modarith import Prime, binom, conv, pack_slots, unpack_slots


def cancellation(pr: Prime, n: int, k: int, s: int) -> tuple[int, int]:
    """C(n,k) C(k,s) = C(n,s) C(n-s,k-s), an exact integer identity."""
    if not 0 <= s <= k <= n < pr.p:
        raise RangeViolationError(f"need 0 <= s <= k <= n < p, got {(n, k, s)}")
    p = pr.p
    lhs = binom(pr, n, k) * binom(pr, k, s) % p
    rhs = binom(pr, n, s) * binom(pr, n - s, k - s) % p
    return lhs, rhs


def semi_symmetry(pr: Prime, k: int, s: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """C(k,s) against (-1)^(k+s) C(p-1-s,k-s) and (-1)^s C(p-1-k+s,s)."""
    if not 0 <= s <= k < pr.p:
        raise RangeViolationError(f"need 0 <= s <= k < p, got {(k, s)}")
    p = pr.p
    lhs = binom(pr, k, s)
    r1 = binom(pr, p - 1 - s, k - s)
    if (k + s) % 2 == 1:
        r1 = -r1 % p
    r2 = binom(pr, p - 1 - k + s, s)
    if s % 2 == 1:
        r2 = -r2 % p
    return (lhs, r1), (lhs, r2)


def transpose_binomial(pr: Prime, m: int, n: int) -> tuple[int, int]:
    """C(m, p-1-n) against (-1)^(m+n) C(n, p-1-m)."""
    p = pr.p
    if not (0 <= m <= p - 1 and 0 <= n <= p - 1):
        raise RangeViolationError(f"need m, n in [0, p-1], got {(m, n)}")
    lhs = binom(pr, m, p - 1 - n)
    rhs = binom(pr, n, p - 1 - m)
    if (m + n) % 2 == 1:
        rhs = -rhs % p
    return lhs, rhs


def _cong_level(pr: Prime, m: int, n: int, s: int) -> int:
    """M = m+n+s-(p-1), after checking the hypotheses of cong_general."""
    p = pr.p
    if not (0 <= m < p and 0 <= n < p and 0 <= s < p):
        raise HypothesisViolationError(f"need m, n, s in [0, p-1], got {(m, n, s)}")
    M = m + n + s - (p - 1)
    if not 0 <= M < p - 1:
        raise HypothesisViolationError(f"M = {M} outside [0, p-2]")
    return M


def cong_general(pr: Prime, m: int, n: int, s: int, j: int) -> tuple[int, int]:
    """(-1)^j C(m,M-j) C(n,j) against sum over k of C(s,k) C(m,M-k) C(M-k,j-k),
    where M = m+n+s-(p-1).  At s = 0, 1, 2 the right side collapses to one,
    two, and three products respectively.  (M-k)! cancels, so a term is
    s! m! / (k! (s-k)! (m-M+k)! (j-k)! (M-j)!), nonzero for k in
    [max(0, M-m), min(s, j)]: four runs of inv_fact, two of them read
    backwards, zipped and summed, then scaled once at the end.
    """
    p = pr.p
    M = _cong_level(pr, m, n, s)
    if not 0 <= j <= M:
        raise HypothesisViolationError(f"j = {j} outside [0, M = {M}]")
    lhs = binom(pr, m, M - j) * binom(pr, n, j) % p
    if j & 1:
        lhs = -lhs % p
    inv = pr.inv_fact
    lo, hi = max(0, M - m), min(s, j)
    if lo > hi:  # a fifth of sampled draws; skips slicing four empty runs
        return lhs, 0
    acc = sum([w * x * y * z for w, x, y, z in zip(
        inv[lo:hi + 1], inv[s - lo:s - hi - 1 if hi < s else None:-1],
        inv[m - M + lo:m - M + hi + 1], inv[j - lo:j - hi - 1 if hi < j else None:-1])])
    return lhs, acc % p * pr.fact[s] * pr.fact[m] % p * inv[M - j] % p


def cong_rows(pr: Prime, m: int, n: int, s: int) -> tuple[list[int], list[int]]:
    """Both sides of cong_general at every j = 0..M, as two lists.

    The left side is one product per j.  The right side is one big-integer
    combination of the packed binomial rows C(M-k, .), row k shifted by k
    slots and weighted by C(s,k) C(m,M-k), unpacked and reduced once: each
    slot sums at most s+1 <= p products of two residues.
    """
    p = pr.p
    M = _cong_level(pr, m, n, s)
    rm, rn, rs = pr.binom_row(m), pr.binom_row(n), pr.binom_row(s)
    lhs = [rm[M - j] * rn[j] % p if M - j <= m and j <= n else 0 for j in range(M + 1)]
    lhs[1::2] = [-x % p for x in lhs[1::2]]
    bits = 8 * pr.pack_width
    packed = pr.packed_binom_row
    acc = 0
    for k in range(max(0, M - m), min(s, M) + 1):
        acc += (rs[k] * rm[M - k] % p * packed(M - k)) << k * bits
    return lhs, pr.unpack(acc, M + 1)


def comp_tables(pr: Prime, u: int, v: int) -> Iterator[Sequence[int]]:
    """The tables [x^M] (1+ux)^m (1+vx)^t for t = 0..p-1 and M = 0..p-2, one
    sequence each, for m = 1..p-1 in order: the coefficient of row t sits
    at t*p + M, and slot t*p + p-1 is a zero guard.

    The start table, row t the powers (1+vx)^t cut at x^(p-2), is packed at
    reduce_width once per v mod p and kept on the Prime.  Each table is the
    one before, T, plus u times T shifted up one slot, slots p-2 and p-1 of
    each row masked off first so that nothing crosses into the next row,
    then reduced by Prime.reduce_slots (every slot is below p + (p-1)^2).
    With (u, v) = (a, b), row n holds the left side of comp_general at
    every M; with (u, v) = (a-b, -b), row s holds the right side.
    """
    p = pr.p
    u, v = u % p, v % p
    width = pr.reduce_width
    table = pr._starts.get(v)
    if table is None:
        slots = [0] * (p * p)
        for t in range(p):
            w = pr.weighted_row(t, v)[: p - 1]
            slots[t * p : t * p + len(w)] = w
        table = pr._starts[v] = pack_slots(slots, width)
    keep = int.from_bytes((b"\xff" * (p - 2) * width + bytes(2 * width)) * p, "little")
    for _ in range(1, p):
        table = pr.reduce_slots(table + u * ((table & keep) << 8 * width), p * p)
        yield unpack_slots(table, width, p * p)


def comp_general(pr: Prime, a: int, b: int, m: int, n: int, s: int) -> tuple[int, int]:
    """The weighted-sum identity behind the triple closed forms:

    sum_j C(m,M-j) C(n,j) a^(M-j) b^j  against
    sum_k C(m,M-k) C(s,k) (a-b)^(M-k) (-b)^k,  M = m+n+s-(p-1).

    s = 0, 1, 2 are the constant, linear, and quadratic comparison forms.
    """
    p = pr.p
    if not (0 < a < p and 0 < b < p):
        a %= p
        b %= p
        if not (0 < a < p and 0 < b < p):
            raise HypothesisViolationError(f"offsets must be nonzero mod p: {(a, b)}")
    if a == b:
        raise EqualOffsetsError("comp_general requires a != b")
    if not (0 < m < p and 0 < n < p and 0 <= s < p):
        raise HypothesisViolationError(f"exponents outside hypothesis: {(m, n, s)}")
    M = m + n + s - (p - 1)
    if not 0 <= M < p - 1:
        raise HypothesisViolationError(f"M = {M} outside [0, p-2]")
    return conv(pr, a, b, m, n, M), conv(pr, a - b, -b, m, s, M)


def vandermonde(pr: Prime, m: int, n: int, M: int) -> tuple[int, int]:
    """sum_j C(m,M-j) C(n,j) against C(m+n,M), tops kept below p."""
    p = pr.p
    if m < 0 or n < 0 or m + n > p - 1:
        raise RangeViolationError(f"need m, n >= 0 with m+n <= p-1, got {(m, n)}")
    if not 0 <= M <= m + n:
        raise RangeViolationError(f"M = {M} outside [0, m+n]")
    return conv(pr, 1, 1, m, n, M), binom(pr, m + n, M)


def vandermonde_rows(pr: Prime, m: int, n: int) -> tuple[list[int], list[int]]:
    """Both sides of vandermonde at every M = 0..m+n, as two lists.

    The left side is the product of the packed binomial rows of m and n,
    unpacked and reduced once: slot M sums at most p products of two
    residues.  The right side is the binomial row of m+n.
    """
    if m < 0 or n < 0 or m + n > pr.p - 1:
        raise RangeViolationError(f"need m, n >= 0 with m+n <= p-1, got {(m, n)}")
    lhs = pr.unpack(pr.packed_binom_row(m) * pr.packed_binom_row(n), m + n + 1)
    return lhs, list(pr.binom_row(m + n))
