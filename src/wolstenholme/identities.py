"""Binomial-coefficient congruence identities, both sides computed separately.

Each operation evaluates its left and right side independently (no shared
subexpressions) and returns the pair (lhs, rhs), so a test can assert
equality rather than trust either side.  The weighted sums on either side
of comp_general, and the left side of vandermonde, are coefficients
[x^M] (1+ax)^m (1+bx)^n of a product of shifted binomials, read by the one
convolution modarith.conv.  A single coefficient comes from the factorial
tables, as in conv, and only whole rows from Prime.binom_row: sampled
thm3.11 at p = 10007 (budget 1000), one cong_general a point, took 10.7 s
and 1,851 MB with a cached row per term, and takes 0.28 s and 19 MB in one
CLI process (on a 2-core VM).  cancellation_rows gives both sides of
cancellation at every s, and vandermonde_rows both sides of vandermonde at
every M, its left side one product of two packed binomial rows.  The
exhaustive sweeps of cong_general and comp_general read both sides from
tables of coefficients of bivariate or univariate products, each the one
before times a binomial.  One step, _chain, builds every such table from
the one before: the caller's masked and shifted copies added, then all p^2
slots reduced mod p inside the packed int by one slot-wise Barrett step
(P. Barrett, CRYPTO '86) sized for slots below p^2, the bound no chain
passes, so no big-integer product is built.  cong_left_tables and
cong_right_tables give the two sides of cong_general from different
products, (1+y)^m (1-xy)^n and (1+(1+x)y)^m (1+xy)^s.  comp_tables yields
the table of one side of comp_general for every m in turn, each the one
before times (1+ux); the sweep reads all the instances of one (a, b, m)
from two such tables.  The right-side table of (a, b) is the left-side
table of (a-b, -b) and the other way round, so one table pair serves both
pairs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import islice

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


def cancellation_rows(pr: Prime, n: int, k: int) -> tuple[list[int], list[int]]:
    """Both sides of cancellation at every s = 0..k, as two lists: C(n,k)
    times the binomial row of k, and the binomial row of n times
    C(n-s, k-s) = (n-s)! / ((k-s)! (n-k)!) from the factorial tables."""
    if not 0 <= k <= n < pr.p:
        raise RangeViolationError(f"need 0 <= k <= n < p, got {(n, k)}")
    p, fact, inv = pr.p, pr.fact, pr.inv_fact
    c = binom(pr, n, k)
    lhs = [c * x % p for x in pr.binom_row(k)]
    d = inv[n - k]
    return lhs, [x * f % p * i % p * d % p for x, f, i in zip(
        pr.binom_row(n), fact[n : n - k - 1 if k < n else None : -1], inv[k::-1])]


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
    """M = m+n+s-(p-1), after checking m, n, s in [0, p-1] and M in [0, p-2]."""
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


def _barrett(pr: Prime) -> tuple[int, int, int, int]:
    """(width, shift, mult, mask) of the step of _chain at pr, built on the
    first read and kept on the Prime: 2 bytes a slot at p = 5-11, 4 bytes
    at p = 13-181 and 8 bytes from p = 191."""
    if pr._chain is None:
        p = pr.p
        bits = (p * p).bit_length()
        shift = bits + p.bit_length()
        mult = -(-(1 << shift) // p)
        width = 1
        while 8 * width < bits + mult.bit_length():
            width *= 2
        mask = pack_slots([(1 << (8 * width - shift)) - 1] * (p * p), width)
        pr._chain = (width, shift, mult, mask)
    return pr._chain


def _chain(pr: Prime, packed: int, add) -> Iterator[int]:
    """The one step of every table chain: yield packed, p^2 slots of width
    bytes (see _barrett), then packed + add(packed) with every slot reduced
    mod p, and so on.  add masks and shifts its table so that nothing moves
    past the p^2 slots and each slot x of the sum stays below p^2 < 2^bits,
    bits the length of p^2.

    With shift k = bits + p.bit_length() and mult c = ceil(2^k / p), each
    slot's x c fits its slot, so ((packed c) >> k) masked to the low
    8 width - k bits of each slot is floor(x c / 2^k) in every slot at
    once.  That is floor(x / p) exactly: with e = c p - 2^k < p,
    x c / 2^k = x/p + x e / (p 2^k), and x e < 2^k, so the excess stays
    below 1/p.  Subtracting p times those quotients leaves x mod p in every
    slot, no borrow crossing a slot.
    """
    p = pr.p
    _, shift, mult, mask = _barrett(pr)
    while True:
        yield packed
        packed += add(packed)
        packed -= p * ((packed * mult >> shift) & mask)


def cong_right_tables(pr: Prime) -> Iterator[list[Sequence[int]]]:
    """For m = 0..p-1 in order, the p tables of T = (1+(1+x)y)^m (1+xy)^s,
    s = 0..p-1: cell M*p + j of table s holds [x^j y^M] T, the right side
    sum over k of C(s,k) C(m,M-k) C(M-k,j-k) of cong_general.

    U = (1+(1+x)y)^m is the U of m-1 plus itself shifted p and p+1 slots
    (times y and xy), and has no y^p term; table s+1 is table s plus itself
    shifted p+1 slots, row p-1 masked off first.  So nothing leaves the p^2
    slots, and j <= M in every row, so no shift crosses into the next row
    within them.  Every slot is below 3p before the step of _chain reduces
    it.  The one list is refilled in place for each m, so that only one
    m's tables are held (3.6 MB at p = 97): read it before the next step.
    """
    p = pr.p
    width = _barrett(pr)[0]
    bits = 8 * width
    keep = (1 << bits * p * (p - 1)) - 1
    tables = [None] * p
    for u in islice(_chain(pr, 1, lambda u: (u << bits * p) + (u << bits * (p + 1))), p):
        for s, t in enumerate(islice(_chain(pr, u, lambda t: (t & keep) << bits * (p + 1)), p)):
            tables[s] = unpack_slots(t, width, p * p)
        yield tables


def cong_left_tables(pr: Prime, m: int) -> Iterator[Sequence[int]]:
    """For n = 0..p-1 in order, the table of Q = (1+y)^m (1-xy)^n: cell
    M*p + j holds [x^j y^M] Q, the left side (-1)^j C(m,M-j) C(n,j) of
    cong_general.  Cell M*p of the first holds C(m, M); each later one is
    the one before plus p-1 times itself shifted p+1 slots (times -xy),
    row p-1 masked off first, reduced by the step of _chain (every slot is
    below p + (p-1)^2 < p^2)."""
    p = pr.p
    width = _barrett(pr)[0]
    bits = 8 * width
    keep = (1 << bits * p * (p - 1)) - 1
    slots = [0] * (p * p)
    slots[: (m + 1) * p : p] = pr.binom_row(m)
    for q in islice(_chain(pr, pack_slots(slots, width),
                           lambda q: (p - 1) * ((q & keep) << bits * (p + 1))), p):
        yield unpack_slots(q, width, p * p)


def comp_tables(pr: Prime, u: int, v: int) -> Iterator[Sequence[int]]:
    """The tables [x^M] (1+ux)^m (1+vx)^t for t = 0..p-1 and M = 0..p-2, one
    sequence each, for m = 1..p-1 in order: the coefficient of row t sits
    at t*p + M, and slot t*p + p-1 is a zero guard.

    The start table, row t the powers (1+vx)^t cut at x^(p-2), is packed
    at the width of _barrett once per v mod p and kept on the Prime.  Each
    table is the one before, T, plus u times T shifted up one slot, slots
    p-2 and p-1 of each row masked off first so that nothing crosses into
    the next row, then reduced by the step of _chain (every slot is below
    p + (p-1)^2 < p^2).  With (u, v) = (a, b), row n holds the left side of
    comp_general at every M; with (u, v) = (a-b, -b), row s holds the right
    side.
    """
    p = pr.p
    u, v = u % p, v % p
    width = _barrett(pr)[0]
    table = pr._starts.get(v)
    if table is None:
        slots = [0] * (p * p)
        for t in range(p):
            w = pr.weighted_row(t, v)[: p - 1]
            slots[t * p : t * p + len(w)] = w
        table = pr._starts[v] = pack_slots(slots, width)
    keep = int.from_bytes((b"\xff" * (p - 2) * width + bytes(2 * width)) * p, "little")
    for table in islice(_chain(pr, table, lambda t: u * ((t & keep) << 8 * width)), 1, p):
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
    M = _cong_level(pr, m, n, s)
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
