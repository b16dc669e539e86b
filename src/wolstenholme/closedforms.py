"""Closed-form evaluators for pair and triple power-term sums.

Each pair and triple form reduces its offsets mod p and tests all of its
hypotheses in one expression; only when that fails does _reject raise a
HypothesisViolationError for the first broken one.  Past the test, ratio_pair
and product_pair are their k forms at d = a - b, triple_binomial is one level
sum, and the others dispatch special cases ahead of a general expression.
Each returns a canonical residue in [0, p), so -2 comes back as p-2.
"""

from __future__ import annotations

from .errors import EqualOffsetsError, HypothesisViolationError, OffsetZeroError
from .modarith import Prime, binom, conv, fermat_reduce, pow_nonzero
from .oracle import SumSpec, auto_exclusions


def power_sum(pr: Prime, n: int) -> int:
    """Sum of k^n over k = 1..p-1: 0 unless (p-1) | n, in which case -1."""
    if n < 0:
        raise HypothesisViolationError("power_sum requires n >= 0")
    return pr.p - 1 if n % (pr.p - 1) == 0 else 0


def _reject(p: int, lo: int, offsets: dict[str, int], exps: dict[str, int]) -> None:
    """Raise for the first hypothesis that a form's arguments break.  The
    offsets {name: residue}, a k factor's first as k = 0, must be pairwise
    distinct (OffsetZeroError where one meets k, else EqualOffsetsError) and
    each exponent lie in [lo, p-1] (HypothesisViolationError)."""
    seen: dict[int, str] = {}
    for name, off in offsets.items():
        other = seen.setdefault(off, name)
        if other != name:
            error = OffsetZeroError if other == "k" else EqualOffsetsError
            raise error(f"{name} = {off} mod {p}, the offset of {other}")
    for name, e in exps.items():
        if not lo <= e <= p - 1:
            raise HypothesisViolationError(f"{name} = {e} outside [{lo}, {p - 1}]")


def ratio_single(pr: Prime, a: int, m: int, n: int) -> int:
    """Sum over k in {1,...,p-1}, k != a, of k^m / (a-k)^n."""
    p = pr.p
    a %= p
    if not (a and 0 <= m < p and 0 <= n < p):
        _reject(p, 0, {"k": 0, "a": a}, {"m": m, "n": n})
    if m == 0 and 1 <= n <= p - 2:
        return -pow(a, p - 1 - n, p) % p
    if n == p - 1 and 1 <= m <= p - 2:
        return -pow(a, m, p) % p
    if m in (0, p - 1) and n in (0, p - 1):
        return p - 2
    val = pow_nonzero(pr, a, m - n) * binom(pr, m, n) % p
    return val if n % 2 == 1 else -val % p


def ratio_pair(pr: Prime, a: int, b: int, m: int, n: int) -> int:
    """Sum over k not congruent to -a, -b of (a+k)^m / (b+k)^n.  With j = a+k
    and d = a-b its terms are (-1)^n j^m / (d-j)^n over j != 0, d, so the
    sum is (-1)^n times ratio_single at d."""
    p = pr.p
    a %= p
    b %= p
    if not (a != b and 0 <= m < p and 0 <= n < p):
        _reject(p, 0, {"a": a, "b": b}, {"m": m, "n": n})
    return (-1) ** n * ratio_single(pr, a - b, m, n) % p


def ratio_equal_offsets(pr: Prime, a: int, m: int, n: int) -> int:
    """Sum over k != -a of (a+k)^m / (a+k)^n, i.e. the equal-offset ratio."""
    p = pr.p
    if not (0 < m < p and 0 < n < p):
        _reject(p, 1, {}, {"m": m, "n": n})
    return power_sum(pr, (m - n) % (p - 1))


def product_pair_k(pr: Prime, a: int, m: int, n: int) -> int:
    """Sum over all k of (a+k)^m * k^n."""
    p = pr.p
    a %= p
    if not (a and 0 < m < p and 0 < n < p):
        _reject(p, 1, {"k": 0, "a": a}, {"m": m, "n": n})
    if m == n == p - 1:
        return p - 2
    c = binom(pr, m, p - 1 - n)
    if c == 0:
        return 0
    # c != 0 forces p-1-n <= m, so the exponent below is >= 0
    return -(pow(a, m + n - (p - 1), p) * c) % p


def product_pair(pr: Prime, a: int, b: int, m: int, n: int) -> int:
    """Sum over all k of (a+k)^m * (b+k)^n, offsets distinct and nonzero: an
    offset 0 is the k factor of product_pair_k.  Shifting k by b leaves
    (a-b+k)^m k^n, so the sum is product_pair_k at a - b."""
    p = pr.p
    a %= p
    b %= p
    if not (a and b and a != b and 0 < m < p and 0 < n < p):
        _reject(p, 1, {"k": 0, "a": a, "b": b}, {"m": m, "n": n})
    return product_pair_k(pr, a - b, m, n)


def triple_binomial(pr: Prime, a: int, b: int, m: int, n: int, s: int) -> int:
    """Sum over all k of (a+k)^m (b+k)^n k^s: minus the banded binomial sums
    conv at the levels M = m+n+s-(p-1), M-(p-1) and M-2(p-1).  M is at most
    2(p-1), and conv is 0 below level 0."""
    p = pr.p
    a %= p
    b %= p
    if not (a and b and a != b and 0 < m < p and 0 < n < p and 0 < s < p):
        _reject(p, 1, {"k": 0, "a": a, "b": b}, {"m": m, "n": n, "s": s})
    M = m + n + s - (p - 1)
    return -(conv(pr, a, b, m, n, M) + conv(pr, a, b, m, n, M - (p - 1))
             + conv(pr, a, b, m, n, M - 2 * (p - 1))) % p


def triple_s1(pr: Prime, a: int, b: int, m: int, n: int) -> int:
    """Sum over all k of (a+k)^m (b+k)^n k."""
    p = pr.p
    a %= p
    b %= p
    if not (a and b and a != b and 0 < m < p and 0 < n < p):
        _reject(p, 1, {"k": 0, "a": a, "b": b}, {"m": m, "n": n})
    d = (a - b) % p
    if m == n == p - 1:
        return (a + b) % p
    if m == p - 1 and n == p - 2:
        return (-2 - b * pow(d, p - 2, p)) % p
    if m == p - 2 and n == p - 1:
        return (-2 + a * pow(d, p - 2, p)) % p
    t1 = pow(d, fermat_reduce(pr, m + n + 1), p) * binom(pr, m, p - n - 2)
    t2 = b * pow(d, fermat_reduce(pr, m + n), p) % p * binom(pr, m, p - n - 1)
    return (-t1 + t2) % p


def triple_s2(pr: Prime, a: int, b: int, m: int, n: int) -> int:
    """Sum over all k of (a+k)^m (b+k)^n k^2.

    The general three-term expression below is provably wrong at exactly
    (m, n) = (p-3, p-1) and (p-1, p-3): the reduction it comes from needs
    an exponent n+1 <= p-1.  Those two cells get the direct reduction to a
    complete pair sum minus the single dropped term instead; brute-force
    equivalence over full grids pins this down.
    """
    p = pr.p
    a %= p
    b %= p
    if not (a and b and a != b and 0 < m < p and 0 < n < p):
        _reject(p, 1, {"k": 0, "a": a, "b": b}, {"m": m, "n": n})
    d = (a - b) % p
    if m == n == p - 1:
        return -(a * a + b * b) % p
    if m == p - 1 and n == p - 2:
        return (2 * b + a * a * pow(d, p - 2, p)) % p
    if m == p - 2 and n == p - 1:
        return (2 * a - b * b * pow(d, p - 2, p)) % p
    if m == n == p - 2:
        return (-1 + 2 * a * b * pow(d, p - 3, p)) % p
    if n == p - 1 and m == p - 3:
        # (a+k)^(p-3) k^2 summed over k != -b, i.e. all k minus the k = -b term
        return (product_pair_k(pr, a, m, 2) - b * b % p * pow(d, m, p)) % p
    if m == p - 1 and n == p - 3:
        return (product_pair_k(pr, b, n, 2) - a * a % p * pow((b - a) % p, n, p)) % p
    t1 = pow(d, fermat_reduce(pr, m + n + 2), p) * binom(pr, m, p - n - 3)
    t2 = 2 * b * pow(d, fermat_reduce(pr, m + n + 1), p) % p * binom(pr, m, p - n - 2)
    t3 = b * b % p * pow(d, fermat_reduce(pr, m + n), p) % p * binom(pr, m, p - n - 1)
    return (-t1 + t2 - t3) % p


def triple_general(pr: Prime, a: int, b: int, m: int, n: int, s: int) -> int:
    """Sum over all k of (a+k)^m (b+k)^n k^s, general exponents."""
    p = pr.p
    a %= p
    b %= p
    if not (a and b and a != b and 0 < m < p and 0 < n < p and 0 < s < p):
        _reject(p, 1, {"k": 0, "a": a, "b": b}, {"m": m, "n": n, "s": s})
    if m == n == s == p - 1:
        return p - 3
    if m == p - 1:
        t = binom(pr, n, p - 1 - s)
        first = pow(b, n + s - (p - 1), p) * t % p if t else 0
        second = pow((b - a) % p, n, p) * pow((-a) % p, s, p) % p
        return (-first - second) % p
    M = m + n + s - (p - 1)
    R = M - (p - 1)
    return -(conv(pr, a, b, m, n, R) + conv(pr, a, b, m, n, M)) % p


def quick_case(spec: SumSpec) -> int | None:
    """Constant shortcut when the spec matches a known corollary shape.

    Never wrong, possibly absent: returns None unless the spec is a pure
    product or pure ratio with denominator-derived exclusions whose exponents
    land in a constant case.
    """
    pr = spec.pr
    p = pr.p
    if spec.exclusions != auto_exclusions(pr, spec.terms):
        return None
    offsets = [off for off, _ in spec.terms]
    if len(set(offsets)) != len(offsets):
        return None
    exps = [e for _, e in spec.terms]
    if any(e == 0 or abs(e) > p - 1 for e in exps):
        return None
    nneg = sum(1 for e in exps if e < 0)
    if nneg == 0:
        total = sum(exps)
        if total < p - 1:
            return 0
        if total == p - 1:
            return p - 1
        if total == p:
            return -sum(e * off for off, e in spec.terms) % p
        if all(e == p - 1 for e in exps):
            return -len(exps) % p
        return None
    if len(spec.terms) == 2 and nneg == 1:
        # ratio of two shifted powers with a smaller numerator exponent
        (m,) = [e for e in exps if e > 0]
        (nn,) = [-e for e in exps if e < 0]
        if m < nn and 1 <= m <= p - 2 and 1 <= nn <= p - 2:
            return 0
        return None
    if len(spec.terms) == 3:
        pos = [e for e in exps if e > 0]
        neg = [-e for e in exps if e < 0]
        if nneg == 1:
            (s,) = neg
            if sum(pos) < s != p - 1:
                return 0
        elif nneg == 2:
            (m,) = pos
            if p - 1 < sum(neg) - m and all(e != p - 1 for e in neg):
                return 0
        else:
            if 2 * (p - 1) < sum(neg) and all(e != p - 1 for e in neg):
                return 0
    return None


def normalize_spec(spec: SumSpec) -> SumSpec:
    """The k-form of a spec: distinct offsets, exponents in [1, p-1], the
    last offset 0, and the same brute_sum.

    Each (c+k)^(-n) becomes (c+k)^(p-1-n), equal wherever c+k != 0.  The
    exponents at one offset add up, in first-occurrence order, and each sum
    is Fermat-reduced into [1, p-1]; an offset whose exponents sum to 0 is
    the factor 1 and drops out.  An exclusion is kept only where the
    rewritten product does not vanish: elsewhere the excluded term is 0
    anyway.  Finally every offset is shifted by the last one, which shifts
    the exclusions the other way.  Never raises.
    """
    pr = spec.pr
    p = pr.p
    net: dict[int, int] = {}
    for off, exp in spec.terms:
        net[off] = net.get(off, 0) + (exp if exp >= 0 else p - 1 + exp)
    terms = [(off, fermat_reduce(pr, e)) for off, e in net.items() if e]
    zeros = {-off % p for off, _ in terms}
    shift = terms[-1][0] if terms else 0
    return SumSpec(
        pr,
        tuple(((off - shift) % p, e) for off, e in terms),
        frozenset((k + shift) % p for k in spec.exclusions if k not in zeros),
    )
