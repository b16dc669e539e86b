"""n-term sums: multi-index closed form, coefficient extraction, and the
elementary-symmetric-polynomial route.

All three evaluators agree with each other and with the brute-force oracle;
they differ in how they reach the answer, which is the point: each one
cross-checks the others.

Each route has a row entry point, (pr, offsets, head, lasts) -> the sums at
the points (offsets, (*head, m)) for m in lasts, checked once by _check.
The product of the head's factors does not depend on m, so one computation
on the route's own kernel answers the row: one _composition_sums call over
the window [0, max M_1], one cyclic_product, or one _esp_values stream or
one build_product.  A point's sum is minus the sum of its levels
M_1, M_1 - (p-1), ... down to 0: in a row, one strided slice of a list
indexed by level.  A point function is its route's row entry point at one
m_n, so each route is one function.
verify checks the n-term grids a row at a time: every m_n of a head where
an arity is enumerated, and a sample of N instances in ceil(N/r) seeded
rows of r = min(p-1, isqrt(N)) values of m_n, every one in order from
N = (p-1)^2 on and r drawn ones below.

_composition_sums, the multi-index kernel, works on packed rows
(Prime.pack): a row of residues as one big integer, pack_width bytes a
slot, so that one integer product is a whole convolution as long as no
slot sum exceeds p (p-1)^2 (Kronecker substitution).  It multiplies the
running product by one packed weighted row per term, the last one too
when the targets fill their window, and reduces only the window it keeps.
_esp_values, the esp kernel, streams the e-values of the shifted roots
from a linear recurrence of order n-1, the one that Newton's identities
become once the power sums are summed as geometric series; it holds only
its last n-1 values and no table.  Neither calls polyring, whose products
serve the other two routes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import mul

from .errors import DuplicateOffsetsError, HypothesisViolationError, IndexNotInvertibleError
from .modarith import Prime, mod_inverse, unpack_slots
from .polyring import build_product, cyclic_product


def _check(p: int, offsets, head, lasts) -> None:
    """Raise unless every point (offsets, (*head, m)), m in lasts, meets the
    hypotheses: one exponent per offset, offsets pairwise distinct in
    [0, p), every exponent in [1, p-1].  The points differ only in m, so
    the least and the greatest m stand for all of them."""
    if len(offsets) != len(head) + 1 or not lasts:
        raise HypothesisViolationError("offsets and exps must be nonempty, equal length")
    for a in offsets:
        if not 0 <= a < p:
            raise HypothesisViolationError(f"offset {a} outside [0, {p})")
    if len(set(offsets)) != len(offsets):
        raise DuplicateOffsetsError(f"offsets {offsets} are not pairwise distinct")
    for m in (*head, min(lasts), max(lasts)):
        if not 1 <= m <= p - 1:
            raise HypothesisViolationError(f"exponent {m} outside [1, p-1]")


def _shift(p: int, offsets) -> tuple[int, ...]:
    """b_i = a_i - a_n mod p for i < n; all nonzero when the offsets differ."""
    last = offsets[-1]
    return tuple((a - last) % p for a in offsets[:-1])


@dataclass(frozen=True)
class GeneralSumParams:
    """Offsets a_1..a_n (pairwise distinct) and exponents m_1..m_n in [1, p-1].

    Derived data: shifted offsets b_i = a_i - a_n, the level indices
    M_i = sum(m) - i(p-1), and t = the largest i >= 0 with M_i >= 0.
    """

    pr: Prime
    offsets: tuple[int, ...]
    exps: tuple[int, ...]

    def __post_init__(self):
        _check(self.pr.p, self.offsets, self.exps[:-1], self.exps[-1:])

    @property
    def n(self) -> int:
        return len(self.offsets)

    @property
    def total(self) -> int:
        return sum(self.exps)

    @property
    def shifted(self) -> tuple[int, ...]:
        """b_i = a_i - a_n mod p for i < n; all nonzero since offsets differ."""
        return _shift(self.pr.p, self.offsets)

    def level(self, i: int) -> int:
        """M_i = m_1 + ... + m_n - i(p-1)."""
        return self.total - i * (self.pr.p - 1)

    @property
    def t(self) -> int:
        """Largest i with M_i >= 0; equals floor(total / (p-1))."""
        return self.total // (self.pr.p - 1)


def _composition_sums(pr: Prime, exps, bases, targets) -> list[int]:
    """For each target, in the given order, the sum over compositions
    (j_1..j_r) of target with 0 <= j_i <= exps[i] of the products
    C(m_1,j_1)...C(m_r,j_r) b_1^j_1 ... b_r^j_r, mod p.

    That is [x^target] of (1+b_1 x)^m_1 ... (1+b_r x)^m_r.  With every base
    equal to 1 it collapses to C(sum(exps), target) by the Vandermonde
    identity, which the tests exercise.

    A dynamic program over the terms: after term i it holds the
    coefficients of (1+b_1 x)^m_1 ... (1+b_i x)^m_i, but only at the
    indices that can still reach a target, [min target - remaining
    capacity, max target].  Each middle term is one packed product of that
    window and the term's weighted row, unpacked once and sliced to the new
    window.  Targets that fill their window [min, max] (a row's levels)
    take the last term the same way, as one more packed product sliced to
    that window; sparse targets (a point's levels, p-1 apart) take it as one
    sliced dot product each.  Cost: r-1 or r-2 products of at most
    T + max m slots for r terms and top target T, plus O(max m) a sparse
    target.
    """
    p = pr.p
    if not exps:
        return [int(t == 0) for t in targets]
    cap = sum(exps)
    live = [t for t in targets if 0 <= t <= cap]
    if not live:
        return [0] * len(targets)
    lo_t, hi_t = min(live), max(live)
    dense = 1 < len(live) == hi_t - lo_t + 1
    packed = len(exps) - (not dense)  # the terms taken as packed products
    rows = [pr.weighted_row(m, b) for m, b in zip(exps, bases)]
    # cur[j - lo] = [x^j] of the product so far, which is the empty product 1
    # when a sparse last term is the only one
    cur, lo = rows[0] if packed else (1,), 0
    rem = cap - exps[0]
    width = pr.pack_width
    for m, w in zip(exps[1:packed], rows[1:packed]):
        rem -= m
        new_lo = max(lo, lo_t - rem)
        top = min(hi_t, lo + len(cur) - 1 + m)
        # slot s of the product is [x^(lo+s)] of cur times w: at most m+1 <= p
        # products of two residues, which a slot holds
        slots = unpack_slots(pr.pack(cur) * pr.pack(w), width, len(cur) + m)
        cur, lo = [v % p for v in slots[new_lo - lo : top - lo + 1]], new_lo
    if dense:
        return [cur[t - lo] if lo_t <= t <= hi_t else 0 for t in targets]
    m, w = exps[-1], rows[-1]
    hi = lo + len(cur) - 1
    out = []
    for t in targets:
        a, b = max(lo, t - m), min(t, hi)
        if a > b:  # t < 0 or t > sum(exps): no composition
            out.append(0)
        else:
            out.append(sum(map(mul, cur[a - lo : b - lo + 1], reversed(w[t - b : t - a + 1]))) % p)
    return out


def multi_index_row(pr: Prime, offsets, head, lasts) -> list[int]:
    """[multi_index_J at (offsets, (*head, m)) for m in lasts]: the product
    of the head's factors (1 + b_i x)^m_i does not depend on m, so one
    _composition_sums call over every level of the row answers it.  A
    total below p-1 has no level, so its sum is 0."""
    p = pr.p
    _check(p, offsets, head, lasts)
    bases = _shift(p, offsets)
    tops = [sum(head) + m - (p - 1) for m in lasts]  # M_1 at each point
    if len(tops) == 1:  # a point's levels, p-1 apart
        return [-sum(_composition_sums(pr, head, bases, range(tops[0], -1, 1 - p))) % p]
    # a row's levels fill the window [0, max M_1]
    values = _composition_sums(pr, head, bases, range(max(tops) + 1))
    return [-sum(values[t :: 1 - p]) % p if t >= 0 else 0 for t in tops]


def multi_index_J(gp: GeneralSumParams) -> int:
    """Sum over all k of (a_1+k)^m_1 ... (a_n+k)^m_n via bounded compositions."""
    return multi_index_row(gp.pr, gp.offsets, gp.exps[:-1], gp.exps[-1:])[0]


def coeff_extraction_row(pr: Prime, offsets, head, lasts) -> list[int]:
    """[coeff_extraction_sum at (offsets, (*head, m)) for m in lasts], every
    one read from one cyclic_product of the head's factors: the sum at m is
    minus its slot -m mod p-1, 0 where the product does not reach."""
    p = pr.p
    _check(p, offsets, head, lasts)
    c = cyclic_product(pr, _shift(p, offsets), head)
    return [-c[j] % p if j < len(c) else 0 for j in (-m % (p - 1) for m in lasts)]


def coeff_extraction_sum(gp: GeneralSumParams) -> int:
    """Same sum via coefficients of the shifted product polynomial.

    The sum is -sum over i >= 1 of [x^(i(p-1) - m_n)] of the product of
    (b_i + x)^m_i.  Since 1 <= m_n <= p-1, those indices are exactly the
    j >= 0 with j = -m_n mod p-1, so the sum is minus one coefficient of that
    product taken mod x^(p-1) - 1, which polyring.cyclic_product builds in
    at most p-1 packed slots whatever the degree.
    """
    return coeff_extraction_row(gp.pr, gp.offsets, gp.exps[:-1], gp.exps[-1:])[0]


def root_power_sum(gp: GeneralSumParams, r: int) -> int:
    """r-th power sum of the roots of the shifted product polynomial.

    The roots are -b_i with multiplicity m_i, so
    p_r = (-1)^r (m_1 b_1^r + ... + m_{n-1} b_{n-1}^r).
    """
    if r < 1:
        raise HypothesisViolationError("root_power_sum requires r >= 1")
    p = gp.pr.p
    acc = sum(m * pow(b, r, p) for m, b in zip(gp.exps[:-1], gp.shifted)) % p
    return acc if r % 2 == 0 else -acc % p


def _esp_values(pr: Prime, bases, exps, r_max: int):
    """Yield e_0..e_r_max, the coefficients of E(x) = the product over i of
    (1 - b_i x)^m_i, m_i in exps; valid only for r_max < p.

    E is D-finite: with Q = the product of (1 - b_i x), of degree d = n-1,
    and P = -sum of m_i b_i times the product over j != i of (1 - b_j x),
    Q E' = P E.  Comparing coefficients of x^r gives
    (r+1) e_(r+1) = sum over 1 <= k <= d of P_(k-1) e_(r+1-k) - q_k f_(r+1-k),
    with f_i = i e_i, a recurrence of order d.  Each step is one dot product
    over the last d pairs (e_i, f_i), O(n) whatever r, and needs no table.
    """
    p = pr.p
    if r_max >= p:
        raise IndexNotInvertibleError(f"r_max = {r_max} >= p = {p}: index not invertible")
    # pairs[k] = (q_k, P_(k-1)), P_(-1) = 0.  Multiplying in one factor
    # (1 - b x)^m multiplies Q by (1 - b x) and takes P to P (1 - b x) - m b Q.
    pairs = [(1, 0)]
    for b, m in zip(bases, exps):
        mb = m * b
        pairs = [((q - b * q0) % p, (P - b * P0 - mb * q0) % p)
                 for (q, P), (q0, P0) in zip(pairs + [(0, 0)], [(0, 0)] + pairs)]
    # window: e_r, f_r, e_(r-1), f_(r-1), ... (d pairs), against P_0, -q_1,
    # P_1, -q_2, ...; the e-values below index 0 are 0, so a short window
    # needs no padding
    coefs = [c for q, P in pairs[1:] for c in (P, -q % p)]
    window = deque(maxlen=len(coefs))
    fact, inv_fact = pr.fact, pr.inv_fact
    e, f = 1, 0
    for r in range(r_max):
        yield e
        window.extendleft((f, e))
        f = sum(map(mul, coefs, window)) % p
        e = f * fact[r] * inv_fact[r + 1] % p  # 1/(r+1) is r! / (r+1)!
    yield e


def newton_esp(gp: GeneralSumParams, r_max: int) -> tuple[int, ...]:
    """e_0..e_r_max, the elementary symmetric values of the roots of the
    shifted product polynomial; valid only for r_max < p.

    Newton's identities give the same values from the root power sums
    (root_power_sum); _esp_values sums those as geometric series, which
    leaves a recurrence of order n-1.  It divides by r mod p, so indices at
    or above p raise IndexNotInvertibleError; those e-values must come from
    polynomial coefficients instead.
    """
    return tuple(_esp_values(gp.pr, gp.shifted, gp.exps[:-1], r_max))


def esp_row(pr: Prime, offsets, head, lasts) -> list[int]:
    """[esp_sum at (offsets, (*head, m)) for m in lasts], every point read
    from one kernel run once for the row.

    The signed e-values (-1)^r e_r of a row whose largest M_1 reaches p
    are one build_product of the head's factors, its coefficients reversed;
    those of any other row are one _esp_values stream of the bases -b_i to
    its largest M_1.  Each point reads its levels as one strided slice.
    """
    p = pr.p
    _check(p, offsets, head, lasts)
    bases = _shift(p, offsets)
    tops = [sum(head) + m - (p - 1) for m in lasts]  # M_1 at each point
    # s_r = (-1)^r e_r is [x^(s-r)] of the product of (b_i + x)^m_i, monic of
    # degree s = m_1 + ... + m_(n-1), which no level exceeds, and the r-th
    # e-value of the bases -b_i
    if max(tops) < 0:  # no point has a level: every sum is 0, and no kernel runs
        return [0] * len(tops)
    if max(tops) >= p:
        signed = build_product(pr, bases, head).coeffs[::-1]
    else:
        signed = list(_esp_values(pr, [p - b for b in bases], head, max(tops)))
    return [-sum(signed[t :: 1 - p]) % p if t >= 0 else 0 for t in tops]


def esp_sum(gp: GeneralSumParams) -> int:
    """Same sum once more, as -sum over i of (-1)^(M_i) e_(M_i).

    The e-values come from one kernel: the order-(n-1) recurrence
    (_esp_values), streamed to M_1, when M_1 < p, and otherwise the
    coefficients of the whole product, built factor by factor with
    polyring.build_product (M_1 can reach (n-1)(p-1) >= p for n >= 3,
    where the recurrence divides by zero).
    That product is a PolyZp, not the coefficient route's cyclic product, so
    the two routes share no kernel.
    """
    return esp_row(gp.pr, gp.offsets, gp.exps[:-1], gp.exps[-1:])[0]


def scaling_reduce(gp: GeneralSumParams) -> tuple[int, GeneralSumParams]:
    """Rescale a k-term sum so the last-but-one offset becomes 1.

    Requires the k-term form (last offset 0).  Returns (scale, reduced) with
    the original sum congruent to scale * sum(reduced); the scale is
    b_(n-1)^(M_1) with the exponent reduced mod p-1.
    """
    pr = gp.pr
    p = pr.p
    if gp.offsets[-1] != 0:
        raise HypothesisViolationError("scaling_reduce requires the last offset to be 0")
    if gp.n < 2:
        raise HypothesisViolationError("scaling_reduce needs at least two terms")
    pivot = gp.offsets[-2]  # nonzero: the offsets are distinct and the last is 0
    inv = mod_inverse(pivot, p)
    new_offsets = tuple(b * inv % p for b in gp.offsets[:-2]) + (1, 0)
    scale = pow(pivot, gp.level(1) % (p - 1), p)
    return scale, GeneralSumParams(pr, new_offsets, gp.exps)

