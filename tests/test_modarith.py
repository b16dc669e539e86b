import functools
import math
import random

import pytest

from wolstenholme import modarith
from wolstenholme.errors import (
    HypothesisViolationError,
    NotInvertibleError,
    NotPrimeError,
    TooSmallError,
    TopOutOfRangeError,
    WolstenholmeError,
    ZeroDenominatorError,
)
from wolstenholme.identities import cancellation
from wolstenholme.modarith import (
    binom,
    conv,
    fermat_reduce,
    is_prime,
    make_prime,
    mod_inverse,
    pack_slots,
    pow_nonzero,
)
from wolstenholme.polyring import BiPolyZp, PolyZp

PRIMES = (5, 7, 11, 13, 17)


def test_make_prime_accepts_primes():
    for p in PRIMES:
        pr = make_prime(p)
        assert pr.p == p


def test_make_prime_rejects_composites_and_small():
    with pytest.raises(NotPrimeError):
        make_prime(9)
    with pytest.raises(NotPrimeError):
        make_prime(91)  # 7 * 13
    with pytest.raises(TooSmallError):
        make_prime(3)
    with pytest.raises(TooSmallError):
        make_prime(2)
    with pytest.raises(TooSmallError):
        make_prime(-7)


def test_factorial_tables():
    for p in PRIMES:
        pr = make_prime(p)
        assert pr.fact[0] == 1
        for i in range(1, p):
            assert pr.fact[i] == i * pr.fact[i - 1] % p
            assert pr.fact[i] * pr.inv_fact[i] % p == 1


def test_mod_inverse_examples():
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(4, 25) == 19
    with pytest.raises(NotInvertibleError, match=r"^5 not invertible mod 25 \(gcd = 5\)$"):
        mod_inverse(5, 25)


def test_mod_inverse_matches_fermat_exponentiation():
    for p in PRIMES:
        for a in range(1, p):
            assert mod_inverse(a, p) == pow(a, p - 2, p)


def test_mod_inverse_prime_square():
    for p in (5, 7, 11):
        p2 = p * p
        for a in range(1, p2):
            if a % p == 0:
                continue
            assert a * mod_inverse(a, p2) % p2 == 1


def test_binom_examples():
    pr = make_prime(11)
    assert binom(pr, 7, 3) == 2
    assert binom(pr, 7, -1) == 0
    assert binom(pr, 3, 5) == 0
    with pytest.raises(TopOutOfRangeError):
        binom(pr, 11, 3)
    with pytest.raises(TopOutOfRangeError):
        binom(pr, -1, 0)


def test_binom_matches_math_comb():
    for p in PRIMES:
        pr = make_prime(p)
        for n in range(p):
            for k in range(n + 1):
                assert binom(pr, n, k) == math.comb(n, k) % p


def test_binom_pascal():
    for p in PRIMES:
        pr = make_prime(p)
        for n in range(1, p):
            for k in range(n + 1):
                assert binom(pr, n, k) == (binom(pr, n - 1, k - 1) + binom(pr, n - 1, k)) % p


def test_binom_cancellation_identity():
    for p in (7, 11):
        pr = make_prime(p)
        for n in range(p):
            for k in range(n + 1):
                for s in range(k + 1):
                    lhs = binom(pr, n, k) * binom(pr, k, s) % p
                    rhs = binom(pr, n, s) * binom(pr, n - s, k - s) % p
                    assert lhs == rhs


def test_fermat_reduce():
    pr = make_prime(11)
    assert fermat_reduce(pr, 19) == 9
    assert fermat_reduce(pr, 10) == 10
    assert fermat_reduce(pr, 3) == 3
    assert fermat_reduce(pr, 20) == 10
    with pytest.raises(ValueError):
        fermat_reduce(pr, 0)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda pr: fermat_reduce(pr, 0), HypothesisViolationError, id="fermat_reduce"),
    pytest.param(lambda pr: pow_nonzero(pr, 11, 3), ZeroDenominatorError, id="pow_nonzero"),
    pytest.param(lambda pr: PolyZp(pr, (1, 0)), HypothesisViolationError, id="PolyZp"),
    pytest.param(lambda pr: BiPolyZp(pr, (2, 2), ((2, 0, 1),)), HypothesisViolationError,
                 id="BiPolyZp-exponent"),
    pytest.param(lambda pr: BiPolyZp(pr, (2, 2), ((1, 0, 11),)), HypothesisViolationError,
                 id="BiPolyZp-coefficient"),
    # RangeViolationError is a HypothesisViolationError
    pytest.param(lambda pr: cancellation(pr, 3, 4, 0), HypothesisViolationError,
                 id="RangeViolationError"),
])
def test_every_raise_is_in_the_error_family(call, error):
    with pytest.raises(error) as info:
        call(make_prime(11))
    assert isinstance(info.value, WolstenholmeError)


def test_fermat_reduce_preserves_powers():
    for p in (7, 11):
        pr = make_prime(p)
        for a in range(1, p):
            for e in range(1, 3 * p):
                assert pow(a, e, p) == pow(a, fermat_reduce(pr, e), p)


def test_fermat_little_theorem():
    for p in PRIMES:
        for a in range(1, p):
            assert pow(a, p - 1, p) == 1


def test_pow_nonzero_negative_exponents():
    pr = make_prime(11)
    for a in range(1, 11):
        for e in range(-15, 16):
            want = pow(mod_inverse(a, 11), -e, 11) if e < 0 else pow(a, e, 11)
            assert pow_nonzero(pr, a, e) == want


def test_prime_lookup_caches():
    pr = make_prime(13)
    assert pr.binom_row(6) == tuple(math.comb(6, k) % 13 for k in range(7))
    assert pr.powers(2) == tuple(pow(2, e, 13) for e in range(13))
    w = pr.weighted_row(5, 3)
    assert w == tuple(math.comb(5, i) * pow(3, i, 13) % 13 for i in range(6))
    assert pr.weighted_row(5, 3 + 13) == w  # base taken mod p


def test_weighted_row_rejects_tops_outside_0_to_p():
    pr = make_prime(13)
    pr.weighted_row(12, 3)  # rows cached at n = p-1 must not answer n = -1
    pr.packed_binom_row(12)
    for n in (-1, 13, 14):
        with pytest.raises(TopOutOfRangeError):
            pr.weighted_row(n, 3)
        with pytest.raises(TopOutOfRangeError):
            pr.packed_binom_row(n)


def _expanded(p, a, b, m, n):
    """The coefficients of (1+ax)^m (1+bx)^n mod p, multiplied out term by term."""
    out = [0] * (m + n + 1)
    for i in range(m + 1):
        for j in range(n + 1):
            out[i + j] += math.comb(m, i) * a ** i * math.comb(n, j) * b ** j
    return [c % p for c in out]


def test_conv_matches_expanded_product():
    # [x^t] (1+ax)^m (1+bx)^n, including t just outside [0, m+n]
    rng = random.Random(5)
    cases = [(p, a, b, m, n) for p in (5, 7, 13) for a in range(p) for b in range(p)
             for m in range(p) for n in range(p)]
    cases += [(31, rng.randrange(-31, 62), rng.randrange(-31, 62),
               rng.randrange(31), rng.randrange(31)) for _ in range(500)]
    primes = {p: make_prime(p) for p in (5, 7, 13, 31)}
    for p, a, b, m, n in cases:
        pr = primes[p]
        want = [0, *_expanded(p, a, b, m, n), 0]  # t = -1 .. m+n+1
        assert [conv(pr, a, b, m, n, t) for t in range(-1, m + n + 2)] == want, (p, a, b, m, n)


@functools.cache
def _comb_row(p, m):
    return [math.comb(m, k) % p for k in range(m + 1)]


def _conv_sum(p, a, b, m, n, t):
    """[x^t] (1+ax)^m (1+bx)^n mod p as the plain sum over j."""
    cm, cn = _comb_row(p, m), _comb_row(p, n)
    return sum(cm[t - j] * cn[j] * pow(a, t - j, p) * pow(b, j, p)
               for j in range(max(0, t - m), min(n, t) + 1)) % p


@pytest.mark.parametrize("p", [257, 1009])
def test_conv_at_large_p_and_its_edges(p):
    pr = make_prime(p)
    rng = random.Random(p)
    bases = (0, 1, 2, p - 1, -1, -p - 3, p, p + 5, 2 * p + 1)
    cases = [(p - 1, p - 1, a, b, t) for a in (0, 3, p - 1) for b in (0, 5, p - 1)
             for t in (-1, 0, 1, p - 2, p - 1, p, 2 * p - 2, 2 * p - 1)]
    for _ in range(20):
        m, n = rng.randrange(p), rng.randrange(p)
        cases += [(m, n, rng.choice(bases), rng.choice(bases), t)
                  for t in (-1, 0, m, n, rng.randrange(m + n + 1), m + n, m + n + 1)]
    for m, n, a, b, t in cases:
        assert conv(pr, a, b, m, n, t) == _conv_sum(p, a, b, m, n, t), (m, n, a, b, t)
    # the full window: every j = 0..p-1 contributes at t = p-1
    assert conv(pr, 3, 5, p - 1, p - 1, p - 1) == _conv_sum(p, 3, 5, p - 1, p - 1, p - 1)


@pytest.mark.parametrize("p,code", [(5, "B"), (251, "B"), (257, "H"), (1009, "H"), (65521, "H"),
                                    (65537, "I")])
def test_power_column_values_and_range(p, code):
    # two seeded exponents besides the edges; 65521 is the last prime of
    # column code H and 65537 the first of I
    pr = make_prime(p)
    assert pr.column_code == code
    for e in (0, 1, 2, p - 1, -1, -2, -(p - 1), *random.Random(p).sample(range(2, p - 1), 2)):
        col = pr.power_column(e)
        assert col.typecode == code and pr.power_column(e) is col
        assert list(col) == [pow(x, e, p) if x or e >= 0 else 0 for x in range(p)]
    assert pr.power_column(0)[0] == 1 and pr.power_column(3)[0] == 0  # 0^0 = 1
    for e in (p, -p):
        with pytest.raises(HypothesisViolationError):
            pr.power_column(e)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 251, 257])
def test_every_power_column_is_exact_in_every_read_order(p):
    # every exponent read in ascending and descending order, negatives first
    # and seeded random, each on a fresh Prime: the sieve builds the first
    # p/4 positive columns, one running product fills the rest and each
    # negative column permutes its positive twin.  Every value is what pow
    # gives, 0 at a negative exponent's zero base, and each column is built
    # once.  251 is the last prime of column code B and 257 the first of H
    exps = list(range(-(p - 1), p))
    orders = {"ascending": exps, "descending": exps[::-1],
              "negatives first": sorted(exps, key=lambda e: (e >= 0, -e)),
              "random": random.Random(p).sample(exps, len(exps))}
    for order, exps in orders.items():
        pr = make_prime(p)
        for e in exps:
            col = pr.power_column(e)
            assert col.typecode == pr.column_code and pr.power_column(e) is col
            assert list(col) == [pow(x, e, p) if x or e >= 0 else 0 for x in range(p)], (order, e)
        assert 0 < pr._pow_columns < p - 1 and len(pr._columns) == 2 * p - 1, order


@pytest.mark.parametrize("p", [5, 13, 257, 1009, 65537])
def test_sieve_table_holds_each_smallest_prime_factor(p):
    # built by the first positive column, not by column -1; x = 0, 1 hold x
    pr = make_prime(p)
    pr.power_column(-1)
    assert pr._spf is None
    pr.power_column(2)
    want = [next((d for d in range(2, math.isqrt(x) + 1) if x % d == 0), x) for x in range(p)]
    assert pr._spf.typecode == pr.column_code and list(pr._spf) == want


@pytest.mark.parametrize("p", [257, 1009])
def test_sieve_column_calls_pow_once_per_prime_base(monkeypatch, p):
    # pi(p-1) calls per column, each at a prime base and the exponent itself:
    # every composite base is a product of two entries already built
    pr = make_prime(p)
    calls = []
    monkeypatch.setattr(modarith, "pow", lambda *args: calls.append(args) or pow(*args),
                        raising=False)
    primes = [x for x in range(2, p) if is_prime(x)]
    for e in [0, 1, p - 1, *random.Random(p).sample(range(2, p - 1), 5)]:
        calls.clear()
        assert list(pr.power_column(e)) == [pow(x, e, p) for x in range(p)]
        assert calls == [(q, e, p) for q in primes], e


def test_fill_builds_columns_only_up_to_the_exponent_read():
    # once the sieve has built p/4 columns, a miss builds the columns from the
    # largest cached exponent below it up to it, and none above
    p = 1009
    pr = make_prime(p)
    for e in range(1, 254):
        pr.power_column(e)
    assert pr._pow_columns == 253 and 4 * 253 >= p
    for e, cached in ((300, range(1, 301)), (0, range(301)), (p - 1, range(p))):
        assert list(pr.power_column(e)) == [pow(x, e, p) for x in range(p)]
        assert pr._columns.keys() == set(cached) and pr._pow_columns == 253


def test_conv_caches_nothing():
    pr = make_prime(257)
    rng = random.Random(3)
    for _ in range(300):
        m, n = rng.randrange(257), rng.randrange(257)
        conv(pr, rng.randrange(-300, 600), rng.randrange(-300, 600), m, n,
             rng.randrange(-1, m + n + 2))
    for cache in (pr._packed, pr._binom_rows):
        assert cache == {}


def test_conv_rejects_tops_at_or_above_p():
    pr = make_prime(11)
    with pytest.raises(TopOutOfRangeError):
        conv(pr, 1, 1, 11, 3, 4)
    with pytest.raises(TopOutOfRangeError):
        conv(pr, 1, 1, 3, 11, 4)
    assert conv(pr, 1, 1, 11, 3, -1) == 0  # an empty window reads no table


def test_is_prime_small():
    assert [n for n in range(2, 32) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
    ]


@pytest.mark.parametrize("byte_path", [False, True])
@pytest.mark.parametrize("p,width", [(5, 2), (7, 4), (19, 4), (31, 4), (37, 8), (1009, 8)])
def test_reduce_slots_matches_remainders(monkeypatch, p, width, byte_path):
    # the slot-wise Barrett step against v % p at the edges of its range,
    # 0 .. 2^B - 1 with B the bit length of p (p-1)^2, and seeded values
    if byte_path:  # the slot-by-slot packing that big-endian hosts take
        monkeypatch.setattr(modarith, "_SLOT_CODES", {})
    pr = make_prime(p)
    assert pr.reduce_width == width
    top = (1 << (p * (p - 1) ** 2).bit_length()) - 1
    rng = random.Random(p)
    values = [0, 1, p - 1, p, 2 * p - 1, top, top - 1, top - p, p * (p - 1) ** 2, 0]
    values += [rng.randrange(top + 1) for _ in range(200)] + [top] * 3
    got = pr.reduce_slots(pack_slots(values, width), len(values))
    assert list(got) == [v % p for v in values]
    # trailing zero slots are reduced too
    got = pr.reduce_slots(pack_slots(values[:5], width), 9)
    assert list(got) == [v % p for v in values[:5]] + [0] * 4
