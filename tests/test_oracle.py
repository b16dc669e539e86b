import random

import pytest

from wolstenholme import modarith
from wolstenholme.errors import HypothesisViolationError, ZeroDenominatorError
from wolstenholme.modarith import make_prime, mod_inverse
from wolstenholme.oracle import (
    SumSpec,
    auto_exclusions,
    brute_sum,
    brute_sum_mod_p2,
    make_spec,
    power_moments,
    residue_matrix,
)


def test_auto_exclusions():
    pr = make_prime(17)
    assert auto_exclusions(pr, [(3, -13), (8, -8), (7, 9)]) == {14, 9}
    pr11 = make_prime(11)
    assert auto_exclusions(pr11, [(4, 3)]) == frozenset()
    assert auto_exclusions(pr11, [(0, -1)]) == {0}


def test_make_spec_normalizes_and_defaults():
    pr = make_prime(11)
    spec = make_spec(pr, [(-1, 3), (14, -2)])
    assert spec.terms == ((10, 3), (3, -2))
    assert spec.exclusions == {8}


def test_spec_validation():
    pr = make_prime(11)
    with pytest.raises(HypothesisViolationError):
        SumSpec(pr, ((12, 3),), frozenset())
    with pytest.raises(HypothesisViolationError):
        SumSpec(pr, ((3, 11),), frozenset())
    with pytest.raises(HypothesisViolationError):
        SumSpec(pr, ((3, 2),), frozenset({11}))


def test_brute_sum_worked_examples():
    pr17 = make_prime(17)
    spec = make_spec(pr17, [(3, -13), (8, -8), (7, 9)])
    assert spec.exclusions == {14, 9}
    assert brute_sum(spec) == 8

    pr23 = make_prime(23)
    spec = make_spec(pr23, [(7, -16), (13, -17), (18, -19)])
    assert spec.exclusions == {16, 10, 5}
    assert brute_sum(spec) == 0

    pr5 = make_prime(5)
    assert brute_sum(SumSpec(pr5, ((0, 4),), frozenset({0}))) == 4


def test_brute_sum_zero_denominator():
    pr = make_prime(11)
    with pytest.raises(ZeroDenominatorError):
        brute_sum(SumSpec(pr, ((4, -2),), frozenset()))


def test_brute_sum_exponent_zero_counts_excluded_terms():
    # 0^0 = 1, so skipping k changes a sum of exponent-0 terms
    pr = make_prime(7)
    full = brute_sum(SumSpec(pr, ((2, 0),), frozenset()))
    skipped = brute_sum(SumSpec(pr, ((2, 0),), frozenset({5})))
    assert full == 0  # seven ones
    assert skipped == 6


def _plain_sum(p, terms, exclusions):
    """The sum over k outside exclusions of the product of (off+k)^e, one
    pow at a time."""
    total = 0
    for k in range(p):
        if k not in exclusions:
            prod = 1
            for off, e in terms:
                prod = prod * pow(off + k, e, p) % p
            total += prod
    return total % p


def _seeded_specs(pr, count, rng):
    """count specs of 0 to 5 terms: offsets drawn from a small pool (so they
    repeat) that holds 0 and the offsets near p-1 where a rotation wraps;
    exponents 0, 1, +-(p-1) and random signed ones, so that zero bases meet
    exponent 0, positive and negative exponents.  Each negative exponent's
    zero is excluded, and up to two more k besides."""
    p = pr.p
    for _ in range(count):
        pool = [0, 1, p - 2, p - 1, rng.randrange(p), rng.randrange(p)]
        exps = [0, 1, p - 1, -1, -(p - 1), rng.randrange(-(p - 1), p)]
        terms = tuple((rng.choice(pool), rng.choice(exps)) for _ in range(rng.randrange(6)))
        extra = rng.sample(range(p), rng.randrange(3))
        yield terms, auto_exclusions(pr, terms) | frozenset(extra)


@pytest.mark.parametrize("p,count", [(5, 400), (7, 400), (11, 400), (13, 400),
                                     (257, 150), (1009, 40)])
def test_brute_sum_matches_a_plain_double_loop(p, count):
    pr = make_prime(p)
    for terms, excl in _seeded_specs(pr, count, random.Random(p)):
        assert brute_sum(SumSpec(pr, terms, excl)) == _plain_sum(p, terms, excl), (terms, excl)
    # every base at exponent 0: 0^0 = 1, so each k counts once
    assert brute_sum(SumSpec(pr, ((0, 0),), frozenset())) == 0
    assert brute_sum(SumSpec(pr, ((p - 1, 0), (1, 0)), frozenset({3}))) == p - 1
    # a zero base at a positive exponent vanishes; the rotation wraps at p-1
    assert brute_sum(SumSpec(pr, ((p - 1, 1), (0, p - 1)), frozenset())) == _plain_sum(
        p, ((p - 1, 1), (0, p - 1)), ())


@pytest.mark.parametrize("p,code", [(65521, "H"), (65537, "I")])
def test_brute_sum_at_the_column_typecode_edge(p, code):
    # p-1 is the largest residue a column holds: it fits 16 bits at 65521,
    # not at 65537
    pr = make_prime(p)
    terms = ((0, 1), (p - 1, -1), (p - 2, p - 1))
    excl = frozenset({1, 5})
    assert brute_sum(SumSpec(pr, terms, excl)) == _plain_sum(p, terms, excl)
    assert pr.column_code == code and pr.power_column(1)[p - 1] == p - 1


@pytest.mark.parametrize("p", [97, 1009])
def test_five_term_brute_sum_builds_only_its_own_columns(p):
    # five terms read their own columns, the positive twins of the negative
    # ones, -(p-1)'s twin a term's own, and column -1 that the negative ones
    # are read through, all four positive ones by the sieve: far below the p/4
    # that would fill the rest
    pr = make_prime(p)
    terms = ((1, 3), (2, -5), (4, p - 1), (7, -(p - 1)), (9, 1 - p // 2))
    excl = auto_exclusions(pr, terms)
    assert brute_sum(SumSpec(pr, terms, excl)) == _plain_sum(p, terms, excl)
    exps = {e for off, e in terms}
    assert pr._columns.keys() == exps | {-e for e in exps if e < 0} | {-1}
    assert pr._pow_columns == 4


def test_brute_sum_zero_denominator_message():
    # two denominators vanish unexcluded, (3+k) at k = 8 and (5+k) at k = 6:
    # the smaller k is named, and at one k the first such term
    pr = make_prime(11)
    spec = SumSpec(pr, ((3, -2), (1, 4), (5, -1)), frozenset())
    with pytest.raises(ZeroDenominatorError) as err:
        brute_sum(spec)
    assert str(err.value) == "denominator ((5)+k)^-1 vanishes at unexcluded k = 6"
    with pytest.raises(ZeroDenominatorError) as err:
        brute_sum(SumSpec(pr, ((3, -2), (5, -3), (5, -1)), frozenset({8})))
    assert str(err.value) == "denominator ((5)+k)^-3 vanishes at unexcluded k = 6"


def test_power_sums_match_divisibility_rule():
    for p in (5, 7, 11):
        for n in range(0, 3 * (p - 1) + 1):
            got = sum(pow(k, n, p) for k in range(1, p)) % p
            want = p - 1 if n % (p - 1) == 0 else 0
            assert got == want


def test_brute_sum_mod_p2_values():
    pr5 = make_prime(5)
    assert brute_sum_mod_p2(pr5, 1) == 0  # 1 + 13 + 17 + 19 = 50
    # the cubic sum is NOT 0 mod p^2 at p = 5 (it is 20); only mod p
    assert brute_sum_mod_p2(pr5, 3) == 20
    assert brute_sum_mod_p2(pr5, 3) % 5 == 0
    pr7 = make_prime(7)
    assert brute_sum_mod_p2(pr7, 2) == 14
    assert brute_sum_mod_p2(pr7, 2) % 7 == 0
    assert brute_sum_mod_p2(pr7, 3) == 0  # strengthening holds for p > 5
    with pytest.raises(HypothesisViolationError):
        brute_sum_mod_p2(pr5, 4)
    with pytest.raises(HypothesisViolationError):
        brute_sum_mod_p2(pr5, 0)


def test_mod_p2_reduces_to_mod_p_oracle():
    for p in (5, 7, 11, 13):
        pr = make_prime(p)
        for exp in range(1, p - 1):
            via_p2 = brute_sum_mod_p2(pr, exp) % p
            via_p = brute_sum(SumSpec(pr, ((0, -exp),), frozenset({0})))
            assert via_p2 == via_p


def test_shift_invariance():
    rng = random.Random(7)
    for p in (7, 11):
        pr = make_prime(p)
        for _ in range(25):
            terms = []
            for _ in range(rng.randrange(1, 4)):
                off = rng.randrange(p)
                exp = rng.choice([e for e in range(-(p - 1), p) if e])
                terms.append((off, exp))
            spec = make_spec(pr, terms)
            base = brute_sum(spec)
            for c in range(p):
                shifted = SumSpec(
                    pr,
                    tuple(((off - c) % p, exp) for off, exp in spec.terms),
                    frozenset((k + c) % p for k in spec.exclusions),
                )
                assert brute_sum(shifted) == base


def test_residue_matrix_values_and_independent_route():
    pr = make_prime(11)
    mat = residue_matrix(pr, 1)
    assert mat.entries[0][0] == 9
    mat2 = residue_matrix(pr, 2)
    for m in range(1, 10):
        assert mat2.entries[m][0] == (-pow(2, m, 11)) % 11
    # independent recomputation with Fermat inverses instead of Euclid
    for a in (1, 2):
        grid = residue_matrix(pr, a).entries
        for m in range(11):
            for n in range(11):
                direct = sum(
                    pow(k, m, 11) * pow(pow((a - k) % 11, 9, 11), n, 11)
                    for k in range(1, 11)
                    if k != a
                ) % 11
                assert grid[m][n] == direct


def _plain_moments(p, weighted):
    """sum of w * x^s mod p for s = 0..p-1, one term at a time."""
    out = []
    powers = [1] * len(weighted)  # x^s of each pair
    for _ in range(p):
        out.append(sum(w * xs for (w, _), xs in zip(weighted, powers)) % p)
        powers = [xs * x % p for (_, x), xs in zip(weighted, powers)]
    return out


# primes on each side of a change of slot width: p (p-1)^2 first outgrows
# 8, 16 and 32 bits at 11, 41 and 1627
WIDTHS = {7: 1, 11: 2, 37: 2, 41: 4, 1621: 4, 1627: 8}


@pytest.mark.parametrize("p", list(WIDTHS))
def test_power_moments_at_slot_width_edges(monkeypatch, p):
    pr = make_prime(p)
    assert pr.pack_width == WIDTHS[p]
    # the largest exact sums: p terms of (p-1) (p-1)^s, p (p-1)^2 at even s
    top = [(p - 1, p - 1)] * p
    want = _plain_moments(p, top)
    assert power_moments(pr, top) == want
    # the slot-by-slot unpacking that big-endian hosts take
    monkeypatch.setattr(modarith, "_SLOT_CODES", {})
    assert power_moments(pr, top) == want


@pytest.mark.parametrize("p", [5, 7, 11, 37, 41])
def test_power_moments_zero_base_and_excluded_k(p):
    # every base, 0 among them (0^0 = 1), with one k left out
    pr = make_prime(p)
    ks = [(p - 1, k) for k in range(p) if k != p // 2]
    moments = power_moments(pr, ks)
    assert moments == _plain_moments(p, ks)
    assert moments[0] == (p - 1) * (p - 1) % p
    assert power_moments(pr, []) == [0] * p


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_residue_matrix_matches_double_loop(monkeypatch, p):
    # on the native path, then on a fresh Prime on the slot-by-slot packing
    # and unpacking that big-endian hosts take
    wants = []
    for byte_path in (False, True):
        if byte_path:
            monkeypatch.setattr(modarith, "_SLOT_CODES", {})
        pr = make_prime(p)
        for a in range(1, p):
            if not byte_path:
                ks = [k for k in range(1, p) if k != a]
                wants.append(tuple(
                    tuple(sum(pow(k, m, p) * pow(a - k, -n, p) for k in ks) % p
                          for n in range(p))
                    for m in range(p)
                ))
            assert residue_matrix(pr, a).entries == wants[a - 1]


def test_residue_matrix_observations():
    for p, a in ((11, 1), (11, 2), (7, 3)):
        pr = make_prime(p)
        mat = residue_matrix(pr, a).entries
        for i, j in ((0, 0), (0, p - 1), (p - 1, 0), (p - 1, p - 1)):
            assert mat[i][j] == p - 2
        assert mat[0] == mat[p - 1]
        assert all(mat[i][0] == mat[i][p - 1] for i in range(p))
        assert all(mat[0][p - 1 - m] == mat[m][0] for m in range(p))
        assert all(mat[m][0] == (-pow(a, m, p)) % p for m in range(1, p - 1))
        for i in range(p - 1):
            for j in range(1, p):
                assert (mat[i][j - 1] + mat[i + 1][j]) % p == a * mat[i][j] % p


def test_residue_matrix_serialization():
    pr = make_prime(5)
    mat = residue_matrix(pr, 1)
    lines = mat.to_csv().strip().split("\n")
    assert len(lines) == 5
    assert all(len(line.split(",")) == 5 for line in lines)
    d = mat.to_json_dict()
    assert d["p"] == 5 and d["a"] == 1
    assert d["entries"][0][0] == 3


def test_lemma_recurrences_on_oracle():
    # three exact rewriting identities relating neighbouring product sums
    rng = random.Random(3)
    from wolstenholme.modarith import binom

    for p in (7, 11):
        pr = make_prime(p)
        for _ in range(40):
            a, b = rng.sample(range(1, p), 2)
            s = rng.randrange(1, 4)
            m = rng.randrange(1, p - 1)
            n = rng.randrange(1, p - s)

            def S(aa, mm, bb, nn, ss):
                return brute_sum(SumSpec(pr, ((aa, mm), (bb, nn), (0, ss)), frozenset()))

            # (a+k)^m (b+k)^(n+s) == sum_i C(s,i) b^(s-i) (a+k)^m (b+k)^n k^i
            lhs = brute_sum(SumSpec(pr, ((a, m), (b, n + s)), frozenset()))
            rhs = sum(
                binom(pr, s, i) * pow(b, s - i, p) % p * S(a, m, b, n, i)
                for i in range(s + 1)
            ) % p
            assert lhs == rhs
            if n + 1 <= p - 1:
                assert S(a, m, b, n, s) == (S(a, m, b, n + 1, s - 1) - b * S(a, m, b, n, s - 1)) % p
            if m + 1 <= p - 1:
                assert S(a, m, b, n, s) == (S(a, m + 1, b, n, s - 1) - a * S(a, m, b, n, s - 1)) % p
