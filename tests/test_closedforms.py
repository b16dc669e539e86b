import random

import pytest

from wolstenholme.closedforms import (
    normalize_spec,
    power_sum,
    product_pair,
    product_pair_k,
    quick_case,
    ratio_equal_offsets,
    ratio_pair,
    ratio_single,
    triple_binomial,
    triple_general,
    triple_s1,
    triple_s2,
)
from wolstenholme.errors import (
    EqualOffsetsError,
    HypothesisViolationError,
    OffsetZeroError,
)
from wolstenholme.modarith import binom, make_prime, mod_inverse, pow_nonzero
from wolstenholme.oracle import SumSpec, auto_exclusions, brute_sum, make_spec

P5 = make_prime(5)
P7 = make_prime(7)
P11 = make_prime(11)
P17 = make_prime(17)


def _brute_products(pr, *terms):
    return brute_sum(SumSpec(pr, tuple(terms), frozenset()))


def _brute_ratio_single(pr, a, m, n):
    p = pr.p
    return sum(
        pow(k, m, p) * pow(mod_inverse(a - k, p), n, p)
        for k in range(1, p)
        if k != a
    ) % p


def _brute_ratio_pair(pr, a, b, m, n):
    spec = SumSpec(pr, ((a, m), (b, -n)), frozenset({(-a) % pr.p, (-b) % pr.p}))
    return brute_sum(spec)


def test_power_sum():
    assert power_sum(P11, 5) == 0
    assert power_sum(P5, 4) == 4
    assert power_sum(P7, 0) == 6
    assert power_sum(P11, 20) == 10
    with pytest.raises(HypothesisViolationError):
        power_sum(P11, -1)


# each pair and triple form: its offsets, whether offset 0 is taken (by the
# k factor, or for product_pair by the k form product_pair_k), the lower
# bound of its exponents, and its exponents, in argument order
HYPOTHESES = [
    (ratio_single, "a", True, 0, "mn"),
    (ratio_pair, "ab", False, 0, "mn"),
    (ratio_equal_offsets, "a", False, 1, "mn"),
    (product_pair_k, "a", True, 1, "mn"),
    (product_pair, "ab", True, 1, "mn"),
    (triple_binomial, "ab", True, 1, "mns"),
    (triple_s1, "ab", True, 1, "mn"),
    (triple_s2, "ab", True, 1, "mn"),
    (triple_general, "ab", True, 1, "mns"),
]


@pytest.mark.parametrize("form, offsets, zero_taken, lo, exps", HYPOTHESES,
                         ids=[h[0].__name__ for h in HYPOTHESES])
def test_each_broken_hypothesis_raises_its_error_and_only_those(form, offsets, zero_taken,
                                                               lo, exps):
    # at p = 11, one hypothesis broken at a time raises its own class, a
    # HypothesisViolationError, with a message that names the parameter;
    # boundary exponents and offsets in [p, 2p) are valid
    p = 11
    base = {"a": 3, "b": 5, "m": 4, "n": 7, "s": 6}

    def call(**changed):
        args = {**base, **changed}
        return form(P11, *(args[name] for name in offsets + exps))

    broken = [(HypothesisViolationError, e, v) for e in exps for v in (lo - 1, p)]
    if zero_taken:
        broken += [(OffsetZeroError, x, v) for x in offsets for v in (0, p)]
    if len(offsets) == 2:
        broken += [(EqualOffsetsError, "b", v) for v in (base["a"], base["a"] + p)]
    for error, name, value in broken:
        assert issubclass(error, HypothesisViolationError)
        with pytest.raises(error) as raised:
            call(**{name: value})
        assert type(raised.value) is error and str(raised.value).startswith(f"{name} = ")
    for e in exps:
        for value in (lo, p - 1):
            call(**{e: value})
    want = call()
    for shifted in [*({x: base[x] + p} for x in offsets), {x: base[x] + p for x in offsets}]:
        assert call(**shifted) == want


def test_ratio_single_examples():
    assert ratio_single(P11, 1, 0, 0) == 9
    assert ratio_single(P11, 1, 0, 3) == 10
    assert ratio_single(P11, 2, 3, 2) == 5
    with pytest.raises(OffsetZeroError):
        ratio_single(P11, 0, 3, 2)


def test_ratio_single_matches_brute():
    for pr in (P5, P7):
        p = pr.p
        for a in range(1, p):
            for m in range(p):
                for n in range(p):
                    assert ratio_single(pr, a, m, n) == _brute_ratio_single(pr, a, m, n)


def test_ratio_pair_examples():
    assert ratio_pair(P11, 3, 5, 0, 4) == 2
    assert ratio_pair(P11, 3, 5, 0, 0) == 9
    assert ratio_pair(P11, 4, 1, 5, 2) == 5
    assert _brute_ratio_pair(P11, 4, 1, 5, 2) == 5
    with pytest.raises(EqualOffsetsError):
        ratio_pair(P11, 4, 4, 5, 2)


def test_ratio_pair_matches_brute():
    for pr in (P5, P7):
        p = pr.p
        for a in range(p):
            for b in range(p):
                if a == b:
                    continue
                for m in range(p):
                    for n in range(p):
                        assert ratio_pair(pr, a, b, m, n) == _brute_ratio_pair(pr, a, b, m, n)


def test_ratio_equal_offsets():
    assert ratio_equal_offsets(P11, 2, 7, 7) == 10
    assert ratio_equal_offsets(P11, 2, 9, 4) == 0
    assert ratio_equal_offsets(P11, 2, 3, 7) == 0
    for pr in (P5, P7, P11):
        p = pr.p
        for a in range(p):
            for m in range(1, p):
                for n in range(1, p):
                    spec = SumSpec(pr, ((a, m), (a, -n)), frozenset({(-a) % p}))
                    assert ratio_equal_offsets(pr, a, m, n) == brute_sum(spec)


def test_product_pair_k_examples():
    assert product_pair_k(P11, 3, 10, 10) == 9
    assert product_pair_k(P11, 3, 4, 5) == 0
    assert product_pair_k(P11, 3, 6, 4) == 10


def test_product_pair_k_matches_brute():
    for pr in (P5, P7):
        p = pr.p
        for a in range(1, p):
            for m in range(1, p):
                for n in range(1, p):
                    want = _brute_products(pr, (a, m), (0, n))
                    assert product_pair_k(pr, a, m, n) == want


def test_product_pair_examples():
    assert product_pair(P11, 3, 5, 4, 7) == 8  # m+n = p case: m(b-a) = 4*2
    assert product_pair(P11, 3, 5, 10, 10) == 9
    assert product_pair(P11, 7, 2, 8, 9) == 9
    assert _brute_products(P11, (7, 8), (2, 9)) == 9
    with pytest.raises(EqualOffsetsError):
        product_pair(P11, 3, 3, 4, 7)


def test_product_pair_matches_brute():
    for pr in (P5, P7):
        p = pr.p
        for a in range(1, p):
            for b in range(1, p):
                if a == b:
                    continue
                for m in range(1, p):
                    for n in range(1, p):
                        want = _brute_products(pr, (a, m), (b, n))
                        assert product_pair(pr, a, b, m, n) == want


def test_triple_binomial_range_checks():
    for bad in ((3, 5, 0, 3, 4), (3, 5, 4, 3, 11), (0, 5, 4, 3, 4), (3, 11, 4, 3, 4)):
        with pytest.raises(HypothesisViolationError):
            triple_binomial(P11, *bad)


def test_triple_binomial_examples():
    assert triple_binomial(P11, 3, 5, 2, 3, 4) == 0
    assert triple_binomial(P11, 3, 5, 10, 10, 10) == 8
    assert triple_binomial(P11, 3, 5, 4, 3, 4) == 6  # -(ma+nb)
    with pytest.raises(HypothesisViolationError):
        triple_binomial(P11, 3, 3, 4, 3, 4)


def test_triple_binomial_first_band_equals_both_closed_forms():
    # the band sum has two equal closed expressions; the second is
    # asserted here against the implemented first
    for pr in (P7, P11):
        p = pr.p
        for a, b in ((1, 2), (3, p - 1), (p - 2, 4)):
            for m in range(1, p):
                for n in range(1, p):
                    for s in range(1, p):
                        M = m + n + s - (p - 1)
                        if not 0 <= M < p - 1:
                            continue
                        alt = sum(
                            binom(pr, m, j) * binom(pr, n, M - j)
                            * pow(a, j, p) * pow(b, M - j, p)
                            for j in range(max(0, M - n), min(m, M) + 1)
                        ) % p
                        got = triple_binomial(pr, a, b, m, n, s)
                        assert got == -alt % p


def test_triple_binomial_matches_brute():
    for pr in (P5, P7):
        p = pr.p
        for a in range(1, p):
            for b in range(1, p):
                if a == b:
                    continue
                for m in range(1, p):
                    for n in range(1, p):
                        for s in range(1, p):
                            want = _brute_products(pr, (a, m), (b, n), (0, s))
                            got = triple_binomial(pr, a, b, m, n, s)
                            assert got == want


def test_triple_s1_examples():
    assert triple_s1(P11, 3, 5, 10, 10) == 8  # (a+b)
    assert triple_s1(P11, 3, 5, 10, 9) == 6
    assert triple_s1(P11, 4, 1, 6, 3) == 10
    assert _brute_products(P11, (4, 6), (1, 3), (0, 1)) == 10


def test_triple_s1_matches_brute():
    for pr in (P5, P7, P11):
        p = pr.p
        for a in range(1, p):
            for b in range(1, p):
                if a == b:
                    continue
                for m in range(1, p):
                    for n in range(1, p):
                        want = _brute_products(pr, (a, m), (b, n), (0, 1))
                        assert triple_s1(pr, a, b, m, n) == want


def test_triple_s2_examples():
    assert triple_s2(P11, 3, 5, 10, 10) == 10  # -(a^2+b^2)
    assert triple_s2(P11, 3, 5, 9, 9) == 1     # -1+2ab(a-b)^(p-3)
    assert triple_s2(P11, 2, 7, 5, 8) == 6
    assert _brute_products(P11, (2, 5), (7, 8), (0, 2)) == 6


def test_triple_s2_corrected_cells():
    # the three-term expression is wrong at (p-3, p-1) and (p-1, p-3);
    # these cells must still match brute force exactly
    for pr in (P5, P7, P11):
        p = pr.p
        for a in range(1, p):
            for b in range(1, p):
                if a == b:
                    continue
                for m, n in ((p - 3, p - 1), (p - 1, p - 3)):
                    want = _brute_products(pr, (a, m), (b, n), (0, 2))
                    assert triple_s2(pr, a, b, m, n) == want


def test_triple_s2_matches_brute():
    for pr in (P5, P7, P11):
        p = pr.p
        for a in range(1, p):
            for b in range(1, p):
                if a == b:
                    continue
                for m in range(1, p):
                    for n in range(1, p):
                        want = _brute_products(pr, (a, m), (b, n), (0, 2))
                        assert triple_s2(pr, a, b, m, n) == want


def test_triple_general_examples():
    assert triple_general(P17, 13, 1, 3, 8, 9) == 8
    assert triple_general(P11, 3, 5, 10, 10, 10) == 8
    assert triple_general(P11, 6, 2, 7, 7, 6) == 4
    assert _brute_products(P11, (6, 7), (2, 7), (0, 6)) == 4
    with pytest.raises(HypothesisViolationError):
        triple_general(P11, 3, 3, 4, 3, 4)


def test_triple_general_matches_brute():
    for pr in (P5, P7):
        p = pr.p
        for a in range(1, p):
            for b in range(1, p):
                if a == b:
                    continue
                for m in range(1, p):
                    for n in range(1, p):
                        for s in range(1, p):
                            want = _brute_products(pr, (a, m), (b, n), (0, s))
                            assert triple_general(pr, a, b, m, n, s) == want


def test_lemma_recurrence_links_triple_s1_to_product_pair():
    for pr in (P5, P7, P11):
        p = pr.p
        for a in range(1, p):
            for b in range(1, p):
                if a == b:
                    continue
                for m in range(1, p):
                    for n in range(1, p - 1):
                        want = (product_pair(pr, a, b, m, n + 1) - b * product_pair(pr, a, b, m, n)) % p
                        assert triple_s1(pr, a, b, m, n) == want
                for m in range(1, p - 1):
                    for n in range(1, p):
                        want = (product_pair(pr, a, b, m + 1, n) - a * product_pair(pr, a, b, m, n)) % p
                        assert triple_s1(pr, a, b, m, n) == want


def test_scaling_relation():
    # S(a, b, m, n, s) == b^M * S(a b^-1, 1, m, n, s) whenever both sides
    # satisfy the hypotheses (a b^-1 != 1 is automatic from a != b)
    rng = random.Random(11)
    for pr in (P7, P11, P17):
        p = pr.p
        for _ in range(120):
            a, b = rng.sample(range(1, p), 2)
            m, n, s = (rng.randrange(1, p) for _ in range(3))
            c = a * mod_inverse(b, p) % p
            if c == 1 or c == 0:
                continue
            M = m + n + s - (p - 1)
            lhs = triple_general(pr, a, b, m, n, s)
            rhs = pow_nonzero(pr, b, M) * triple_general(pr, c, 1, m, n, s) % p
            assert lhs == rhs


def test_quick_case_examples():
    pr23 = make_prime(23)
    spec = make_spec(pr23, [(7, -16), (13, -17), (18, -19)])
    assert quick_case(spec) == 0
    assert quick_case(make_spec(P11, [(3, 4), (5, 5)])) == 0
    assert quick_case(make_spec(P11, [(3, 4), (5, 6)])) == 10  # total = p-1
    assert quick_case(make_spec(P11, [(3, 4), (5, 7)])) == (-(4 * 3 + 7 * 5)) % 11
    assert quick_case(make_spec(P11, [(3, 10), (5, 10), (7, 10)])) == 8  # -3
    assert quick_case(make_spec(P11, [(3, 4), (5, 8)])) is None
    # ratio with smaller numerator exponent
    assert quick_case(make_spec(P11, [(3, 2), (5, -6)])) == 0
    # triple with single denominator dominating
    assert quick_case(make_spec(P11, [(3, 2), (5, 3), (7, -8)])) == 0
    # two denominators outweighing the numerator
    assert quick_case(make_spec(P11, [(3, 2), (5, -8), (7, -9)])) == 0


def test_quick_case_never_wrong():
    rng = random.Random(5)
    for pr in (P7, P11):
        p = pr.p
        answered = 0
        for _ in range(400):
            arity = rng.randrange(2, 4)
            offs = rng.sample(range(p), arity)
            terms = []
            for off in offs:
                e = rng.choice([e for e in range(-(p - 1), p) if e])
                terms.append((off, e))
            spec = make_spec(pr, terms)
            got = quick_case(spec)
            if got is not None:
                answered += 1
                assert got == brute_sum(spec)
        assert answered > 0


def test_normalize_spec_examples():
    pr17 = make_prime(17)
    spec = make_spec(pr17, [(3, -13), (8, -8), (7, 9)])
    norm = normalize_spec(spec)
    assert norm.terms == ((13, 3), (1, 8), (0, 9))
    assert norm.exclusions == frozenset()

    spec2 = make_spec(P11, [(4, 3), (9, 3)])
    norm2 = normalize_spec(spec2)
    assert norm2.terms == ((6, 3), (0, 3))

    # a denominator exponent p-1 rewrites to the factor 1: the sum of p-1 ones
    spec3 = make_spec(P11, [(4, -10)])
    norm3 = normalize_spec(spec3)
    assert norm3.terms == ()
    assert norm3.exclusions == {7}
    assert brute_sum(norm3) == brute_sum(spec3) == 10


def test_normalize_spec_preserves_brute_sum():
    # every exponent in [-(p-1), p-1], 0 included; n terms over n-1 offsets,
    # so every spec repeats one; half the specs exclude a few more k
    rng = random.Random(2)
    for pr in (P7, P11, P17):
        p = pr.p
        for _ in range(200):
            n = rng.randrange(2, 5)
            pool = rng.sample(range(p), n - 1)
            terms = [(rng.choice(pool), rng.randrange(-(p - 1), p)) for _ in range(n)]
            extra = rng.sample(range(p), rng.randrange(3)) if rng.random() < 0.5 else []
            spec = make_spec(pr, terms, auto_exclusions(pr, terms) | set(extra))
            norm = normalize_spec(spec)
            assert brute_sum(norm) == brute_sum(spec)
            offsets = [off for off, _ in norm.terms]
            assert len(set(offsets)) == len(offsets)
            assert all(1 <= e <= p - 1 for _, e in norm.terms)
            assert not norm.terms or offsets[-1] == 0


def test_normalize_spec_keeps_unrelated_exclusions():
    # an exclusion not tied to a denominator survives, shifted
    pr = P11
    spec = SumSpec(pr, ((4, 2), (9, 3)), frozenset({6}))
    norm = normalize_spec(spec)
    assert norm.terms == ((6, 2), (0, 3))
    assert norm.exclusions == {(6 + 9) % 11}
    assert brute_sum(norm) == brute_sum(spec)
