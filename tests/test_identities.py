import random

import pytest

from reference_tables import comp_rows_by_recurrence
from wolstenholme import modarith
from wolstenholme.closedforms import triple_binomial
from wolstenholme.errors import (
    EqualOffsetsError,
    HypothesisViolationError,
    RangeViolationError,
)
from wolstenholme.identities import (
    cancellation,
    comp_general,
    comp_tables,
    cong_general,
    cong_rows,
    semi_symmetry,
    transpose_binomial,
    vandermonde,
    vandermonde_rows,
)
from wolstenholme.modarith import binom, make_prime, pow_nonzero, unpack_slots

P7 = make_prime(7)
P11 = make_prime(11)
P13 = make_prime(13)
P17 = make_prime(17)

SMALL = (make_prime(5), P7, P11, P13)


def test_cancellation():
    lhs, rhs = cancellation(P11, 7, 4, 2)
    assert lhs == rhs
    assert lhs == binom(P11, 7, 2) * binom(P11, 5, 2) % 11
    assert cancellation(P11, 6, 6, 6)[0] == 1
    assert cancellation(P11, 6, 4, 0)[0] == binom(P11, 6, 4)
    with pytest.raises(RangeViolationError):
        cancellation(P11, 4, 7, 2)


def test_cancellation_exhaustive():
    for pr in SMALL:
        p = pr.p
        for n in range(p):
            for k in range(n + 1):
                for s in range(k + 1):
                    lhs, rhs = cancellation(pr, n, k, s)
                    assert lhs == rhs


def test_semi_symmetry():
    first, second = semi_symmetry(P7, 5, 2)
    assert first == (3, 3)
    assert second[0] == second[1]
    for pr in SMALL:
        p = pr.p
        for k in range(p):
            a, b = semi_symmetry(pr, k, k)
            assert a[0] == 1 and a[0] == a[1] and b[0] == b[1]
            a, b = semi_symmetry(pr, k, 0)
            assert a[0] == 1 and a[0] == a[1] and b[0] == b[1]
        for k in range(p):
            for s in range(k + 1):
                a, b = semi_symmetry(pr, k, s)
                assert a[0] == a[1] and b[0] == b[1]
    with pytest.raises(RangeViolationError):
        semi_symmetry(P7, 2, 5)


def test_transpose_binomial():
    assert transpose_binomial(P11, 6, 8) == (4, 4)
    assert transpose_binomial(P11, 3, 4)[0] == 0  # m+n < p-1
    assert transpose_binomial(P11, 10, 10)[0] == 1
    for pr in SMALL:
        p = pr.p
        for m in range(p):
            for n in range(p):
                lhs, rhs = transpose_binomial(pr, m, n)
                assert lhs == rhs


def test_cong_general_examples():
    # j = 0 collapses the right side to its k = 0 term
    assert cong_general(P11, 7, 7, 0, 0) == (2, 2)  # C(7,4) = 35
    lhs, rhs = cong_general(P17, 7, 7, 6, 2)
    assert lhs == rhs
    assert lhs == binom(P17, 7, 2) * binom(P17, 7, 2) % 17
    with pytest.raises(HypothesisViolationError):
        cong_general(P11, 7, 7, 6, 0)  # M = 10 = p-1 breaks the hypothesis
    with pytest.raises(HypothesisViolationError):
        cong_general(P11, 7, 7, 0, 5)  # j > M


def test_cong_general_special_forms():
    # s = 1 and s = 2 must expand to the two- and three-product forms
    for pr in (P7, P11):
        p = pr.p
        for m in range(p):
            for n in range(p):
                for s in (1, 2):
                    M = m + n + s - (p - 1)
                    if not 0 <= M < p - 1:
                        continue
                    for j in range(M + 1):
                        lhs, rhs = cong_general(pr, m, n, s, j)
                        assert lhs == rhs
                        if s == 1:
                            want = (
                                binom(pr, m, M) * binom(pr, M, j)
                                + binom(pr, m, M - 1) * (binom(pr, M - 1, j - 1) if M >= 1 else 0)
                            ) % p
                        else:
                            want = (
                                binom(pr, m, M) * binom(pr, M, j)
                                + 2 * binom(pr, m, M - 1) * (binom(pr, M - 1, j - 1) if M >= 1 else 0)
                                + binom(pr, m, M - 2) * (binom(pr, M - 2, j - 2) if M >= 2 else 0)
                            ) % p
                        assert rhs == want


@pytest.mark.parametrize("pr", SMALL, ids=lambda pr: f"p{pr.p}")
def test_cong_rows_match_cong_general(pr):
    # both sides at every j of every (m, n, s) of the exhaustive thm3.11 grid
    p = pr.p
    rows = 0
    for m in range(p):
        for n in range(p):
            for s in range(p):
                M = m + n + s - (p - 1)
                if not 0 <= M <= p - 2:
                    with pytest.raises(HypothesisViolationError):
                        cong_rows(pr, m, n, s)
                    continue
                lhs, rhs = cong_rows(pr, m, n, s)
                assert (len(lhs), len(rhs)) == (M + 1, M + 1)
                for j in range(M + 1):
                    assert (lhs[j], rhs[j]) == cong_general(pr, m, n, s, j), (m, n, s, j)
                rows += 1
    assert rows > 0
    with pytest.raises(HypothesisViolationError):
        cong_rows(pr, p, 0, 0)


@pytest.mark.parametrize("p", [7, 11, 37, 41])
def test_cong_rows_at_slot_width_edges(p):
    # primes on each side of a change of Prime.pack_width (1 to 2 bytes, 2 to
    # 4 bytes); s = p-1 puts the most terms into the packed right side
    pr = make_prime(p)
    rng = random.Random(p)
    cases = [(p - 2, 0, p - 1), (p - 3, 1, p - 1), ((p - 1) // 2, (p - 1) // 2, p - 2)]
    while len(cases) < 12:
        m, n, s = (rng.randrange(p) for _ in range(3))
        if 0 <= m + n + s - (p - 1) <= p - 2:
            cases.append((m, n, s))
    for m, n, s in cases:
        lhs, rhs = cong_rows(pr, m, n, s)
        for j in range(len(lhs)):
            assert (lhs[j], rhs[j]) == cong_general(pr, m, n, s, j), (m, n, s, j)


def test_cong_general_s0_is_single_product():
    for pr in (P7, P11):
        p = pr.p
        for m in range(p):
            for n in range(p):
                M = m + n - (p - 1)
                if not 0 <= M < p - 1:
                    continue
                for j in range(M + 1):
                    lhs, rhs = cong_general(pr, m, n, 0, j)
                    assert lhs == rhs
                    assert rhs == binom(pr, m, M) * binom(pr, M, j) % p


def test_comp_general_examples():
    lhs, rhs = comp_general(P11, 3, 5, 6, 4, 1)
    assert lhs == rhs
    # the expanded comparison form for the linear case
    p = 11
    a, b, m, n = 3, 5, 6, 4
    want = (
        pow_nonzero(P11, a - b, m + n + 1) * binom(P11, m, p - n - 2)
        - b * pow_nonzero(P11, a - b, m + n) * binom(P11, m, p - n - 1)
    ) % p
    assert rhs == want
    assert lhs == want
    with pytest.raises(EqualOffsetsError):
        comp_general(P11, 3, 3, 6, 4, 1)
    with pytest.raises(HypothesisViolationError):
        comp_general(P11, 3, 5, 6, 4, 50)


def test_comp_general_s0_and_s2_expanded_forms():
    rng = random.Random(0)
    for pr in (P7, P11, P13):
        p = pr.p
        for _ in range(200):
            a, b = rng.sample(range(1, p), 2)
            m = rng.randrange(1, p)
            n = rng.randrange(1, p)
            for s in (0, 2):
                M = m + n + s - (p - 1)
                if not 0 <= M < p - 1:
                    continue
                lhs, rhs = comp_general(pr, a, b, m, n, s)
                assert lhs == rhs
                if s == 0:
                    want = pow_nonzero(pr, a - b, M) * binom(pr, m, p - n - 1) % p
                else:
                    want = (
                        pow_nonzero(pr, a - b, m + n + 2) * binom(pr, m, p - n - 3)
                        - 2 * b * pow_nonzero(pr, a - b, m + n + 1) * binom(pr, m, p - n - 2)
                        + b * b * pow_nonzero(pr, a - b, m + n) * binom(pr, m, p - n - 1)
                    ) % p
                assert rhs == want


def test_comp_general_lhs_is_triple_band_sum():
    # the left side is the bracketed sum the triple closed form negates
    rng = random.Random(1)
    for pr in (P7, P11, P13):
        p = pr.p
        for _ in range(300):
            a, b = rng.sample(range(1, p), 2)
            m = rng.randrange(1, p)
            n = rng.randrange(1, p)
            s = rng.randrange(1, p)
            if not p - 1 <= m + n + s < 2 * (p - 1):
                continue
            lhs, _ = comp_general(pr, a, b, m, n, s)
            band = triple_binomial(pr, a, b, m, n, s)
            assert lhs == -band % p


def test_comp_rows_match_comp_sides_on_full_grids():
    # every instance of the exhaustive thm3.13 grid, read off the tables of
    # comp_tables, against the direct convolutions of comp_general
    from wolstenholme.verify import _comp_grid_count

    for pr in (make_prime(5), P7, P11):
        p = pr.p
        S = p  # the row stride of a comp_tables table
        count = 0
        for a in range(1, p):
            for b in range(1, p):
                if b == a:
                    continue
                chains = zip(comp_tables(pr, a, b), comp_tables(pr, a - b, -b))
                for m, (lrows, rrows) in enumerate(chains, 1):
                    for n in range(1, p):
                        for s in range(p):
                            M = m + n + s - (p - 1)
                            if not 0 <= M <= p - 2:
                                continue
                            lhs, rhs = comp_general(pr, a, b, m, n, s)
                            assert lrows[n * S + M] == lhs, (p, a, b, m, n, s)
                            assert rrows[s * S + M] == rhs, (p, a, b, m, n, s)
                            count += 1
        assert count == _comp_grid_count(p)


def _all_tables(pr, u, v):
    # the table of every m = 0..p-1: the start table that comp_tables keeps
    # on the Prime, then the tables it yields
    p = pr.p
    later = list(comp_tables(pr, u, v))
    return [unpack_slots(pr._starts[v % p], pr.reduce_width, p * p), *later]


def _table_rows(table, p):
    # the cells M = 0..p-2 of each row t of a comp_tables table, row stride p
    return [list(table[t * p : t * p + p - 1]) for t in range(p)]


@pytest.mark.parametrize("byte_path", [False, True])
def test_comp_rows_match_row_recurrence(monkeypatch, byte_path):
    # every (u, v, m) at p = 5, 7, 11 and seeded ones at p = 37 (8-byte
    # slots), u = 0, v = 0 and m = p-1 among them, against the plain
    # recurrence, on the native and the slot-by-slot packing
    if byte_path:
        monkeypatch.setattr(modarith, "_SLOT_CODES", {})
    for p in (5, 7, 11):
        pr = make_prime(p)  # fresh, so its start tables take that path
        for u in range(p):
            for v in range(p):
                for m, table in enumerate(_all_tables(pr, u, v)):
                    want = comp_rows_by_recurrence(p, u, v, m)
                    assert _table_rows(table, p) == want, (p, u, v, m)
    p = 37
    pr = make_prime(p)
    rng = random.Random(37)
    cases = [(0, 5, 9), (4, 0, 9), (0, 0, p - 1), (p - 1, p - 1, p - 1), (3, -2, p - 1)]
    cases += [(rng.randrange(p), rng.randrange(p), rng.randrange(p)) for _ in range(30)]
    for u, v, m in cases:
        want = comp_rows_by_recurrence(p, u % p, v % p, m)
        assert _table_rows(_all_tables(pr, u, v)[m], p) == want, (u, v, m)


@pytest.mark.parametrize("byte_path", [False, True])
def test_comp_tables_keep_every_guard_slot_zero(monkeypatch, byte_path):
    # slot p-1 of every row of every table, the start tables too, is 0, so
    # that the shift by one slot carries nothing into the next row
    if byte_path:
        monkeypatch.setattr(modarith, "_SLOT_CODES", {})
    for p in (5, 7, 11, 37):
        pr = make_prime(p)
        for u in range(p):
            for v in (range(p) if p < 37 else (0, 1, p - 1)):
                for table in _all_tables(pr, u, v):
                    assert not any(table[p - 1 :: p]), (p, u, v)


def test_vandermonde():
    assert vandermonde(P11, 4, 3, 2) == (10, 10)
    assert vandermonde(P11, 4, 3, 0)[0] == 1
    assert vandermonde(P11, 4, 3, 7)[0] == 1
    with pytest.raises(RangeViolationError):
        vandermonde(P11, 6, 6, 2)
    with pytest.raises(RangeViolationError):
        vandermonde(P11, 4, 3, 8)


def test_vandermonde_exhaustive_small():
    for pr in SMALL:
        p = pr.p
        for m in range(p):
            for n in range(p - m):
                for M in range(m + n + 1):
                    lhs, rhs = vandermonde(pr, m, n, M)
                    assert lhs == rhs


def test_vandermonde_rows_match_vandermonde():
    for pr in SMALL:
        p = pr.p
        for m in range(p):
            for n in range(p - m):
                lhs, rhs = vandermonde_rows(pr, m, n)
                assert list(zip(lhs, rhs)) == [vandermonde(pr, m, n, M)
                                               for M in range(m + n + 1)], (p, m, n)
    with pytest.raises(RangeViolationError):
        vandermonde_rows(P11, 6, 5)
    with pytest.raises(RangeViolationError):
        vandermonde_rows(P11, -1, 3)


@pytest.mark.parametrize("p", [7, 11, 37, 41])
def test_vandermonde_rows_at_slot_width_edges(p):
    # primes on each side of a change of Prime.pack_width; m = n = (p-1)/2
    # puts the most terms, (p+1)/2, into the middle slot
    pr = make_prime(p)
    h = (p - 1) // 2
    for m, n in ((h, h), (0, p - 1), (p - 1, 0), (1, p - 2), (h - 1, h + 1)):
        lhs, rhs = vandermonde_rows(pr, m, n)
        assert lhs == rhs == [binom(pr, m + n, M) for M in range(m + n + 1)], (p, m, n)


def test_full_grids_hold_small():
    # the complete identity sweep for one small prime through the registry
    from wolstenholme.verify import run_one

    for theorem in ("eq2", "eq3", "cor2.7", "thm3.11", "thm3.13", "cor3.12", "vandermonde"):
        rep = run_one(theorem, 7)
        assert rep.passed and rep.exhaustive, theorem
