import random
from itertools import islice
from math import comb

import pytest

from reference_tables import comp_rows_by_recurrence
from wolstenholme import identities, modarith
from wolstenholme.closedforms import triple_binomial
from wolstenholme.errors import (
    EqualOffsetsError,
    HypothesisViolationError,
    RangeViolationError,
)
from wolstenholme.identities import (
    cancellation,
    cancellation_rows,
    comp_general,
    comp_tables,
    cong_general,
    cong_left_tables,
    cong_right_tables,
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


def test_cancellation_rows_match_cancellation():
    # both sides at every s of every (n, k), k = n and k = 0 among them
    for pr in (*SMALL, make_prime(37)):
        p = pr.p
        for n in range(p):
            for k in range(n + 1):
                lhs, rhs = cancellation_rows(pr, n, k)
                assert list(zip(lhs, rhs)) == [cancellation(pr, n, k, s) for s in range(k + 1)]
    with pytest.raises(RangeViolationError):
        cancellation_rows(P11, 4, 7)
    with pytest.raises(RangeViolationError):
        cancellation_rows(P11, 11, 3)


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


def _cong_rows(pr, wanted=None):
    # {(m, n, s): (lhs, rhs)} for every (m, n, s) of the exhaustive thm3.11
    # grid, or those of wanted: row M of the table of (m, n) of
    # cong_left_tables and of table s of cong_right_tables, cells M*p + j.
    # With wanted, the chains stop past its largest m
    p = pr.p
    last = p - 1 if wanted is None else max(m for m, _, _ in wanted)
    rows = {}
    for m, right in zip(range(last + 1), cong_right_tables(pr)):
        for n, left in enumerate(cong_left_tables(pr, m)):
            for s in range(p):
                M = m + n + s - (p - 1)
                if 0 <= M <= p - 2 and (wanted is None or (m, n, s) in wanted):
                    cells = slice(M * p, M * p + M + 1)
                    rows[m, n, s] = list(left[cells]), list(right[s][cells])
    return rows


@pytest.mark.parametrize("pr", SMALL, ids=lambda pr: f"p{pr.p}")
def test_cong_rows_match_cong_general(pr):
    # both sides at every j of every (m, n, s) of the exhaustive thm3.11 grid
    p = pr.p
    rows = _cong_rows(pr)
    for m in range(p):
        for n in range(p):
            for s in range(p):
                M = m + n + s - (p - 1)
                if not 0 <= M <= p - 2:
                    assert (m, n, s) not in rows
                    with pytest.raises(HypothesisViolationError):
                        cong_general(pr, m, n, s, 0)
                    continue
                lhs, rhs = rows[m, n, s]
                assert (len(lhs), len(rhs)) == (M + 1, M + 1)
                for j in range(M + 1):
                    assert (lhs[j], rhs[j]) == cong_general(pr, m, n, s, j), (m, n, s, j)
    assert len(rows) > 0
    with pytest.raises(HypothesisViolationError):
        cong_general(pr, p, 0, 0, 0)


@pytest.mark.parametrize("p", [7, 11, 13, 31, 37, 41, 181, 191])
def test_cong_rows_at_slot_width_edges(p):
    # primes on each side of a change of the chain step's slot width (2
    # bytes up to p = 11, 4 from 13 to 181, 8 from 191) and of
    # Prime.pack_width (2 bytes up to p = 37, 4 from 41); s = p-1 puts the
    # most terms into the right side.  At p = 181 and 191 every case has
    # m <= 2, since the right chain passes every smaller m first
    pr = make_prime(p)
    rng = random.Random(p)
    if p < 100:
        cases = [(p - 2, 0, p - 1), (p - 3, 1, p - 1), ((p - 1) // 2, (p - 1) // 2, p - 2)]
        ms, count = p, 12
    else:
        cases = [(1, p - 3, p - 1), (2, p - 4, p - 1), (0, p - 1, p - 2), (2, p // 2, p // 2)]
        ms, count = 3, 6
    while len(cases) < count:
        m, n, s = rng.randrange(ms), rng.randrange(p), rng.randrange(p)
        if 0 <= m + n + s - (p - 1) <= p - 2:
            cases.append((m, n, s))
    rows = _cong_rows(pr, set(cases))
    for m, n, s in cases:
        lhs, rhs = rows[m, n, s]
        for j in range(len(lhs)):
            assert (lhs[j], rhs[j]) == cong_general(pr, m, n, s, j), (m, n, s, j)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 37])
def test_cong_tables_hold_their_products_in_p_squared_slots(monkeypatch, p):
    # every table of both chains is exactly p^2 slots, every slot j > M of
    # row M is 0 (so no shift by p+1 carries into the next row), and at
    # p <= 11 every cell, row p-1 too, is its coefficient: of
    # (1+y)^m (1-xy)^n on the left and (1+(1+x)y)^m (1+xy)^s on the right.
    # At p <= 7 the tables are also built on the slot-by-slot packing.
    def check(tables, coeff):
        for table in tables:
            assert len(table) == p * p
            for M in range(p):
                assert not any(table[M * p + M + 1 : M * p + p]), (p, M)
        if p <= 11:
            for i, table in enumerate(tables):
                want = [coeff(i, M, j) % p if j <= M else 0 for M in range(p) for j in range(p)]
                assert list(table) == want, (p, i)

    for byte_path in (False, True) if p <= 7 else (False,):
        if byte_path:
            monkeypatch.setattr(modarith, "_SLOT_CODES", {})
        pr = make_prime(p)
        for m, right in enumerate(cong_right_tables(pr)):
            assert len(right) == p
            check(right, lambda s, M, j: sum(comb(s, k) * comb(m, M - k) * comb(M - k, j - k)
                                            for k in range(j + 1)))
            check(list(cong_left_tables(pr, m)),
                  lambda n, M, j: (-1) ** j * comb(m, M - j) * comb(n, j))


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


def _start_table(pr, v):
    # the start table that comp_tables keeps on the Prime, unpacked
    p = pr.p
    return unpack_slots(pr._starts[v % p], identities._barrett(pr)[0], p * p)


def _all_tables(pr, u, v):
    # the table of every m = 0..p-1: the start table, then the tables that
    # comp_tables yields
    later = list(comp_tables(pr, u, v))
    return [_start_table(pr, v), *later]


def _table(pr, u, v, m):
    # the table of one m alone: the chain stops there
    table = next(islice(comp_tables(pr, u, v), max(m - 1, 0), None))
    return table if m else _start_table(pr, v)


def _table_rows(table, p):
    # the cells M = 0..p-2 of each row t of a comp_tables table, row stride p
    return [list(table[t * p : t * p + p - 1]) for t in range(p)]


@pytest.mark.parametrize("byte_path", [False, True])
def test_comp_rows_match_row_recurrence(monkeypatch, byte_path):
    # every (u, v, m) at p = 5, 7, 11 and seeded ones at p = 13 and 37
    # (4-byte chain slots) and p = 191 (8-byte slots, m <= 3 only), u = 0,
    # v = 0 and m = p-1 among them below 191, against the plain recurrence,
    # on the native and the slot-by-slot packing
    if byte_path:
        monkeypatch.setattr(modarith, "_SLOT_CODES", {})
    for p in (5, 7, 11):
        pr = make_prime(p)  # fresh, so its start tables take that path
        for u in range(p):
            for v in range(p):
                for m, table in enumerate(_all_tables(pr, u, v)):
                    want = comp_rows_by_recurrence(p, u, v, m)
                    assert _table_rows(table, p) == want, (p, u, v, m)
    for p, count, ms in ((13, 8, 13), (37, 30, 37), (191, 2, 4)):
        pr = make_prime(p)
        rng = random.Random(p)
        if p < 100:
            cases = [(0, 5, 9), (4, 0, 9), (0, 0, p - 1), (p - 1, p - 1, p - 1), (3, -2, p - 1)]
        else:
            cases = [(0, 5, 2), (4, 0, 3), (p - 1, p - 1, 3), (3, -2, 1)]
        cases += [(rng.randrange(p), rng.randrange(p), rng.randrange(ms)) for _ in range(count)]
        for u, v, m in cases:
            want = comp_rows_by_recurrence(p, u % p, v % p, m)
            assert _table_rows(_table(pr, u, v, m), p) == want, (p, u, v, m)


@pytest.mark.parametrize("byte_path", [False, True])
def test_comp_tables_keep_every_guard_slot_zero(monkeypatch, byte_path):
    # slot p-1 of every row of every table, the start tables too, is 0, so
    # that the shift by one slot carries nothing into the next row
    if byte_path:
        monkeypatch.setattr(modarith, "_SLOT_CODES", {})
    for p in (5, 7, 11, 13, 37):
        pr = make_prime(p)
        for u in range(p):
            for v in (range(p) if p < 13 else (0, 1, p - 1)):
                for table in _all_tables(pr, u, v):
                    assert not any(table[p - 1 :: p]), (p, u, v)
    # seeded tables at p = 191, the first prime with 8-byte chain slots
    p = 191
    pr = make_prime(p)
    rng = random.Random(p)
    for u, v, m in [(p - 1, p - 1, 3), (0, 1, 0)] + [
            (rng.randrange(p), rng.randrange(p), rng.randrange(4)) for _ in range(3)]:
        assert not any(_table(pr, u, v, m)[p - 1 :: p]), (p, u, v, m)


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
