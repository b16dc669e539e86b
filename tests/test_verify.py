import json
import time
from dataclasses import replace
from itertools import product

import pytest

from reference_tables import bipoly
from wolstenholme import closedforms, identities, verify
from wolstenholme.errors import BadParamsError, UnknownTheoremError
from wolstenholme.verify import (
    IDENTITY_SUITE,
    REGISTRY,
    VerificationReport,
    resolve_theorems,
    run_one,
    run_verification,
)


def test_registry_ids_expected():
    for name in (
        "thm1.1", "thm1.2", "thm1.3", "thm2.1", "thm2.3", "rem2.5", "thm2.6",
        "thm2.8", "thm3.1", "thm3.4", "thm3.5", "thm3.6", "thm4.1", "thm4.4",
        "thm4.5", "eq2", "eq3", "cor2.7", "thm3.11", "thm3.13", "cor3.12",
        "vandermonde", "quickcase", "tablecorr", "figures",
    ):
        assert name in REGISTRY
    assert set(IDENTITY_SUITE) <= set(REGISTRY)


def test_resolve_theorems():
    assert resolve_theorems("thm2.1") == ["thm2.1"]
    assert resolve_theorems(["thm2.1", "thm2.1", "eq2"]) == ["thm2.1", "eq2"]
    assert resolve_theorems("all") == list(REGISTRY)
    with pytest.raises(UnknownTheoremError):
        resolve_theorems("nope")


def test_report_shape_and_json():
    rep = run_one("thm2.6", 5)
    assert isinstance(rep, VerificationReport)
    assert rep.passed and rep.exhaustive
    assert rep.grid == 4 ** 3
    payload = json.loads(rep.to_json_line())
    assert payload["theorem"] == "thm2.6"
    assert payload["p"] == 5
    assert payload["pass"] is True
    assert payload["seed"] is None


def test_sampling_is_deterministic():
    a = run_one("thm2.8", 13, budget=500, seed=42)
    b = run_one("thm2.8", 13, budget=500, seed=42)
    assert not a.exhaustive and a.seed == 42
    assert a.grid == b.grid == 500
    assert a.passed and b.passed


def test_budget_switches_to_exhaustive():
    rep = run_one("thm2.8", 5, budget=10_000)
    assert rep.exhaustive
    assert rep.grid == 4 * 3 * 16


def test_unknown_mode_is_rejected_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("ran a sweep under an unknown mode")

    for theorem, mode in (("thm1.2", "P2"), ("thm1.3", "p3"), ("thm2.1", "")):
        monkeypatch.setitem(REGISTRY, theorem, replace(REGISTRY[theorem], run=no_work))
        with pytest.raises(BadParamsError):
            run_one(theorem, 7, mode=mode)


def test_run_verification_ordering():
    reports = run_verification(["thm2.6", "eq2"], [7, 5])
    keys = [(r.theorem, r.prime) for r in reports]
    assert keys == [("eq2", 5), ("eq2", 7), ("thm2.6", 5), ("thm2.6", 7)]
    assert all(r.passed for r in reports)


def test_run_verification_verifies_a_repeated_prime_once():
    reports = run_verification(["thm1.1"], [5, 5, 7, 5])
    assert [(r.theorem, r.prime) for r in reports] == [("thm1.1", 5), ("thm1.1", 7)]


def test_run_verification_builds_one_prime_per_p(monkeypatch):
    built = []
    real = verify.make_prime

    def spy(p):
        built.append(p)
        return real(p)

    monkeypatch.setattr(verify, "make_prime", spy)
    names, primes = ["thm2.1", "thm3.13", "cor3.12", "quickcase", "tablecorr"], [11, 7]
    reports = run_verification(names, primes, budget=500, seed=3)
    assert built == primes
    monkeypatch.setattr(verify, "make_prime", real)
    alone = sorted((run_one(name, p, 500, 3) for name in names for p in primes),
                   key=lambda r: (r.theorem, r.prime))
    assert any(not r.exhaustive for r in alone)
    assert [_without_elapsed(r) for r in reports] == [_without_elapsed(r) for r in alone]


def _without_elapsed(report):
    payload = json.loads(report.to_json_line())
    del payload["elapsed_s"]
    return payload


def test_mode_p_downgrades_p2_checks():
    rep = run_one("thm1.3", 5, mode="p")
    assert rep.passed
    rep2 = run_one("thm1.2", 5, mode="p")
    assert rep2.passed


def test_failure_reporting_structure():
    # force a failure by checking a wrong claim through the report machinery
    from wolstenholme.verify import _fail

    failures = []
    _fail(failures, {"a": 1}, 0, 3)
    assert failures == [{"params": {"a": 1}, "expected": 0, "got": 3}]


def _corrupted_comp_table(monkeypatch, p, table, t0):
    """Run the exhaustive thm3.13 at p with row t0 of the comp_tables table
    of (u, v, m) = table one too big; returns the report and the failures a
    point-by-point check of the same corruption finds, in sweep order."""
    from wolstenholme.modarith import make_prime

    real = identities.comp_tables

    def corrupted(pr, u, v):
        for m, flat in enumerate(map(list, real(pr, u, v)), 1):
            if (u % p, v % p, m) == table:
                # row t0 holds M = 0..p-2 from cell t0 p on
                for i in range(t0 * p, t0 * p + p - 1):
                    flat[i] = (flat[i] + 1) % p
            yield flat

    monkeypatch.setattr(identities, "comp_tables", corrupted)
    rep = run_one("thm3.13", p)

    # the table is the left side of (a, b) = (u, v) at n = t0, and the right
    # side of the pair with (a - b, -b) = (u, v) at s = t0
    pr = make_prime(p)
    expected = []
    for a in range(1, p):
        for b in range(1, p):
            if b == a:
                continue
            for m in range(1, p):
                for n in range(1, p):
                    for s in range(p):
                        M = m + n + s - (p - 1)
                        if not 0 <= M <= p - 2:
                            continue
                        lhs, rhs = identities.comp_general(pr, a, b, m, n, s)
                        if (a, b, m, n) == (*table, t0):
                            lhs = (lhs + 1) % p
                        if ((a - b) % p, -b % p, m, s) == (*table, t0):
                            rhs = (rhs + 1) % p
                        if lhs != rhs:
                            params = {"a": a, "b": b, "m": m, "n": n, "s": s}
                            expected.append({"params": params, "expected": lhs, "got": rhs})
    return rep, expected


def test_thm3_13_sweep_reports_every_instance_of_a_corrupted_row(monkeypatch):
    # one wrong row in one comp_tables table: the run-at-a-time comparison must
    # still name each instance that reads it, in sweep order, and count the
    # whole grid.  The table (2, 3, 4) is the left table of (2, 3) and the
    # right table of its partner (6, 4).
    from wolstenholme.verify import _comp_grid_count

    p = 7
    rep, expected = _corrupted_comp_table(monkeypatch, p, (2, 3, 4), 3)
    assert {(f["params"]["a"], f["params"]["b"]) for f in expected} == {(2, 3), (6, 4)}
    assert len(expected) > 2
    assert rep.failures == expected
    assert rep.grid == _comp_grid_count(p) and rep.exhaustive


def test_thm3_13_sweep_reports_a_corrupted_table_of_a_later_orbit(monkeypatch):
    # the table (5, 2, 4) is the left table of (5, 2) and the right table of
    # its partner (3, 5).  The orbit's tables are built when the sweep
    # reaches (5, 2), the later pair in (a, b) order, so the failures of
    # (3, 5) are found after those of (5, 2) but must be reported before
    from wolstenholme.verify import _comp_grid_count

    p = 7
    rep, expected = _corrupted_comp_table(monkeypatch, p, (5, 2, 4), 2)
    pairs = [(f["params"]["a"], f["params"]["b"]) for f in expected]
    assert set(pairs) == {(3, 5), (5, 2)} and pairs == sorted(pairs)
    assert rep.failures == expected
    assert rep.grid == _comp_grid_count(p) and rep.exhaustive


def test_thm3_13_builds_one_table_per_ordered_pair_and_m(monkeypatch):
    # each table serves as the left table of one pair and the right table of
    # its partner, so the sweep builds each (a, b, m) table once
    p = 7
    real = identities.comp_tables
    calls = []

    def spy(pr, u, v):
        for m, table in enumerate(real(pr, u, v), 1):
            calls.append((u, v, m))
            yield table

    monkeypatch.setattr(identities, "comp_tables", spy)
    rep = run_one("thm3.13", p)
    assert rep.passed and rep.exhaustive
    assert len(calls) == (p - 1) * (p - 2) * (p - 1)
    assert len(set(calls)) == len(calls)


def test_thm3_13_keeps_one_stride_table_per_nonzero_base():
    # the bases of the sweep's tables are b and -b, never 0, so an
    # exhaustive run leaves at most p-1 start tables on its Prime
    from wolstenholme.modarith import make_prime

    p = 13
    pr = make_prime(p)
    rep = run_one("thm3.13", pr, budget=10**9)
    assert rep.passed and rep.exhaustive
    assert 0 < len(pr._starts) <= p - 1


@pytest.mark.parametrize("entries", [(2,), None], ids=["entry", "row"])
def test_thm3_11_sweep_reports_every_instance_of_a_corrupted_row(monkeypatch, entries):
    # one wrong entry, then every entry, of the right-side row of one
    # (m, n, s): exactly those instances must fail, in sweep order, with
    # their params, and the grid must not change
    from wolstenholme.modarith import make_prime
    from wolstenholme.verify import _cong_grid_count

    p, bad = 7, (4, 5, 2)  # M = 5
    real = identities.cong_rows

    def corrupted(pr, m, n, s):
        lhs, rhs = real(pr, m, n, s)
        if (m, n, s) == bad:
            for j in range(len(rhs)) if entries is None else entries:
                rhs[j] = (rhs[j] + 1) % p
        return lhs, rhs

    monkeypatch.setattr(identities, "cong_rows", corrupted)
    rep = run_one("thm3.11", p)
    pr = make_prime(p)
    expected = []
    for m in range(p):
        for n in range(p):
            for s in range(p):
                M = m + n + s - (p - 1)
                for j in range(M + 1) if 0 <= M <= p - 2 else ():
                    lhs, rhs = identities.cong_general(pr, m, n, s, j)
                    if (m, n, s) == bad and (entries is None or j in entries):
                        rhs = (rhs + 1) % p
                    if lhs != rhs:
                        params = {"m": m, "n": n, "s": s, "j": j, "M": M}
                        expected.append({"params": params, "expected": lhs, "got": rhs})
    assert len(expected) == (6 if entries is None else 1)
    assert rep.failures == expected
    assert rep.grid == _cong_grid_count(p) and rep.exhaustive


@pytest.mark.parametrize("entries", [(3,), None], ids=["entry", "row"])
def test_vandermonde_sweep_reports_every_instance_of_a_corrupted_row(monkeypatch, entries):
    # one wrong entry, then every entry, of the right-side row of one
    # (m, n): exactly those instances must fail, in sweep order, with their
    # params, and the grid must not change
    from wolstenholme.modarith import make_prime

    p, bad = 7, (2, 3)  # M = 0..5
    real = identities.vandermonde_rows

    def corrupted(pr, m, n):
        lhs, rhs = real(pr, m, n)
        if (m, n) == bad:
            for M in range(len(rhs)) if entries is None else entries:
                rhs[M] = (rhs[M] + 1) % p
        return lhs, rhs

    monkeypatch.setattr(identities, "vandermonde_rows", corrupted)
    rep = run_one("vandermonde", p)
    pr = make_prime(p)
    expected = []
    for m in range(p):
        for n in range(p - m):
            for M in range(m + n + 1):
                lhs, rhs = identities.vandermonde(pr, m, n, M)
                if (m, n) == bad and (entries is None or M in entries):
                    rhs = (rhs + 1) % p
                if lhs != rhs:
                    expected.append({"params": {"m": m, "n": n, "M": M},
                                     "expected": lhs, "got": rhs})
    assert len(expected) == (6 if entries is None else 1)
    assert rep.failures == expected
    assert rep.grid == sum((d + 1) ** 2 for d in range(p)) and rep.exhaustive


@pytest.mark.parametrize("theorem", ["thm3.11", "thm3.13", "cor3.12"])
def test_sampled_runs_at_p_1009_cache_no_rows(monkeypatch, theorem):
    # every sampled draw reads its binomials (a conv window, or the terms of
    # cong_general) from the factorial tables, so no weighted row and no
    # other lookup row is built
    from wolstenholme.modarith import Prime, make_prime

    real = Prime.weighted_row
    calls = []
    monkeypatch.setattr(Prime, "weighted_row",
                        lambda pr, n, base: calls.append((n, base)) or real(pr, n, base))
    pr = make_prime(1009)
    rep = run_one(theorem, pr, budget=1000, seed=0)
    assert rep.passed and not rep.exhaustive and rep.grid == 1000
    assert calls == []
    for cache in (pr._packed, pr._binom_rows):
        assert cache == {}


def test_sampled_run_at_p_1009_builds_each_power_column_once(monkeypatch):
    # the 1,000 instances are 33 rows of isqrt(1000) = 31 drawn exponents s,
    # the last cut to 8.  A row reads the columns of its head's two terms
    # and of its base k^1 once, then one column per s for its brute dot
    # products: at most 2p-1 columns, p entries of at most 4 bytes each,
    # each built once and then shared by every later read, and no packed
    # power table or other lookup row is built.  The run reads more than
    # p/4 distinct exponents: the sieve builds the first p/4 columns and a
    # running product every later one
    from wolstenholme.modarith import Prime, make_prime

    real = Prime.power_column
    served = {}  # exponent -> every column handed out for it, kept alive

    def spy(pr, e):
        col = real(pr, e)
        served.setdefault(e, []).append(col)
        return col

    monkeypatch.setattr(Prime, "power_column", spy)
    p = 1009
    pr = make_prime(p)
    rep = run_one("thm3.6", pr, budget=1000, seed=0)
    assert rep.passed and not rep.exhaustive and rep.grid == 1000
    built = list(pr._columns.values())
    assert pr._pow_columns == (p + 3) // 4 < len(served)
    assert all(len(col) == p and col.itemsize <= 4 for col in built)
    assert all(col is pr._columns[e] for e, cols in served.items() for col in cols)
    assert sum(map(len, served.values())) == 3 * 33 + 1000
    for cache in (pr._packed, pr._binom_rows):
        assert cache == {}


@pytest.mark.parametrize("theorem", ["thm4.1", "thm4.4", "thm4.5"])
def test_sampled_n_term_runs_at_p_1009_build_no_power_table(theorem):
    # the multi-index and coeff routes take each factor row from its own n+1
    # powers of the base, and the esp route's recurrence reads no power, so
    # no p-long power table is built
    from wolstenholme.modarith import make_prime

    pr = make_prime(1009)
    rep = run_one(theorem, pr, budget=1000, seed=0)
    assert rep.passed and not rep.exhaustive
    assert pr._packed == {}


def test_n_term_rows_read_power_moments_or_power_columns(monkeypatch):
    # every n-term row takes its checked side from a row entry point and its
    # brute side from _brute_row: no point function and no brute_sum.  At
    # p = 11 the rows are whole, each one power_moments row.  At p = 257 each
    # arity is 18 rows of isqrt(300) = 17 drawn m_n, the last cut to 11, read
    # as dot products with the power columns, so no packed power row is
    # built; with the route forced wrong, every failure's expected value is
    # brute_sum of its point
    from wolstenholme import general
    from wolstenholme.modarith import make_prime
    from wolstenholme.oracle import SumSpec, brute_sum

    for name in ("multi_index_J", "coeff_extraction_sum", "esp_sum"):
        monkeypatch.setattr(general, name, lambda gp: pytest.fail("a point function was called"))
    monkeypatch.setattr(verify, "brute_sum", lambda spec: pytest.fail("a row called brute_sum"))
    real = verify.power_moments
    moments = []
    monkeypatch.setattr(verify, "power_moments",
                        lambda pr, pairs: moments.append(pr.p) or real(pr, pairs))
    whole = len(list(verify._general_rows(11, 10_000, 1)))
    rows = list(verify._general_rows(257, 300, 1))
    assert [len(lasts) for _, _, lasts in rows] == ([17] * 17 + [11]) * 3
    for theorem in ("thm4.1", "thm4.4", "thm4.5"):
        rep = run_one(theorem, 11, budget=10_000, seed=1)
        assert rep.passed and (rep.grid, rep.exhaustive) == (27_720, False)
        assert moments == [11] * whole
        moments.clear()
        pr = make_prime(257)
        rep = run_one(theorem, pr, budget=300, seed=1)
        assert rep.passed and (rep.grid, rep.exhaustive) == (900, False)
        assert moments == [] and pr._packed == {}
    monkeypatch.setattr(general, "esp_row", lambda pr, offsets, head, lasts: [-1] * len(lasts))
    rep = run_one("thm4.5", pr, budget=300, seed=1)
    assert [f["params"] for f in rep.failures] == [
        {"offsets": offsets, "exps": (*head, m)} for offsets, head, lasts in rows for m in lasts]
    assert [f["expected"] for f in rep.failures] == [
        brute_sum(SumSpec(pr, tuple(zip(offsets, exps)), frozenset()))
        for offsets, exps in (f["params"].values() for f in rep.failures)]


# --- every grid theorem reports every failing instance -----------------------

# theorem id -> (module, name) of the closed form or right side its check
# calls, and the params each failure names
CHECKED = {
    "thm2.1": (closedforms, "ratio_single", "a m n"),
    "thm2.3": (closedforms, "ratio_pair", "a b m n"),
    "rem2.5": (closedforms, "ratio_equal_offsets", "a m n"),
    "thm2.6": (closedforms, "product_pair_k", "a m n"),
    "thm2.8": (closedforms, "product_pair", "a b m n"),
    "thm3.1": (closedforms, "triple_binomial", "a b m n s"),
    "thm3.4": (closedforms, "triple_s1", "a b m n"),
    "thm3.5": (closedforms, "triple_s2", "a b m n"),
    "thm3.6": (closedforms, "triple_general", "a b m n s"),
    "eq2": (identities, "cancellation", "n k s"),
    "eq3": (identities, "semi_symmetry", "k s"),
    "cor2.7": (identities, "transpose_binomial", "m n"),
    "thm3.11": (identities, "cong_general", "m n s j M"),
    "thm3.13": (identities, "comp_general", "a b m n s M"),
    "vandermonde": (identities, "vandermonde", "m n M"),
}
SAMPLED = ("thm2.1", "thm2.3", "rem2.5", "thm2.6", "thm2.8", "thm3.1", "thm3.4",
           "thm3.5", "thm3.6", "thm3.11", "thm3.13")
# the exhaustive thm3.11 and vandermonde compare whole rows of both sides
# instead
EXHAUSTIVE_CHECKED = {"thm3.11": (identities, "cong_rows"),
                      "vandermonde": (identities, "vandermonde_rows")}
# exhaustive at p = 7 (the exhaustive thm3.13 compares product rows instead),
# sampled at p = 13
CASES = [(t, 7, 10_000) for t in CHECKED if t != "thm3.13"] + [(t, 13, 40) for t in SAMPLED]


def _off_by_one(value):
    """The same result with its closed-form value or right side one too big."""
    if isinstance(value, int):
        return value + 1  # out of [0, p), so never equal to brute force
    if isinstance(value, list):  # a whole row of right sides
        return [x + 1 for x in value]
    if isinstance(value[0], tuple):  # semi_symmetry's two (lhs, rhs) pairs
        return tuple(map(_off_by_one, value))
    lhs, rhs = value
    return lhs, _off_by_one(rhs)


def _force_wrong(monkeypatch, theorem, exhaustive=False):
    module, name, _ = CHECKED[theorem]
    if exhaustive:
        module, name = EXHAUSTIVE_CHECKED.get(theorem, (module, name))
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: _off_by_one(real(*args)))


@pytest.mark.parametrize("theorem, p, budget", CASES)
def test_driver_reports_every_wrong_instance(monkeypatch, theorem, p, budget):
    clean = run_one(theorem, p, budget=budget, seed=7)
    _force_wrong(monkeypatch, theorem, exhaustive=budget == 10_000)
    rep = run_one(theorem, p, budget=budget, seed=7)
    assert (rep.grid, rep.exhaustive) == (clean.grid, clean.exhaustive)
    assert rep.exhaustive == (budget == 10_000)
    assert len(rep.failures) == rep.grid > 0
    names = CHECKED[theorem][2].split()
    for fail in rep.failures:
        assert list(fail["params"]) == names
        assert fail["got"] == fail["expected"] + 1  # expected is brute or lhs
    distinct = {tuple(f["params"].values()) for f in rep.failures}
    if rep.exhaustive:  # eq3 checks two congruences at each (k, s)
        assert len(distinct) == rep.grid // (2 if theorem == "eq3" else 1)


# The failing params of every draw at p = 13, budget 40, seed 7, with every
# check forced to fail (cor3.12: its part-2 right side); a change to a
# sampler's stream of random calls changes these lists.  A box draws 7 heads,
# each on a row of isqrt(40) = 6 distinct exponents, the last row cut to 4.
PINNED = {
    "thm2.3": [
        (5, 2, 6, 10), (5, 2, 6, 0), (5, 2, 6, 1), (5, 2, 6, 8), (5, 2, 6, 12), (5, 2, 6, 5),
        (9, 0, 8, 3), (9, 0, 8, 0), (9, 0, 8, 1), (9, 0, 8, 6), (9, 0, 8, 9), (9, 0, 8, 10),
        (3, 1, 8, 6), (3, 1, 8, 0), (3, 1, 8, 9), (3, 1, 8, 1), (3, 1, 8, 3), (3, 1, 8, 11),
        (9, 12, 6, 0), (9, 12, 6, 3), (9, 12, 6, 12), (9, 12, 6, 8), (9, 12, 6, 2), (9, 12, 6, 4),
        (6, 2, 8, 1), (6, 2, 8, 9), (6, 2, 8, 4), (6, 2, 8, 8), (6, 2, 8, 2), (6, 2, 8, 12),
        (9, 12, 10, 3), (9, 12, 10, 5), (9, 12, 10, 1),
        (9, 12, 10, 8), (9, 12, 10, 10), (9, 12, 10, 0),
        (9, 3, 7, 10), (9, 3, 7, 8), (9, 3, 7, 6), (9, 3, 7, 5),
    ],
    "thm2.8": [
        (6, 3, 7, 11), (6, 3, 7, 1), (6, 3, 7, 2), (6, 3, 7, 9), (6, 3, 7, 10), (6, 3, 7, 3),
        (10, 1, 9, 4), (10, 1, 9, 1), (10, 1, 9, 2), (10, 1, 9, 7), (10, 1, 9, 9), (10, 1, 9, 11),
        (4, 2, 9, 7), (4, 2, 9, 1), (4, 2, 9, 10), (4, 2, 9, 2), (4, 2, 9, 4), (4, 2, 9, 6),
        (11, 10, 1, 10), (11, 10, 1, 12), (11, 10, 1, 7),
        (11, 10, 1, 1), (11, 10, 1, 4), (11, 10, 1, 9),
        (9, 3, 5, 7), (9, 3, 5, 3), (9, 3, 5, 9), (9, 3, 5, 2), (9, 3, 5, 5), (9, 3, 5, 8),
        (11, 3, 2, 10), (11, 3, 2, 12), (11, 3, 2, 4), (11, 3, 2, 6), (11, 3, 2, 2), (11, 3, 2, 5),
        (12, 2, 10, 1), (12, 2, 10, 10), (12, 2, 10, 4), (12, 2, 10, 8),
    ],
    "thm3.1": [
        (6, 3, 7, 11, 1), (6, 3, 7, 11, 2), (6, 3, 7, 11, 9),
        (6, 3, 7, 11, 11), (6, 3, 7, 11, 6), (6, 3, 7, 11, 5),
        (1, 9, 4, 1, 2), (1, 9, 4, 1, 7), (1, 9, 4, 1, 11),
        (1, 9, 4, 1, 12), (1, 9, 4, 1, 4), (1, 9, 4, 1, 1),
        (9, 7, 1, 10, 2), (9, 7, 1, 10, 4), (9, 7, 1, 10, 10),
        (9, 7, 1, 10, 1), (9, 7, 1, 10, 7), (9, 7, 1, 10, 9),
        (4, 1, 9, 3, 5), (4, 1, 9, 3, 7), (4, 1, 9, 3, 3),
        (4, 1, 9, 3, 9), (4, 1, 9, 3, 2), (4, 1, 9, 3, 12),
        (5, 9, 11, 3, 2), (5, 9, 11, 3, 10), (5, 9, 11, 3, 11),
        (5, 9, 11, 3, 4), (5, 9, 11, 3, 6), (5, 9, 11, 3, 1),
        (9, 2, 10, 1, 10), (9, 2, 10, 1, 4), (9, 2, 10, 1, 8),
        (9, 2, 10, 1, 9), (9, 2, 10, 1, 7), (9, 2, 10, 1, 12),
        (6, 8, 10, 8, 6), (6, 8, 10, 8, 5), (6, 8, 10, 8, 4), (6, 8, 10, 8, 3),
    ],
    "thm3.5": [
        (6, 3, 7, 11), (6, 3, 7, 1), (6, 3, 7, 2), (6, 3, 7, 9), (6, 3, 7, 10), (6, 3, 7, 3),
        (10, 1, 9, 4), (10, 1, 9, 1), (10, 1, 9, 2), (10, 1, 9, 7), (10, 1, 9, 9), (10, 1, 9, 11),
        (4, 2, 9, 7), (4, 2, 9, 1), (4, 2, 9, 10), (4, 2, 9, 2), (4, 2, 9, 4), (4, 2, 9, 6),
        (11, 10, 1, 10), (11, 10, 1, 12), (11, 10, 1, 7),
        (11, 10, 1, 1), (11, 10, 1, 4), (11, 10, 1, 9),
        (9, 3, 5, 7), (9, 3, 5, 3), (9, 3, 5, 9), (9, 3, 5, 2), (9, 3, 5, 5), (9, 3, 5, 8),
        (11, 3, 2, 10), (11, 3, 2, 12), (11, 3, 2, 4), (11, 3, 2, 6), (11, 3, 2, 2), (11, 3, 2, 5),
        (12, 2, 10, 1), (12, 2, 10, 10), (12, 2, 10, 4), (12, 2, 10, 8),
    ],
    "thm3.11": [
        (5, 2, 11, 5, 6), (0, 1, 11, 0, 0), (9, 0, 11, 3, 8), (0, 1, 12, 1, 1),
        (1, 3, 8, 0, 0), (0, 9, 4, 0, 1), (10, 10, 0, 6, 8), (0, 3, 9, 0, 0), (4, 6, 4, 2, 2),
        (1, 9, 6, 4, 4), (10, 2, 1, 0, 1), (5, 1, 10, 0, 4), (9, 0, 12, 3, 9),
        (7, 10, 4, 6, 9), (12, 5, 3, 7, 8), (5, 4, 6, 1, 3), (11, 12, 0, 1, 11),
        (9, 4, 8, 7, 9), (5, 11, 7, 4, 11), (9, 1, 3, 1, 1), (2, 12, 5, 2, 7), (7, 6, 0, 0, 1),
        (12, 8, 2, 5, 10), (11, 5, 7, 9, 11), (12, 7, 0, 1, 7), (4, 7, 12, 10, 11),
        (1, 0, 12, 1, 1), (4, 11, 6, 5, 9), (0, 7, 10, 1, 5), (9, 1, 9, 0, 7),
        (3, 12, 4, 2, 7), (11, 3, 6, 6, 8), (7, 1, 6, 1, 2), (6, 8, 4, 1, 6), (6, 8, 4, 5, 6),
        (6, 5, 11, 6, 10), (3, 2, 7, 0, 0), (2, 3, 12, 1, 5), (0, 7, 7, 1, 2), (4, 0, 9, 1, 1),
    ],
    "thm3.13": [
        (6, 3, 7, 11, 0, 6), (2, 9, 2, 6, 4, 0), (9, 4, 1, 2, 12, 3), (7, 2, 4, 2, 10, 4),
        (7, 1, 10, 2, 3, 3), (11, 12, 10, 1, 10, 9), (10, 7, 1, 4, 7, 0), (9, 3, 5, 7, 2, 2),
        (9, 2, 10, 5, 8, 11), (11, 3, 2, 10, 9, 9), (11, 4, 6, 2, 12, 8),
        (12, 2, 10, 1, 10, 9), (4, 8, 11, 9, 3, 11), (6, 8, 10, 8, 2, 8), (5, 4, 3, 12, 3, 6),
        (2, 10, 5, 9, 7, 9), (6, 8, 5, 10, 1, 4), (2, 9, 7, 3, 7, 5), (3, 8, 7, 1, 5, 1),
        (9, 10, 6, 6, 11, 11), (6, 10, 8, 10, 3, 9), (2, 12, 5, 8, 10, 11),
        (5, 11, 10, 11, 1, 10), (5, 7, 11, 6, 0, 5), (8, 6, 3, 10, 1, 2), (8, 1, 4, 5, 5, 2),
        (12, 4, 7, 7, 7, 9), (2, 3, 8, 7, 8, 11), (5, 3, 7, 9, 4, 8), (12, 7, 6, 11, 3, 8),
        (4, 3, 2, 3, 8, 1), (4, 11, 4, 1, 10, 3), (10, 3, 5, 5, 2, 0), (3, 7, 9, 6, 5, 8),
        (3, 9, 10, 11, 2, 11), (12, 1, 8, 11, 4, 11), (7, 12, 7, 7, 1, 3), (8, 11, 7, 1, 7, 3),
        (2, 4, 8, 3, 2, 1), (6, 10, 1, 2, 9, 0),
    ],
    "cor3.12": [
        (2, 2, 10, 10, 5), (2, 6, 2, 10, 11), (2, 10, 1, 9, 12), (2, 11, 9, 10, 4),
        (2, 10, 8, 7, 6), (2, 10, 5, 12, 4), (2, 12, 8, 9, 8), (2, 2, 9, 5, 10),
        (2, 6, 12, 9, 10), (2, 2, 12, 10, 8), (2, 1, 5, 5, 8), (2, 5, 7, 11, 10),
        (2, 1, 4, 10, 2), (2, 7, 8, 12, 4), (2, 3, 7, 8, 7), (2, 6, 11, 9, 5),
        (2, 1, 8, 4, 11), (2, 5, 1, 10, 3), (2, 3, 9, 9, 6), (2, 7, 12, 11, 9),
        (2, 1, 4, 8, 11), (2, 6, 10, 10, 3), (2, 3, 11, 4, 10), (2, 2, 12, 10, 6),
        (2, 8, 5, 8, 8), (2, 12, 5, 2, 12), (2, 9, 1, 8, 12), (2, 3, 9, 4, 9),
        (2, 12, 5, 5, 11), (2, 6, 4, 9, 6), (2, 11, 4, 9, 9), (2, 7, 4, 10, 4),
    ],
}


@pytest.mark.parametrize("theorem", list(PINNED))
def test_sampled_streams_are_pinned(monkeypatch, theorem):
    if theorem == "cor3.12":
        real = verify.pow_nonzero
        monkeypatch.setattr(verify, "pow_nonzero", lambda pr, b, e: real(pr, b, e) + 1)
        names = ["part", "a", "b", "m", "n"]  # part 1 holds, part 2 fails
    else:
        _force_wrong(monkeypatch, theorem)
        names = CHECKED[theorem][2].split()
    rep = run_one(theorem, 13, budget=40, seed=7)
    assert (rep.grid, rep.exhaustive) == (40, False)
    assert all(list(f["params"]) == names for f in rep.failures)
    assert [tuple(f["params"].values()) for f in rep.failures] == PINNED[theorem]


# --- grid sizes ---------------------------------------------------------------

# (thm3.11, thm3.13, cor3.12) grid sizes as the old O(p^3) and O(p^2) loops
# counted them
LARGE_GRIDS = {
    257: (1_451_305_728, 732_247_392_000, 2_166_959_487),
    1009: (345_324_761_040, 693_588_634_702_992, 517_386_396_071),
}


def _counts(p):
    return verify._cong_grid_count(p), verify._comp_grid_count(p), verify._cor312_grid_count(p)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_grid_sizes_match_enumeration(p):
    comp = cor = 0
    for m in range(1, p):
        for n in range(1, p):
            comp += sum(1 for s in range(p) if 0 <= m + n + s - (p - 1) <= p - 2)
            M = m + n - (p - 1)
            if M >= 0:
                cor += M + 1 + (p - 1) * (p - 2)  # part 1: j = 0..M; part 2: a != b
    cong = 0
    for m, n, s in product(range(p), repeat=3):
        M = m + n + s - (p - 1)
        if 0 <= M <= p - 2:
            cong += M + 1  # j = 0..M
    assert _counts(p) == (cong, (p - 1) * (p - 2) * comp, cor)


@pytest.mark.parametrize("p", list(LARGE_GRIDS))
def test_grid_sizes_at_large_primes(p):
    assert _counts(p) == LARGE_GRIDS[p]


def test_sampled_thm3_11_at_p_1009_is_fast():
    # sizing this grid took about 42 s when the count was an O(p^3) loop
    start = time.perf_counter()
    rep = run_one("thm3.11", 1009, budget=100)
    assert rep.passed and not rep.exhaustive and rep.grid == 100
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("budget", [1, 7])
def test_quickcase_below_budget_8_still_checks(budget):
    rep = run_one("quickcase", 13, budget=budget)
    assert rep.passed and rep.grid >= 1


# --- the brute side of the exhaustive box grids ------------------------------

BOXES = ("thm2.1", "thm2.3", "rem2.5", "thm2.6", "thm2.8", "thm3.1", "thm3.4", "thm3.5",
         "thm3.6")


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("theorem", BOXES)
def test_box_rows_match_brute_sum(monkeypatch, theorem, p):
    # with the closed form forced to fail everywhere, each failure's expected
    # value is the brute side: read off one power_moments row per head in the
    # exhaustive run, one brute_sum per point in the point-by-point sweep
    from wolstenholme.modarith import make_prime

    module, name, _ = CHECKED[theorem]
    monkeypatch.setattr(module, name, lambda *args: -1)
    grid, pr = REGISTRY[theorem].run, make_prime(p)
    pointwise = grid.sweep(pr, grid.points(p))

    def no_brute_sum(spec):
        raise AssertionError("the exhaustive sweep called brute_sum")

    monkeypatch.setattr(verify, "brute_sum", no_brute_sum)
    rep = run_one(theorem, pr, budget=10**9)
    assert rep.exhaustive
    assert (rep.grid, rep.failures) == pointwise
    assert rep.grid == grid.count(p) > 0


def _thm3_6_weights(p, a, b, m, n):
    """The (weight, base) pairs of the brute moments of thm3.6's head
    (a, b, m, n): ((a+k)^m (b+k)^n mod p, k) for every k in [0, p)."""
    return [(pow(a + k, m, p) * pow(b + k, n, p) % p, k) for k in range(p)]


@pytest.mark.parametrize("entries", [(3,), tuple(range(7))], ids=["entry", "row"])
def test_box_sweep_reports_every_instance_of_a_corrupted_kernel_row(monkeypatch, entries):
    # one wrong entry, then one wrong row, of the brute moments of one head
    # (a, b, m, n) of thm3.6: exactly the points that read them must fail, in
    # sweep order, with their params, and the grid must not change.  The
    # swapped head (b, a, n, m) has the same weights, so it reads them too.
    from wolstenholme.modarith import make_prime
    from wolstenholme.oracle import SumSpec, brute_sum

    p, head = 7, (2, 5, 3, 4)
    pr = make_prime(p)

    heads = [(a, b, m, n) for a in range(1, p) for b in range(1, p) if b != a
             for m in range(1, p) for n in range(1, p)]
    hits = [h for h in heads if _thm3_6_weights(p, *h) == _thm3_6_weights(p, *head)]
    assert hits == [head, (5, 2, 4, 3)]
    clean = run_one("thm3.6", p)
    real = verify.power_moments

    def corrupted(pr, pairs):
        pairs = list(pairs)
        row = real(pr, pairs)
        if pairs == _thm3_6_weights(p, *head):
            for s in entries:
                row[s] = (row[s] + 1) % p
        return row

    monkeypatch.setattr(verify, "power_moments", corrupted)
    rep = run_one("thm3.6", p)
    expected = []
    for a, b, m, n in hits:
        for s in range(1, p):
            if s in entries:
                got = brute_sum(SumSpec(pr, ((a, m), (b, n), (0, s)), frozenset()))
                params = {"a": a, "b": b, "m": m, "n": n, "s": s}
                expected.append({"params": params, "expected": (got + 1) % p, "got": got})
    assert clean.passed and len(expected) == 2 * len(set(entries) - {0})
    assert rep.failures == expected
    assert (rep.grid, rep.exhaustive) == (clean.grid, True) == (6 * 5 * 6 ** 3, True)


@pytest.mark.parametrize("theorem", BOXES)
def test_row_sampled_boxes_match_brute_sum(monkeypatch, theorem):
    # at p = 11 a budget of 999 samples every box in whole rows of its last
    # range, the last row cut short, each read off one power_moments row; a
    # budget of 99 at p = 11 or 300 at p = 257 in rows of isqrt(budget)
    # drawn exponents, each read as one dot product with its power column
    # (thm2.1 with its alternating sign and exclusions {0, a}, thm2.3 with
    # its exponent n = 0).  With the closed form forced to fail, each
    # failure's expected value is the brute side, and must be brute_sum of
    # that point
    from wolstenholme.modarith import make_prime

    module, name, _ = CHECKED[theorem]
    monkeypatch.setattr(module, name, lambda *args: -1)
    real, grid = verify.brute_sum, REGISTRY[theorem].run
    for p, budget in ((11, 999), (11, 99), (257, 300)):
        pr = make_prime(p)
        monkeypatch.setattr(verify, "brute_sum", lambda spec: pytest.fail("a row called brute_sum"))
        rep = run_one(theorem, pr, budget=budget, seed=5)
        monkeypatch.setattr(verify, "brute_sum", real)
        points = [tuple(f["params"].values()) for f in rep.failures]
        assert (rep.grid, rep.exhaustive) == (budget, False) and grid.count(p) > budget
        assert (rep.grid, rep.failures) == grid.sweep(pr, points)
        if theorem == "thm2.3":
            assert 0 in [point[-1] for point in points]


def test_box_sample_is_rows_from_l_squared_instances(monkeypatch):
    # at p = 13 the last range of thm3.6 has L = 12 exponents s and that of
    # thm2.3 L = 13 exponents n: a sample of L^2 instances is L rows of L
    # points, each one power_moments row and no brute_sum; one of L^2 - 1 is
    # L + 1 rows of isqrt(L^2 - 1) = L - 1 distinct drawn exponents, read as
    # dot products with the power columns: no power_moments and no brute_sum
    from wolstenholme.modarith import make_prime

    pr = make_prime(13)
    calls = {}

    def counted(name):
        real = getattr(verify, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(verify, name, spy)

    counted("brute_sum")
    counted("power_moments")
    for theorem, size in (("thm3.6", 12), ("thm2.3", 13)):
        sample = REGISTRY[theorem].run.sample
        calls.update(brute_sum=0, power_moments=0)
        chunks = [list(points) for points, _, _ in sample(pr, size * size, 1)]
        assert calls == {"brute_sum": 0, "power_moments": size}
        assert [len(points) for points in chunks] == [size] * size
        exps = list(range(1, 13) if size == 12 else range(13))
        for points in chunks:
            assert [point[:-1] for point in points] == [points[0][:-1]] * size
            assert [point[-1] for point in points] == exps
        calls.update(brute_sum=0, power_moments=0)
        drawn = [list(points) for points, _, _ in sample(pr, size * size - 1, 1)]
        assert calls == {"brute_sum": 0, "power_moments": 0}
        assert [len(points) for points in drawn] == [size - 1] * (size + 1)
        for points in drawn:
            assert [point[:-1] for point in points] == [points[0][:-1]] * (size - 1)
            assert len({point[-1] for point in points} & set(exps)) == size - 1
    # 10,000 instances of thm3.6: 834 rows, the last cut to 10,000 mod 12 = 4
    rows = [list(points) for points, _, _ in REGISTRY["thm3.6"].run.sample(pr, 10_000, 0)]
    assert [len(points) for points in rows] == [12] * 833 + [4]
    assert [point[-1] for point in rows[-1]] == [1, 2, 3, 4]


def test_sampled_box_rows_report_every_instance_of_a_corrupted_kernel_row(monkeypatch):
    # one wrong entry s = 3 of the brute moments of one sampled head of
    # thm3.6 at p = 11: exactly the sampled points that read it must fail,
    # with their params, and the grid must not change
    from wolstenholme.modarith import make_prime
    from wolstenholme.oracle import SumSpec, brute_sum

    p, entry = 11, 3
    pr = make_prime(p)
    rows = [list(points) for points, _, _ in REGISTRY["thm3.6"].run.sample(pr, 10_000, 3)]
    target = _thm3_6_weights(p, *rows[500][0][:-1])
    hits = [points[entry - 1] for points in rows
            if _thm3_6_weights(p, *points[0][:-1]) == target]
    assert len(rows) == 1000 and hits
    clean = run_one("thm3.6", pr, budget=10_000, seed=3)
    real = verify.power_moments

    def corrupted(pr, pairs):
        row = real(pr, pairs)
        if pairs == target:
            row[entry] = (row[entry] + 1) % p
        return row

    monkeypatch.setattr(verify, "power_moments", corrupted)
    rep = run_one("thm3.6", pr, budget=10_000, seed=3)
    expected = []
    for a, b, m, n, s in hits:
        got = brute_sum(SumSpec(pr, ((a, m), (b, n), (0, s)), frozenset()))
        params = {"a": a, "b": b, "m": m, "n": n, "s": s}
        expected.append({"params": params, "expected": (got + 1) % p, "got": got})
    assert clean.passed and rep.failures == expected
    assert (rep.grid, rep.exhaustive) == (clean.grid, clean.exhaustive) == (10_000, False)


@pytest.mark.parametrize("p, budget", [(5, 40_000), (11, 10_000)], ids=["swept", "sampled"])
@pytest.mark.parametrize("theorem, route", [("thm4.1", "multi_index_row"),
                                            ("thm4.4", "coeff_extraction_row"),
                                            ("thm4.5", "esp_row")])
def test_n_term_sweep_reports_exactly_a_corrupted_cell(monkeypatch, theorem, route, p, budget):
    # one slot of one row of the checked side is wrong: exactly that point
    # must fail, with its params, and the grid must not change.  At p = 5
    # every arity is enumerated; at p = 11 every arity is drawn in rows
    from wolstenholme import general

    real = getattr(general, route)
    calls, hit = [], []

    def corrupted(pr, offsets, head, lasts):
        row = real(pr, offsets, head, lasts)
        calls.append(len(lasts))
        if len(calls) == 1000:  # a row of arity 3
            hit.append(((offsets, (*head, lasts[2])), row[2]))
            row[2] = (row[2] + 1) % pr.p
        return row

    clean = run_one(theorem, p, budget=budget, seed=3)
    monkeypatch.setattr(general, route, corrupted)
    rep = run_one(theorem, p, budget=budget, seed=3)
    [((offsets, exps), value)] = hit
    assert len(offsets) == 3 and set(calls) == {p - 1}
    assert clean.passed and (rep.grid, rep.exhaustive) == (clean.grid, p == 5)
    assert rep.failures == [{"params": {"offsets": offsets, "exps": exps},
                             "expected": value, "got": (value + 1) % p}]


@pytest.mark.parametrize("cut", [slice(-1), slice(0)], ids=["short", "empty"])
def test_a_short_n_term_row_fails_loudly(monkeypatch, capsys, cut):
    # a row entry point that answers fewer points than its row holds must not
    # pass by comparing only the points it answered
    from wolstenholme import general
    from wolstenholme.cli import main
    from wolstenholme.errors import DisagreementError

    real = general.esp_row
    monkeypatch.setattr(general, "esp_row", lambda pr, *row: real(pr, *row)[cut])
    offsets, head, lasts = next(verify._general_rows(11, 10_000, 1))
    first = {"offsets": offsets, "exps": (*head, lasts[0])}
    message = f"chunk at {first}: {len(lasts)} left, {len(lasts[cut])} right sides"
    with pytest.raises(DisagreementError) as err:
        run_one("thm4.5", 11, budget=10_000, seed=1)
    assert str(err.value) == message
    assert main(["verify", "--theorems", "thm4.5", "--primes", "11", "--seed", "1"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"


def test_sampled_n_term_rows_keep_each_arity_s_instance_count():
    # at p = 13 with budget 10,000 every arity is drawn in rows of 12: 832
    # (9,984 instances), 715 (8,580) and 834, the last cut to its first
    # 10,000 mod 12 = 4 exponents.  A sample of N = (p-1)^2 instances is
    # whole rows; one of N = (p-1)^2 - 1 is 13 rows of isqrt(N) = 11
    # distinct drawn exponents
    rows = list(verify._general_rows(13, 10_000, 0))
    assert [len(offsets) for offsets, _, _ in rows] == [2] * 832 + [3] * 715 + [4] * 834
    assert [lasts for _, _, lasts in rows] == [range(1, 13)] * 2380 + [range(1, 5)]
    assert run_one("thm4.4", 13, seed=0).grid == 28_564
    rows = list(verify._general_rows(13, 144, 0))
    assert [(len(offsets), len(lasts)) for offsets, _, lasts in rows] == [(2, 12)] * 12 + [
        (3, 12)] * 12 + [(4, 12)] * 12
    rows = list(verify._general_rows(13, 143, 0))
    assert [(len(offsets), len(lasts)) for offsets, _, lasts in rows] == [
        (n, 11) for n in (2, 3, 4) for _ in range(13)]
    assert all(len(set(lasts) & set(range(1, 13))) == 11 for _, _, lasts in rows)


@pytest.mark.parametrize("size", [12, 13, 256, 1008])
def test_sampled_rows_hold_n_points_in_rows_of_isqrt_n(size):
    # r = min(L, isqrt(N)) values a row and one head per row, the last row
    # cut so that the rows hold N points: at least r rows, each of at most r
    # distinct values of lasts, whole in-order ranges exactly when N >= L^2.
    # Every N in 1..3L^2 for L = 12 and 13; for L = 256 and 1008, N = 1, L^2
    # - 1, L^2, 3L^2 and six seeded more
    import random
    from math import isqrt

    lasts = range(size) if size == 13 else range(1, size + 1)
    allowed, top = set(lasts), 3 * size * size
    rng = random.Random(size)
    if size < 100:
        ns = range(1, top + 1)
    else:
        ns = [1, size * size - 1, size * size, top, *rng.sample(range(2, top), 6)]
    for n in ns:
        heads = iter(range(n))
        rows = list(verify._sampled_rows(n, lasts, lambda: next(heads), rng))
        r = min(size, isqrt(n))
        assert [head for head, _ in rows] == list(range(len(rows))) and len(rows) >= r
        assert sum(len(values) for _, values in rows) == n
        for _, values in rows:
            distinct = set(values)
            assert 0 < len(distinct) == len(values) <= r and distinct <= allowed
            assert isinstance(values, range) == (n >= size * size)
            if isinstance(values, range):
                assert values == lasts[: len(values)]
    # N = 1,000 at L = 256: 33 rows of 31 drawn exponents, the last cut to 8
    rows = verify._sampled_rows(1000, range(1, 257), lambda: None, rng)
    assert [len(values) for _, values in rows] == [31] * 32 + [8]


def test_figures_at_p_97_is_fast():
    # every residue matrix was an O(p^3) loop; figures took 9-10 s at p = 97
    start = time.perf_counter()
    rep = run_one("figures", 97, budget=500)
    assert time.perf_counter() - start < 5
    assert rep.passed and rep.exhaustive and rep.grid == 576


def test_tablecorr_at_p_97_is_fast():
    # dense (m+1) x (n+1) rows made tablecorr take about 14 s at p = 97
    start = time.perf_counter()
    rep = run_one("tablecorr", 97)
    assert time.perf_counter() - start < 5
    assert rep.passed and not rep.exhaustive and rep.grid == (10_000 // 96) * 96


def _perturbed(pr, row, i, j):
    """row with its a^i b^j coefficient one bigger."""
    grid = [list(r) for r in row.coeffs]
    grid[i][j] += 1
    return bipoly(pr, grid)


def test_tablecorr_sweep_reports_exactly_the_corrupted_rows(monkeypatch):
    # coeff row j serves the one s with j = i(p-1) - s; row 2(p-1) at
    # m = n = p-1 is the i = 3 corner of s = p-1.  Sum row 2 of (1, 2) is
    # zero, so its corruption adds a monomial.
    p = 7
    real_coeffs, real_sums = verify.symbolic_coeff_table, verify.symbolic_sum_table

    def coeffs(pr, m, n):
        rows = real_coeffs(pr, m, n)
        if (m, n) == (6, 6):
            rows[12] = _perturbed(pr, rows[12], 0, 0)
        return rows

    def sums(pr, m, n):
        rows = real_sums(pr, m, n)
        if (m, n) == (1, 2):
            assert not rows[1].terms
            rows[1] = _perturbed(pr, rows[1], 1, 1)
        return rows

    clean = run_one("tablecorr", p)
    monkeypatch.setattr(verify, "symbolic_coeff_table", coeffs)
    monkeypatch.setattr(verify, "symbolic_sum_table", sums)
    rep = run_one("tablecorr", p)
    assert clean.passed
    assert (clean.grid, clean.exhaustive) == (rep.grid, rep.exhaustive) == (216, True)
    assert rep.failures == [
        {"params": {"m": m, "n": n, "s": s}, "expected": 0, "got": 1}
        for m, n, s in ((1, 2, 2), (6, 6, 6))
    ]


# --- the left side of cor3.12 part 2 across b ---------------------------------


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_cor3_12_across_b_matches_the_point_check(p):
    # every (a, m, n) of part 2: slot b of the across-b row is the left side
    # _check_cor3_12 computes at (a, b, m, n) with one convolution
    from wolstenholme.modarith import make_prime

    pr = make_prime(p)
    columns = verify._power_columns(pr)
    checked = 0
    for m in range(1, p):
        for n in range(1, p):
            if m + n < p - 1:
                continue
            for a in range(1, p):
                row = verify._cor3_12_across_b(pr, columns, pr.weighted_row(m, a), n)
                assert len(row) == p
                for b in range(1, p):
                    if b != a:
                        assert row[b] == verify._check_cor3_12(pr, 2, a, b, m, n, None)[1]
                        checked += 1
    assert checked == verify._cor312_grid_count(p) - sum(
        m + n - (p - 1) + 1 for m in range(1, p) for n in range(1, p) if m + n >= p - 1)


@pytest.mark.parametrize("p", [7, 11, 37, 41])
def test_cor3_12_across_b_at_slot_width_edges(p):
    # primes on each side of a change of Prime.pack_width; m = n = p-1 puts
    # p terms into each slot, the most there can be
    from wolstenholme.modarith import make_prime

    pr = make_prime(p)
    columns = verify._power_columns(pr)
    for a, m, n in ((1, p - 1, p - 1), (p - 1, p - 1, p - 1), (2, p - 2, p - 1)):
        row = verify._cor3_12_across_b(pr, columns, pr.weighted_row(m, a), n)
        for b in {1, 2, p // 2, p - 2, p - 1} - {a}:
            assert row[b] == verify._check_cor3_12(pr, 2, a, b, m, n, None)[1], (a, b, m, n)


# --- the failure lists of the runners outside PINNED --------------------------


def _wrong_evaluator(name):
    """Patch general.<name>, the row entry point of one n-term theorem, to a
    wrong constant at every point of every row, so that every point fails."""
    from wolstenholme import general
    return lambda monkeypatch: monkeypatch.setattr(
        general, name, lambda pr, offsets, head, lasts: [-1] * len(lasts))


def _closed_form_off_by_one(theorem):
    """Patch the closed form of one box theorem to answer one too big at
    every point."""
    return lambda monkeypatch: _force_wrong(monkeypatch, theorem)


def _quick_case_off_by_one(monkeypatch):
    real = closedforms.quick_case

    def wrong(spec):
        got = real(spec)
        return None if got is None else got + 1

    monkeypatch.setattr(closedforms, "quick_case", wrong)


def _sum_rows_off(monkeypatch):
    # one cell of sum row (m+n) mod (p-1) one too big, at every (m, n)
    real = verify.symbolic_sum_table

    def corrupted(pr, m, n):
        rows = real(pr, m, n)
        s = (m + n) % (pr.p - 1)
        rows[s] = _perturbed(pr, rows[s], m // 2, n // 2)
        return rows

    monkeypatch.setattr(verify, "symbolic_sum_table", corrupted)


def _residue_matrix_off(monkeypatch):
    # entry (0, 0) one too big for a = 3, entry (2, 1) for a = 5
    from dataclasses import replace

    real = verify.residue_matrix

    def corrupted(pr, a):
        mat = real(pr, a)
        cell = {3: (0, 0), 5: (2, 1)}.get(a)
        if cell is None:
            return mat
        rows = [list(r) for r in mat.entries]
        rows[cell[0]][cell[1]] = (rows[cell[0]][cell[1]] + 1) % pr.p
        return replace(mat, entries=tuple(map(tuple, rows)))

    monkeypatch.setattr(verify, "residue_matrix", corrupted)


def _harmonic_off_by_p_plus_one(monkeypatch):
    # one too big mod p, and p+1 too big mod p^2
    real = verify.brute_sum_mod_p2
    monkeypatch.setattr(verify, "brute_sum_mod_p2", lambda pr, e: real(pr, e) + pr.p + 1)


def _pow_nonzero_off_by_one(monkeypatch):
    real = verify.pow_nonzero
    monkeypatch.setattr(verify, "pow_nonzero", lambda pr, b, e: real(pr, b, e) + 1)


# (theorem, p, budget, seed, mode, patch) -> (grid, exhaustive, failure count,
# SHA-256 prefix of the failure list as JSON): params, expected and got of
# every failure, in order
RUNNER_PINS = {
    # arities 2 and 3 exhaustive, 4 in 2,490 seeded rows of every m_4, as its
    # 9,960 instances reach (p-1)^2; all three draw the same points
    ("thm4.1", 5, 10_000, 7, "p2", _wrong_evaluator("multi_index_row")):
        (14120, False, 14120, "ba510a61974ce7de"),
    ("thm4.4", 5, 10_000, 7, "p2", _wrong_evaluator("coeff_extraction_row")):
        (14120, False, 14120, "ba510a61974ce7de"),
    ("thm4.5", 5, 10_000, 7, "p2", _wrong_evaluator("esp_row")):
        (14120, False, 14120, "ba510a61974ce7de"),
    # every arity sampled in 7 seeded heads, each on a row of isqrt(40) = 6
    # drawn m_n, the last cut to 4
    ("thm4.1", 13, 40, 7, "p2", _wrong_evaluator("multi_index_row")):
        (120, False, 120, "2e8341e8ec98e648"),
    ("thm4.4", 13, 40, 7, "p2", _wrong_evaluator("coeff_extraction_row")):
        (120, False, 120, "2e8341e8ec98e648"),
    ("thm4.5", 13, 40, 7, "p2", _wrong_evaluator("esp_row")):
        (120, False, 120, "2e8341e8ec98e648"),
    # 1,000 seeded heads (a, b, m, n) of thm3.1, each on its row of every s,
    # and 910 of thm2.3 (a, b, m) on their rows of every n, the last cut to
    # n = 0, as 10,000 instances reach L^2
    ("thm3.1", 11, 10_000, 7, "p2", _closed_form_off_by_one("thm3.1")):
        (10000, False, 10000, "56a1e508fb6bb9c3"),
    ("thm2.3", 11, 10_000, 7, "p2", _closed_form_off_by_one("thm2.3")):
        (10000, False, 10000, "1fc8bf7fbaef2028"),
    ("quickcase", 13, 40, 7, "p2", _quick_case_off_by_one):
        (46, False, 46, "c0a60a5337d58a10"),
    ("tablecorr", 13, 40, 7, "p2", _sum_rows_off): (36, False, 3, "7d5300020e0da8ce"),
    ("figures", 7, 10_000, 0, "p2", _residue_matrix_off): (36, True, 6, "805f042120736753"),
    ("thm1.2", 7, 10_000, 0, "p2", _harmonic_off_by_p_plus_one):
        (4, True, 4, "25dade80c1ce5459"),
    ("thm1.2", 7, 10_000, 0, "p", _harmonic_off_by_p_plus_one):
        (3, True, 3, "f7060091a499009b"),
    ("thm1.3", 11, 10_000, 0, "p2", _harmonic_off_by_p_plus_one):
        (9, True, 9, "4a74de0ca6d9c9ba"),
    ("thm1.3", 11, 10_000, 0, "p", _harmonic_off_by_p_plus_one):
        (9, True, 9, "a343cf0af330ebbe"),
    # part 1 (82 instances) holds and every instance of part 2 fails
    ("cor3.12", 7, 10_000, 0, "p2", _pow_nonzero_off_by_one):
        (862, True, 780, "c8b15a68e99cd2cd"),
}


def test_harmonic_failures_name_the_modulus_they_were_checked_against(monkeypatch):
    _harmonic_off_by_p_plus_one(monkeypatch)
    for theorem, p in (("thm1.2", 7), ("thm1.3", 11)):
        for mode in ("p2", "p"):
            failures = run_one(theorem, p, mode=mode).failures
            mods = {f["params"]["mod"] for f in failures}
            assert mods == ({"p2", "p"} if mode == "p2" else {"p"}), (theorem, mode)


@pytest.mark.parametrize("case", list(RUNNER_PINS),
                         ids=lambda c: f"{c[0]}-p{c[1]}-b{c[2]}-{c[4]}")
def test_runner_failure_lists_are_pinned(monkeypatch, case):
    import hashlib

    theorem, p, budget, seed, mode, patch = case
    patch(monkeypatch)
    rep = run_one(theorem, p, budget=budget, seed=seed, mode=mode)
    digest = hashlib.sha256(json.dumps(rep.failures).encode()).hexdigest()[:16]
    assert (rep.grid, rep.exhaustive, len(rep.failures), digest) == RUNNER_PINS[case]
