import itertools
import random
import re
import time

import pytest
from reference_tables import binomial_product

from wolstenholme import general, modarith
from wolstenholme.cli import main
from wolstenholme.closedforms import power_sum, product_pair, product_pair_k, triple_general
from wolstenholme.errors import (
    DuplicateOffsetsError,
    HypothesisViolationError,
    IndexNotInvertibleError,
)
from wolstenholme.general import (
    GeneralSumParams,
    coeff_extraction_row,
    coeff_extraction_sum,
    esp_row,
    esp_sum,
    multi_index_J,
    multi_index_row,
    newton_esp,
    root_power_sum,
    scaling_reduce,
)
from wolstenholme.modarith import binom, make_prime, mod_inverse
from wolstenholme.oracle import SumSpec, brute_sum
from wolstenholme.polyring import build_product, coeff

P5 = make_prime(5)
P7 = make_prime(7)
P11 = make_prime(11)
P17 = make_prime(17)

EXAMPLE = GeneralSumParams(P17, (14, 10, 4), (3, 8, 9))
EXAMPLE_REDUCED = GeneralSumParams(P17, (13, 1, 0), (3, 8, 9))


def _brute(gp):
    return brute_sum(SumSpec(gp.pr, tuple(zip(gp.offsets, gp.exps)), frozenset()))


def test_params_validation():
    with pytest.raises(DuplicateOffsetsError):
        GeneralSumParams(P11, (3, 3), (2, 2))
    with pytest.raises(HypothesisViolationError):
        GeneralSumParams(P11, (3, 4), (0, 2))
    with pytest.raises(HypothesisViolationError):
        GeneralSumParams(P11, (3, 4), (11, 2))
    with pytest.raises(HypothesisViolationError):
        GeneralSumParams(P11, (), ())


def test_params_derived_quantities():
    gp = EXAMPLE
    assert gp.shifted == (10, 6)
    assert gp.total == 20
    assert gp.t == 1
    assert gp.level(1) == 4
    assert gp.level(2) == -12
    # t always satisfies M_(t+1) < 0 <= M_t
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randrange(1, 5)
        offs = tuple(rng.sample(range(11), n))
        exps = tuple(rng.randrange(1, 11) for _ in range(n))
        gp = GeneralSumParams(P11, offs, exps)
        assert gp.level(gp.t) >= 0 > gp.level(gp.t + 1)


def test_multi_index_examples():
    assert multi_index_J(EXAMPLE) == 15
    assert multi_index_J(GeneralSumParams(P11, (3, 5, 8, 9), (2, 2, 2, 2))) == 0
    assert multi_index_J(GeneralSumParams(P11, (1, 4, 7, 9), (10, 10, 10, 10))) == 7


def test_coeff_extraction_examples():
    assert coeff_extraction_sum(EXAMPLE) == 15
    assert coeff_extraction_sum(GeneralSumParams(P11, (6,), (4,))) == 0
    assert coeff_extraction_sum(GeneralSumParams(P11, (6,), (10,))) == 10
    # n = 3 case matches the coefficient rows of the product polynomial
    gp = GeneralSumParams(P11, (6, 2, 0), (7, 7, 6))
    f = build_product(P11, gp.shifted, (7, 7))
    want = -(coeff(f, 4) + coeff(f, 14)) % 11
    assert coeff_extraction_sum(gp) == want


def test_root_power_sums():
    assert root_power_sum(EXAMPLE_REDUCED, 1) == 4
    assert root_power_sum(EXAMPLE_REDUCED, 2) == 5
    assert root_power_sum(EXAMPLE_REDUCED, 3) == 14
    assert root_power_sum(EXAMPLE_REDUCED, 4) == 11
    with pytest.raises(HypothesisViolationError):
        root_power_sum(EXAMPLE_REDUCED, 0)


def test_newton_esp_worked_values():
    es = newton_esp(EXAMPLE_REDUCED, 4)
    assert es[0] == 1
    assert es[1] == 4
    assert es[2] == 14
    assert es[3] == 11
    assert es[4] == 9
    with pytest.raises(IndexNotInvertibleError):
        newton_esp(EXAMPLE_REDUCED, 17)


def test_newton_esp_matches_the_recursion_on_root_power_sums():
    # r e_r = sum over i = 1..r of (-1)^(i-1) e_(r-i) p_i, with each p_i from
    # root_power_sum and each 1/r from mod_inverse
    from wolstenholme.modarith import mod_inverse

    # 2-4 terms, then one term (no shifted base: every e_r past e_0 is 0)
    # and 5-8 terms
    rng = random.Random(97)
    pr = make_prime(97)
    arities = itertools.chain((rng.randrange(2, 5) for _ in range(200)), [1] * 5,
                              list(range(5, 9)) * 10)
    for n in arities:
        gp = GeneralSumParams(pr, tuple(rng.sample(range(97), n)),
                              tuple(rng.randrange(1, 97) for _ in range(n)))
        r_max = rng.randrange(97)
        sums = [None] + [root_power_sum(gp, i) for i in range(1, r_max + 1)]
        want = [1]
        for r in range(1, r_max + 1):
            acc = sum((-1) ** (i - 1) * want[r - i] * sums[i] for i in range(1, r + 1))
            want.append(acc * mod_inverse(r, 97) % 97)
        assert newton_esp(gp, r_max) == tuple(want)


def _newton_by_recursion(gp, r_max):
    """e_0..e_r_max from r e_r = sum over i = 1..r of (-1)^(i-1) e_(r-i) p_i,
    one index at a time over every lower e-value."""
    p = gp.pr.p
    sums = [None] + [root_power_sum(gp, i) for i in range(1, r_max + 1)]
    want = [1]
    for r in range(1, r_max + 1):
        acc = sum((-1) ** (i - 1) * want[r - i] * sums[i] for i in range(1, r + 1))
        want.append(acc * mod_inverse(r, p) % p)
    return tuple(want)


@pytest.mark.parametrize("byte_path", [False, True])
@pytest.mark.parametrize("p", [257, 1009])
def test_newton_esp_at_block_edges(monkeypatch, p, byte_path):
    # newton_esp against the plain recursion at r_max = 0, 1, 15-17, 32, 53
    # and p-1, on a fresh Prime with either byte path
    if byte_path:  # the slot-by-slot packing that big-endian hosts take
        monkeypatch.setattr(modarith, "_SLOT_CODES", {})
    pr = make_prime(p)
    block = 16
    rng = random.Random(p)
    for exps in ((p - 1,) * 3, tuple(rng.randrange(1, p) for _ in range(5))):
        gp = GeneralSumParams(pr, tuple(rng.sample(range(p), len(exps))), exps)
        want = _newton_by_recursion(gp, p - 1)
        for r_max in (0, 1, block - 1, block, block + 1, 2 * block, 3 * block + 5, p - 1):
            assert newton_esp(gp, r_max) == want[: r_max + 1]


def test_newton_esp_matches_polynomial_coefficients():
    rng = random.Random(1)
    for pr in (P7, P11, P17):
        p = pr.p
        for _ in range(30):
            n = rng.randrange(2, 5)
            offs = tuple(rng.sample(range(p), n))
            exps = tuple(rng.randrange(1, p) for _ in range(n))
            gp = GeneralSumParams(pr, offs, exps)
            cap = sum(exps[:-1])
            f = build_product(pr, gp.shifted, exps[:-1])
            r_max = min(p - 1, cap + 2)
            es = newton_esp(gp, r_max)
            for r in range(r_max + 1):
                c = coeff(f, cap - r) if r <= cap else 0
                want = c if r % 2 == 0 else -c % p
                assert es[r] == want  # includes e_r = 0 beyond the root count


def test_esp_sum_examples():
    assert esp_sum(EXAMPLE) == 15
    assert esp_sum(GeneralSumParams(P11, (3, 0), (10, 10))) == 9
    assert esp_sum(GeneralSumParams(P11, (3, 5, 8), (2, 2, 2))) == 0


def test_esp_sum_uses_polynomial_route_above_p():
    # M_1 >= p forces the coefficient route; cross-check against brute force
    gp = GeneralSumParams(P11, (1, 4, 7, 9), (10, 10, 10, 9))
    assert gp.level(1) >= 11
    assert esp_sum(gp) == _brute(gp)


def test_three_way_agreement_exhaustive_small():
    for pr in (P5, P7):
        p = pr.p
        for a in range(p):
            for b in range(p):
                if a == b:
                    continue
                for m in range(1, p):
                    for n in range(1, p):
                        gp = GeneralSumParams(pr, (a, b), (m, n))
                        want = _brute(gp)
                        assert multi_index_J(gp) == want
                        assert coeff_extraction_sum(gp) == want
                        assert esp_sum(gp) == want


def test_three_way_agreement_sampled():
    rng = random.Random(4)
    for pr, rounds in ((P11, 150), (P17, 80)):
        p = pr.p
        for _ in range(rounds):
            n = rng.randrange(1, 5)
            offs = tuple(rng.sample(range(p), n))
            exps = tuple(rng.randrange(1, p) for _ in range(n))
            gp = GeneralSumParams(pr, offs, exps)
            want = _brute(gp)
            assert multi_index_J(gp) == want
            assert coeff_extraction_sum(gp) == want
            assert esp_sum(gp) == want


ROUTES = ((multi_index_row, multi_index_J), (coeff_extraction_row, coeff_extraction_sum),
          (esp_row, esp_sum))


@pytest.mark.parametrize("p", [11, 97, 1009])
def test_row_entry_points_match_their_point_functions_and_brute_sum(p):
    # every m_n of one seeded row per arity 2-4, of a row whose head is all
    # p-1 (the multi-index corner at m_n = p-1), and of a row whose M_1
    # = sum(head) + m_n - (p-1) straddles p, so that its esp row reads
    # build_product alone, while its esp points take the recurrence below
    # m_n = 2p-1-sum(head) and build_product from there on.  At p = 1009
    # the point functions are called at 40 seeded m_n, m_n = 1 and p-1, and
    # the two m_n at the straddle; every other check covers every m_n
    pr = make_prime(p)
    rng = random.Random(p)
    rows = [(tuple(rng.sample(range(p), n)), tuple(rng.randrange(1, p) for _ in range(n - 1)))
            for n in (2, 3, 4)]
    rows += [(tuple(rng.sample(range(p), 3)), (p - 1, p - 1)),
             (tuple(rng.sample(range(p), 4)), (p - 1, p // 2, 1))]
    full = range(1, p)
    for offsets, head in rows:
        brute = [_brute(GeneralSumParams(pr, offsets, (*head, m))) for m in full]
        edge = 2 * p - 1 - sum(head)
        some = full if p < 1000 else sorted({1, p - 1, *rng.sample(full, 40)}
                                            | {edge - 1, edge} & set(full))
        for row, point in ROUTES:
            assert row(pr, offsets, head, full) == brute, (row.__name__, offsets, head)
            got = [point(GeneralSumParams(pr, offsets, (*head, m))) for m in some]
            assert got == [brute[m - 1] for m in some], (point.__name__, offsets, head)
    assert sum(head) + 1 - (p - 1) < p <= sum(head)  # the last row straddles p
    assert multi_index_row(pr, rows[3][0], rows[3][1], [p - 1]) == [-3 % p]
    # a row is checked as its points are: every m in [1, p-1], distinct offsets
    for row in (multi_index_row, coeff_extraction_row, esp_row):
        for offsets, lasts in (((1, 2), [0, 1]), ((1, 2), [1, p]), ((1, 1), [1])):
            with pytest.raises((HypothesisViolationError, DuplicateOffsetsError)):
                row(pr, offsets, (1,), lasts)


def _stride_edge_rows(p):
    """Rows (offsets, head) whose m_n reach each edge of the strided level
    read values[M_1::-(p-1)], M_1 = sum(head) + m_n - (p-1):
    - head (1,) and (1, 1): M_1 < 0 (value 0) up to m_n = p-2-sum(head),
      then M_1 = 0, the only level;
    - head (2, p-1): M_1 = p-1 at m_n = p-3, whose levels are p-1 and 0;
    - heads of sum in [p, 2p-3]: M_1 = p-1 and M_1 = p, where a 1-point esp
      row switches from the _esp_values stream to build_product (a row
      holding both reads build_product alone);
    - heads all p-1: the corner, every exponent p-1 at m_n = p-1."""
    heads = [(1,), (1, 1), (2, p - 1), (p - 1, (p + 1) // 2), (p - 2, 3, 3),
             (p - 1,), (p - 1, p - 1), (p - 1, p - 1, p - 1)]
    return [(tuple(range(3, 3 + 2 * len(h) + 1, 2)), h) for h in heads]


@pytest.mark.parametrize("p", [11, 97, 1009])
def test_route_rows_at_the_stride_edges_match_brute_sum(p):
    # every route row equals brute_sum at every point, and so does each of
    # its points as a 1-point row.  Rows are every m_n below p = 1009, and
    # there the m_n at and beside each edge
    pr = make_prime(p)
    seen = set()
    for offsets, head in _stride_edge_rows(p):
        s = sum(head) - (p - 1)  # M_1 = s + m_n
        edges = {m for m in range(1, p) if s + m in (-1, 0, p - 2, p - 1, p, p + 1)}
        lasts = range(1, p) if p < 1000 else sorted(
            {1, 2, p - 2, p - 1} | {m + d for m in edges for d in (-1, 0, 1)} & set(range(1, p)))
        want = [_brute(GeneralSumParams(pr, offsets, (*head, m))) for m in lasts]
        for row, _ in ROUTES:
            assert row(pr, offsets, head, lasts) == want, (row.__name__, head)
            assert [row(pr, offsets, head, [m])[0] for m in lasts] == want, (row.__name__, head)
        tops = {s + m for m in lasts}
        seen |= {"below 0" for t in tops if t < 0} | {"level 0" for t in tops if t == 0}
        seen |= {"p-1 and 0" for t in tops if t == p - 1} | {"p" for t in tops if t == p}
        seen |= {"corner" for m in lasts if set(head) == {p - 1} == {m}}
    assert seen == {"below 0", "level 0", "p-1 and 0", "p", "corner"}


@pytest.mark.parametrize("p", [11, 97])
def test_esp_row_runs_one_kernel(monkeypatch, p):
    # a row whose largest M_1 reaches p reads build_product alone, any other
    # row the _esp_values stream alone, and so does each 1-point row on
    # either side of M_1 = p; a row with every M_1 < 0 reads neither.  Every
    # row still equals brute_sum
    pr = make_prime(p)
    calls = []
    for name in ("_esp_values", "build_product"):
        real = getattr(general, name)
        monkeypatch.setattr(general, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    deep = (p - 1, (p + 1) // 2)  # M_1 = (p+1)/2 + m_n, which is p at m_n = (p-1)/2
    edge = (p - 1) // 2
    rows = [((3, 5, 7), deep, range(1, p), "build_product"),
            ((3, 5, 7), deep, range(1, edge), "_esp_values"),
            ((3, 5, 7), deep, [edge - 1], "_esp_values"),
            ((3, 5, 7), deep, [edge], "build_product"),
            ((3, 5), (1,), range(1, p), "_esp_values"),  # M_1 from 3-p up to 1
            ((3, 5, 7), (1, 2), range(1, p - 4), None)]  # M_1 from 5-p up to -1
    for offsets, head, lasts, kernel in rows:
        calls.clear()
        got = esp_row(pr, offsets, head, lasts)
        assert calls == ([kernel] if kernel else []), (head, lasts)
        assert got == [_brute(GeneralSumParams(pr, offsets, (*head, m))) for m in lasts]


# malformed rows (offsets, head, lasts) at p = 11
MALFORMED = [
    ((1, 1, 2), (3, 4), (5, 6)),  # a duplicate offset
    ((4, 2, 4), (3, 4), (5,)),
    ((1, 11, 2), (3, 4), (5, 6)),  # an offset outside [0, p)
    ((-1, 2), (3,), (5,)),
    ((1, 2), (0,), (5, 6)),  # an exponent 0 or p in the head
    ((1, 2, 3), (4, 11), (5,)),
    ((1, 2), (3,), (0, 5)),  # an exponent 0 or p in lasts
    ((1, 2), (3,), (5, 6, 11)),
    ((1, 2, 3), (3,), (5,)),  # a length mismatch
    ((1,), (3,), (5, 6)),
    ((), (), (5,)),
    ((1, 1), (0,), (11,)),  # a duplicate offset and bad exponents
]


@pytest.mark.parametrize("offsets, head, lasts", MALFORMED)
def test_malformed_rows_raise_as_their_points_do(offsets, head, lasts):
    # each row entry point raises the class and message that its point
    # function raises at the row's first point that fails
    for row, point in ROUTES:
        with pytest.raises((HypothesisViolationError, DuplicateOffsetsError)) as want:
            for m in lasts:
                point(GeneralSumParams(P11, offsets, (*head, m)))
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            row(P11, offsets, head, lasts)


def test_specializations():
    # n = 1: the closed form collapses to the power-sum rule
    for m in range(1, 11):
        gp = GeneralSumParams(P11, (4,), (m,))
        assert multi_index_J(gp) == power_sum(P11, m)
        assert multi_index_J(gp) == (10 if m == 10 else 0)
    # n = 2 reproduces the pair theorems
    for pr in (P5, P7):
        p = pr.p
        for a in range(1, p):
            for m in range(1, p):
                for n in range(1, p):
                    gp = GeneralSumParams(pr, (a, 0), (m, n))
                    assert multi_index_J(gp) == product_pair_k(pr, a, m, n)
            for b in range(1, p):
                if a == b:
                    continue
                for m in range(1, p):
                    for n in range(1, p):
                        gp = GeneralSumParams(pr, (a, b), (m, n))
                        assert multi_index_J(gp) == product_pair(pr, a, b, m, n)
    # n = 3 reproduces the triple closed form
    rng = random.Random(9)
    for _ in range(200):
        a, b = rng.sample(range(1, 11), 2)
        m, n, s = (rng.randrange(1, 11) for _ in range(3))
        gp = GeneralSumParams(P11, (a, b, 0), (m, n, s))
        assert multi_index_J(gp) == triple_general(P11, a, b, m, n, s)


def test_vandermonde_collapse():
    # with every base 1 the bounded composition sum is a single binomial
    for pr in (P7, P11):
        p = pr.p
        for m1 in range(1, p // 2):
            for m2 in range(1, p - 1 - m1):
                for target in range(m1 + m2 + 1):
                    got = general._composition_sums(pr, (m1, m2), (1, 1), [target])[0]
                    assert got == binom(pr, m1 + m2, target)


def test_bounded_composition_sum_matches_enumeration():
    rng = random.Random(21)
    for pr in (P5, P7, P11, make_prime(13)):
        p = pr.p
        for _ in range(25):
            r = rng.randrange(1, 5)
            exps = tuple(rng.randrange(1, p) for _ in range(r))
            bases = tuple(rng.randrange(1, p) for _ in range(r))
            want = [0] * (sum(exps) + 1)
            for js in itertools.product(*(range(m + 1) for m in exps)):
                term = 1
                for j, m, b in zip(js, exps, bases):
                    term *= binom(pr, m, j) * pow(b, j, p)
                want[sum(js)] += term
            for target in range(-2, sum(exps) + 3):
                expected = want[target] % p if 0 <= target <= sum(exps) else 0
                assert general._composition_sums(pr, exps, bases, [target])[0] == expected
    assert general._composition_sums(P7, (), (), [0])[0] == 1
    assert general._composition_sums(P7, (), (), [1])[0] == 0


@pytest.mark.parametrize("byte_path", [False, True])
@pytest.mark.parametrize("p", [97, 257, 1009])
def test_composition_sums_match_schoolbook_product(monkeypatch, p, byte_path):
    # 3-6 terms, exponent p-1 among the middle ones, with target sets whose
    # window [min target - remaining capacity, max target] starts at 0, sits
    # inside the product or reaches its top, and targets outside
    # [0, sum(exps)]
    if byte_path:
        monkeypatch.setattr(modarith, "_SLOT_CODES", {})
    pr = make_prime(p)
    rng = random.Random(p + byte_path)
    for r in (3, 4, 5, 6):
        top = p // r  # keeps the schoolbook reference small at p = 1009
        exps = [rng.randrange(1, top) for _ in range(r - 1)]
        exps.insert(1, p - 1)  # a middle term: one packed product of p slots
        bases = tuple(rng.randrange(1, p) for _ in range(r))
        want = binomial_product(p, exps, bases)
        cap = sum(exps)
        mid = cap // 2
        for targets in ([-1, 0, 1], [mid - 2, mid + 3], [cap - 1, cap, cap + 1],
                        [cap + 2], [3, mid, cap - 3], [mid + p - 1, mid]):
            got = general._composition_sums(pr, exps, bases, targets)
            assert got == [want[t] if 0 <= t <= cap else 0 for t in targets]
        assert general._composition_sums(pr, exps, bases, [mid])[0] == want[mid]


@pytest.mark.parametrize(
    "expression",
    [
        "(1+k)^500 (2+k)^600 (3+k)^700 (5+k)^800 k^900",
        "(1+k)^500 (2+k)^600 (3+k)^700 (5+k)^800 (8+k)^1000 k^900",
    ],
)
def test_eval_many_terms_at_p_1009_is_fast(capsys, expression):
    start = time.perf_counter()
    code = main(["eval", "-p", "1009", expression])
    elapsed = time.perf_counter() - start
    assert code == 0
    values = dict(line.split() for line in capsys.readouterr().out.strip().splitlines())
    assert {"brute", "closed", "multi-index", "coeff", "esp"} <= set(values)
    assert len(set(values.values())) == 1
    assert elapsed < 10


def test_scaling_reduce():
    scale, reduced = scaling_reduce(GeneralSumParams(P17, (10, 6, 0), (3, 8, 9)))
    assert scale == 4
    assert reduced.offsets == (13, 1, 0)
    assert reduced.exps == (3, 8, 9)

    scale2, reduced2 = scaling_reduce(GeneralSumParams(P17, (5, 1, 0), (3, 8, 9)))
    assert scale2 == 1
    assert reduced2.offsets == (5, 1, 0)

    scale3, reduced3 = scaling_reduce(GeneralSumParams(P11, (4, 2, 0), (3, 3, 5)))
    assert scale3 == 2
    assert reduced3.offsets == (2, 1, 0)

    with pytest.raises(HypothesisViolationError):
        scaling_reduce(GeneralSumParams(P11, (4, 2, 1), (3, 3, 5)))


def test_scaling_reduce_preserves_sums():
    rng = random.Random(6)
    for pr in (P7, P11, P17):
        p = pr.p
        for _ in range(60):
            n = rng.randrange(2, 5)
            offs = tuple(rng.sample(range(1, p), n - 1)) + (0,)
            exps = tuple(rng.randrange(1, p) for _ in range(n))
            gp = GeneralSumParams(pr, offs, exps)
            scale, reduced = scaling_reduce(gp)
            assert _brute(gp) == scale * _brute(reduced) % p
