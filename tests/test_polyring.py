import json
import random

import pytest

from reference_tables import (
    COEFF_6_9,
    COEFF_7_7,
    SUM_6_9,
    SUM_7_7,
    bipoly,
    bipoly_evaluate,
    evaluate,
    grid_of,
    poly_add,
)
from wolstenholme import modarith
from wolstenholme.errors import HypothesisViolationError, ModulusMismatchError
from wolstenholme.modarith import make_prime
from wolstenholme.oracle import SumSpec, brute_sum
from wolstenholme.polyring import (
    BiPolyZp,
    build_product,
    coeff,
    cyclic_product,
    poly,
    poly_mul,
    symbolic_coeff_table,
    symbolic_sum_table,
    table_to_json,
)

P5 = make_prime(5)
P11 = make_prime(11)
P17 = make_prime(17)


def test_poly_mul_examples():
    f = poly(P5, [1, 1])
    assert poly_mul(f, f).coeffs == (1, 2, 1)
    zero = poly(P5, [])
    assert poly_mul(f, zero).coeffs == ()
    g = poly(P11, [2, 1])
    cube = poly_mul(poly_mul(g, g), g)
    assert cube.coeffs == (8, 1, 6, 1)
    with pytest.raises(ModulusMismatchError):
        poly_mul(f, g)


def _schoolbook(f, g, p):
    """Reference product: the plain double loop, reduced and trimmed."""
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    out = [c % p for c in out]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_poly_mul_matches_schoolbook():
    rng = random.Random(12)
    for pr in (P5, P17, make_prime(1009)):
        p = pr.p
        for _ in range(60):
            f = [rng.randrange(p) for _ in range(rng.randrange(0, 40))]
            g = [rng.randrange(p) for _ in range(rng.randrange(0, 90))]
            assert poly_mul(poly(pr, f), poly(pr, g)).coeffs == _schoolbook(f, g, p)
            assert poly_mul(poly(pr, []), poly(pr, g)).coeffs == ()
    # worst carries: every coefficient p-1, so each product coefficient reaches
    # its bound; at p = 17 and length 256 the bound 256 * 16^2 = 2^16 needs a
    # third byte
    for p, length in ((1009, 1009), (17, 256), (17, 255)):
        pr = make_prime(p)
        f = [p - 1] * length
        g = [p - 1] * (length - 3)
        assert poly_mul(poly(pr, f), poly(pr, g)).coeffs == _schoolbook(f, g, p)
        assert poly_mul(poly(pr, f), poly(pr, f)).coeffs == _schoolbook(f, f, p)


def test_poly_mul_byte_path_matches_schoolbook(monkeypatch):
    # the slot-by-slot packing that big-endian hosts take, at slot widths
    # 1, 2, 4 and 8 (the last from a bound past 2^32)
    monkeypatch.setattr(modarith, "_SLOT_CODES", {})
    rng = random.Random(5)
    for p, length in ((5, 6), (17, 100), (1009, 300), (65537, 40)):
        pr = make_prime(p)
        f = [rng.choice((0, p - 1, rng.randrange(p))) for _ in range(length)]
        g = [p - 1] * (length // 2)
        assert poly_mul(poly(pr, f), poly(pr, g)).coeffs == _schoolbook(f, g, p)


def _folded(pr, offsets, exps):
    """build_product's coefficients summed by index mod p-1."""
    n = pr.p - 1
    out = [0] * n
    for j, c in enumerate(build_product(pr, offsets, exps).coeffs):
        out[j % n] = (out[j % n] + c) % pr.p
    return out


@pytest.mark.parametrize("p, width", [(5, 1), (31, 2), (97, 4)])
def test_cyclic_product_matches_folded_build_product(p, width):
    pr = make_prime(p)
    assert pr.pack_width == width

    def padded(offsets, exps):
        # only the slots the product reaches, the rest 0
        got = cyclic_product(pr, offsets, exps)
        assert len(got) == min(p - 1, sum(exps) + 1)
        return got + [0] * (p - 1 - len(got))

    rng = random.Random(p)
    for r in range(7):
        for _ in range(12):
            offsets = [rng.randrange(p) for _ in range(r)]
            exps = [rng.choice((1, p - 2, p - 1, rng.randrange(1, p))) for _ in range(r)]
            assert padded(offsets, exps) == _folded(pr, offsets, exps)
    # every exponent p-1, so every factor row folds x^(p-1) onto x^0
    top = [p - 1] * 6
    assert padded(range(1, 7), top) == _folded(pr, range(1, 7), top)
    assert cyclic_product(pr, [], []) == [1]


def test_cyclic_product_rejects_exponents_outside_1_to_p_minus_1():
    for m in (0, 11):
        with pytest.raises(HypothesisViolationError):
            cyclic_product(P11, [3], [m])


def test_poly_ring_axioms_spot():
    rng = random.Random(0)
    for _ in range(40):
        f, g, h = (
            poly(P11, [rng.randrange(11) for _ in range(rng.randrange(1, 6))])
            for _ in range(3)
        )
        assert poly_mul(f, g).coeffs == poly_mul(g, f).coeffs
        assert poly_mul(poly_mul(f, g), h).coeffs == poly_mul(f, poly_mul(g, h)).coeffs
        lhs = poly_mul(f, poly_add(g, h))
        rhs = poly_add(poly_mul(f, g), poly_mul(f, h))
        assert lhs.coeffs == rhs.coeffs


def test_degree_and_trimming():
    assert poly(P5, [1, 2, 0, 0]).coeffs == (1, 2)
    assert poly(P5, [0, 5, 10]).coeffs == ()
    assert poly(P5, []).degree == -1
    assert poly(P5, [3]).degree == 0


def test_coeff():
    f = poly(P5, [1, 1])
    f4 = poly_mul(poly_mul(f, f), poly_mul(f, f))
    assert coeff(f4, 2) == 1  # C(4,2) = 6 = 1 mod 5
    assert coeff(f4, -1) == 0
    assert coeff(f4, 9) == 0


def test_build_product():
    one = build_product(P11, [], [])
    assert one.coeffs == (1,)
    f = build_product(P11, [3], [4])
    assert f.coeffs == tuple(
        # C(4,j) 3^(4-j)
        [81 % 11, 4 * 27 % 11, 6 * 9 % 11, 4 * 3 % 11, 1]
    )
    g = build_product(P17, [13, 1], [3, 8])
    assert g.degree == 11
    assert g.coeffs[-1] == 1  # monic
    # evaluation cross-check at a few points
    for x in range(5):
        want = pow(13 + x, 3, 17) * pow(1 + x, 8, 17) % 17
        assert evaluate(g, x) == want
    with pytest.raises(HypothesisViolationError):
        build_product(P11, [3], [0])


def test_coeff_of_x14_instantiated():
    f = build_product(P11, [6, 2], [7, 7])
    assert coeff(f, 14) == 1  # monic top; table rows store the negation


def test_bipoly_validation_and_eval():
    with pytest.raises(HypothesisViolationError):
        bipoly(P5, [[0] * 3 for _ in range(6)])
    row = bipoly(P11, [[0, 4], [7, 0]])  # 4b + 7a
    assert bipoly_evaluate(row, 2, 3) == (4 * 3 + 7 * 2) % 11
    assert row.monomials() == [(1, 0, 7), (0, 1, 4)]


def test_bipoly_validates_every_stored_monomial():
    ok = ((1, 0, 7), (0, 1, 4))
    assert BiPolyZp(P11, (2, 2), ok).coeffs == ((0, 4), (7, 0))
    for terms in (ok + ((1, 1, 0),), ok + ((1, 1, 11),), ok + ((2, 0, 1),), ok + ((0, -1, 1),)):
        with pytest.raises(ValueError):
            BiPolyZp(P11, (2, 2), terms)
    with pytest.raises(HypothesisViolationError):
        BiPolyZp(P11, (11, 12), ())


def test_sparse_rows_hold_only_their_anti_diagonals():
    pr = make_prime(97)
    for j, row in enumerate(symbolic_coeff_table(pr, 48, 50)):
        assert {i + k for i, k, _ in row.terms} <= {98 - j}
        assert len(row.terms) <= 49 and row.shape == (49, 51)
    for s, row in enumerate(symbolic_sum_table(pr, 48, 50), start=1):
        # S[e] != 0 only for p-1 | e, so row s is the diagonal t = 2+s (and t = s-94)
        assert {i + k for i, k, _ in row.terms} == {t for t in (2 + s, s - 94) if t >= 0}
        assert row.terms == tuple(sorted(row.terms, key=lambda m: (m[0] + m[1], -m[0])))


def test_render_canonical_and_signed():
    rows = symbolic_coeff_table(P11, 7, 7)
    assert rows[14].render() == "10"
    assert rows[14].render(signed=True) == "-1"
    assert rows[13].render() == "4 a + 4 b"
    assert rows[0].render() == "10 a^7 b^7"
    assert bipoly(P11, [[0]]).render() == "0"


def test_coeff_table_golden_7_7():
    rows = symbolic_coeff_table(P11, 7, 7)
    assert len(rows) == 15
    for j, text in COEFF_7_7.items():
        assert rows[j].coeffs == grid_of(text, 11, 8, 8), f"row {j}"


def test_coeff_table_golden_6_9():
    rows = symbolic_coeff_table(P11, 6, 9)
    assert len(rows) == 16
    for j, text in COEFF_6_9.items():
        assert rows[j].coeffs == grid_of(text, 11, 7, 10), f"row {j}"


def test_sum_table_golden_7_7():
    rows = symbolic_sum_table(P11, 7, 7)
    assert len(rows) == 10
    for s, text in SUM_7_7.items():
        assert rows[s - 1].coeffs == grid_of(text, 11, 8, 8), f"row {s}"


def test_sum_table_golden_6_9():
    rows = symbolic_sum_table(P11, 6, 9)
    assert len(rows) == 10
    for s, text in SUM_6_9.items():
        assert rows[s - 1].coeffs == grid_of(text, 11, 7, 10), f"row {s}"


def test_sum_table_rows_evaluate_to_brute_sums():
    rng = random.Random(8)
    for pr in (P5, P11):
        p = pr.p
        for _ in range(6):
            m = rng.randrange(1, p)
            n = rng.randrange(1, p)
            rows = symbolic_sum_table(pr, m, n)
            for s in (1, (p - 1) // 2, p - 1):
                a, b = rng.sample(range(1, p), 2)
                want = brute_sum(SumSpec(pr, ((a, m), (b, n), (0, s)), frozenset()))
                assert bipoly_evaluate(rows[s - 1], a, b) == want


def test_table_correspondence_small():
    # sum-table row s equals the sum of coeff rows i(p-1)-s over i >= 1
    for pr in (P5,):
        p = pr.p
        for m in range(1, p):
            for n in range(1, p):
                coeffs = symbolic_coeff_table(pr, m, n)
                sums = symbolic_sum_table(pr, m, n)
                for s in range(1, p):
                    want = [[0] * (n + 1) for _ in range(m + 1)]
                    i = 1
                    while i * (p - 1) - s <= m + n:
                        for a_exp, b_exp, c in coeffs[i * (p - 1) - s].monomials():
                            want[a_exp][b_exp] += c
                        i += 1
                    assert sums[s - 1].coeffs == bipoly(pr, want).coeffs


def test_table_json():
    rows = symbolic_coeff_table(P11, 7, 7)
    payload = json.loads(table_to_json(P11, rows))
    assert payload["p"] == 11
    assert payload["rows"][14]["index"] == 14
    assert payload["rows"][14]["monomials"] == [{"ca": 0, "cb": 0, "coeff": 10}]
    assert payload["rows"][13]["monomials"] == [
        {"ca": 1, "cb": 0, "coeff": 4},
        {"ca": 0, "cb": 1, "coeff": 4},
    ]
