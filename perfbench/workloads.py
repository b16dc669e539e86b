"""The benchmark's workloads: seeded streams of `wolstenholme` CLI requests.

Every workload is a list of passes and every pass a list of requests; one
request is one in-process `cli.main(argv)` call, exactly what a user types
after `wolstenholme`.  Each request carries the check that its captured
stdout must pass.  Verify requests are checked against pinned grid sizes so
that no change can go faster by checking fewer instances; eval and table
requests are checked against the naive sums of `reference`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import reference

# The ids are spelled out here, not read from the package, so that the
# workloads stay the same whatever a later version registers.
IDENTITY_IDS = ("eq2", "eq3", "cor2.7", "thm3.11", "thm3.13", "cor3.12", "vandermonde")
CLOSED_IDS = (
    "thm1.1", "thm1.2", "thm1.3", "thm2.1", "thm2.3", "rem2.5", "thm2.6", "thm2.8",
    "thm3.1", "thm3.4", "thm3.5", "thm3.6", "thm4.1", "thm4.4", "thm4.5",
    "quickcase", "tablecorr", "figures",
)
SAMPLED_IDS = (
    "thm2.1", "thm2.3", "rem2.5", "thm2.6", "thm2.8", "thm3.1", "thm3.4", "thm3.5",
    "thm3.6", "thm3.11", "thm3.13", "cor3.12", "quickcase",
)
GENERAL_IDS = ("thm4.1", "thm4.4", "thm4.5")

IDENTITY_PRIMES = (5, 7, 11, 13, 17, 19)
CLOSED_PRIMES = (11, 13)
EXHAUSTIVE_BUDGET = 100_000_000
DEFAULT_BUDGET = 10_000
SAMPLED_BUDGET = 1_000
GENERAL_BUDGET = 100

# Grid size of every (theorem, prime) report.  None marks quickcase, whose
# grid counts only the sampled specs that its shortcut answers, so it
# depends on the seed; it must still be at least 1.
IDENTITY_GRIDS = {
    "eq2": (35, 84, 286, 455, 969, 1330),
    "eq3": (30, 56, 132, 182, 306, 380),
    "cor2.7": (25, 49, 121, 169, 289, 361),
    "thm3.11": (180, 728, 4620, 9100, 26928, 42180),
    "thm3.13": (516, 4500, 62640, 158268, 678000, 1227672),
    "cor3.12": (189, 862, 6044, 12201, 37207, 58856),
    "vandermonde": (55, 140, 506, 819, 1785, 2470),
}
IDENTITY_TOTAL = 2_341_725
CLOSED_GRIDS = {
    "thm1.1": (31, 37), "thm1.2": (4, 4), "thm1.3": (9, 11), "thm2.1": (1210, 2028),
    "thm2.3": (10000, 10000), "rem2.5": (1100, 1872), "thm2.6": (1000, 1728),
    "thm2.8": (9000, 10000), "thm3.1": (10000, 10000), "thm3.4": (9000, 10000),
    "thm3.5": (9000, 10000), "thm3.6": (10000, 10000), "thm4.1": (27720, 28564),
    "thm4.4": (27720, 28564), "thm4.5": (27720, 28564), "quickcase": (None, None),
    "tablecorr": (1000, 1728), "figures": (60, 72),
}
# At seed 0 quickcase answers 1824 specs at p = 11 and 1847 at p = 13.
CLOSED_TOTAL_SEED0 = 301_417


def _pinned(table: dict, table_primes, ids, primes) -> dict[tuple[str, int], int | None]:
    return {(t, p): table[t][table_primes.index(p)] for t in ids for p in primes}


def sampled_grid(theorem: str, budget: int) -> int | None:
    """Grid of a sampled run: the budget, three times over for the n-term
    theorems (one sample per arity 2, 3, 4), unknown for quickcase."""
    if theorem == "quickcase":
        return None
    return 3 * budget if theorem in GENERAL_IDS else budget


@dataclass(frozen=True)
class Request:
    kind: str  # "verify", "eval" or "table"
    argv: tuple[str, ...]
    ops: int  # operations attempted: one per expected report, else one
    # check(stdout) -> (grid instances checked, one message per failed op)
    check: Callable[[str], tuple[int, list[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    primes: tuple[int, ...]  # validated with make_prime during set-up
    passes: Callable[[int], list[list[Request]]]  # seed -> passes of a run
    expect: tuple[str, ...]  # layers and functions a traced run must see called


# --- verify -----------------------------------------------------------------

def check_verify(expected: dict, out: str) -> tuple[int, list[str]]:
    seen = {}
    for line in out.splitlines():
        rep = json.loads(line)
        seen[(rep["theorem"], rep["p"])] = rep
    errors = [f"unexpected report {key}" for key in seen.keys() - expected.keys()]
    instances = 0
    for key, grid in expected.items():
        rep = seen.get(key)
        if rep is None:
            errors.append(f"no report for {key}")
        elif not rep["pass"]:
            errors.append(f"{key} failed {rep['failure_count']} instances")
        elif rep["grid"] != grid and not (grid is None and rep["grid"] >= 1):
            errors.append(f"{key} grid {rep['grid']}, pinned {grid}")
        else:
            instances += rep["grid"]
    return instances, errors


def verify_request(ids, primes, budget: int, seed: int, grids: dict) -> Request:
    argv = (
        "verify", "--theorems", ",".join(ids), "--primes", ",".join(map(str, primes)),
        "--budget", str(budget), "--seed", str(seed),
    )
    return Request("verify", argv, len(grids), partial(check_verify, grids))


def verify_pass(ids, primes, budget: int, seed: int, grids: dict) -> list[Request]:
    """One request per (theorem, prime), as `verify --theorems T --primes p`
    runs it.  The package builds a fresh `Prime` for every (theorem, prime)
    either way, so splitting the sweep changes no cache's life; it gives a
    run many latencies instead of one or two."""
    return [verify_request((t,), (p,), budget, seed, {(t, p): grids[t, p]})
            for t in ids for p in primes]


def identity_sweep(seed: int, primes=IDENTITY_PRIMES) -> list[list[Request]]:
    grids = _pinned(IDENTITY_GRIDS, IDENTITY_PRIMES, IDENTITY_IDS, primes)
    return [verify_pass(IDENTITY_IDS, primes, EXHAUSTIVE_BUDGET, seed, grids)]


def closed_sweep(seed: int, ids=CLOSED_IDS, primes=CLOSED_PRIMES) -> list[list[Request]]:
    grids = _pinned(CLOSED_GRIDS, CLOSED_PRIMES, ids, primes)
    return [verify_pass(ids, primes, DEFAULT_BUDGET, seed, grids)]


def sampled_verify(seed: int, p: int = 257, big_p: int = 1009,
                   budget: int = SAMPLED_BUDGET,
                   general_budget: int = GENERAL_BUDGET) -> list[list[Request]]:
    def requests(ids, q, b):
        return verify_pass(ids, (q,), b, seed, {(t, q): sampled_grid(t, b) for t in ids})

    return [requests(SAMPLED_IDS, p, budget) + requests(GENERAL_IDS, p, general_budget)
            + requests(("thm3.13", "cor3.12"), big_p, budget)]


# --- eval -------------------------------------------------------------------

# prime -> most terms per expression (the exponential multi-index route
# limits p = 1009 to four)
EVAL_TERMS = {31: 5, 97: 5, 193: 5, 1009: 4}


def middle_fifth(rng: random.Random, p: int) -> int:
    """An exponent from the middle fifth of [1, p-1].

    The cost of a four- or five-term eval, and the cost and size of a table,
    swing by a factor of 40 over uniform exponents, enough to make one
    seed's stream far slower and larger than another's.  The band is closed
    under e -> p-1-e, so merging a denominator keeps its exponent in it.
    """
    return rng.randrange(2 * p // 5, p - 2 * p // 5)


def eval_terms(rng: random.Random, p: int, count: int) -> list[tuple[int, int]]:
    """Distinct offsets with signed exponents, 0 < |e| < p; four or more
    terms take |e| from the middle fifth."""
    def exponent():
        return middle_fifth(rng, p) if count >= 4 else rng.randrange(1, p)

    return [(c, exponent() * rng.choice((1, -1))) for c in rng.sample(range(p), count)]


def expression(terms) -> str:
    def factor(c, e):
        return f"{'k' if c == 0 else f'({c}+k)'}^{abs(e)}"

    numer = " ".join(factor(c, e) for c, e in terms if e > 0) or "1"
    denom = " ".join(factor(c, e) for c, e in terms if e < 0)
    return f"{numer} / ({denom})" if denom else numer


def check_eval(p: int, terms, out: str) -> tuple[int, list[str]]:
    want = reference.eval_sum(p, terms)
    values = dict(line.split() for line in out.splitlines())
    if "brute" not in values:
        return 0, [f"no brute value for {terms} mod {p}"]
    wrong = {k: v for k, v in values.items() if int(v) != want}
    return 0, [f"{terms} mod {p}: want {want}, got {wrong}"] if wrong else []


def eval_request(rng: random.Random, p: int, count: int) -> Request:
    terms = eval_terms(rng, p, count)
    return Request("eval", ("eval", "-p", str(p), expression(terms)), 1,
                   partial(check_eval, p, terms))


# --- table ------------------------------------------------------------------

FORMATS = ("text", "json", "csv")
SUM_TABLE_PRIMES = (31, 37, 41, 43, 47, 53)
TABLE_PRIMES = (59, 61, 67, 71, 73, 79, 83, 89, 97)


def parse_poly(text: str, p: int) -> dict[tuple[int, int], int]:
    """Invert BiPolyZp.render: "3 a^2 b - a + 1" -> {(2, 1): 3, (1, 0): p-1, (0, 0): 1}."""
    out: dict[tuple[int, int], int] = {}
    if text == "0":
        return out
    term = {"sign": 1, "c": 1, "a": 0, "b": 0}

    def flush():
        out[(term["a"], term["b"])] = term["sign"] * term["c"] % p
        term.update(sign=1, c=1, a=0, b=0)

    started = False
    for tok in text.split():
        if tok in ("+", "-"):
            flush()
            term["sign"] = -1 if tok == "-" else 1
            continue
        if tok.startswith("-") and not started:
            term["sign"], tok = -1, tok[1:]
        started = True
        if tok[0] in "ab":
            term[tok[0]] = int(tok[2:]) if "^" in tok else 1
        else:
            term["c"] = int(tok)
    flush()
    return out


def parse_rows(fmt: str, p: int, out: str) -> dict[int, dict[tuple[int, int], int]]:
    """Rows of a coefficient or sum table by index, each {(a_exp, b_exp): coeff}."""
    rows: dict[int, dict[tuple[int, int], int]] = {}
    if fmt == "json":
        for row in json.loads(out)["rows"]:
            rows[row["index"]] = {(mo["ca"], mo["cb"]): mo["coeff"] for mo in row["monomials"]}
    elif fmt == "csv":
        for line in out.splitlines()[1:]:
            r, ia, ib, c = map(int, line.split(","))
            rows.setdefault(r, {})[(ia, ib)] = c
    else:
        for line in out.splitlines():
            index, poly = line.split(": ", 1)
            rows[int(index)] = parse_poly(poly, p)
    return rows


def parse_matrix(fmt: str, out: str) -> list[list[int]]:
    if fmt == "json":
        return json.loads(out)["entries"]
    sep = "," if fmt == "csv" else None
    return [[int(v) for v in line.split(sep)] for line in out.splitlines()]


def check_matrix(p: int, a: int, fmt: str, cells, out: str) -> tuple[int, list[str]]:
    mat = parse_matrix(fmt, out)
    if len(mat) != p or any(len(row) != p for row in mat):
        return 0, [f"residue matrix p={p} has the wrong shape"]
    bad = [(i, j) for i, j in cells if mat[i][j] != reference.residue_cell(p, a, i, j)]
    return 0, [f"residue matrix p={p} a={a}: wrong cells {bad}"] if bad else []


def check_table(kind: str, p: int, m: int, n: int, fmt: str, samples, out: str):
    rows = parse_rows(fmt, p, out)
    first, count = (0, m + n + 1) if kind == "coeff-table" else (1, p - 1)
    if fmt != "csv" and sorted(rows) != list(range(first, first + count)):
        return 0, [f"{kind} p={p} m={m} n={n}: wrong row indices"]
    naive = reference.coeff_row if kind == "coeff-table" else reference.sum_row
    bad = [r for r in samples if rows.get(r, {}) != naive(p, m, n, r)]
    return 0, [f"{kind} p={p} m={m} n={n} {fmt}: wrong rows {bad}"] if bad else []


def table_request(rng: random.Random, kind: str, p: int, fmt: str, signed: bool) -> Request:
    """A table request, checked on 16 seeded cells (residue matrix) or 4
    seeded rows (coefficient and sum tables)."""
    if kind == "residue-matrix":
        a = rng.randrange(1, p)
        cells = [(rng.randrange(p), rng.randrange(p)) for _ in range(16)]
        argv = ("table", kind, "-p", str(p), "-a", str(a), "-f", fmt)
        check = partial(check_matrix, p, a, fmt, cells)
    else:
        m, n = middle_fifth(rng, p), middle_fifth(rng, p)
        rows = range(m + n + 1) if kind == "coeff-table" else range(1, p)
        argv = ("table", kind, "-p", str(p), "-m", str(m), "-n", str(n), "-f", fmt)
        check = partial(check_table, kind, p, m, n, fmt, rng.sample(rows, 4))
    if signed and fmt == "text":
        argv += ("--signed",)
    return Request("table", argv, 1, check)


def cli_block(rng: random.Random, index: int) -> list[Request]:
    """One pass of cli-requests: every (prime, term count) eval cell once and
    one table of each kind, the formats and table primes rotating by block."""
    block = [eval_request(rng, p, count)
             for p, most in EVAL_TERMS.items() for count in range(1, most + 1)]
    kinds = (
        ("sum-table", SUM_TABLE_PRIMES),
        ("coeff-table", TABLE_PRIMES),
        ("residue-matrix", TABLE_PRIMES),
    )
    for j, (kind, primes) in enumerate(kinds):
        p = primes[index % len(primes)]
        block.append(table_request(rng, kind, p, FORMATS[(index + j) % 3], index % 2 == 1))
    rng.shuffle(block)
    return block


CLI_BLOCKS = 64


def cli_requests(seed: int, blocks: int = CLI_BLOCKS) -> list[list[Request]]:
    rng = random.Random(seed)
    return [cli_block(rng, i) for i in range(blocks)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "identity-sweep",
            "exhaustive identity suite at p = 5..19: comp_sides over hot weighted_row caches",
            IDENTITY_PRIMES, identity_sweep,
            ("cli", "verify", "identities", "modarith.Prime.weighted_row"),
        ),
        Workload(
            "closed-sweep",
            "every non-identity theorem at p = 11, 13: brute oracle and closed forms, no identities",
            CLOSED_PRIMES, closed_sweep,
            ("cli", "verify", "oracle.brute_sum", "closedforms", "general", "polyring"),
        ),
        Workload(
            "sampled-verify",
            "sampled theorems at p = 257 and 1009: growing Prime caches and poly_mul",
            (257, 1009), sampled_verify,
            ("cli", "verify", "oracle.brute_sum", "general", "polyring.poly_mul",
             "identities", "modarith.Prime.weighted_row"),
        ),
        Workload(
            "cli-requests",
            "seeded eval and table commands with cold caches: parsing, routes, tables, rendering",
            tuple(EVAL_TERMS), cli_requests,
            ("cli", "expressions.parse_expression", "oracle.brute_sum", "general",
             "polyring.symbolic_sum_table", "oracle.residue_matrix"),
        ),
    )
}
