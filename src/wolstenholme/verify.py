"""Theorem verification registry: every theorem is a Grid.

Every congruence the library implements is registered here under a stable
id, as a Grid: its hypothesis grid at a prime p and how to check it.  One
driver runs them all.  A grid that fits the budget is enumerated
exhaustively; a larger one takes its seeded sample, so failures reproduce.
Either way the grid is read as chunks (points, lhs, rhs): the two sides at
a run of instances, brute force or left side first, each side computed on
its own, and the instances' points.  Point checks come in runs, a chunk
per run; a row sweep yields whole rows.  The closed-form boxes and the
n-term ids check a row of their last exponent at a time, exhaustive or
sampled in rows (_sampled_rows, the one sampler of both): the brute side of
a row from _brute_row, one power_moments row for a run of exponents or one
dot product a point for drawn ones, and an n-term row's checked side from
one call of the route's row entry point in general.  _compare_rows compares
the chunks, counts the instances and names each failing one.
"""

from __future__ import annotations

import json
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import groupby, islice, permutations, product, repeat
from math import comb, inf, isqrt, perm, prod
from operator import itemgetter, mul

from . import closedforms as cf
from . import general as gen
from . import identities as ident
from .errors import BadParamsError, DisagreementError, UnknownTheoremError
from .modarith import Prime, binom, conv, make_prime, pow_nonzero
from .oracle import (
    SumSpec,
    auto_exclusions,
    brute_sum,
    brute_sum_mod_p2,
    power_moments,
    residue_matrix,
    term_products,
)
from .polyring import symbolic_coeff_table, symbolic_sum_table


@dataclass
class VerificationReport:
    """Outcome of checking one theorem id at one prime."""

    theorem: str
    prime: int
    grid: int
    failures: list[dict] = field(default_factory=list)
    elapsed: float = 0.0
    strategies: tuple[str, str] = ("lhs", "rhs")
    exhaustive: bool = True
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "theorem": self.theorem,
                "p": self.prime,
                "grid": self.grid,
                "pass": self.passed,
                "failures": self.failures[:50],
                "failure_count": len(self.failures),
                "elapsed_s": round(self.elapsed, 6),
                "strategies": list(self.strategies),
                "exhaustive": self.exhaustive,
                "seed": self.seed,
            }
        )


def _fail(failures: list, params: dict, expected: int, got: int) -> None:
    failures.append({"params": params, "expected": expected, "got": got})


def _compare_rows(names, chunks) -> tuple[int, list]:
    """Compare the two sides of every chunk (points, lhs, rhs), instance i
    at index i: each differing instance fails with its point as params,
    named by names, a None field left out.  Sides of different lengths
    raise DisagreementError, naming the chunk's first point.  Returns
    (grid size, failures)."""
    failures = []
    grid = 0
    for points, lhs, rhs in chunks:
        grid += len(lhs)
        if lhs != rhs:
            if len(lhs) != len(rhs):
                first = dict(zip(names, next(iter(points), ())))
                raise DisagreementError(f"chunk at {first}: {len(lhs)} left, {len(rhs)} right sides")
            for point, x, y in zip(points, lhs, rhs):
                if x != y:
                    _fail(failures, {k: v for k, v in zip(names, point) if v is not None}, x, y)
    return grid, failures


# --- the driver ---------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """A theorem's hypothesis grid at a prime p, read as chunks.  Called as
    a Theorem's run it returns (grid size, failures, exhaustive); mode is
    "p2" (the stated moduli) or "p" (mod-p^2 statements reduced mod p).

    names are a point's parameter names in report order: a field that is
    None is left out of that point's report, and fields past the last name
    are not parameters.  check(pr, *point) returns (expected, got), brute or
    lhs first; the exhaustive sweep checks the points of points(p) in runs,
    a chunk per run, unless rows(pr, mode) yields its chunks.  count(p) is
    the grid size held against the budget; sample(pr, budget, seed) yields a
    seeded sample's chunks.  A grid without a sample is always enumerated,
    one without a count always sampled.  order names the params that sort
    the failures of rows walking the grid out of report order.
    """

    names: tuple[str, ...]
    check: Callable | None = None
    points: Callable | None = None
    rows: Callable | None = None
    count: Callable | None = None
    sample: Callable | None = None
    order: tuple[str, ...] = ()

    def __call__(self, pr, budget, seed, mode):
        if self.sample is not None and (self.count is None or self.count(pr.p) > budget):
            return (*_compare_rows(self.names, self.sample(pr, budget, seed)), False)
        if self.rows is None:
            return (*self.sweep(pr, self.points(pr.p)), True)
        grid, failures = _compare_rows(self.names, self.rows(pr, mode))
        failures.sort(key=lambda f: [f["params"][k] for k in self.order])
        return grid, failures, True

    def sweep(self, pr, points):
        """Check the given points; returns (grid size, failures)."""
        return _compare_rows(self.names, _each(pr, self.check, points))


def _each(pr, check, points):
    """The points in runs of up to 64, a chunk each, every point's sides
    from check(pr, *point)."""
    points = iter(points)
    while run := tuple(islice(points, 64)):
        expected, got = zip(*[check(pr, *point) for point in run])
        yield run, expected, got


def _drawn(check, draw):
    """The sample of budget seeded draws, checked as _each checks points:
    draw(rng, p) returns one point, or None to reject it and draw again."""

    def sample(pr, budget, seed):
        draws = map(draw, repeat(random.Random(seed)), repeat(pr.p))
        return _each(pr, check, islice(filter(None, draws), budget))

    return sample


def _row(head, values):
    """The points (*head, v) for v in values, in order."""
    return ((*head, v) for v in values)


def _box(names, sums, closed, ranges, pair_lo=None, alternating=False) -> Grid:
    """A closed form against brute force on every tuple of ranges(p), drawn
    uniformly.  With pair_lo, each tuple is led by an ordered pair a != b
    from [pair_lo, p).

    The last field e of a point (*head, e) is an exponent.  sums(pr, *head)
    returns (terms, (off, sign), exclusions), offsets in [0, p) and the
    exclusions a frozenset: the brute side is the sum over k in [0, p)
    outside exclusions of the product of the terms (o+k)^f and of
    (off+k)^(sign*e), times (-1)^e when alternating.  closed(pr, *point) is
    the closed side, one call per point.  A row is one head at a run of
    exponents, its brute side _brute_row of the weight prod (o+k)^f put at
    the base (off+k)^sign, negated when alternating, of each unexcluded k:
    each base comes from one k.  Both are read through term_products as
    brute_sum reads its terms.  The exhaustive sweep yields a row per head
    at every e, a sample the rows of _sampled_rows.  check(pr, *point), one brute_sum, is
    the point-by-point reference of Grid.sweep.
    """

    def check(pr, *point):
        e = point[-1]
        terms, (off, sign), excl = sums(pr, *point[:-1])
        brute = brute_sum(SumSpec(pr, (*terms, (off, sign * e)), excl))
        if alternating and e % 2:
            brute = -brute % pr.p
        return brute, closed(pr, *point)

    def row(pr, head, exps):
        p = pr.p
        terms, (off, sign), excl = sums(pr, *head)
        pairs = zip(term_products(pr, terms), term_products(pr, ((off, sign),)))
        weights = [0] * p
        for k, (w, x) in enumerate(pairs):
            if k not in excl:
                weights[-x % p if alternating else x] = w % p
        brute = _brute_row(pr, weights, exps)
        return _row(head, exps), brute, [closed(pr, *head, e) for e in exps]

    def rows(pr, mode):
        *fields, exps = ranges(pr.p)
        return (row(pr, head, exps) for head in tuples(pr.p, fields))

    def tuples(p, ranges):
        if pair_lo is None:
            return product(*ranges)
        pairs = permutations(range(pair_lo, p), 2)
        return ((a, b, *rest) for (a, b), *rest in product(pairs, *ranges))

    def count(p):
        box = prod(map(len, ranges(p)))
        return box if pair_lo is None else perm(p - pair_lo, 2) * box

    def head(rng, p):
        pair = () if pair_lo is None else rng.sample(range(pair_lo, p), 2)
        return (*pair, *[rng.randrange(r.start, r.stop) for r in ranges(p)[:-1]])

    def sample(pr, budget, seed):
        rng = random.Random(seed)
        rows = _sampled_rows(budget, ranges(pr.p)[-1], lambda: head(rng, pr.p), rng)
        return (row(pr, *r) for r in rows)

    return Grid(names, check, lambda p: tuples(p, ranges(p)), rows, count, sample)


def _sampled_rows(n, lasts, head, rng):
    """A sample of n instances as rows (head(), values): r = min(L, isqrt(n))
    values a row, L = len(lasts), and ceil(n/r) heads drawn in turn, the last
    row cut to n points in all, so there are at least r rows.  At n >= L^2 a
    row's values are lasts in order, a range; below, r distinct ones that
    rng.sample draws from lasts after the row's head."""
    size = min(len(lasts), isqrt(n))
    for start in range(0, n, size):
        h, cut = head(), min(size, n - start)
        yield h, lasts[:cut] if size == len(lasts) else rng.sample(lasts, cut)


def _brute_row(pr, weights, lasts):
    """[sum of weights[x] * x^e over x = 0..p-1 mod p for e in lasts],
    weights in [0, p): one power_moments row, sliced, when lasts is a range,
    else one dot product per e of the weights with power_column(e), which
    builds no packed power table."""
    if isinstance(lasts, range):
        return power_moments(pr, list(zip(weights, range(pr.p))))[lasts.start : lasts.stop]
    return [sum(map(mul, weights, pr.power_column(e))) % pr.p for e in lasts]


# --- power sums ---------------------------------------------------------------

_run_thm1_1 = Grid(
    ("n",),
    lambda pr, n: (sum(pow(k, n, pr.p) for k in range(1, pr.p)) % pr.p, cf.power_sum(pr, n)),
    points=lambda p: ((n,) for n in range(3 * (p - 1) + 1)),
)


def _harmonic(pr, exp, mod, modulus):
    """The sum over k of k^-exp vanishes mod modulus; under mode p the
    modulus of a mod-p^2 point is p."""
    return 0, brute_sum_mod_p2(pr, exp) % modulus


def _thm1_2_rows(pr, mode):
    p = pr.p
    p2 = (mode, p * p if mode == "p2" else p)  # the (mod, modulus) of a mod-p^2 point
    points = [(1, *p2), (2, "p", p), (3, "p", p)]
    if p > 5:
        # the strengthening of the cubic harmonic sum, verified numerically;
        # under --mod p it is the point (3, "p", p) again, checked once
        points.append((3, *p2))
    return _each(pr, _harmonic, dict.fromkeys(points))


def _thm1_3_rows(pr, mode):
    p = pr.p
    p2 = (mode, p * p if mode == "p2" else p)
    points = []
    for n in range(1, (p - 1) // 2 + 1):
        # the mod-p^2 congruence needs (p-1) to not divide 2n; at the edge
        # 2n = p-1 the odd-exponent sum is only divisible by p, not p^2, and
        # the even one is -1 (every term is 1), not 0
        if 2 * n < p - 1:
            points += [(2 * n - 1, *p2), (2 * n, "p", p)]
        else:
            points.append((2 * n - 1, "p", p))
    return _each(pr, _harmonic, points)


_run_thm1_2 = Grid(("exp", "mod"), rows=_thm1_2_rows)
_run_thm1_3 = Grid(("exp", "mod"), rows=_thm1_3_rows)


# --- closed forms against brute force -----------------------------------------


# each closed form is looked up at call time, so that it can be patched

_run_thm2_1 = _box(  # k^m (a-k)^-n over k != 0, a is (-1)^n k^m (k-a)^-n
    ("a", "m", "n"),
    lambda pr, a, m: (((0, m),), (-a % pr.p, -1), frozenset({0, a})),
    lambda pr, a, m, n: cf.ratio_single(pr, a, m, n),
    lambda p: (range(1, p), range(p), range(p)),
    alternating=True,
)
_run_thm2_3 = _box(
    ("a", "b", "m", "n"),
    lambda pr, a, b, m: (((a, m),), (b, -1), frozenset({-a % pr.p, -b % pr.p})),
    lambda pr, a, b, m, n: cf.ratio_pair(pr, a, b, m, n),
    lambda p: (range(p),) * 2,
    pair_lo=0,
)
_run_rem2_5 = _box(
    ("a", "m", "n"),
    lambda pr, a, m: (((a, m),), (a, -1), frozenset({-a % pr.p})),
    lambda pr, a, m, n: cf.ratio_equal_offsets(pr, a, m, n),
    lambda p: (range(p), range(1, p), range(1, p)),
)
_run_thm2_6 = _box(
    ("a", "m", "n"),
    lambda pr, a, m: (((a, m),), (0, 1), frozenset()),
    lambda pr, a, m, n: cf.product_pair_k(pr, a, m, n),
    lambda p: (range(1, p),) * 3,
)
_run_thm2_8 = _box(
    ("a", "b", "m", "n"),
    lambda pr, a, b, m: (((a, m),), (b, 1), frozenset()),
    lambda pr, a, b, m, n: cf.product_pair(pr, a, b, m, n),
    lambda p: (range(1, p),) * 2,
    pair_lo=1,
)
_run_thm3_1 = _box(
    ("a", "b", "m", "n", "s"),
    lambda pr, a, b, m, n: (((a, m), (b, n)), (0, 1), frozenset()),
    lambda pr, a, b, m, n, s: cf.triple_binomial(pr, a, b, m, n, s),
    lambda p: (range(1, p),) * 3,
    pair_lo=1,
)
_run_thm3_4 = _box(
    ("a", "b", "m", "n"),
    lambda pr, a, b, m: (((a, m), (0, 1)), (b, 1), frozenset()),
    lambda pr, a, b, m, n: cf.triple_s1(pr, a, b, m, n),
    lambda p: (range(1, p),) * 2,
    pair_lo=1,
)
_run_thm3_5 = _box(
    ("a", "b", "m", "n"),
    lambda pr, a, b, m: (((a, m), (0, 2)), (b, 1), frozenset()),
    lambda pr, a, b, m, n: cf.triple_s2(pr, a, b, m, n),
    lambda p: (range(1, p),) * 2,
    pair_lo=1,
)
_run_thm3_6 = _box(
    ("a", "b", "m", "n", "s"),
    lambda pr, a, b, m, n: (((a, m), (b, n)), (0, 1), frozenset()),
    lambda pr, a, b, m, n, s: cf.triple_general(pr, a, b, m, n, s),
    lambda p: (range(1, p),) * 3,
    pair_lo=1,
)


def _general(route) -> Grid:
    """The n-term sums at arity 2, 3 and 4 against brute force, on points
    (offsets, exps), checked a row (offsets, head, lasts) at a time: the
    points (offsets, (*head, m)) for m in lasts.  A row's brute side is
    _brute_row, as a box row's is, of the head's products at x = a_n + k for
    x = 0..p-1 (term_products, head offsets shifted by -a_n).  route(pr,
    offsets, head, lasts), a row entry point of general looked up at call
    time, gives the checked side.  Each arity is held to the budget on its
    own, so count is that of arity 4, the largest; a sample is drawn by
    _general_rows."""

    def chunks(pr, rows):
        p = pr.p
        for offsets, head, lasts in rows:
            off = offsets[-1]
            w = term_products(pr, [((a - off) % p, m) for a, m in zip(offsets, head)])
            brute = _brute_row(pr, [v % p for v in w], lasts)
            yield ((offsets, (*head, m)) for m in lasts), brute, route(pr, offsets, head, lasts)

    return Grid(("offsets", "exps"), rows=lambda pr, mode: chunks(pr, _general_rows(pr.p, inf, 0)),
                count=lambda p: perm(p, 4) * (p - 1) ** 4,
                sample=lambda pr, budget, seed: chunks(pr, _general_rows(pr.p, budget, seed)))


def _general_rows(p, budget, seed):
    """The rows (offsets, head, lasts) of arity 2, 3 and 4 in turn, each
    arity drawn on seed + arity.

    An arity whose grid fits the budget is enumerated, a row per (offsets,
    head), so m_n walks fastest.  Otherwise it takes the seeded rows of
    _sampled_rows, offsets by rng.sample and the head by randrange, of
    N = count * max(1, budget // count) instances, count = perm(p, arity)
    the number of offset tuples, or of N = budget when count exceeds it.
    """
    full = range(1, p)
    for arity in (2, 3, 4):
        rng = random.Random(seed + arity)
        offsets = permutations(range(p), arity)
        count = perm(p, arity)
        if count * (p - 1) ** arity <= budget:
            yield from ((offs, head, full) for offs in offsets
                        for head in product(full, repeat=arity - 1))
            continue
        n = count * max(1, budget // count) if count <= budget else budget

        def head():
            offs = tuple(rng.sample(range(p), arity))
            return offs, tuple(rng.randrange(1, p) for _ in range(arity - 1))

        rows = _sampled_rows(n, full, head, rng)
        yield from ((offs, exps, lasts) for (offs, exps), lasts in rows)


_run_thm4_1 = _general(lambda pr, *row: gen.multi_index_row(pr, *row))
_run_thm4_4 = _general(lambda pr, *row: gen.coeff_extraction_row(pr, *row))
_run_thm4_5 = _general(lambda pr, *row: gen.esp_row(pr, *row))


# --- binomial identities, lhs against rhs -------------------------------------

_run_eq2 = Grid(
    ("n", "k", "s"),
    lambda pr, n, k, s: ident.cancellation(pr, n, k, s),
    points=lambda p: ((n, k, s) for n in range(p) for k in range(n + 1) for s in range(k + 1)),
)
_run_eq3 = Grid(
    ("k", "s"),  # the last field picks one of the two congruences
    lambda pr, k, s, i: ident.semi_symmetry(pr, k, s)[i],
    points=lambda p: ((k, s, i) for k in range(p) for s in range(k + 1) for i in (0, 1)),
)
_run_cor2_7 = Grid(
    ("m", "n"),
    lambda pr, m, n: ident.transpose_binomial(pr, m, n),
    points=lambda p: product(range(p), repeat=2),
)


def _vandermonde_row(pr, m):
    # the instances (n, M) of one m, M = 0..m+n, one vandermonde_rows pair per n
    lhs, rhs = [], []
    for n in range(pr.p - m):
        left, right = ident.vandermonde_rows(pr, m, n)
        lhs += left
        rhs += right
    return ((m, n, M) for n in range(pr.p - m) for M in range(m + n + 1)), lhs, rhs


_run_vandermonde = Grid(
    ("m", "n", "M"), rows=lambda pr, mode: (_vandermonde_row(pr, m) for m in range(pr.p)))


def _window(p, t):
    """The s in [0, p-1] with M = t+s-(p-1) in [0, p-2], for exponents
    m + n = t; empty when s_hi < s_lo."""
    base = t - (p - 1)
    return max(0, -base), min(p - 1, p - 2 - base)


def _diagonals(p, lo):
    """(d, pairs, s_lo, s_hi) for each anti-diagonal m + n = d + (p-1) of
    [lo, p-1]^2: its number of (m, n) pairs and their common s window."""
    for t in range(2 * lo, 2 * p - 1):
        yield t - (p - 1), min(t - lo, p - 1) - max(lo, t - p + 1) + 1, *_window(p, t)


def _cong_grid_count(p):
    # each M = d+s of the window has j = 0..M, and the M+1 summed over the
    # window is a difference of triangular numbers C(M+2, 2)
    return sum(pairs * (comb(d + s_hi + 2, 2) - comb(d + s_lo + 1, 2))
               for d, pairs, s_lo, s_hi in _diagonals(p, 0) if s_hi >= s_lo)


def _draw_window(rng, p, lo):
    """(m, n, s, M), m and n from [lo, p-1] and s from their window, or None."""
    m, n = rng.randrange(lo, p), rng.randrange(lo, p)
    s_lo, s_hi = _window(p, m + n)
    if s_hi < s_lo:
        return None
    s = rng.randrange(s_lo, s_hi + 1)
    return m, n, s, m + n + s - (p - 1)


def _draw_cong(rng, p):
    if (drawn := _draw_window(rng, p, 0)) is None:
        return None
    m, n, s, M = drawn
    return m, n, s, rng.randrange(M + 1), M


def _cong_row(pr, m, n):
    # the instances (s, j) of one (m, n), j = 0..M, one cong_rows pair per s
    p = pr.p
    s_lo, s_hi = _window(p, m + n)
    sms = [(s, m + n + s - (p - 1)) for s in range(s_lo, s_hi + 1)]
    lhs, rhs = [], []
    for s, _ in sms:
        left, right = ident.cong_rows(pr, m, n, s)
        lhs += left
        rhs += right
    return ((m, n, s, j, M) for s, M in sms for j in range(M + 1)), lhs, rhs


_run_thm3_11 = Grid(
    ("m", "n", "s", "j", "M"),
    rows=lambda pr, mode: (_cong_row(pr, m, n) for m, n in product(range(pr.p), repeat=2)),
    count=_cong_grid_count,
    sample=_drawn(lambda pr, m, n, s, j, M: ident.cong_general(pr, m, n, s, j), _draw_cong),
)


def _comp_grid_count(p):
    per_ab = sum(pairs * (s_hi - s_lo + 1)
                 for _, pairs, s_lo, s_hi in _diagonals(p, 1) if s_hi >= s_lo)
    return (p - 1) * (p - 2) * per_ab


def _draw_comp(rng, p):
    a, b = rng.sample(range(1, p), 2)
    drawn = _draw_window(rng, p, 1)
    return None if drawn is None else (a, b, *drawn)


def _comp_rows(pr, mode):
    """The instances (n, s) of one (a, b, m) as one chunk, both pairs of an
    orbit read from one table pair.

    comp_tables puts [x^M] of row t at t*p + M.  For fixed (a, b, m, n) the
    window's instances have M = d+s with d = m+n-(p-1), so their left sides
    are one run of left row n (cells n*p + d+s), and their right sides one
    stride-(p+1) run down the right rows (cell s*p + d+s = s*(p+1) + d).
    Both are gathered straight from the reduced tables.  The right table of
    (a, b) is the left table of its partner (a-b, -b), whose partner is
    (a, b) again.  Of the two pairs, the one with b < p/2 runs the two
    table chains over m and yields the chunks of both, so the grid's order
    puts the failures back into (a, b) order.
    """
    p = pr.p
    runs = []  # for each m: its left cells, its right cells, their (n, s)
    for m in range(1, p):
        left, right, ns = [], [], []
        for n in range(1, p):
            s_lo, s_hi = _window(p, m + n)
            d = m + n - (p - 1)
            left += range(n * p + d + s_lo, n * p + d + s_hi + 1)
            right += range(s_lo * (p + 1) + d, s_hi * (p + 1) + d + 1, p + 1)
            ns += zip(repeat(n), range(s_lo, s_hi + 1))
        runs.append((m, itemgetter(*left), itemgetter(*right), ns))
    for a, b in permutations(range(1, p), 2):
        if 2 * b > p:
            continue
        partner = ((a - b) % p, p - b)
        chains = zip(runs, ident.comp_tables(pr, a, b), ident.comp_tables(pr, *partner))
        for (m, lcells, rcells, ns), left, right in chains:
            yield _comp_points(a, b, m, ns), lcells(left), rcells(right)
            yield _comp_points(*partner, m, ns), lcells(right), rcells(left)


def _comp_points(a, b, m, ns):
    return ((a, b, m, n, s) for n, s in ns)


_run_thm3_13 = Grid(
    ("a", "b", "m", "n", "s", "M"),
    rows=_comp_rows,
    count=_comp_grid_count,
    sample=_drawn(lambda pr, a, b, m, n, s, M: ident.comp_general(pr, a, b, m, n, s),
                  _draw_comp),
    order=("a", "b"),
)


def _cor312_grid_count(p):
    # part 1 has j = 0..M and part 2 every ordered pair a != b, for M = d >= 0
    return sum(pairs * (d + 1 + (p - 1) * (p - 2))
               for d, pairs, _, _ in _diagonals(p, 1) if d >= 0)


def _draw_cor3_12(rng, p):
    m, n = rng.randrange(1, p), rng.randrange(1, p)
    M = m + n - (p - 1)
    if M < 0:
        return None
    if rng.randrange(8) == 0:  # part 1 is the small slice of the grid
        return 1, None, None, m, n, rng.randrange(M + 1)
    a, b = rng.sample(range(1, p), 2)
    return 2, a, b, m, n, None


def _check_cor3_12(pr, part, a, b, m, n, j):
    """(rhs, lhs) of part 1 at (m, n, j) or of part 2 at (a, b, m, n)."""
    p = pr.p
    M = m + n - (p - 1)  # 0 <= M <= min(m, n)
    if part == 1:
        lhs = binom(pr, m, M - j) * binom(pr, n, j) % p
        if j % 2 == 1:
            lhs = -lhs % p
        return binom(pr, m, M) * binom(pr, M, j) % p, lhs
    return pow_nonzero(pr, a - b, M) * binom(pr, m, p - n - 1) % p, conv(pr, a, b, m, n, M)


def _cor3_12_rows(pr, mode):
    """Part 1, then part 2, one row per (m, n)."""
    p = pr.p
    heads = [(m, n, m + n - (p - 1)) for m, n in product(range(1, p), repeat=2)
             if m + n >= p - 1]
    for m, n, M in heads:
        rhs, lhs = zip(*[_check_cor3_12(pr, 1, None, None, m, n, j) for j in range(M + 1)])
        yield _row((1, None, None, m, n), range(M + 1)), rhs, lhs
    columns = _power_columns(pr)
    pairs = list(permutations(range(1, p), 2))
    for m, group in groupby(heads, itemgetter(0)):
        rows = [pr.weighted_row(m, a) for a in range(1, p)]  # (1+ax)^m, built once per m
        yield from (_cor3_12_part_2(pr, columns, pairs, rows, *head) for head in group)


def _cor3_12_part_2(pr, columns, pairs, rows, m, n, M):
    """Part 2 at every pair (a, b) of one (m, n): the left side at every b of
    one a at once, from rows[a-1] = (1+ax)^m, the right from each (a-b)^M."""
    p = pr.p
    cm = binom(pr, m, p - n - 1)
    powers = [0, *(pow_nonzero(pr, d, M) * cm % p for d in range(1, p))]
    lhs = []
    for a, wa in enumerate(rows, 1):
        row = _cor3_12_across_b(pr, columns, wa, n)
        lhs += row[1:a] + row[a + 1 :]
    rhs = [powers[(a - b) % p] for a, b in pairs]
    return ((2, a, b, m, n) for a, b in pairs), rhs, lhs


# Both parts of the s = 0 corollary on points (part, a, b, m, n, j), part 1
# without a, b and part 2 without j, including the m = n = p-1 corner that
# the stricter general hypothesis excludes.
#   part 1: (-1)^j C(m,M-j) C(n,j) == C(m,M) C(M,j)
#   part 2: sum_j C(m,M-j) C(n,j) a^(M-j) b^j == (a-b)^M C(m,p-n-1)
_run_cor3_12 = Grid(
    ("part", "a", "b", "m", "n", "j"),
    rows=_cor3_12_rows,
    count=_cor312_grid_count,
    sample=_drawn(_check_cor3_12, _draw_cor3_12),
)


def _power_columns(pr):
    """For each i in [0, p), (b^i for every b in [0, p)), packed."""
    return [pr.pack(pr.power_column(i)) for i in range(pr.p)]


def _cor3_12_across_b(pr, columns, wa, n):
    """The left side of part 2 at (a, b, m, n) for every b in [0, p), from
    wa = (1+ax)^m, as one big-integer combination of the power columns: the
    sum over i = 0..M of c_i b^i, c_i = wa[M-i] C(n,i) = C(m,M-i) a^(M-i)
    C(n,i), is slot b of the sum of c_i times column i.  At most p terms
    share a slot."""
    p = pr.p
    M = len(wa) + n - p  # m + n - (p-1)
    rn = pr.binom_row(n)
    return pr.unpack(sum(map(mul, [w * c % p for w, c in zip(wa[M::-1], rn)], columns)), p)


# --- shortcuts, tables and figures --------------------------------------------


def _quickcase(pr, budget, seed):
    """quick_case never disagrees with brute force when it answers; a spec
    it does not answer is an empty chunk."""
    p = pr.p
    rng = random.Random(seed)
    specs = []
    # products hitting every constant row: totals p-2, p-1, p, and all p-1
    for arity in (2, 3):
        for _ in range(max(1, min(budget // 8, 200))):
            offs = rng.sample(range(p), arity)
            for total in (p - 2, p - 1, p):
                exps = _random_composition(rng, total, arity, p - 1)
                if exps:
                    specs.append(tuple(zip(offs, exps)))
            specs.append(tuple((o, p - 1) for o in offs))
    # ratio shapes from the triple corollaries
    for _ in range(max(1, min(budget // 8, 200))):
        a, b, c = rng.sample(range(p), 3)
        m, n = rng.randrange(1, p - 1), rng.randrange(1, p - 1)
        s = rng.randrange(1, p - 1)
        specs.append(((a, m), (b, n), (c, -s)))
        specs.append(((a, m), (b, -n), (c, -s)))
        specs.append(((a, -m), (b, -n), (c, -s)))
        if m != n:
            specs.append(((a, min(m, n)), (b, -max(m, n))))
    for terms in specs:
        spec = SumSpec(pr, terms, auto_exclusions(pr, terms))
        got = cf.quick_case(spec)
        if got is None:
            yield (), (), ()
        else:
            yield ((terms,),), (brute_sum(spec),), (got,)


def _random_composition(rng, total, arity, cap):
    for _ in range(50):
        cuts = [rng.randrange(1, cap + 1) for _ in range(arity - 1)]
        last = total - sum(cuts)
        if 1 <= last <= cap:
            return cuts + [last]
    return None


# always sampled: the specs are drawn on the seed, not enumerated
_run_quickcase = Grid(("terms",), sample=_quickcase)


def _tablecorr_row(pr, m, n):
    """Sum-table row s equals the sum of coeff-table rows i(p-1)-s, i >= 1,
    at every s of one (m, n): an instance's sides are 0 and whether their
    difference is nonzero (1).

    Only i = 1, 2 contribute except at the m = n = p-1, s = p-1 corner,
    where row 3(p-1)-s = m+n joins in.  Rows are summed as monomial maps.
    """
    p = pr.p
    coeffs = symbolic_coeff_table(pr, m, n)
    sums = symbolic_sum_table(pr, m, n)
    nonzero = []
    for s in range(1, p):
        diff = {(i, j): -c for i, j, c in sums[s - 1].terms}
        for row in coeffs[p - 1 - s :: p - 1]:
            for i, j, c in row.terms:
                diff[i, j] = diff.get((i, j), 0) + c
        nonzero.append(int(any(c % p for c in diff.values())))
    return _row((m, n), range(1, p)), [0] * (p - 1), nonzero


def _draw_tables(p, budget, seed):
    rng = random.Random(seed)
    return [(rng.randrange(1, p), rng.randrange(1, p)) for _ in range(max(1, budget // (p - 1)))]


_run_tablecorr = Grid(
    ("m", "n", "s"),
    rows=lambda pr, mode: (_tablecorr_row(pr, m, n)
                           for m, n in product(range(1, pr.p), repeat=2)),
    count=lambda p: (p - 1) ** 3,
    sample=lambda pr, budget, seed: (_tablecorr_row(pr, m, n)
                                     for m, n in _draw_tables(pr.p, budget, seed)),
)


def _figures_row(pr, a):
    """The six residue-matrix observations for one offset a, each 1 if it
    holds and 0 if not."""
    p = pr.p
    mat = residue_matrix(pr, a).entries
    corners = ((0, 0), (0, p - 1), (p - 1, 0), (p - 1, p - 1))
    checks = {
        "corners": all(mat[i][j] == p - 2 for i, j in corners),
        "row_wrap": mat[0] == mat[p - 1],
        "col_wrap": all(mat[i][0] == mat[i][p - 1] for i in range(p)),
        "row0_reversed_is_col0": all(mat[0][p - 1 - m] == mat[m][0] for m in range(p)),
        "col0_powers": all(mat[m][0] == (-pow(a, m, p)) % p for m in range(1, p - 1)),
        "modified_pascal": all(
            (mat[i][j - 1] + mat[i + 1][j]) % p == a * mat[i][j] % p
            for i in range(p - 1)
            for j in range(1, p)
        ),
    }
    return _row((a,), checks), [1] * len(checks), [int(ok) for ok in checks.values()]


_run_figures = Grid(
    ("a", "check"), rows=lambda pr, mode: (_figures_row(pr, a) for a in range(1, pr.p)))


@dataclass(frozen=True)
class Theorem:
    id: str
    description: str
    strategies: tuple[str, str]
    run: object  # callable(pr, budget, seed, mode) -> (grid, failures, exhaustive)


REGISTRY: dict[str, Theorem] = {
    t.id: t
    for t in [
        Theorem("thm1.1", "power sums of residues: 0 or -1", ("brute", "closed"), _run_thm1_1),
        Theorem("thm1.2", "harmonic sums mod p and p^2", ("brute-p2", "constant"), _run_thm1_2),
        Theorem("thm1.3", "reciprocal power sums mod p^2 / p", ("brute-p2", "constant"), _run_thm1_3),
        Theorem("thm2.1", "single-offset ratio sums", ("brute", "closed"), _run_thm2_1),
        Theorem("thm2.3", "two-offset ratio sums", ("brute", "closed"), _run_thm2_3),
        Theorem("rem2.5", "equal-offset ratio sums", ("brute", "closed"), _run_rem2_5),
        Theorem("thm2.6", "product with k-power", ("brute", "closed"), _run_thm2_6),
        Theorem("thm2.8", "product of two shifted powers", ("brute", "closed"), _run_thm2_8),
        Theorem("thm3.1", "triple product, banded binomial sums", ("brute", "closed"), _run_thm3_1),
        Theorem("thm3.4", "triple product, linear k factor", ("brute", "closed"), _run_thm3_4),
        Theorem("thm3.5", "triple product, quadratic k factor", ("brute", "closed"), _run_thm3_5),
        Theorem("thm3.6", "triple product, general k power", ("brute", "closed"), _run_thm3_6),
        Theorem("thm4.1", "n-term multi-index closed form", ("brute", "multi-index"), _run_thm4_1),
        Theorem("thm4.4", "n-term coefficient extraction", ("brute", "coeff"), _run_thm4_4),
        Theorem("thm4.5", "n-term elementary symmetric form", ("brute", "esp"), _run_thm4_5),
        Theorem("eq2", "binomial cancellation identity", ("lhs", "rhs"), _run_eq2),
        Theorem("eq3", "binomial semi-symmetry congruences", ("lhs", "rhs"), _run_eq3),
        Theorem("cor2.7", "binomial transpose congruence", ("lhs", "rhs"), _run_cor2_7),
        Theorem("thm3.11", "general coefficient congruence", ("lhs", "rhs"), _run_thm3_11),
        Theorem("thm3.13", "general weighted-sum congruence", ("lhs", "rhs"), _run_thm3_13),
        Theorem("cor3.12", "s = 0 corollary, both parts", ("lhs", "rhs"), _run_cor3_12),
        Theorem("vandermonde", "Vandermonde convolution", ("lhs", "rhs"), _run_vandermonde),
        Theorem("quickcase", "corollary constant shortcuts", ("brute", "quick"), _run_quickcase),
        Theorem("tablecorr", "sum-table vs coeff-table rows", ("sum-table", "coeff-rows"), _run_tablecorr),
        Theorem("figures", "residue-matrix observations", ("matrix", "observations"), _run_figures),
    ]
}

IDENTITY_SUITE = tuple(t.id for t in REGISTRY.values() if t.strategies == ("lhs", "rhs"))


def resolve_theorems(ids) -> list[str]:
    if isinstance(ids, str):
        ids = [ids]
    out: list[str] = []
    for raw in ids:
        name = raw.strip()
        if name == "all":
            out.extend(REGISTRY)
        elif name in REGISTRY:
            out.append(name)
        else:
            raise UnknownTheoremError(
                f"unknown theorem id {name!r}; known: {', '.join(REGISTRY)} or 'all'"
            )
    return list(dict.fromkeys(out))


def run_one(theorem_id: str, p: int | Prime, budget: int = 10_000, seed: int = 0,
            mode: str = "p2") -> VerificationReport:
    pr = p if isinstance(p, Prime) else make_prime(p)
    thm = REGISTRY.get(theorem_id)
    if thm is None:
        raise UnknownTheoremError(f"unknown theorem id {theorem_id!r}")
    _check_budget(budget)
    if mode not in ("p", "p2"):
        raise BadParamsError(f"mode must be 'p' or 'p2', got {mode!r}")
    start = time.perf_counter()
    grid, failures, exhaustive = thm.run(pr, budget, seed, mode)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        theorem=theorem_id,
        prime=pr.p,
        grid=grid,
        failures=failures,
        elapsed=elapsed,
        strategies=thm.strategies,
        exhaustive=exhaustive,
        seed=None if exhaustive else seed,
    )


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise BadParamsError(f"budget must be at least 1, got {budget}")


def check_request(theorem_ids, primes, budget: int) -> list[str]:
    """The theorem names of a run, or BadParamsError for a run that would
    check nothing; raised before any work is done."""
    names = resolve_theorems(theorem_ids)
    if not names:
        raise BadParamsError("no theorem ids to verify")
    if not primes:
        raise BadParamsError("no primes to verify at")
    _check_budget(budget)
    return names


def run_verification(theorem_ids, primes, budget: int = 10_000, seed: int = 0,
                     mode: str = "p2") -> list[VerificationReport]:
    """Run every (theorem, prime) pair once; reports sorted by theorem then
    prime.  The theorems at one p share one Prime, so its columns and rows
    are built once."""
    names = check_request(theorem_ids, primes, budget)
    reports = []
    for p in dict.fromkeys(primes):
        pr = make_prime(p)
        reports += [run_one(name, pr, budget, seed, mode) for name in names]
    return sorted(reports, key=lambda r: (r.theorem, r.prime))
