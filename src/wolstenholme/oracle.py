"""Ground-truth brute-force evaluation of residue power sums, mod p and mod p^2.

Everything here evaluates sums term by term with no algebraic shortcuts, so
the closed-form evaluators can be checked against it exactly.

brute_sum reads each value (off+k)^e from Prime.power_column(e), x^e for
every x, built once: at most 2p-1 columns of p entries per Prime.  A
positive column is one pow(x, e, p) per x until the Prime has built p/4 of
them; after that a miss fills the missing columns up to e from the nearest
cached one below, by x^e = x^(e-1) x.  Column -1 is x^-1 from the
factorial tables, and column -e is column e read at x^-1, as (x^-1)^e.
Term (off, e) at k = 0..p-1 is that column rotated by off.  This is still
literal: every value is an exactly computed power of its own base, every
product over the terms is formed, and no exponent is reduced mod p-1 and no
discrete log or primitive root is used, the theory that the congruences
under test rest on.  Only the reuse across calls is new.

power_moments evaluates a whole run of such sums at once, sum of w * x^s for
every exponent s, by packing each power table (x^0, ..., x^(p-1)) into one
Python int, one fixed-width slot per exponent.  That is exact integer
arithmetic, not an algebraic shortcut: every product w * x^s is still formed
and added, only p of them side by side in one big-integer multiply-add, and
the slots are wide enough that no carry ever crosses into the next one.
Prime.unpack then reduces each slot mod p.  So verify reads a row of sums
that differ only in their last exponent, a closed-form box row or an n-term
row, as one power_moments row weighted by the other terms' products when
the row is a run of exponents, and as one dot product of those weights with
power_column(e) per exponent e when the exponents were drawn.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial, reduce
from itertools import islice, repeat
from operator import mul

from .errors import HypothesisViolationError, ZeroDenominatorError
from .modarith import Prime, mod_inverse, unpack_slots

Term = tuple[int, int]  # (offset, signed exponent)


@dataclass(frozen=True)
class SumSpec:
    """A sum over k in [0, p) \\ exclusions of products (offset + k)^exp.

    Exclusions are explicit data rather than inferred: the sums under study
    differ in which k they skip, and exponent-0 terms (0^0 = 1) make skipping
    observable.  Negative exponents are evaluated via modular inverses.
    """

    pr: Prime
    terms: tuple[Term, ...]
    exclusions: frozenset[int]

    def __post_init__(self):
        p = self.pr.p
        for off, exp in self.terms:
            if not 0 <= off < p:
                raise HypothesisViolationError(f"offset {off} outside [0, {p})")
            if abs(exp) > p - 1:
                raise HypothesisViolationError(f"|exponent| {exp} exceeds p-1 = {p - 1}")
        for k in self.exclusions:
            if not 0 <= k < p:
                raise HypothesisViolationError(f"exclusion {k} outside [0, {p})")


def auto_exclusions(pr: Prime, terms) -> frozenset[int]:
    """The k-values where some negative-exponent base vanishes."""
    return frozenset((-off) % pr.p for off, exp in terms if exp < 0)


def make_spec(pr: Prime, terms, exclusions=None) -> SumSpec:
    """Build a SumSpec with offsets normalized mod p.

    When exclusions is None the denominator zeros (auto_exclusions) are used,
    matching the convention of the sums this package evaluates.
    """
    norm = tuple((off % pr.p, exp) for off, exp in terms)
    if exclusions is None:
        excl = auto_exclusions(pr, norm)
    else:
        excl = frozenset(k % pr.p for k in exclusions)
    return SumSpec(pr, norm, excl)


def term_products(pr: Prime, terms):
    """For k = 0..p-1 in order, the exact integer product over the terms
    (off, e), offsets in [0, p), of the residues (off+k)^e mod p: one
    map(mul) chain over the power columns, each rotated by its offset.  A
    negative exponent's vanishing base reads 0; brute_sum raises there
    unless that k is excluded."""
    column = pr.power_column
    rotated = [col[off:] + col[:off] for off, e in terms for col in (column(e),)]
    return reduce(partial(map, mul), rotated) if rotated else repeat(1, pr.p)


def check_denominators(spec: SumSpec) -> None:
    """Raise ZeroDenominatorError, naming the smallest such k and the first
    such term at it, if a denominator vanishes at an unexcluded k."""
    p = spec.pr.p
    zeros = [((-off) % p, i) for i, (off, exp) in enumerate(spec.terms)
             if exp < 0 and (-off) % p not in spec.exclusions]
    if zeros:
        k, i = min(zeros)
        off, exp = spec.terms[i]
        raise ZeroDenominatorError(f"denominator (({off})+k)^{exp} vanishes at unexcluded k = {k}")


def brute_sum(spec: SumSpec) -> int:
    """Evaluate the sum literally; exact ground truth for all closed forms.

    The exact products are summed as they stream, skipping the one at each
    excluded k, and the sum is reduced mod p once.  check_denominators runs
    first.
    """
    check_denominators(spec)
    p = spec.pr.p
    excl = spec.exclusions
    values = iter(term_products(spec.pr, spec.terms))
    total = start = 0
    for k in sorted(excl):
        total += sum(islice(values, k - start))
        next(values)  # the product at excluded k, formed and skipped
        start = k + 1
    return (total + sum(values)) % p


def power_moments(pr: Prime, weighted) -> list[int]:
    """[sum of w * x^s over the (w, x) pairs, mod p, for s = 0..p-1].

    Weights must lie in [0, p) and there may be at most p pairs, so that
    each exponent's exact sum is at most p (p-1)^2 and fits one slot of
    Prime.packed_powers: the big-integer combination of the packed tables
    holds every exact sum side by side.  It is unpacked and reduced mod p
    once, by Prime.unpack.  x^0 = 1 for every x, 0 included.
    """
    packed = pr.packed_powers
    return pr.unpack(sum([w * packed(x) for w, x in weighted]), pr.p)


def brute_sum_mod_p2(pr: Prime, exp: int) -> int:
    """Sum of (k^-1 mod p^2)^exp over k = 1..p-1, reduced mod p^2."""
    if not 1 <= exp <= pr.p - 2:
        raise HypothesisViolationError(f"exp = {exp} outside [1, p-2]")
    p2 = pr.p * pr.p
    return sum(pow(mod_inverse(k, p2), exp, p2) for k in range(1, pr.p)) % p2


@dataclass(frozen=True)
class ResidueMatrix:
    """p x p grid: entries[m][n] = sum over k != a of k^m / (a-k)^n mod p."""

    pr: Prime
    a: int
    entries: tuple[tuple[int, ...], ...]

    def to_csv(self) -> str:
        return "\n".join(",".join(str(v) for v in row) for row in self.entries) + "\n"

    def to_json_dict(self) -> dict:
        return {"p": self.pr.p, "a": self.a, "entries": [list(r) for r in self.entries]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def residue_matrix(pr: Prime, a: int) -> ResidueMatrix:
    """Fill the grid of ratio sums for offsets 1 <= a <= p-1.

    Row m, column n holds sum over k in {1,...,p-1} minus {a} of
    k^m * (a-k)^(-n).  Each row is one packed combination, as in
    power_moments, over those k: the packed powers of (a-k)^-1, looked up
    once per matrix, weighted by k^m, read from the slots of the packed
    powers of k.  No row is derived from another.
    """
    p = pr.p
    if not 1 <= a <= p - 1:
        raise HypothesisViolationError(f"a = {a} outside [1, p-1]")
    ks = [k for k in range(1, p) if k != a]
    rows = [pr.packed_powers(mod_inverse(a - k, p)) for k in ks]
    # (k^m for every k) for m = 0..p-1; the slots of a packed row are residues
    weights = zip(*[unpack_slots(pr.packed_powers(k), pr.pack_width, p) for k in ks])
    entries = tuple(tuple(pr.unpack(sum(map(mul, km, rows)), p)) for km in weights)
    return ResidueMatrix(pr, a, entries)
