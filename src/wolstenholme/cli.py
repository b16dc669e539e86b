"""Command-line front end: evaluate sums, verify congruence suites, emit tables.

Exit codes: 0 success, 1 verification failure or strategy disagreement,
2 usage or parse errors, or a prime too large for the memory at hand.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import closedforms as cf
from . import general as gen
from .errors import (
    BadParamsError,
    DisagreementError,
    ExpressionError,
    StrategyInapplicableError,
    WolstenholmeError,
)
from .expressions import parse_expression
from .modarith import Prime, check_prime, is_prime, make_prime
from .oracle import SumSpec, brute_sum, check_denominators, make_spec, residue_matrix
from .polyring import (
    check_table_exponents,
    symbolic_coeff_table,
    symbolic_sum_table,
    table_to_json,
)
from .verify import REGISTRY, check_request, resolve_theorems, run_verification


def _expression_terms(p: int, text: str) -> list[tuple[int, int]]:
    """Parse an expression into (offset, exponent) terms, a denominator's
    exponents negated, each bounded by p-1: every check that needs only p."""
    numer, denom = parse_expression(text)
    terms = [*numer, *((off, -exp) for off, exp in denom)]
    if not terms:
        raise ExpressionError("expression has no factors")
    for off, exp in terms:
        if abs(exp) > p - 1:
            raise ExpressionError(f"exponent {abs(exp)} out of range: must be <= p-1 = {p - 1}")
    return terms


def spec_from_expression(pr: Prime, text: str) -> SumSpec:
    """Parse an expression and build its SumSpec.

    Exclusions are derived automatically from the denominators, matching the
    convention that a ratio sum skips exactly the k where a denominator
    vanishes.
    """
    return make_spec(pr, _expression_terms(pr.p, text))


def _route(spec: SumSpec, complete) -> int:
    """One evaluation route: complete(pr, terms) sums the k-form product
    (normalize_spec) over every k, and the product at each of its excluded
    k is subtracted.  Any exclusion set works, as long as it holds every k
    where a denominator vanishes (check_denominators, as for brute_sum)."""
    check_denominators(spec)
    pr = spec.pr
    p = pr.p
    norm = cf.normalize_spec(spec)
    total = complete(pr, norm.terms)
    for k in norm.exclusions:
        prod = 1
        for off, e in norm.terms:
            prod = prod * pow((off + k) % p, e, p) % p
        total -= prod
    return total % p


def _point(row):
    """complete(pr, terms) for an n-term route: its row entry point (pr,
    offsets, head, lasts) at the k-form's one point, which is checked once
    there.  An n-term route needs a factor."""
    def complete(pr: Prime, terms) -> int:
        if not terms:
            raise StrategyInapplicableError("no factors left after merging exponents")
        offsets, exps = zip(*terms)
        return row(pr, offsets, exps[:-1], exps[-1:])[0]
    return complete


def _closed_form(pr: Prime, terms) -> int:
    """The complete sum by the number of k-form terms: 0 (p ones) for none,
    then the power sum and the pair and triple congruences, each over the
    offsets but the last (which is 0); past three, the multi-index formula."""
    if not terms:
        return 0
    if len(terms) > 3:
        return _point(gen.multi_index_row)(pr, terms)
    offsets, exps = zip(*terms)
    form = (cf.power_sum, cf.product_pair_k, cf.triple_general)[len(terms) - 1]
    return form(pr, *offsets[:-1], *exps)


def eval_closed(spec: SumSpec) -> int:
    return _route(spec, _closed_form)


def eval_coeff(spec: SumSpec) -> int:
    return _route(spec, _point(gen.coeff_extraction_row))


def eval_esp(spec: SumSpec) -> int:
    return _route(spec, _point(gen.esp_row))


# Every evaluation route in output order.  Each entry looks its route up when
# called, so a wrapper or a test double set on this module is the one that runs.
ROUTES = {
    "brute": lambda spec: brute_sum(spec),
    "closed": lambda spec: eval_closed(spec),
    "multi-index": lambda spec: _route(spec, _point(gen.multi_index_row)),
    "coeff": lambda spec: eval_coeff(spec),
    "esp": lambda spec: eval_esp(spec),
}
# --strategy: each route but multi-index, which only `all` runs
STRATEGIES = (*(name for name in ROUTES if name != "multi-index"), "all")


def evaluate_all(spec: SumSpec) -> dict[str, int]:
    """Every applicable route, plus the corollary shortcut when it answers;
    raises DisagreementError on any mismatch (that is always a bug, never a
    data problem)."""
    # past three k-form terms eval_closed is the multi-index route itself, so
    # one call serves the closed row and the multi-index row
    shared = len(cf.normalize_spec(spec).terms) > 3
    results: dict[str, int] = {}
    for name, route in ROUTES.items():
        try:
            if shared and name == "multi-index" and "closed" in results:
                results[name] = results["closed"]
            else:
                results[name] = route(spec)
        except StrategyInapplicableError:
            continue
    quick = cf.quick_case(spec)
    if quick is not None:
        results["quick"] = quick
    if len(set(results.values())) != 1:
        raise DisagreementError(f"strategies disagree: {results}")
    return results


def _parse_primes(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if ".." in part:
                lo_s, hi_s = part.split("..", 1)
                lo, hi = int(lo_s), int(hi_s)
                out.extend(q for q in range(max(5, lo), hi + 1) if is_prime(q))
            else:
                out.append(int(part))
        except ValueError:
            raise BadParamsError(f"--primes: {part!r} is not a prime or a range a..b") from None
    return out


def cmd_eval(args) -> int:
    check_prime(args.prime)
    terms = _expression_terms(args.prime, args.expression)
    spec = make_spec(make_prime(args.prime), terms)
    if args.strategy == "all":
        results = evaluate_all(spec)
        for name, value in results.items():
            print(f"{name} {value}")
    else:
        print(ROUTES[args.strategy](spec))
    return 0


def _check_output(path: str | None) -> None:
    """Raise BadParamsError unless -o names a file that can be written.

    Checked before any work, and without opening the file, so that a bad
    path fails at once and an existing file is not truncated before its
    new contents are ready.
    """
    if path is None:
        return
    if os.path.isdir(path):
        raise BadParamsError(f"-o {path}: is a directory")
    if not os.path.basename(path):
        raise BadParamsError(f"-o {path}: no file name")
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise BadParamsError(f"-o {path}: no such directory {folder}")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise BadParamsError(f"-o {path}: not writable")


def _emit(path: str | None, text: str) -> None:
    """Write text to the -o file, or to stdout without one."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadParamsError(f"-o {path}: {exc.strerror}") from None


def cmd_verify(args) -> int:
    theorems = resolve_theorems([t for t in args.theorems.split(",") if t.strip()])
    primes = _parse_primes(args.primes)
    for q in primes:
        check_prime(q)  # validate early: composites are usage errors
    check_request(theorems, primes, args.budget)
    _check_output(args.output)
    print(f"seed {args.seed}", file=sys.stderr)
    reports = run_verification(theorems, primes, budget=args.budget, seed=args.seed,
                               mode=args.mod)
    _emit(args.output, "".join(rep.to_json_line() + "\n" for rep in reports))
    ok = all(rep.passed for rep in reports)
    for rep in reports:
        status = "pass" if rep.passed else f"FAIL ({len(rep.failures)} failures)"
        print(
            f"{rep.theorem} p={rep.prime} grid={rep.grid} "
            f"{'exhaustive' if rep.exhaustive else 'sampled'} {status} "
            f"[{rep.elapsed:.2f}s]",
            file=sys.stderr,
        )
    return 0 if ok else 1


def _render_table(rows, start_index: int, fmt: str, pr: Prime, signed: bool) -> str:
    if fmt == "text":
        lines = [f"{start_index + i}: {row.render(signed=signed)}" for i, row in enumerate(rows)]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return table_to_json(pr, rows, start_index) + "\n"
    # csv: one monomial per line
    lines = ["row,a_exp,b_exp,coeff"]
    for i, row in enumerate(rows):
        lines += [f"{start_index + i},{ai},{bi},{c}" for ai, bi, c in row.terms]
    return "\n".join(lines) + "\n"


# the most entries a residue matrix may have, p^2 <= 2^24, so p <= 4093
_MATRIX_ENTRIES = 1 << 24


def cmd_table(args) -> int:
    if args.kind == "residue-matrix" and args.prime ** 2 > _MATRIX_ENTRIES:
        raise BadParamsError(f"residue-matrix: p = {args.prime} exceeds 4093"
                             " (the matrix has p^2 entries, at most 2^24)")
    check_prime(args.prime)
    _check_output(args.output)
    if args.kind == "residue-matrix" and args.a is None:
        raise BadParamsError("residue-matrix needs -a")
    if args.kind != "residue-matrix":
        if args.m is None or args.n is None:
            raise BadParamsError(f"{args.kind} needs -m and -n")
        check_table_exponents(args.prime, args.m, args.n)
    pr = make_prime(args.prime)  # the factorial tables, after the usage checks above
    if args.kind == "residue-matrix":
        mat = residue_matrix(pr, args.a)
        if args.format == "csv":
            text = mat.to_csv()
        elif args.format == "json":
            text = mat.to_json() + "\n"
        else:
            width = len(str(pr.p - 1))
            text = "\n".join(
                " ".join(str(v).rjust(width) for v in row) for row in mat.entries
            ) + "\n"
    else:
        if args.kind == "coeff-table":
            rows = symbolic_coeff_table(pr, args.m, args.n)
            start = 0
        else:
            rows = symbolic_sum_table(pr, args.m, args.n)
            start = 1
        text = _render_table(rows, start, args.format, pr, args.signed)
    _emit(args.output, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wolstenholme",
        description="Evaluate sums of products/ratios of shifted residue powers "
        "modulo a prime, and verify the associated congruence identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval",
        help="evaluate a sum over k = 0..p-1 (k with a vanishing denominator skipped)",
        description="Expression grammar: factors '(c+k)^e' (integer c >= 0, e >= 1) "
        "multiplied by juxtaposition, optional 'k^e' factors, one optional '/' "
        "separating numerator and denominator, parentheses for grouping; "
        "whitespace-insensitive.  Example: \"(7+k)^9 / ((3+k)^13 (8+k)^8)\".  "
        "Denominator zeros are excluded from the sum automatically.",
    )
    p_eval.add_argument("expression")
    p_eval.add_argument("-p", "--prime", type=int, required=True)
    p_eval.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="all",
        help="'all' runs every applicable strategy and requires agreement",
    )

    p_verify = sub.add_parser(
        "verify",
        help="check theorem suites over prime grids, JSON-lines report to stdout",
    )
    p_verify.add_argument(
        "--theorems",
        default="all",
        help="comma-separated ids or 'all'; known ids: " + ", ".join(REGISTRY),
    )
    p_verify.add_argument(
        "--primes",
        default="5,7,11",
        help="comma-separated primes and/or ranges like 5..97 (primes only)",
    )
    p_verify.add_argument(
        "--budget",
        type=int,
        default=10_000,
        help="max grid size checked exhaustively; larger grids are sampled",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="sampling seed (printed)")
    p_verify.add_argument(
        "--mod",
        choices=("p", "p2"),
        default="p2",
        help="'p2' (default) checks the stated mod-p^2 congruences at p^2; "
        "'p' reduces them to mod p",
    )
    p_verify.add_argument("-o", "--output", help="write the JSON-lines report here")

    p_table = sub.add_parser(
        "table",
        help="emit a residue matrix or a symbolic coefficient/sum table",
    )
    p_table.add_argument("kind", choices=("residue-matrix", "sum-table", "coeff-table"))
    p_table.add_argument("-p", "--prime", type=int, required=True)
    p_table.add_argument("-a", type=int, help="offset for residue-matrix")
    p_table.add_argument("-m", type=int, help="first exponent for the symbolic tables")
    p_table.add_argument("-n", type=int, help="second exponent for the symbolic tables")
    p_table.add_argument("-f", "--format", choices=("csv", "json", "text"), default="text")
    p_table.add_argument("--signed", action="store_true", help="balanced-residue display")
    p_table.add_argument("-o", "--output")

    return parser


_parser: argparse.ArgumentParser | None = None  # built on the first call of main


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # looked up on each call, so that a wrapper set on this module runs
    command = {"eval": cmd_eval, "verify": cmd_verify, "table": cmd_table}[args.command]
    try:
        return command(args)
    except DisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except WolstenholmeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
