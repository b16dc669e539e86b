import functools
import importlib.util
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wolstenholme.cli import (
    ROUTES,
    eval_closed,
    eval_coeff,
    eval_esp,
    evaluate_all,
    main,
    spec_from_expression,
)
from wolstenholme.closedforms import normalize_spec
from wolstenholme.errors import (
    DisagreementError,
    StrategyInapplicableError,
    ZeroDenominatorError,
)
from wolstenholme.modarith import Prime, make_prime
from wolstenholme.oracle import SumSpec, auto_exclusions, brute_sum


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_ratio_example_all_strategies(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "-p", "17", "(7+k)^9 / ((3+k)^13 (8+k)^8)", "--strategy", "all"
    )
    assert code == 0
    values = dict(line.split() for line in out.strip().splitlines())
    assert values["brute"] == "8"
    assert values["closed"] == "8"
    assert values["multi-index"] == "8"
    assert values["coeff"] == "8"
    assert values["esp"] == "8"


def test_eval_product_example_single_strategy(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "-p", "17", "(14+k)^3 (10+k)^8 (4+k)^9", "--strategy", "esp"
    )
    assert code == 0
    assert out.strip() == "15"


def test_eval_triple_ratio_default_strategy(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "-p", "23", "1/((7+k)^16 (13+k)^17 (18+k)^19)"
    )
    assert code == 0
    lines = dict(line.split() for line in out.strip().splitlines())
    assert set(lines.values()) == {"0"}
    assert "quick" in lines  # the corollary shortcut applies here


def test_eval_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "-p", "17", "(7+k)^")
    assert code == 2
    assert "error" in err


def test_eval_exponent_out_of_range(capsys):
    code, _, err = run_cli(capsys, "eval", "-p", "5", "(3+k)^9")
    assert code == 2
    assert "out of range" in err


def test_eval_composite_modulus(capsys):
    code, _, err = run_cli(capsys, "eval", "-p", "9", "(3+k)^2")
    assert code == 2


def test_eval_strategies_on_awkward_shapes(capsys):
    # same offset twice, ratio that cancels, and a p-1 denominator exponent
    cases = [
        ("11", "(3+k)^2 (3+k)^4"),
        ("11", "(3+k)^2 / (3+k)^5"),
        ("11", "(3+k)^2 / (3+k)^2"),
        ("11", "1/(4+k)^10"),
        ("11", "k^3 (3+k)^10 / (7+k)^10"),
        ("13", "(5+k)^12 (3+k)^2 k^2"),
    ]
    for p, expr in cases:
        code, out, err = run_cli(capsys, "eval", "-p", p, expr, "--strategy", "all")
        assert code == 0, (expr, err)
        values = {line.split()[0]: int(line.split()[1]) for line in out.strip().splitlines()}
        pr = make_prime(int(p))
        spec = spec_from_expression(pr, expr)
        assert values["brute"] == brute_sum(spec)
        assert len(set(values.values())) == 1


def test_closed_strategy_internals():
    pr = make_prime(11)
    spec = spec_from_expression(pr, "(3+k)^4 (5+k)^5")
    assert eval_closed(spec) == brute_sum(spec)
    assert eval_coeff(spec) == brute_sum(spec)
    assert eval_esp(spec) == brute_sum(spec)
    # hand-built exclusion sets: each route subtracts the k-form product at
    # every excluded k, so it equals the literal sum on any set that holds
    # the denominator zeros; sum (3+k)^2 over k != 5 is 0 - 8^2 = 2 mod 11
    odd_spec = SumSpec(pr, ((3, 2),), frozenset({5}))
    assert brute_sum(odd_spec) == 2
    rng = random.Random(15)
    for p in (7, 11, 13):
        pr = make_prime(p)
        for _ in range(60):
            terms = [(rng.randrange(p), rng.randrange(-(p - 1), p))
                     for _ in range(rng.randrange(1, 6))]
            extra = rng.sample(range(p), rng.randrange(p))
            hand = SumSpec(pr, tuple(terms), auto_exclusions(pr, terms) | frozenset(extra))
            for s in (odd_spec, hand) if p == 11 else (hand,):
                want = brute_sum(s)
                for name, route in ROUTES.items():
                    if name == "brute":
                        continue
                    try:
                        assert route(s) == want, (name, s)
                    except StrategyInapplicableError:  # nothing left to sum
                        assert not normalize_spec(s).terms and name != "closed"
    # a denominator that vanishes at an unexcluded k has no value
    bad = SumSpec(pr, ((3, -2), (1, 4)), frozenset({2}))
    for route in ROUTES.values():
        with pytest.raises(ZeroDenominatorError):
            route(bad)


def test_evaluate_all_detects_disagreement(monkeypatch):
    import wolstenholme.cli as cli_mod

    pr = make_prime(11)
    spec = spec_from_expression(pr, "(3+k)^4 (5+k)^5")
    monkeypatch.setattr(cli_mod, "eval_esp", lambda s: 1)
    with pytest.raises(DisagreementError):
        evaluate_all(spec)


def test_evaluate_all_runs_the_multi_index_route_once(capsys, monkeypatch):
    # with four or more merged terms the closed form is the multi-index
    # route, so one call serves the closed row and the multi-index row
    import wolstenholme.general as gen

    real = gen.multi_index_row
    calls = []
    monkeypatch.setattr(gen, "multi_index_row",
                        lambda *args: calls.append(args) or real(*args))
    code, out, _ = run_cli(capsys, "eval", "-p", "31", "(1+k)^5 (2+k)^6 (3+k)^7 k^9")
    assert code == 0 and len(calls) == 1
    values = dict(line.split() for line in out.strip().splitlines())
    assert list(values)[:5] == ["brute", "closed", "multi-index", "coeff", "esp"]
    assert len(set(values.values())) == 1


def test_eval_checks_each_n_term_route_once(capsys, monkeypatch):
    # each n-term route calls its row entry point, which checks the point's
    # hypotheses once; building a GeneralSumParams first checked them twice
    import wolstenholme.general as gen

    real = gen._check
    calls = []
    monkeypatch.setattr(gen, "_check", lambda *args: calls.append(args) or real(*args))
    code, out, _ = run_cli(capsys, "eval", "-p", "31", "(1+k)^5 (2+k)^6 k^9")
    assert code == 0 and len(calls) == 3 and "esp " in out


@pytest.mark.parametrize("strategy, name", [
    ("brute", "brute_sum"), ("closed", "eval_closed"), ("coeff", "eval_coeff"), ("esp", "eval_esp"),
])
def test_each_strategy_runs_the_route_bound_in_the_cli_module(capsys, monkeypatch, strategy, name):
    import wolstenholme.cli as cli_mod

    assert cli_mod.STRATEGIES == ("brute", "closed", "coeff", "esp", "all")
    monkeypatch.setattr(cli_mod, name, lambda spec: "sentinel")
    code, out, _ = run_cli(capsys, "eval", "-p", "11", "(3+k)^4 (5+k)^5", "--strategy", strategy)
    assert (code, out) == (0, "sentinel\n")


def test_cli_disagreement_exit_code(capsys, monkeypatch):
    import wolstenholme.cli as cli_mod

    monkeypatch.setattr(cli_mod, "eval_coeff", lambda s: 3)
    code, _, err = run_cli(capsys, "eval", "-p", "11", "(3+k)^4 (5+k)^5")
    assert code == 1
    assert "disagree" in err


def test_verify_subcommand_reports(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--theorems", "thm2.1", "--primes", "5,7"
    )
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["p"] for r in reports] == [5, 7]
    assert all(r["pass"] for r in reports)
    assert all(r["theorem"] == "thm2.1" for r in reports)
    assert reports[0]["grid"] == 4 * 25
    assert "seed 0" in err


def test_verify_unknown_theorem(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorems", "thm9.9", "--primes", "5")
    assert code == 2
    assert "unknown theorem" in err


def test_verify_prime_range_syntax(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorems", "thm1.2", "--primes", "5..13"
    )
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["p"] for r in reports] == [5, 7, 11, 13]


def test_verify_repeated_primes_are_verified_once(capsys):
    code, out, err = run_cli(capsys, "verify", "--theorems", "thm1.1", "--primes", "5,5..7")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["p"] for r in reports] == [5, 7]
    assert [line.split()[1] for line in err.splitlines()[1:]] == ["p=5", "p=7"]


def test_verify_composite_prime_rejected(capsys):
    for primes, message in (("15", "p = 15 is composite"),
                            ("3", "p = 3: moduli below 5 are not supported")):
        code, out, err = run_cli(capsys, "verify", "--theorems", "thm1.2", "--primes", primes)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_validates_each_prime_without_building_it(capsys, monkeypatch):
    # the primes are checked before the run without their factorial tables,
    # so each one's Prime is built once, by the run
    built = []
    real = Prime.__init__
    monkeypatch.setattr(Prime, "__init__", lambda pr, p: built.append(p) or real(pr, p))
    code, _, _ = run_cli(capsys, "verify", "--theorems", "eq2,thm1.1", "--primes", "5,7")
    assert code == 0 and built == [5, 7]


@pytest.mark.parametrize("argv", [
    ("--primes", "abc"),
    ("--primes", "5..x"),
    ("--budget", "0"),
    ("--budget", "-3"),
    ("--theorems", ",,"),
    ("--primes", "90..96"),  # a range with no primes in it
])
def test_verify_input_that_checks_nothing_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "verify", "--theorems", "thm2.1", "--primes", "5", *argv)
    assert code == 2
    assert out == ""
    assert "error" in err and "Traceback" not in err


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    code, out, _ = run_cli(
        capsys,
        "verify", "--theorems", "eq2", "--primes", "5", "-o", str(target),
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["pass"] is True


def test_table_residue_matrix_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "residue-matrix", "-p", "11", "-a", "1", "-f", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 11 and all(len(r) == 11 for r in rows)
    grid = [[int(v) for v in row] for row in rows]
    for i, j in ((0, 0), (0, 10), (10, 0), (10, 10)):
        assert grid[i][j] == 9


def test_table_residue_matrix_json(capsys):
    code, out, _ = run_cli(capsys, "table", "residue-matrix", "-p", "5", "-a", "2", "-f", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 5 and payload["a"] == 2
    assert len(payload["entries"]) == 5


def test_table_coeff_table_text(capsys):
    code, out, _ = run_cli(capsys, "table", "coeff-table", "-p", "11", "-m", "7", "-n", "7", "-f", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 15
    assert lines[14] == "14: 10"
    assert lines[13] == "13: 4 a + 4 b"


def test_table_sum_table_text(capsys):
    code, out, _ = run_cli(capsys, "table", "sum-table", "-p", "11", "-m", "6", "-n", "9", "-f", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("1: 10 a^6")


def test_table_csv_monomials(capsys):
    code, out, _ = run_cli(capsys, "table", "coeff-table", "-p", "11", "-m", "7", "-n", "7", "-f", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row,a_exp,b_exp,coeff"
    assert "14,0,0,10" in lines


def test_table_missing_params(capsys):
    code, _, err = run_cli(capsys, "table", "coeff-table", "-p", "11")
    assert code == 2
    code, _, err = run_cli(capsys, "table", "residue-matrix", "-p", "11")
    assert code == 2


def test_table_output_file_lf_endings(tmp_path, capsys):
    target = tmp_path / "table.txt"
    code, _, _ = run_cli(
        capsys,
        "table", "coeff-table", "-p", "11", "-m", "7", "-n", "7", "-f", "text",
        "-o", str(target),
    )
    assert code == 0
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").endswith("10\n")


def _no_run(*args, **kwargs):
    raise AssertionError("run_verification was called")


@pytest.mark.parametrize("p", ["4099", "100003"])
def test_residue_matrix_above_its_size_limit_is_a_usage_error(capsys, monkeypatch, p):
    # p^2 > 2^24 entries: one error line and exit 2, before any table is built
    import wolstenholme.cli as cli

    monkeypatch.setattr(cli, "make_prime", _no_run)
    monkeypatch.setattr(cli, "residue_matrix", _no_run)
    code, out, err = run_cli(capsys, "table", "residue-matrix", "-p", p, "-a", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: residue-matrix: p = ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("verify", "--theorems", "thm2.1", "--primes", "7", "-o", "{missing}/x.json"),
    ("verify", "--theorems", "thm2.1", "--primes", "7", "-o", "{dir}"),
    ("table", "sum-table", "-p", "11", "-m", "3", "-n", "4", "-o", "{missing}/x"),
    ("table", "residue-matrix", "-p", "11", "-a", "2", "-o", "{dir}"),
    ("verify", "--theorems", "thm2.1", "--primes", "7", "-o", ""),
    ("verify", "--theorems", "thm2.1", "--primes", "7", "-o", "{missing}/"),
    ("table", "sum-table", "-p", "11", "-m", "3", "-n", "4", "-o", ""),
    ("table", "sum-table", "-p", "11", "-m", "3", "-n", "4", "-o", "{missing}/"),
])
def test_unwritable_output_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                            argv):
    import wolstenholme.cli as cli

    monkeypatch.setattr(cli, "run_verification", _no_run)
    monkeypatch.setattr(cli, "symbolic_sum_table", _no_run)
    monkeypatch.setattr(cli, "residue_matrix", _no_run)
    argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: -o ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("--budget", "0"), ("--theorems", ",,"),
                                  ("--primes", "90..96")])
def test_usage_errors_print_nothing_before_the_error(tmp_path, capsys, monkeypatch, argv):
    import wolstenholme.cli as cli

    monkeypatch.setattr(cli, "run_verification", _no_run)
    target = tmp_path / "report.jsonl"
    target.write_text("old\n")
    code, out, err = run_cli(capsys, "verify", "--theorems", "thm2.1", "--primes", "5",
                             *argv, "-o", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert target.read_text() == "old\n"


def test_verify_output_file_is_replaced_only_when_the_reports_are_ready(tmp_path, capsys,
                                                                       monkeypatch):
    import wolstenholme.cli as cli

    target = tmp_path / "report.jsonl"
    target.write_text("old\n")
    real = cli.run_verification

    def run(*args, **kwargs):
        assert target.read_text() == "old\n"
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_verification", run)
    code, out, err = run_cli(capsys, "verify", "--theorems", "eq2", "--primes", "5",
                             "-o", str(target))
    assert code == 0 and out == "" and err.startswith("seed 0\n")
    assert json.loads(target.read_text())["grid"] == 35


_ROOT = Path(__file__).resolve().parents[1]
# The child's own peak RSS in KiB.  ru_maxrss would keep the high-water
# mark of the pytest image that the child replaced at exec; VmHWM belongs to
# the new address space alone.
_PEAK_KIB = """
def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
"""
_BIG_TABLE = _PEAK_KIB + """
import sys
from wolstenholme.cli import main
target, p, m, n = sys.argv[1:]
code = main(["table", "sum-table", "-p", p, "-m", m, "-n", n, "-o", target])
print(code, peak_kib())
"""


def _rendered_monomials(text, p):
    """{(a_exp, b_exp): coeff} of one rendered row, e.g. "3 a^2 b - a + 1"."""
    parts = re.split(r" ([+-]) ", text)
    signs = ["-" if parts[0].startswith("-") else "+"] + parts[1::2]
    out = {}
    for sign, body in zip(signs, [parts[0].lstrip("-")] + parts[2::2]):
        c, a, b = 1, 0, 0
        for tok in body.split():
            if tok[0] == "a":
                a = int(tok[2:] or 1)
            elif tok[0] == "b":
                b = int(tok[2:] or 1)
            else:
                c = int(tok)
        out[a, b] = c if sign == "+" else -c % p
    return out


def test_big_sum_table_is_fast_and_small(tmp_path):
    # p = 1009: dense rows held all p*m*n = 3*10^8 cells here: 91 s, and
    # about 2.4 GB.  Rows s < 916 have one nonzero anti-diagonal (e = 1008),
    # later rows two (e = 2016 too).  p = 2003: its power sums read p-1
    # packed power rows, and a p-long tuple cached beside each took it to
    # 218 MB (82 MB without).  Only rows s >= 1995 reach e = 2002; the rest
    # read 0
    spec = importlib.util.spec_from_file_location("reference", _ROOT / "perfbench" / "reference.py")
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    reference.comb = functools.cache(math.comb)  # the same binomials, each computed once
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    rng = random.Random(10)
    for p, m, n, max_mb, split in ((1009, 500, 600, 200, 916), (2003, 3, 4, 150, 1995)):
        target = tmp_path / f"table-{p}.txt"
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", _BIG_TABLE, str(target), str(p), str(m),
                                str(n)], env=env, capture_output=True, text=True, check=True)
        elapsed = time.perf_counter() - start
        code, max_rss_kib = map(int, child.stdout.split())
        assert code == 0 and elapsed < 10 and max_rss_kib < max_mb * 1024, (p, max_rss_kib)
        lines = target.read_text().splitlines()
        assert [line.split(":")[0] for line in lines] == [str(s) for s in range(1, p)]
        for s in rng.sample(range(1, split), 2) + rng.sample(range(split, p), 2):
            got = _rendered_monomials(lines[s - 1].split(": ", 1)[1], p)
            assert got == (reference.sum_row(p, m, n, s) or {(0, 0): 0}), (p, s)


_BIG_P_CLOSED = _PEAK_KIB + """
import sys
from wolstenholme.cli import main
code = main(["eval", "--strategy", sys.argv[1], "-p", "1000003", sys.argv[2]])
print(code, peak_kib())
"""


@pytest.mark.parametrize("strategy, expression, value, max_mb", [
    pytest.param("closed", "(1+k)^2 (2+k)^3", "0", 130, id="(1+k)^2 (2+k)^3-0"),
    pytest.param("closed", "1/((1+k)(2+k)^3)", "4", 130, id="1/((1+k)(2+k)^3)-4"),
    pytest.param("coeff", "(1+k)^2 (2+k)^3", "0", 113, id="coeff-(1+k)^2 (2+k)^3-0"),
    pytest.param("brute", "1/((1+k)(2+k)^3)", "4", 170, id="brute-1/((1+k)(2+k)^3)-4"),
    pytest.param("brute", "(1+k)^500001 (2+k)^3 (5+k)^777777 k^123457", "174407", 197,
                 id="brute-(1+k)^500001 (2+k)^3 (5+k)^777777 k^123457-174407"),
    pytest.param("esp", "1/((1+k)(2+k)^3)", "4", 150, id="esp-1/((1+k)(2+k)^3)-4"),
    pytest.param("esp", "(1+k)^999999 (2+k)^5", "999993", 120, id="esp-(1+k)^999999 (2+k)^5"),
])
def test_closed_form_at_p_1000003_holds_no_p_long_cache(strategy, expression, value, max_mb):
    # the closed form reads two factorial tables of p entries; six p-long
    # cache lists built with every Prime took this to 162 MB.  The coeff
    # route builds its one factor row from 3 powers of its base, not from a
    # p-long power table (140 MB with one), and its cyclic product holds only
    # the slots it reaches (117 MB padded to p-1).  The esp route gives the same
    # two values.  The brute oracle holds its columns: the two negative ones
    # are their positive twins read through column -1: 155 MB and
    # 1.3-1.6 s, against 156 MB and 1.9-2.1 s with one pow(x, -e, p) per
    # entry.  A positive column takes one pow per prime base and one product
    # per composite one: the four of the 4-term case take 171 MB and
    # 1.8-2.8 s, against 167 MB and 5.0-6.5 s with one pow per entry.  The
    # esp route's recurrence runs to r = p-5 on the first esp
    # case (221 s and 281 MB by blocked Newton) and holds no p-long power
    # table on the second (156.5 MB with one).  The timeout makes a slow
    # route fail instead of hang.
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", _BIG_P_CLOSED, strategy, expression],
                           env=env, capture_output=True, text=True, check=True, timeout=60)
    *printed, last = child.stdout.splitlines()
    code, max_rss_kib = map(int, last.split())
    assert code == 0 and printed == [value] and max_rss_kib < max_mb * 1024


_THM3_11_AT_10007 = _PEAK_KIB + """
from wolstenholme.cli import main
code = main(["verify", "--theorems", "thm3.11", "--primes", "10007", "--budget", "1000",
             "--seed", "1"])
print(code, peak_kib())
"""


def test_sampled_thm3_11_at_p_10007_reads_no_binomial_rows():
    # each sampled point reads its binomials from the factorial tables: a
    # cached row C(M-k, .) per term took this to 11 s and 1,851 MB
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", _THM3_11_AT_10007], env=env,
                           capture_output=True, text=True, check=True, timeout=60)
    elapsed = time.perf_counter() - start
    report, last = child.stdout.splitlines()
    code, max_rss_kib = map(int, last.split())
    assert code == 0 and elapsed < 3 and max_rss_kib < 60 * 1024, (elapsed, max_rss_kib)
    report = json.loads(report)
    assert report["grid"] == 1000 and report["pass"]


def _run_in_400_mb(argv):
    """The CLI on argv in a child process whose address space alone is
    limited to 400 MB; returns the child and its `error:` lines."""
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    child = subprocess.run([sys.executable, "-m", "wolstenholme.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=60,
                           preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                 (400 << 20, 400 << 20)))
    assert "Traceback" not in child.stderr and child.stdout == ""
    return child, [line for line in child.stderr.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("argv", [
    ("eval", "-p", "100000007", "(1+k)^2 (2+k)^3"),
    ("verify", "--theorems", "thm1.1", "--primes", "100000007"),
])
def test_a_prime_too_large_for_memory_is_one_error_line(argv):
    # the factorial tables of p = 100000007 do not fit in 400 MB of address
    # space
    child, errors = _run_in_400_mb(argv)
    assert child.returncode == 2 and errors == ["error: out of memory"], child.stderr


@pytest.mark.parametrize("argv, error", [
    (("table", "sum-table", "-p", "100000007"), "sum-table needs -m and -n"),
    (("table", "coeff-table", "-p", "100000007", "-m", "3", "-n", "4", "-o", "{missing}/x"),
     "-o {missing}/x: no such directory {missing}"),
    (("eval", "-p", "100000007", "((1+k"), "unexpected end of expression"),
    (("eval", "-p", "100000007", "(1+k)^100000007"),
     "exponent 100000007 out of range: must be <= p-1 = 100000006"),
    (("table", "sum-table", "-p", "100000007", "-m", "0", "-n", "3"),
     "table exponents must lie in [1, p-1]"),
    (("table", "coeff-table", "-p", "100000007", "-m", "3", "-n", "100000007"),
     "table exponents must lie in [1, p-1]"),
])
def test_usage_errors_of_eval_and_table_come_before_the_prime_tables(tmp_path, argv, error):
    # each usage error needs only p, so it is found before the factorial
    # tables, which do not fit in 400 MB at p = 100000007
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    start = time.perf_counter()
    child, errors = _run_in_400_mb(argv)
    elapsed = time.perf_counter() - start
    assert child.returncode == 2, child.stderr
    assert errors == ["error: " + error.format(missing=tmp_path / "missing")]
    assert elapsed < 1.0, elapsed


def test_main_builds_one_parser_and_dispatches_to_the_bound_command(capsys, monkeypatch):
    # a usage error leaves the parser usable, and each call runs the cmd_*
    # bound in the module at that moment
    import wolstenholme.cli as cli_mod

    real = cli_mod.build_parser
    built = []
    monkeypatch.setattr(cli_mod, "_parser", None)
    monkeypatch.setattr(cli_mod, "build_parser", lambda: built.append(1) or real())
    with pytest.raises(SystemExit) as exc:
        main(["eval", "-p", "11"])
    assert exc.value.code == 2 and "required" in capsys.readouterr().err
    want = brute_sum(spec_from_expression(make_prime(11), "(3+k)^4 (5+k)^5"))
    assert run_cli(capsys, "eval", "-p", "11", "(3+k)^4 (5+k)^5", "--strategy",
                   "closed")[:2] == (0, f"{want}\n")
    monkeypatch.setattr(cli_mod, "cmd_table", lambda args: print(args.kind, args.prime) or 0)
    assert run_cli(capsys, "table", "sum-table", "-p", "12")[:2] == (0, "sum-table 12\n")
    assert built == [1]


@pytest.mark.parametrize("columns", [None, "40", "200"])
def test_help_of_the_kept_parser_matches_a_fresh_one(capsys, monkeypatch, columns):
    # the parser is built once, but the help text still follows COLUMNS
    import wolstenholme.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_parser", None)
    monkeypatch.setenv("COLUMNS", "120")
    with pytest.raises(SystemExit):
        main(["--help"])
    capsys.readouterr()
    if columns is None:
        monkeypatch.delenv("COLUMNS")
    else:
        monkeypatch.setenv("COLUMNS", columns)
    for argv in ([], ["eval"], ["verify"], ["table"]):
        texts = []
        for parse in (main, cli_mod.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse([*argv, "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: wolstenholme")
