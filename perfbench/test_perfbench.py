"""Tests of the benchmark itself: percentile rule, metric names, failure
counting, the naive references, the tracer, and a tiny run of each workload.

They reuse the wolstenholme modules that pytest has already imported
(`run.set_up` re-imports the package, so it is not called here).
"""

from __future__ import annotations

import json
import re
from functools import partial
from pathlib import Path

import pytest

import wolstenholme.cli as cli
import wolstenholme.closedforms as cf
import wolstenholme.oracle as oracle
from perfbench import reference, run, tracing, workloads
from wolstenholme.modarith import make_prime
from wolstenholme.polyring import symbolic_coeff_table, symbolic_sum_table

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(autouse=True)
def one_thread(monkeypatch):
    monkeypatch.setenv("WOLSTENHOLME_THREADS", "1")


def run_once(passes):
    tally = run.Tally()
    run.run_passes(cli, passes, 0, tally, count=len(passes))
    return tally


# --- percentile rule and metric names ---------------------------------------

def test_percentile_needs_ten_samples_above():
    assert run.percentile(range(100), 90) == 89
    assert run.percentile(range(99), 90) is None
    assert run.percentile(range(20), 50) == 9
    assert run.percentile(range(19), 50) is None
    assert run.percentile(range(1000), 99) == 989
    assert run.percentile([], 50) is None


@pytest.mark.parametrize("name", ["setup_s", "modarith.weighted_row.hit_ratio",
                                  "verify.thm3.11.ns_per_instance", "9lives", "a-b_c"])
def test_metric_name_charset_accepts(name):
    assert NAME_RE.fullmatch(name)


@pytest.mark.parametrize("name", ["", ".self_s", "_x", "a b", "a/b", "x" * 65, "p90%"])
def test_metric_name_charset_rejects(name):
    assert not NAME_RE.fullmatch(name)


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == list(tracing.PER_LAYER)
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(set(names)) == len(names)
    for m in metrics:
        assert NAME_RE.fullmatch(m["name"]) and UNIT_RE.fullmatch(m["unit"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in BENCHMARK["end_to_end"])} in BENCHMARK["end_to_end"]


def test_missing_package_exits_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "cli-requests", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


# --- naive references --------------------------------------------------------

def test_reference_sums_match_the_worked_examples():
    assert reference.eval_sum(17, [(7, 9), (3, -13), (8, -8)]) == 8
    assert reference.eval_sum(17, [(14, 3), (10, 8), (4, 9)]) == 15
    assert reference.eval_sum(23, [(7, -16), (13, -17), (18, -19)]) == 0


def test_reference_tables_match_the_package():
    pr = make_prime(11)
    coeffs, sums = symbolic_coeff_table(pr, 6, 9), symbolic_sum_table(pr, 6, 9)
    assert all(reference.coeff_row(11, 6, 9, j) == _monomials(row) for j, row in enumerate(coeffs))
    assert all(reference.sum_row(11, 6, 9, s + 1) == _monomials(row) for s, row in enumerate(sums))
    mat = oracle.residue_matrix(pr, 4).entries
    assert all(reference.residue_cell(11, 4, m, n) == mat[m][n] for m in range(11) for n in range(11))


def _monomials(row):
    return {(i, j): c for i, j, c in row.monomials()}


@pytest.mark.parametrize("signed", [False, True])
def test_parse_poly_inverts_render(signed):
    pr = make_prime(13)
    for row in symbolic_sum_table(pr, 7, 5) + symbolic_coeff_table(pr, 12, 3):
        assert workloads.parse_poly(row.render(signed=signed), 13) == _monomials(row)


# --- failure counting ---------------------------------------------------------

def _eval(p, terms):
    check = partial(workloads.check_eval, p, terms)
    return workloads.Request("eval", ("eval", "-p", str(p), workloads.expression(terms)), 1, check)


GOOD = _eval(17, [(7, 9), (3, -13), (8, -8)])


def test_disagreeing_evaluator_is_counted_and_the_run_goes_on(monkeypatch):
    real = cli.eval_esp
    monkeypatch.setattr(cli, "eval_esp", lambda spec: (real(spec) + (spec.pr.p == 17)) % spec.pr.p)
    tally = run_once([[GOOD, _eval(23, [(1, 3), (5, 7), (2, 9)]), GOOD]])
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "exit 1" in tally.errors[0]


def test_wrong_but_unanimous_output_is_counted(monkeypatch):
    monkeypatch.setattr(cli, "evaluate_all", lambda spec: {"brute": 0, "closed": 0})
    tally = run_once([[GOOD, _eval(23, [(7, -16), (13, -17), (18, -19)])]])
    assert (tally.attempted, tally.failed) == (2, 1)  # the true sum at p = 23 is 0
    assert "want 8" in tally.errors[0]


def test_failed_verify_report_is_counted(monkeypatch):
    real = cf.triple_general
    monkeypatch.setattr(cf, "triple_general", lambda pr, a, b, m, n, s:
                        (real(pr, a, b, m, n, s) + (m == 2)) % pr.p)
    tally = run_once(workloads.closed_sweep(0, ids=("thm1.1", "thm3.6", "figures"), primes=(11,)))
    assert (tally.attempted, tally.failed) == (3, 1)
    assert "('thm3.6', 11) failed" in tally.errors[0]


def test_rejected_arguments_are_counted():
    request = workloads.Request("eval", ("eval", "--no-such-flag"), 1, GOOD.check)
    tally = run_once([[request, GOOD]])
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "exit 2" in tally.errors[0]


def test_shrunken_grid_is_counted():
    request = workloads.verify_request(("thm1.1",), (11,), 10_000, 0, {("thm1.1", 11): 32})
    tally = run_once([[request]])
    assert tally.failed == 1 and "pinned 32" in tally.errors[0]


# --- the workloads, tiny ------------------------------------------------------

def test_pinned_totals_add_up():
    assert sum(map(sum, workloads.IDENTITY_GRIDS.values())) == workloads.IDENTITY_TOTAL
    pinned = sum(g for grids in workloads.CLOSED_GRIDS.values() for g in grids if g)
    assert pinned + 1824 + 1847 == workloads.CLOSED_TOTAL_SEED0


@pytest.mark.parametrize("passes", [
    workloads.identity_sweep(3, primes=(5, 7, 11)),
    workloads.closed_sweep(3, ids=("thm1.1", "thm2.1", "thm3.4", "quickcase", "tablecorr",
                                   "figures"), primes=(11,)),
    workloads.sampled_verify(3, p=97, big_p=101, budget=100, general_budget=10),
    workloads.cli_requests(3, blocks=1),
], ids=["identity-sweep", "closed-sweep", "sampled-verify", "cli-requests"])
def test_smoke(passes):
    tally = run_once(passes)
    assert tally.failed == 0, tally.errors
    assert tally.attempted == sum(r.ops for r in passes[0])
    assert len(tally.probes) == tally.requests + 1


def test_verify_sweeps_send_one_request_per_theorem_and_prime():
    (sweep,) = workloads.identity_sweep(1)
    pairs = [(r.argv[r.argv.index("--theorems") + 1], int(r.argv[r.argv.index("--primes") + 1]))
             for r in sweep]
    assert pairs == [(t, p) for t in workloads.IDENTITY_IDS for p in workloads.IDENTITY_PRIMES]
    assert all(r.ops == 1 for r in sweep)


def test_calibration_divides_out_the_probe():
    slow = 2 * run.REF_PROBE_S
    tally = run.Tally(samples=[("eval", 0.010, 0), ("table", 0.030, 1)], probes=[slow] * 3)
    assert tally.calibrated() == [("eval", pytest.approx(0.005)), ("table", pytest.approx(0.015))]
    assert tally.busy == pytest.approx(0.040)


def test_cli_block_covers_every_cell_and_format():
    blocks = workloads.cli_requests(5, blocks=3)
    assert all(len(b) == 22 for b in blocks)
    tables = [r.argv for b in blocks for r in b if r.kind == "table"]
    for kind in ("sum-table", "coeff-table", "residue-matrix"):
        assert {a[a.index("-f") + 1] for a in tables if a[1] == kind} == set(workloads.FORMATS)
    assert workloads.cli_requests(5, blocks=3)[2][0].argv == blocks[2][0].argv


# --- the tracer ---------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores_them():
    original = oracle.brute_sum
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unpatched() == []
        assert cli.brute_sum is not original and cli.brute_sum.__wrapped__ is original
        tally = run_once(workloads.cli_requests(2, blocks=1)
                         + workloads.identity_sweep(2, primes=(5, 7)))
    finally:
        tracer.uninstall()
    assert cli.brute_sum is original and oracle.brute_sum is original
    assert tally.failed == 0
    assert tracer.missing(("cli", "oracle.brute_sum", "identities", "verify.thm3.13")) == []
    assert tracer.missing(("modarith.mod_pow",)) == ["modarith.mod_pow"]
    metrics = tracer.metrics(2.0)
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    assert metrics["oracle.brute_sum.calls"] == 22 - 3
    assert metrics["verify.thm3.13.ns_per_instance"] > 0
    assert 0 < metrics["modarith.weighted_row.hit_ratio"] < 1
    assert all(metrics[f"{layer}.self_s"] > 0 for layer in tracing.LAYERS)
