import importlib.util
from pathlib import Path

from wolstenholme.cli import _parse_primes, build_parser
from wolstenholme.verify import REGISTRY, resolve_theorems

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_reports.py"
_SPEC = importlib.util.spec_from_file_location("same_reports", _PATH)
same_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_reports)

LINE = ('{"theorem": "thm2.1", "p": 7, "grid": 294, "pass": true, "failures": [], '
        '"failure_count": 0, "elapsed_s": %s, "strategies": ["brute", "closed"], '
        '"exhaustive": true, "seed": null}\n')


def test_reports_that_differ_only_in_elapsed_s_are_the_same():
    assert same_reports.diff_reports(LINE % "0.012345", LINE % "3.2e-05") == []
    assert "elapsed_s" not in same_reports.without_elapsed(LINE % "1.5")[0]


def test_any_other_difference_is_reported():
    old, new = LINE % "0.1", (LINE % "0.1").replace('"grid": 294', '"grid": 293')
    diff = same_reports.diff_reports(old, new)
    assert any(line.startswith("-") and '"grid": 294' in line for line in diff)
    assert any(line.startswith("+") and '"grid": 293' in line for line in diff)
    # a missing or an extra line differs too
    assert same_reports.diff_reports(old, old + old) != []


def test_tables_must_match_byte_for_byte():
    table = "table sum-table -p 11 -m 6 -n 9"
    text = "1: 10 a^6 + a^5 b\n"
    assert same_reports.diff_outputs(table, text, text) == []
    assert same_reports.diff_outputs(table, text, text.replace("10", "9")) != []
    assert same_reports.diff_outputs(table, text, text.replace("\n", "\r\n")) != []
    # only a verify report loses its elapsed_s field
    assert same_reports.diff_outputs("verify --primes 7", LINE % "0.1", LINE % "0.2") == []


def test_table_commands_cover_kinds_formats_and_corners():
    tables = [c.split()[1:] for c in same_reports.COMMANDS if c.startswith("table ")]
    for kind in ("coeff-table", "sum-table"):
        argvs = [a for a in tables if a[0] == kind]
        assert {a[a.index("-f") + 1] if "-f" in a else "text" for a in argvs} == {
            "text", "json", "csv"}
        assert any("--signed" in a for a in argvs)
        assert any(a[a.index("-m") + 1] == "1" for a in argvs)
        assert any(a[a.index("-m") + 1] == a[a.index("-n") + 1] == str(int(a[2]) - 1)
                   for a in argvs)
    assert any(a[0] == "residue-matrix" for a in tables)


def test_some_command_enumerates_every_counted_grid():
    # a grid with a count is enumerated when the count fits the budget (an
    # n-term grid's is that of arity 4; its arities may still be enumerated
    # one by one), so every such grid is compared whole at some prime
    counted = {tid for tid, theorem in REGISTRY.items() if theorem.run.count is not None}
    parser = build_parser()
    whole = set()
    for command in same_reports.COMMANDS:
        if command.startswith("verify "):
            args = parser.parse_args(command.split())
            for tid in counted.intersection(resolve_theorems(args.theorems.split(","))):
                if any(REGISTRY[tid].run.count(p) <= args.budget
                       for p in _parse_primes(args.primes)):
                    whole.add(tid)
    assert len(counted) == 16 and whole == counted


def test_a_table_command_runs_and_matches_its_golden_file(tmp_path):
    tree = Path(__file__).resolve().parents[1]
    out = tmp_path / "table.out"
    assert same_reports.run(tree, "table sum-table -p 11 -m 6 -n 9", out).wait() == 0
    golden = (tree / "tests" / "golden" / "sum_table_p11_m6_n9.txt").read_bytes()
    assert out.read_bytes() == golden
