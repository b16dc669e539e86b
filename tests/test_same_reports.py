import importlib.util
from pathlib import Path

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
