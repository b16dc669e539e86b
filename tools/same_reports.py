"""Check that two source trees write the same `verify` reports, tables and
`eval` values.

    python3 tools/same_reports.py PARENT_DIR [--tree TREE_DIR]

Runs every command of COMMANDS as `python3 -m wolstenholme.cli ARGS` in
PARENT_DIR and in TREE_DIR (by default the tree holding this script), each
with PYTHONPATH=<tree>/src, the two trees side by side, and compares their
stdout.  A `verify` report loses the `elapsed_s` field of every line, the
only one that may differ, before the comparison; a table or an `eval` value
must match byte for byte.  Commands are split on whitespace, so an `eval`
expression is written without spaces (the grammar ignores them).  Prints one line per command and a diff of any output that differs;
exits 1 if any does (or if a command fails to run), else 0.  A full run takes
under a minute on two cores.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# the arguments of each command whose stdout must match
COMMANDS = tuple("verify " + args for args in (
    "--theorems all --primes 5,7,11,13 --seed 0",
    "--theorems all --primes 17,31,97 --budget 500 --seed 7",
    "--theorems thm3.11,thm3.13,cor3.12 --primes 257,1009 --budget 1000 --seed 3",
    # sampled identity points at a prime where each one reads a fraction of
    # the tables: cong_general's terms from the factorial tables alone
    "--theorems thm3.11,thm3.13,cor3.12 --primes 3001 --budget 1000 --seed 5",
    "--theorems thm2.1,thm2.3,rem2.5,thm2.6,thm2.8,thm3.1,thm3.4,thm3.5,thm3.6,figures"
    " --primes 5,7,11,13 --budget 100000",
    "--theorems thm3.11,thm3.13,cor3.12 --primes 5..23 --budget 100000000 --seed 0",
    # the exhaustive weighted-sum grid at a prime with 4-byte chain slots
    # (p = 13..181); the 2- to 4-byte edge (p = 11 to 13) is in 5..23 above,
    # and the 4- to 8-byte one (p = 181 to 191) is too slow to sweep here
    "--theorems thm3.13 --primes 31 --budget 100000000 --seed 0",
    # the exhaustive coefficient-congruence grid at three primes with 4-byte
    # chain slots (p = 13..181)
    "--theorems thm3.11 --primes 29,31,37 --budget 100000000 --seed 0",
    "--theorems vandermonde,thm3.13,cor3.12 --primes 5..97 --seed 0",
    "--theorems thm2.1,thm2.3,rem2.5,thm2.6,thm2.8,thm3.1,thm3.4,thm3.5,thm3.6,quickcase,"
    "thm4.1,thm4.4,thm4.5 --primes 257 --budget 300 --seed 5",
    "--theorems thm2.3,thm3.6 --primes 1009 --budget 300 --seed 2",
    # triple_binomial over windows of hundreds of terms, where conv takes its
    # pass in b/a
    "--theorems thm3.1 --primes 1009 --budget 300 --seed 2",
    "--theorems thm1.2,thm1.3 --primes 5..97 --mod p",
    # whole sampled rows of m_n at three primes
    "--theorems thm4.1,thm4.4,thm4.5 --primes 11,13,97 --seed 1",
    # every box sampled at the row threshold: budget L^2 = 169 for the last
    # range of thm2.1 and thm2.3 at p = 13, past it everywhere else
    "--theorems thm2.1,thm2.3,rem2.5,thm2.6,thm2.8,thm3.1,thm3.4,thm3.5,thm3.6 --primes 11,13"
    " --budget 169 --seed 4",
    # arity 2 enumerated in whole rows (69,632 points), arities 3 and 4 in
    # sampled rows, at p = 17
    "--theorems thm4.1,thm4.4,thm4.5 --primes 17 --budget 70000 --seed 2",
    # every arity enumerated at p = 5 (the whole n-term grid, 34,880 points),
    # arity 2 enumerated and arities 3 and 4 sampled at p = 7
    "--theorems thm4.1,thm4.4,thm4.5 --primes 5,7 --budget 30720 --seed 0",
    # rows of isqrt(40) = 6 drawn exponents at a small prime
    "--theorems thm2.1,thm2.3,thm3.6,thm4.1,thm4.4,thm4.5 --primes 13 --budget 40 --seed 7",
)) + tuple("table " + args for args in (
    "coeff-table -p 11 -m 7 -n 7",
    "coeff-table -p 97 -m 48 -n 50 -f json",
    "coeff-table -p 89 -m 40 -n 37 -f csv",
    "coeff-table -p 61 -m 30 -n 25 --signed",
    "coeff-table -p 31 -m 1 -n 17",
    "coeff-table -p 13 -m 12 -n 12 -f csv",
    "sum-table -p 11 -m 6 -n 9",
    "sum-table -p 53 -m 27 -n 25 -f json",
    "sum-table -p 47 -m 20 -n 22 -f csv",
    "sum-table -p 41 -m 18 -n 16 --signed",
    "sum-table -p 31 -m 1 -n 1 -f json",
    "sum-table -p 13 -m 12 -n 12",
    "sum-table -p 13 -m 12 -n 12 -f csv --signed",
    "residue-matrix -p 31 -a 5",
    # the residue matrix and power sums read from packed power rows alone
    "residue-matrix -p 257 -a 100 -f json",
    "sum-table -p 2003 -m 3 -n 4 -f csv",
)) + tuple("eval " + args for args in (
    "-p 1009 (1+k)^500(2+k)^600(3+k)^700(5+k)^800k^900",
    "-p 97 (3+k)^40(7+k)^50/((11+k)^20k^30)",
    "--strategy coeff -p 1009 " + "".join(f"({i}+k)^1000" for i in range(1, 31)),
    "--strategy closed -p 97 (3+k)^40(7+k)^50/((11+k)^20k^30)",
    "--strategy esp -p 1009 (1+k)^500(2+k)^600(3+k)^700(5+k)^800k^900",
    "-p 11 1/(4+k)^10",
    # repeated offsets and cancelling factors: the merge in normalize_spec
    "-p 11 (3+k)^4(3+k)^9/(3+k)^10",
    "-p 13 (2+k)^5(15+k)^7k^3/(2+k)^12",
    "--strategy closed -p 13 (2+k)^5(15+k)^7k^3/(2+k)^12",
    "-p 31 (1+k)^20(2+k)^25(3+k)^29(4+k)^30/((1+k)^7(5+k)^30)",
    "--strategy esp -p 31 (1+k)^20(2+k)^25(3+k)^29(4+k)^30/((1+k)^7(5+k)^30)",
    "-p 7 (3+k)^6/(3+k)^6",
    "-p 7 k/k",
    "-p 17 (7+k)^9/((3+k)^13(8+k)^8)",
    # deep esp recurrence runs (r up to 592, 792 and 642) and one packed middle
    # step of the multi-index route at p = 1009
    "-p 1009 (3+k)^700(10+k)^900",
    "-p 1009 (2+k)^800(7+k)^600k^400",
    "-p 1009 (1+k)^400(5+k)^500(9+k)^450k^300",
    # closed forms at a prime far past every other command's, where a Prime
    # builds only what the route reads
    "--strategy closed -p 1000003 (1+k)^2(2+k)^3",
    "--strategy closed -p 1000003 1/((1+k)(2+k)^3)",
    # T3 at p = 100003: triple_general sums windows of about 50,000 terms
    "--strategy closed -p 100003 (1+k)^99990(2+k)^99986(3+k)^50001",
    # the coeff route's one factor row and a two-step esp recurrence at that
    # prime
    "--strategy coeff -p 1000003 (1+k)^2(2+k)^3",
    "--strategy esp -p 1000003 (1+k)^999999(2+k)^5",
    # the brute oracle's negative columns, each its positive twin read
    # through column -1, at that prime
    "--strategy brute -p 1000003 1/((1+k)(2+k)^3)",
    # the esp recurrence to r = 10002, and every route with the esp one to
    # r = 3994, at p = 10007
    "--strategy esp -p 10007 1/((1+k)(2+k)^3)",
    "-p 10007 (1+k)^4000(2+k)^5000(5+k)^3000k^2000",
    # the brute oracle's sieve columns at each column code: B at p = 251, H
    # at p = 257 with deep exponents, and I at p = 65537
    "-p 251 (3+k)^200(7+k)^150(10+k)^90/(2+k)^40",
    "-p 257 (1+k)^250(4+k)^200(9+k)^230k^180",
    "--strategy brute -p 65537 (1+k)^60000(2+k)^32768(5+k)^65535/(3+k)^4097",
))

_ELAPSED = re.compile(r'"elapsed_s": [^,}]*(, )?')


def without_elapsed(report: str) -> list[str]:
    """The lines of a JSON-lines report, each without its elapsed_s field."""
    return [_ELAPSED.sub("", line) for line in report.splitlines()]


def diff_reports(old: str, new: str) -> list[str]:
    """A unified diff of two reports once elapsed_s is removed; empty when
    they are the same."""
    return list(difflib.unified_diff(without_elapsed(old), without_elapsed(new),
                                     "parent", "tree", lineterm=""))


def diff_outputs(command: str, old: str, new: str) -> list[str]:
    """A unified diff of two outputs of command, empty when they are the
    same: reports without elapsed_s, anything else byte for byte."""
    if command.startswith("verify "):
        return diff_reports(old, new)
    if old == new:
        return []
    diff = difflib.unified_diff(old.splitlines(), new.splitlines(), "parent", "tree",
                                lineterm="")
    return list(diff) or ["(the outputs differ only in line endings)"]


def run(tree: Path, command: str, out: Path) -> subprocess.Popen:
    """Start `wolstenholme.cli COMMAND` in tree; its stdout goes to OUT and
    its stderr to OUT.err."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "wolstenholme.cli", *command.split()]
    with open(out, "w") as fh, open(out.with_suffix(".err"), "w") as err:
        return subprocess.Popen(argv, env=env, stdout=fh, stderr=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the tree to compare against")
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the tree under test (default: the one holding this script)")
    args = parser.parse_args(argv)
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, command in enumerate(COMMANDS):
            outs = [Path(tmp) / f"{side}{i}.out" for side in ("parent", "tree")]
            procs = [run(tree, command, out) for tree, out in zip((args.parent, args.tree), outs)]
            codes = [proc.wait() for proc in procs]
            if any(code not in (0, 1) for code in codes):
                print(f"ERROR {command}")
                for code, out in zip(codes, outs):
                    last = out.with_suffix(".err").read_text().strip().splitlines()[-1:]
                    print(f"  exit {code}: {' '.join(last)}")
                bad += 1
                continue
            diff = diff_outputs(command, *(out.read_bytes().decode() for out in outs))
            print(f"{'DIFFER' if diff else 'same'} {command}", flush=True)
            if diff:
                print("\n".join(diff))
                bad += 1
    print(f"{len(COMMANDS) - bad} of {len(COMMANDS)} commands wrote the same output")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
