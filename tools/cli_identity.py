"""Check that the command line prints the same bytes as a git revision.

Run from the repository root, for example:

    python3 tools/cli_identity.py --parent HEAD~1

Each case is one `python -m depolqfi.cli ...` invocation, run once with the
`src` of a fresh `git archive` of the parent revision (default HEAD) and
once with this working tree's `src`, each in an empty directory. The two
runs must agree on stdout, stderr, exit code and the file that `-o` names.
One line per case; the exit code is 1 if any case differs. Standard
library only.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = "out.txt"  # the -o file of the cases that write one

_GRID = ["--r-grid", "0:1:4", "--lambda-grid", "0:0.9:3"]
_POINT = ["--r", "0.5", "--lambda", "0.7"]
PROTOCOLS = ("sqsc", "independent", "sequential", "correlated", "corr_vs_seq")

CASES: list[list[str]] = [
    *(
        ["eval", "--protocol", p, "--n", "4", "--m", "2", *_POINT, *fmt]
        for p in PROTOCOLS
        for fmt in ([], ["--format", "json"])
    ),
    *(
        ["sweep", "--protocol", p, "--n", "3,4", "--m", "1,3", *_GRID, *fmt]
        for p in PROTOCOLS
        for fmt in ([], ["--format", "json"])
    ),
    # the edges of the plain-number path of the single-qubit protocols
    *(
        ["eval", "--protocol", p, "--m", "3", "--r", r, "--lambda", lam]
        for p in PROTOCOLS[:3]
        for r, lam in (
            ("0", "0.7"), ("1", "0.7"), ("0.5", "0"), ("0.5", "-0"), ("0.5", "0.999999"),
        )
    ),
    ["eval", "--protocol", "correlated", "--n", "5", "--m", "3", "--r", "0",
     "--lambda", "0.7"],
    # block eigenvalues near 0 that are not rank drops: r = 1, lambda near 1
    ["eval", "--protocol", "correlated", "--n", "1", "--m", "1", "--r", "1",
     "--lambda", "0.99999999999997"],
    ["eval", "--protocol", "correlated", "--n", "5", "--m", "2", "--r", "1",
     "--lambda", "0.9999999999999998"],
    ["sweep", "--protocol", "correlated", "--n", "3,5", "--m", "1,2",
     "--r-grid", "1:1:1", "--lambda-grid", "0.999999:0.9999999999999:3"],
    # empty gains, inf bounds and the lambda = 1 limit
    ["eval", "--protocol", "sequential", "--m", "3", "--r", "0", "--lambda", "0.5"],
    ["eval", "--protocol", "correlated", "--n", "3", "--m", "2", "--r", "0.5",
     "--lambda", "1", "--include-limit", "--format", "json"],
    # a count far past any qubit count, still below 2**53
    ["eval", "--protocol", "sequential", "--m", "1000000000000", "--r", "0.5",
     "--lambda", "0.5"],
    # grid order: unsorted, descending, a repeated value and signed zeros
    ["sweep", "--protocol", "correlated", "--n", "4,2", "--m", "2,1",
     "--r-grid", "0.9:0.1:5", "--lambda-grid", "0.8:0.2:4"],
    ["sweep", "--protocol", "sequential", "--n", "2,1", "--m", "3,1",
     "--r-grid", "0.6:0.5:2", "--lambda-grid", "0.5:0.5:3", "--format", "json"],
    ["sweep", "--protocol", "independent", "--n", "3,4", "--m", "1,2",
     "--r-grid", "0.5:0.5:2", "--lambda-grid", "0.5:0.5:1"],
    ["sweep", "--protocol", "sqsc", "--r-grid=-0:0:2", "--lambda-grid", "0:0.5:2"],
    ["sweep", "--protocol", "sqsc", "--r-grid=-0:-0:2", "--lambda-grid", "0:0.5:2"],
    ["sweep", "--protocol", "correlated", "--n", "3", "--m", "1,2",
     "--r-grid=-0:-0:2", "--lambda-grid=-0:-0:2", "--format", "json"],
    # a repeated nonzero r against several lambda, and a one-value lambda grid
    ["sweep", "--protocol", "correlated", "--n", "4,3", "--m", "2",
     "--r-grid", "0.5:0.5:2", "--lambda-grid", "0.7:0.1:3"],
    ["sweep", "--protocol", "corr_vs_seq", "--n", "4,3", "--m", "1,3",
     "--r-grid", "0.5:0.5:2", "--lambda-grid", "0.7:0.1:3", "--format", "json"],
    ["sweep", "--protocol", "corr_vs_seq", "--n", "12", "--m", "1,6,12",
     "--r-grid", "0.05:0.95:19", "--lambda-grid", "0.65:0.65:1", "--format", "json"],
    # the largest advertised n
    ["sweep", "--protocol", "correlated", "--n", "60", "--m", "1,30,60",
     "--r-grid", "0:1:5", "--lambda-grid", "0:0.99:4"],
    ["sweep", "--protocol", "correlated", "--n", "60", "--m", "1,30,60",
     "--r-grid", "0:1:6", "--lambda-grid", "0:0.95:5"],
    # grids whose chunks of points split a row of lambda values, one with a
    # descending r grid
    ["sweep", "--protocol", "correlated", "--n", "40", "--m", "20",
     "--r-grid", "0:1:3", "--lambda-grid", "0:0.99:300"],
    ["sweep", "--protocol", "correlated", "--n", "30", "--m", "10,15",
     "--r-grid", "0.9:0.1:5", "--lambda-grid", "0:0.99:100"],
    # m = n >= 2 at lambda = 0: every qubit's marginal is I/2, so H is exactly 0
    ["eval", "--protocol", "correlated", "--n", "8", "--m", "8", "--r", "0.1",
     "--lambda", "0"],
    # the most channel bits, at one point
    ["eval", "--protocol", "correlated", "--n", "60", "--m", "60", "--r", "0.5",
     "--lambda", "0.5"],
    # points where the slope's terms cancel from O(1) down to a tiny QFI
    *(
        ["eval", "--protocol", "correlated", "--n", n, "--m", m, "--r", r,
         "--lambda", lam]
        for n, m, r, lam in (
            ("30", "30", "1e-9", "1e-9"), ("4", "4", "5.3e-8", "6.8e-8"),
            ("5", "3", "1e-9", "1e-9"), ("18", "7", "1.06e-9", "0.035"),
            ("57", "57", "9.9e-6", "1.2e-5"), ("25", "25", "0.435", "1.39e-6"),
            ("21", "9", "1.37e-5", "0.0939"), ("1", "1", "1e-9", "0"),
            ("2", "2", "1", "1e-9"), ("12", "12", "1", "1e-9"),
        )
    ),
    # one correlated point in plain floats: corr_vs_seq in both formats, and
    # the inputs where math raises and numpy does not: r = 0, lambda = 0 at
    # m = n, r = 1 (b = 0) at lambda = 0; then the most (u, v) profiles
    *(
        ["eval", "--protocol", "corr_vs_seq", "--n", "14", "--m", "7", "--r", "0.35",
         "--lambda", "0.65", *fmt]
        for fmt in ([], ["--format", "json"])
    ),
    *(
        ["eval", "--protocol", "correlated", "--n", n, "--m", m, "--r", r,
         "--lambda", lam]
        for n, m, r, lam in (
            ("5", "5", "0", "0.5"), ("5", "5", "0.5", "0"), ("5", "2", "1", "0"),
            ("60", "30", "0.5", "0.7"),
        )
    ),
    # the pure state through a noiseless channel, r = lambda = 1: inf
    *(
        ["eval", "--protocol", "correlated", "--n", n, "--m", m, "--r", "1",
         "--lambda", "1", "--include-limit"]
        for n, m in (("1", "1"), ("3", "2"), ("5", "5"), ("60", "60"))
    ),
    ["sweep", "--protocol", "correlated", "--n", "3", "--m", "1,2",
     "--r-grid", "0.5:1:2", "--lambda-grid", "0.5:1:2", "--include-limit"],
    # r = 1 - 2^-52, lambda = 1: p_+ underflows to 0 under a live slope, and
    # the rank-drop rule alone gives inf, in math floats and (534 800 work
    # units, 6 of its 4 200 rows inf) on numpy arrays
    ["eval", "--protocol", "correlated", "--n", "22", "--m", "1", "--r",
     "0.9999999999999998", "--lambda", "1", "--include-limit"],
    ["sweep", "--protocol", "correlated", "--n", "22", "--m", "1,11,22",
     "--r-grid", "0.9999999999999998:1:2", "--lambda-grid", "0.99:1:700",
     "--include-limit", "-o", OUT],
    ["sweep", "--protocol", "corr_vs_seq", "--n", "5", "--m", "1,5", *_GRID, "-o", OUT],
    ["sweep", "--protocol", "correlated", "--n", "3", "--m", "2", *_GRID,
     "--format", "json", "-o", OUT],
    *(["figure", name] for name in (
        "seq-gain-m3", "corr-gain-n2-m1", "corr-gain-n5-m1",
        "corr-gain-n4-multi", "corr-vs-seq-n4", "cutoff",
    )),
    ["figure", "corr-gain-n4-multi", "-o", OUT],
    # each side of evaluate.PLAIN_WORK = 2e5 work units: at n = 14 and
    # m = 1..7 a point holds 602, so 330 points run in math floats and 333
    # on numpy arrays; at (60, 30) a point holds 1074, and 153 points run in
    # math floats
    *(
        ["sweep", "--protocol", "corr_vs_seq", "--n", "14", "--m", "1,2,3,4,5,6,7",
         "--r-grid", "0:1:3", "--lambda-grid", f"0:0.99:{count}", "-o", OUT]
        for count in ("110", "111")
    ),
    ["sweep", "--protocol", "correlated", "--n", "60", "--m", "30",
     "--r-grid", "0.1:0.9:9", "--lambda-grid", "0.1:0.9:17", "--format", "json",
     "-o", OUT],
    ["figure", "cutoff", "-o", OUT],
    # the references, once per grid and per carried m: single-qubit rows on
    # large grids, two n sharing each m, and r = 0 rows on either side
    ["sweep", "--protocol", "sequential", "--m", "1,3,5", "--r-grid", "0:1:90",
     "--lambda-grid", "0:0.99:90", "-o", OUT],
    # a single-qubit sweep that ran on numpy arrays until the single-qubit
    # forms took axes in math floats: -0.0 and 1 rows, lambda close to 1
    ["sweep", "--protocol", "sequential", "--m", "1,2,7", "--r-grid=-0:1:121",
     "--lambda-grid", "0:0.999999:121", "-o", OUT],
    ["sweep", "--protocol", "independent", "--m", "1,2,3", "--r-grid", "0:1:90",
     "--lambda-grid", "0:0.99:90", "--format", "json", "-o", OUT],
    ["sweep", "--protocol", "corr_vs_seq", "--n", "10,12", "--m", "3,5",
     "--r-grid", "0:1:5", "--lambda-grid", "0:1:5", "--include-limit", "-o", OUT],
    ["sweep", "--protocol", "correlated", "--n", "60", "--m", "1,30,60",
     "--r-grid", "0:1:21", "--lambda-grid", "0:0.99:20", "-o", OUT],
    ["sweep", "--protocol", "correlated", "--n", "14", "--m", "7",
     "--r-grid", "0:1:5", "--lambda-grid", "0:0.95:20"],
    # above PLAIN_WORK (708 000 units): lambda = 1, the r = lambda = 1 inf
    # rule and a -0.0 row on numpy arrays
    ["sweep", "--protocol", "correlated", "--n", "40", "--m", "20,40",
     "--r-grid=-0:1:5", "--lambda-grid", "0:1:200", "--include-limit", "-o", OUT],
    ["table", "spectator"],
    ["table", "I"],
    ["table", "all-qubits", "-o", OUT],
    ["correlations", "--m", "2", "--r", "0.5", "--lambda", "0.5"],
    ["correlations", "--m", "1", "--r", "0.8", "--lambda", "0.6"],
    ["verify", "--n", "3", "--m", "2", *_POINT],
    ["verify", "--grid", "--max-n", "3", "-o", OUT],
    # the 720-point grid up to n = 8
    ["verify", "--grid", "--max-n", "8", "-o", OUT],
    # a grid where some points fail (exit 1): every report is still written
    ["verify", "--grid", "--max-n", "4", "--tol", "0", "-o", OUT],
    # one side of the comparison infinite
    ["verify", "--n", "6", "--m", "5", "--r", "0.9999999", "--lambda", "0.9999999"],
    # the benchmark's size, and a point the oracle cannot resolve (exit 1)
    *(["verify", "--n", "8", "--m", m, "--r", "0.35", "--lambda", "0.65"] for m in "24"),
    ["verify", "--n", "7", "--m", "7", "--r", "1", "--lambda", "0.99996"],
    # n = 10, where the butterflies' strides differ most from n = 8
    ["verify", "--n", "10", "--m", "5", "--r", "0.35", "--lambda", "0.65"],
    # error exits
    ["eval", "--protocol", "sqsc", "--r", "1.5", "--lambda", "0.5"],
    # inputs with several faults: the first check's message wins
    ["eval", "--protocol", "sqsc", "--n", "0", "--m", "1", "--r", "2.0",
     "--lambda", "0.5"],
    ["eval", "--protocol", "correlated", "--n", "3", "--m", "2", "--r", "0.5",
     "--lambda=-0.5", "--include-limit"],
    ["eval", "--protocol", "sqsc", "--r", "0.5", "--lambda", "1.0", "--include-limit"],
    ["eval", "--protocol", "correlated", "--n", "2", "--m", "3", *_POINT],
    ["eval", "--protocol", "correlated", "--n", "2", "--m", "1", "--r", "0.5",
     "--lambda", "1"],
    ["sweep", "--protocol", "sqsc", "--r-grid", "0:1"],
    # a grid with an infinite stop: refused as not finite
    ["sweep", "--protocol", "sqsc", "--r-grid", "0:inf:3", "--lambda-grid", "0:0.5:2"],
    ["sweep", "--protocol", "sqsc", "--n", "1,b"],
    ["sweep", "--protocol", "sqsc", *_GRID, "-o", "missing/out.csv"],
    ["verify", "--n", "3"],
    ["verify", "--grid", "--max-n", "0"],
    # the dense cap, n <= 12
    ["verify", "--n", "13", "--m", "1", "--r", "0.5", "--lambda", "0.5"],
    ["verify", "--grid", "--max-n", "13"],
    # the grid's first fault: --max-n, then the cap, then --tol
    ["verify", "--grid", "--max-n", "2", "--tol", "nan"],
    ["verify", "--grid", "--max-n", "13", "--tol", "nan"],
    # one-point options with --grid, and --max-n without it
    ["verify", "--grid", "--max-n", "1", "--n", "5", "--m", "9", "--r", "2"],
    ["verify", "--n", "2", "--m", "1", "--r", "0.5", "--lambda", "0.5", "--max-n", "0"],
    # argparse's own exits: help, and a usage error (--r is missing)
    ["--help"],
    ["eval", "--protocol", "sqsc", "--lambda", "0.5"],
    # stdout larger than a 64 KiB pipe buffer (about 250 KB)
    ["sweep", "--protocol", "correlated", "--n", "10", "--m", "1,5",
     "--r-grid", "0:1:30", "--lambda-grid", "0:0.95:30"],
    # a 1x1 correlated sweep at a point where a (1, 1) array and a number
    # once rounded apart in the last bit
    ["sweep", "--protocol", "correlated", "--n", "35", "--m", "23",
     "--r-grid", "0.5753340342325569:0.5753340342325569:1",
     "--lambda-grid", "0.4758537503353373:0.4758537503353373:1", "--format", "json"],
    # the math kernel on a grid's axes: several shapes, r = 0 rows, and the
    # r = -0.0 and r = 1 rows at lambda = 1
    ["sweep", "--protocol", "correlated", "--n", "3,5", "--m", "2,4",
     "--r-grid", "0:1:3", "--lambda-grid", "0:0.9:3"],
    ["sweep", "--protocol", "correlated", "--n", "6", "--m", "1,3,6",
     "--r-grid=-0:1:5", "--lambda-grid", "0:1:5", "--include-limit"],
    # a grid's first fault, once per carried (n, m): m > n on one shape
    # before the cap on another, and the cap after a valid shape
    ["sweep", "--protocol", "corr_vs_seq", "--n", "61,2", "--m", "3,1"],
    ["sweep", "--protocol", "correlated", "--n", "10,61", "--m", "1",
     "--r-grid", "0:1:3", "--lambda-grid", "0:0.9:3"],
    ["eval", "--protocol", "correlated", "--n", "61", "--m", "1", *_POINT],
]


def run_case(src: Path, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr, the -o file or None) of one invocation."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory(prefix="cli-identity-") as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "depolqfi.cli", *argv],
            cwd=tmp, env=env, capture_output=True,
        )
        out = Path(tmp, OUT)
        written = out.read_bytes() if out.is_file() else None
    return proc.returncode, proc.stdout, proc.stderr, written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare with")
    args = parser.parse_args(argv)
    archive = subprocess.run(
        ["git", "archive", args.parent], cwd=ROOT, check=True, capture_output=True
    ).stdout
    differing = 0
    with tempfile.TemporaryDirectory(prefix="cli-identity-parent-") as parent:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent, filter="data")
        for case in CASES:
            before = run_case(Path(parent, "src"), case)
            after = run_case(ROOT / "src", case)
            diff = [
                part
                for part, old, new in zip(("exit", "stdout", "stderr", OUT), before, after)
                if old != new
            ]
            differing += bool(diff)
            verdict = "differs in " + ", ".join(diff) if diff else "identical"
            print(f"{verdict}  (exit {after[0]})  depolqfi {' '.join(case)}")
    print(f"{len(CASES) - differing} of {len(CASES)} cases identical to {args.parent}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
