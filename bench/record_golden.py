"""Record the golden values that the benchmark checks outputs against.

Run from the repository root:  python3 bench/record_golden.py

It evaluates the library in-process on the golden lattice
(r, lambda in 0.05, 0.20, ..., 0.95) for every (n, m) the workloads use,
and writes bench/golden.json. The recorded file pins the values of the
commit that introduced the benchmark; re-record only to correct it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from depolqfi import asymptotics, correlations  # noqa: E402
from depolqfi.cli import evaluate_point  # noqa: E402

import workloads as wl  # noqa: E402

SIGNIFICANT = 13


def rounded(value: float) -> float:
    if not math.isfinite(value):
        raise SystemExit(f"non-finite golden value {value!r}")
    return float(f"{value:.{SIGNIFICANT - 1}e}")


def grid(fn) -> list[float]:
    """fn(r, lam) over the golden lattice, r-major."""
    values = [wl.lattice_value(i) for i in wl.GOLDEN_INDICES]
    return [rounded(fn(r, lam)) for r in values for lam in values]


def qfi(protocol: str, n: int, m: int):
    return lambda r, lam: evaluate_point(protocol, n, m, r, lam).qfi


def main() -> None:
    ns = [wl.VERIFY_N, *wl.SWEEP_NS]
    eval_ms = range(1, wl.EVAL_MAX_M + 1)
    data = {
        "correlated": {
            wl.key(n, m): grid(qfi("correlated", n, m)) for n in ns for m in range(1, n + 1)
        },
        "sqsc": grid(qfi("sqsc", 1, 1)),
        "independent": {wl.key(m): grid(qfi("independent", m, m)) for m in eval_ms},
        "sequential": {wl.key(m): grid(qfi("sequential", 1, m)) for m in eval_ms},
        "table": {
            which: [
                [rec.lam, rec.m_opt, "" if rec.tie_partner is None else str(rec.tie_partner),
                 rounded(rec.optimal_gain_coefficient)]
                for rec in asymptotics.optimal_invocation_table(mode)
            ]
            for which, mode in (("spectator", "spectator"), ("all-qubits", "all_qubits"))
        },
        "cutoff": [
            [c.m, rounded(c.cutoff), rounded(c.squared_cutoff)]
            for c in map(asymptotics.sequential_cutoff, range(1, wl.CUTOFF_ROWS + 1))
        ],
    }
    for field in ("discord", "ppt_min_eigenvalue", "separability_threshold_r"):
        data[f"correlations.{field}"] = {
            wl.key(m): grid(
                lambda r, lam: getattr(correlations.correlation_report(m, r, lam), field)
            )
            for m in wl.CORRELATIONS_MS
        }
    with open(wl.GOLDEN_PATH, "w") as handle:
        json.dump(data, handle, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    main()
