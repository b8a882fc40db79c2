"""Self-test of the benchmark. Run from the repository root:

    python3 bench/selftest.py

It checks that
- BENCHMARK.json names the workloads and metrics that run.py reports;
- the generators stay in the region where the seed commit's closed form is
  finite: n <= 14 and r, lambda in [0.05, 0.95];
- the output checks compare against a tolerance: a change below 1e-9
  relative passes, one above fails;
- two traced runs with the same seed repeat every count exactly, report
  correlated.inf_ratio = 0, and oracle.pass_ratio = 1 where the workload
  verifies.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads as wl

ROOT = Path.cwd()
SEEDS = range(100)
CYCLES = 3
LO, HI = 0.05, 0.95


def expect(condition: bool, message) -> None:
    """Like assert, but also under python -O."""
    if not condition:
        raise AssertionError(message)


def check_manifest() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in manifest["workloads"]] == list(wl.WORKLOADS), "workload names")
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    expect(e2e == run.END_TO_END_UNITS, f"end_to_end metrics {e2e}")
    layers = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    expect(layers == run.per_layer_units(), "per_layer metrics")


def flag_values(argv: tuple[str, ...], flag: str) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv) if a == flag]


def check_region() -> None:
    for workload in wl.WORKLOADS:
        for seed in SEEDS:
            schedule = wl.cycles(workload, seed)
            for op in (op for _ in range(CYCLES) for op in next(schedule)):
                n = int((flag_values(op.argv, "--n") or ["1"])[0])
                expect(1 <= n <= 14, op.argv)
                for m in (int(x) for raw in flag_values(op.argv, "--m") for x in raw.split(",")):
                    expect(1 <= m <= (n if "--n" in op.argv else 14), op.argv)
                values = [float(v) for f in ("--r", "--lambda") for v in flag_values(op.argv, f)]
                grids = flag_values(op.argv, "--r-grid") + flag_values(op.argv, "--lambda-grid")
                for grid in grids:
                    start, stop, _ = grid.split(":")
                    values += [float(start), float(stop)]
                expect(all(LO <= v <= HI for v in values), op.argv)


def check_tolerance(cli, work: Path) -> None:
    op = next(wl.cycles("closed-sweep", 0))[0]
    expect(run.run_in_process(cli, op, work).error is None, "unperturbed sweep output must pass")
    text = (work / "out").read_text()

    def scaled(factor: float) -> str:
        qfi = re.compile(r'("qfi": ")([^"]+)(")') if text.lstrip().startswith("[") else None
        if qfi:
            return qfi.sub(lambda m: f"{m[1]}{float(m[2]) * factor!r}{m[3]}", text)
        lines = text.splitlines()
        col = lines[0].split(",").index("qfi")
        out = [lines[0]]
        for line in lines[1:]:
            fields = line.split(",")
            fields[col] = repr(float(fields[col]) * factor)
            out.append(",".join(fields))
        return "\n".join(out) + "\n"

    expect(op.check(scaled(1 + 3e-10)).error is None, "a change below tolerance must pass")
    expect(op.check(scaled(1 + 3e-9)).error is not None, "a change above tolerance must fail")


COUNT_SUFFIXES = (
    ".calls", ".calls_per_point", ".calls_per_verify", "_ratio", ".dense_bytes_computed",
)


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(result["correct"], f"{workload}: {proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_traced() -> None:
    for workload in wl.WORKLOADS:
        first, second = traced(workload, 3), traced(workload, 3)
        counts = [k for k in first if k.endswith(COUNT_SUFFIXES) and k != "trace.overhead_ratio"]
        for name in counts:
            expect(first[name] == second[name],
                   f"{workload} {name}: {first[name]} vs {second[name]}")
        expect(first["correlated.inf_ratio"] == 0, workload)
        if first["oracle.verify.calls"]:
            expect(first["oracle.pass_ratio"] == 1, workload)
        print(f"{workload}: {len(counts)} counts repeat; inf_ratio 0")


def main() -> int:
    check_manifest()
    check_region()
    print(f"generators stay in n <= 14, r and lambda in [{LO}, {HI}] for {len(SEEDS)} seeds")
    sys.path.insert(0, str(ROOT / "src"))
    import depolqfi.cli as cli

    work = ROOT / ".bench_build" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with run.serial_sweeps():
            check_tolerance(cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("output checks hold to 1e-9 relative, not byte for byte")
    check_traced()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
