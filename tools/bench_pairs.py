"""Alternating parent/change pairs of the benchmark, written as BENCH_<pr>.json.

Run from the repository root, for example:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 10 \\
        --claim oracle-verify:latency_p50_s \\
        --pairs oracle-verify=10 --pairs closed-sweep=4 --pairs cli-cold=4 \\
        --seed 1001

Each run is `python3 bench/run.py --workload W --seed S --seconds 30` in a
fresh `git archive` of its commit; every BENCH file uses that run length, so
its figures compare with the earlier file's. The two sides of a pair share a
seed, and which side runs first alternates from pair to pair; workloads take
turns, so a slow spell of the host spreads over all of them. The file is rewritten
after every pair. Operation cost depends on the seed, so besides each side's
pooled median and quartiles the summary gives the median over pairs of
change/parent - 1, which is also what the closing table prints, next to the
same figure from the newest earlier BENCH file. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

SECONDS = 30


def git(*args: str) -> bytes:
    return subprocess.run(("git",) + args, check=True, capture_output=True).stdout


def run_side(commit: str, workload: str, seed: int) -> tuple[int, float, dict | None]:
    """One benchmark run in a fresh archive of the commit: (exit code, wall
    seconds, the final JSON line or None)."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
            tar.extractall(tmp, filter="data")
        argv = [sys.executable, "bench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(SECONDS)]
        start = time.monotonic()
        proc = subprocess.run(argv, cwd=tmp, capture_output=True, text=True)
        wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode or result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, round(wall, 1), result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per workload: pair count, operation totals and, for each end-to-end
    metric (name -> "higher" or "lower" is better), pooled quartiles, the
    pairs the change won and the median over pairs of change/parent - 1."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload and r["result"] is not None:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = {k: v for k, v in pairs.items() if len(v) == 2}
        if not pairs:
            continue
        sides = {side: [p[side] for p in pairs.values()] for side in ("parent", "change")}
        entry = {
            "pairs": len(pairs),
            "failed_ops": {s: sum(r["failed"] for r in rs) for s, rs in sides.items()},
            "attempted_ops": {s: sum(r["attempted"] for r in rs) for s, rs in sides.items()},
        }
        for name, better in metrics.items():
            values = {s: [r["metrics"][name]["value"] for r in rs] for s, rs in sides.items()}
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            entry[name] = {
                "wins_of_pairs": f"{wins}/{len(pairs)}",
                "parent": parent,
                "change": change,
                "median_change_rel": change["median"] / parent["median"] - 1.0,
                "median_of_pair_rel": statistics.median(
                    c / p - 1.0 for p, c in zip(values["parent"], values["change"])
                ),
            }
        summary[workload] = entry
    return summary


def earlier_bench(root: Path, pr: int) -> Path | None:
    """The BENCH_<k>.json with the largest k below pr, if any."""
    found = []
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match.group(1)) < pr:
            found.append((int(match.group(1)), path))
    return max(found)[1] if found else None


def print_table(summary: dict, metrics: dict[str, str], earlier: dict | None, earlier_name: str) -> None:
    print(f"{'workload':<14} {'metric':<15} {'wins':>6} {'pair rel':>9} "
          f"{'parent med':>11} {'change med':>11}   {earlier_name}: pair rel, change med")
    for workload, entry in summary.items():
        for name in metrics:
            m = entry[name]
            line = (f"{workload:<14} {name:<15} {m['wins_of_pairs']:>6} "
                    f"{m['median_of_pair_rel']:>+9.2%} {m['parent']['median']:>11.5g} "
                    f"{m['change']['median']:>11.5g}")
            old = (earlier or {}).get("summary", {}).get(workload, {}).get(name)
            if old is not None:
                line += f"   {old['median_of_pair_rel']:+.2%}, {old['change']['median']:.5g}"
            print(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", required=True, help="git revision of the change side")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=COUNT")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the gain claimed, if any")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)

    root = Path.cwd()
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    counts = {}
    for spec in args.pairs:
        workload, _, count = spec.partition("=")
        counts[workload] = int(count)
    commits = {side: git("rev-parse", rev).decode().strip()
               for side, rev in (("parent", args.parent), ("change", args.change))}
    earlier_path = earlier_bench(root, args.pr)
    earlier = json.loads(earlier_path.read_text()) if earlier_path else None
    out = root / f"BENCH_{args.pr}.json"

    record = {
        "description": (
            f"Alternating parent/change pairs of `python3 bench/run.py --workload W --seed S "
            f"--seconds {SECONDS}` (trace off), each side run from a fresh `git archive` "
            f"of its commit by tools/bench_pairs.py, on a {os.cpu_count()}-vCPU "
            f"{platform.machine()} host (Python {platform.python_version()}, OpenBLAS on 1 "
            f"thread as pinned by bench/run.py). Each run's `result` is the final JSON line "
            f"the benchmark printed, or null if it printed none. `median_of_pair_rel` is the "
            f"median over pairs of change/parent - 1 at the same seed. Earlier BENCH file: "
            f"{earlier_path.name if earlier_path else 'none'}."
        ),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "claimed": None,
        "summary": {},
        "runs": [],
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        record["claimed"] = {"workload": workload, "metric": metric}

    seed = args.seed
    for pair in range(max(counts.values())):
        for workload, count in counts.items():
            if pair >= count:
                continue
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                code, wall, result = run_side(commits[side], workload, seed)
                record["runs"].append({
                    "workload": workload, "seed": seed, "pair": pair, "side": side,
                    "commit": commits[side], "first_in_pair": side == order[0],
                    "exit_code": code, "wall_s": wall, "result": result,
                })
                print(f"{workload} seed {seed} pair {pair} {side}: exit {code}, {wall} s",
                      file=sys.stderr, flush=True)
            seed += 1
            record["summary"] = summarize(record["runs"], metrics)
            out.write_text(json.dumps(record, indent=1) + "\n")

    print_table(record["summary"], metrics, earlier,
                earlier_path.name if earlier_path else "no earlier BENCH file")
    return 0 if all(r["exit_code"] == 0 for r in record["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
