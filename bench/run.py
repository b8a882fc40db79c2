"""Benchmark of the depolqfi command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload closed-sweep --seed 1 --seconds 30 --trace 0

With --trace 0 it times `python -m depolqfi.cli ...` invocations, interpreter
start included, as a closed loop with one client: the next command starts
when the previous one has ended. Its time metrics are scaled to a nominal
host speed by a fixed reference computation timed in the same run (see
REFERENCE_NOMINAL_S). With --trace 1 it runs a fixed, seeded list
of the same commands in this process, once untraced and once with a span
around every layer function, and reports per-layer call counts and self
time. Every output is checked; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# Pinned before numpy loads here or in any child: two BLAS threads per
# process on a two-core machine were one cause of run-to-run spread.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)

import workloads as wl  # noqa: E402

WARMUP_OPS = 2
SETUP_WARMUP = 2
SETUP_SAMPLES = 15
OP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
TRACE_CYCLES = {"closed-sweep": 1, "oracle-verify": 2, "cli-cold": 4}

# A shared host runs every process slower for minutes at a time, which moved
# raw wall times by up to 30% between runs of the same code. Each timed run
# therefore also runs a fixed reference computation (reference.py) of the
# same kind as the workload's operations, after every REFERENCE_EVERY times
# its nominal time of operations, and reports time metrics scaled by
# REFERENCE_NOMINAL_S / (typical reference time in the run): seconds on a
# host running at the speed the nominal times were measured at. setup_s is
# scaled the same way by the `start` reference, run before each import.
REFERENCE_SCRIPT = Path(__file__).with_name("reference.py")
REFERENCE = {"closed-sweep": "python", "oracle-verify": "numpy", "cli-cold": "start"}
# typical time of each reference on a 2-vCPU x86-64 virtual machine
# (Python 3.11, numpy 2.4, OpenBLAS on one thread)
REFERENCE_NOMINAL_S = {"start": 0.201, "numpy": 0.579, "python": 0.445}
REFERENCE_EVERY = 2

END_TO_END_UNITS = {
    "goodput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_FUNCTIONS = {
    "cli": ("main", "sweep_rows", "evaluate_point", "row_to_csv", "row_to_dict"),
    "protocols": ("sqsc_qfi", "sequential_qfi"),
    "correlated": (
        "correlated_qfi", "prep_coefficients", "final_diag",
        "final_diag_derivative", "block_qfi", "final_state",
    ),
    "oracle": (
        "verify", "initial_product_state", "apply_uprep", "apply_depolarizing",
        "channel_derivative", "spectral_qfi",
    ),
    "linalg": ("hermitian_eig",),
    "asymptotics": ("optimal_invocation_table", "sequential_cutoff"),
    "correlations": ("correlation_report",),
}

DERIVED_UNITS = {
    "correlated.prep_coefficients.calls_per_point": "count",
    "correlated.inf_ratio": "ratio",
    "oracle.apply_depolarizing.calls_per_verify": "count",
    "oracle.pass_ratio": "ratio",
    "oracle.dense_bytes_computed": "bytes",
    "setup.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, names in LAYER_FUNCTIONS.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


class BenchError(Exception):
    """The benchmark cannot produce a result, e.g. the program is missing."""


def environment_record() -> dict:
    """Machine and library versions that the timings depend on."""
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),  # the sweep's default worker count
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **PINNED_ENV,
    }


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def check_program(env: dict[str, str], src: Path) -> None:
    """Fail unless children import depolqfi from this checkout's src."""
    probe = subprocess.run(
        [sys.executable, "-c", "import depolqfi; print(depolqfi.__file__)"],
        env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )
    location = probe.stdout.strip()
    if probe.returncode != 0 or not location.startswith(str(src)):
        raise BenchError(f"depolqfi does not import from {src}: {probe.stderr.strip() or location}")


def run_child(
    argv: list[str], env: dict[str, str], stdout: Path, stderr: Path
) -> tuple[float, int, bool, int]:
    """Run one command; returns (wall seconds, exit code, timed out, max
    RSS in KiB of the child and the processes it waited for).

    The wait blocks in wait4; a timer kills the child at the timeout, so
    the measured time has no polling step in it."""
    timed_out = threading.Event()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, timed_out.is_set(), usage.ru_maxrss


def run_cli_op(op: wl.Op, env: dict[str, str], work: Path) -> tuple[float, int, wl.Outcome]:
    """Run and check one operation; returns (wall seconds, max RSS in KiB,
    outcome)."""
    out_file, stdout, stderr = work / "out", work / "stdout", work / "stderr"
    out_file.unlink(missing_ok=True)  # never check an earlier operation's output
    argv = [sys.executable, "-m", "depolqfi.cli", *op.argv]
    if op.to_file:
        argv += ["-o", str(out_file)]
    elapsed, code, timed_out, rss_kb = run_child(argv, env, stdout, stderr)
    if timed_out:
        return elapsed, rss_kb, wl.Outcome(error=f"timed out after {OP_TIMEOUT_S} s")
    if code != 0:
        tail = stderr.read_text(errors="replace").strip().splitlines()[-1:]
        return elapsed, rss_kb, wl.Outcome(error=f"exit code {code}: {' '.join(tail)}")
    try:
        text = (out_file if op.to_file else stdout).read_text()
    except OSError as exc:
        return elapsed, rss_kb, wl.Outcome(error=f"no output: {exc}")
    return elapsed, rss_kb, op.check(text)


def run_reference(kind: str, env: dict[str, str], work: Path) -> float:
    """Wall seconds of one run of the fixed reference computation `kind`."""
    argv = [sys.executable, str(REFERENCE_SCRIPT), kind]
    elapsed, code, timed_out, _ = run_child(argv, env, work / "stdout", work / "stderr")
    if code != 0 or timed_out:
        raise BenchError(f"reference computation {kind!r} failed")
    return elapsed


def report_failure(op: wl.Op, outcome: wl.Outcome) -> None:
    print(f"FAILED depolqfi {' '.join(op.argv)}: {outcome.error}", file=sys.stderr)


def interquartile_mean(times: list[float]) -> float:
    """Mean of the middle half: as blind to a few outliers as the median,
    but with less sampling noise for a given number of samples."""
    ordered = sorted(times)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def tail_index(count: int) -> int:
    """Index of the highest order statistic with TAIL_BEYOND samples above
    it; the maximum when a run is too short to have one."""
    return count - TAIL_BEYOND - 1 if count > TAIL_BEYOND else count - 1


def run_timed(workload: str, seed: int, seconds: float, src: Path, work: Path) -> dict:
    env = child_env(src)
    check_program(env, src)

    kind = REFERENCE[workload]
    every_s = REFERENCE_EVERY * REFERENCE_NOMINAL_S[kind]
    references: dict[str, list[float]] = {"start": [], kind: []}
    for op in next(wl.cycles(workload, seed, tag="warmup"))[:WARMUP_OPS]:
        _, _, outcome = run_cli_op(op, env, work)
        if outcome.error:
            report_failure(op, outcome)
        run_reference(kind, env, work)

    import_argv = [sys.executable, "-c", "import depolqfi.cli"]
    setup_times = []
    for i in range(SETUP_WARMUP + SETUP_SAMPLES):
        start_ref = run_reference("start", env, work)
        elapsed, code, _, _ = run_child(import_argv, env, work / "stdout", work / "stderr")
        if code != 0:
            raise BenchError("importing depolqfi.cli failed")
        if i >= SETUP_WARMUP:
            setup_times.append(elapsed)
            references["start"].append(start_ref)

    latencies: list[float] = []
    cycle_goodputs: list[float] = []
    failed, peak_kb = 0, 0
    since_reference = every_s
    deadline = time.perf_counter() + seconds
    schedule = wl.cycles(workload, seed)
    # New cycles start only while time remains, so every run holds whole
    # cycles; a program slow enough to overrun by a second run length is
    # cut mid-cycle instead.
    while time.perf_counter() < deadline:
        results, busy = 0, 0.0
        for op in next(schedule):
            if time.perf_counter() > deadline + seconds:
                break
            if since_reference >= every_s:
                references[kind].append(run_reference(kind, env, work))
                since_reference = 0.0
            elapsed, rss_kb, outcome = run_cli_op(op, env, work)
            latencies.append(elapsed)
            busy += elapsed
            since_reference += elapsed
            peak_kb = max(peak_kb, rss_kb)
            if outcome.error:
                failed += 1
                report_failure(op, outcome)
            else:
                results += outcome.results
        cycle_goodputs.append(results / busy)

    ordered = sorted(latencies)
    tail = tail_index(len(ordered))
    # cli-cold's own reference is `start`, so its operations and setup_s
    # share one scale from every `start` sample of the run
    reference_s = {name: interquartile_mean(times) for name, times in references.items()}
    scale = REFERENCE_NOMINAL_S[kind] / reference_s[kind]
    setup_scale = REFERENCE_NOMINAL_S["start"] / reference_s["start"]
    raw = {
        # every cycle holds the same mix, so the median over cycles is a
        # rate that one slow stretch of a shared machine does not move
        "goodput_per_s": statistics.median(cycle_goodputs),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": ordered[tail],
        "setup_s": statistics.median(setup_times),
    }
    values = {
        "goodput_per_s": raw["goodput_per_s"] / scale,
        "latency_p50_s": raw["latency_p50_s"] * scale,
        "latency_tail_s": raw["latency_tail_s"] * scale,
        "setup_s": raw["setup_s"] * setup_scale,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes = [
        f"operations {len(latencies)} in {len(cycle_goodputs)} cycles, failed {failed}, "
        f"fail_ratio {failed / len(latencies):.4g} ratio",
        f"latency_tail_s is the p{100.0 * (tail + 1) / len(ordered):.1f} order statistic "
        f"of {len(ordered)} samples, {len(ordered) - tail - 1} beyond it",
        f"setup_s is the median of {len(setup_times)} fresh "
        "`python -c 'import depolqfi.cli'` starts",
        "host speed: " + "; ".join(
            f"reference {name!r} interquartile mean {reference_s[name]:.4f} s of "
            f"{len(references[name])} "
            f"(nominal {REFERENCE_NOMINAL_S[name]} s)" for name in references
        ) + f"; scale {scale:.4f}, setup scale {setup_scale:.4f}",
        "unscaled " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
    ]
    return {
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()},
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# traced run


class LayerTracer:
    """Wraps each layer function in every depolqfi module namespace that
    binds it, and accumulates call counts and self time per function. A
    function's self time is its span minus the spans of the wrapped
    functions it called."""

    def __init__(self) -> None:
        self.stats = {
            f"{module}.{name}": [0, 0.0]
            for module, names in LAYER_FUNCTIONS.items()
            for name in names
        }
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        stat, stack = self.stats[name], self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return span

    def __enter__(self) -> "LayerTracer":
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "depolqfi" or name.startswith("depolqfi.")
        ]
        for module, names in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"depolqfi.{module}")
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    continue  # absent after a refactor: reported as 0
                wrapper = self._span(f"{module}.{name}", original)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, value))
                            setattr(namespace, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for namespace, attr, value in reversed(self._patches):
            setattr(namespace, attr, value)
        self._patches.clear()


@contextlib.contextmanager
def serial_sweeps():
    """The sweep's worker-pool default is os.cpu_count(); reporting one CPU
    keeps every span in this process without passing --parallel."""
    saved = os.cpu_count
    os.cpu_count = lambda: 1
    try:
        yield
    finally:
        os.cpu_count = saved


def run_in_process(cli, op: wl.Op, work: Path) -> wl.Outcome:
    out_file = work / "out"
    out_file.unlink(missing_ok=True)
    argv = list(op.argv) + (["-o", str(out_file)] if op.to_file else [])
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the op fails; the run goes on and reports it
        return wl.Outcome(error=f"raised {type(exc).__name__}: {exc}")
    if code != 0:
        return wl.Outcome(error=f"exit code {code}")
    try:
        text = out_file.read_text() if op.to_file else buffer.getvalue()
    except OSError as exc:
        return wl.Outcome(error=f"no output: {exc}")
    return op.check(text)


def run_traced(workload: str, seed: int, src: Path, work: Path) -> dict:
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        cli = importlib.import_module("depolqfi.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import depolqfi.cli: {exc}") from exc
    import_s = time.perf_counter() - start
    if not cli.__file__.startswith(str(src)):
        raise BenchError(f"depolqfi.cli imported from {cli.__file__}, not {src}")
    # Load every layer now, so a module the CLI imports lazily is wrapped too.
    for module in LAYER_FUNCTIONS:
        with contextlib.suppress(ImportError):
            importlib.import_module(f"depolqfi.{module}")

    schedule = wl.cycles(workload, seed)
    ops = [op for _ in range(TRACE_CYCLES[workload]) for op in next(schedule)]
    with serial_sweeps():
        for op in next(wl.cycles(workload, seed, tag="warmup"))[:WARMUP_OPS]:
            outcome = run_in_process(cli, op, work)
            if outcome.error:
                report_failure(op, outcome)
        start = time.perf_counter()
        for op in ops:
            run_in_process(cli, op, work)
        untraced_s = time.perf_counter() - start
        with LayerTracer() as tracer:
            channel_calls = tracer.stats["oracle.apply_depolarizing"]
            outcomes, per_verify = [], []
            start = time.perf_counter()
            for op in ops:
                before = channel_calls[0]
                outcomes.append(run_in_process(cli, op, work))
                if op.verifies:
                    m = op.argv[op.argv.index("--m") + 1]
                    per_verify.append(f"m={m}:{channel_calls[0] - before}")
            traced_s = time.perf_counter() - start

    failed = 0
    for op, outcome in zip(ops, outcomes):
        if outcome.error:
            failed += 1
            report_failure(op, outcome)
    points = sum(op.points for op in ops)
    verifies = sum(op.verifies for op in ops)
    dense_n = max(op.dense_n for op in ops)
    values: dict[str, float] = {}
    for name, (calls, self_s) in tracer.stats.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values.update({
        "correlated.prep_coefficients.calls_per_point":
            values["correlated.prep_coefficients.calls"] / points if points else 0,
        "correlated.inf_ratio": sum(o.inf_points for o in outcomes) / points if points else 0,
        "oracle.apply_depolarizing.calls_per_verify":
            values["oracle.apply_depolarizing.calls"] / verifies if verifies else 0,
        "oracle.pass_ratio": sum(o.passes for o in outcomes) / verifies if verifies else 0,
        # computed as 16 bytes per complex entry of a 2^n x 2^n matrix
        "oracle.dense_bytes_computed": 16 * 4**dense_n if dense_n else 0,
        "setup.import_s": import_s,
        "trace.overhead_ratio": traced_s / untraced_s,
    })
    units = per_layer_units()
    notes = [
        f"{len(ops)} operations in process, {points} closed-form points, {verifies} verifications",
        f"untraced {untraced_s:.4f} s, traced {traced_s:.4f} s",
    ]
    if per_verify:
        notes.append("oracle.apply_depolarizing calls per verification: " + " ".join(per_verify))
    return {
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: (values[name], units[name]) for name in units},
        "notes": notes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="measuring time of a --trace 0 run; a traced run's fixed list sets its own length",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "depolqfi" / "cli.py").is_file():
        print(f"error: no depolqfi sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".bench_build" / f"bench-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, src, work)
        else:
            result = run_timed(args.workload, args.seed, args.seconds, src, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(environment_record()))
    for note in result["notes"]:
        print(note)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
