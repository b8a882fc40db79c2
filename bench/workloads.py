"""Seeded operation schedules for the benchmark workloads, and the checks
that decide whether an operation's output is correct.

An operation is one `python -m depolqfi.cli ...` invocation. Each workload
yields whole cycles of operations; the runner starts a new cycle only while
time remains, so every run holds the same mix of operations whatever its
seed, and only the order and the parameter values change with the seed.

Every parameter lies on a lattice over [0.05, 0.95] with step 0.05, and
every n is at most 14. In that region the seed commit's closed form returns
finite values, so a fix to its spurious `inf` (ROADMAP item 1) does not
change what these workloads cost.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

GOLDEN_PATH = Path(__file__).with_name("golden.json")
REL_TOL = 1e-9
# Values such as a PPT eigenvalue can cancel to round-off near zero, where
# a relative tolerance alone would reject a correct last-bit change.
ABS_FLOOR = 1e-15
GOLDEN_SAMPLE = 8

LATTICE_STEP = 0.05
LATTICE_SIZE = 19  # 0.05, 0.10, ..., 0.95
GOLDEN_STRIDE = 3  # golden values are recorded on 0.05, 0.20, ..., 0.95
GOLDEN_INDICES = tuple(range(0, LATTICE_SIZE, GOLDEN_STRIDE))

SWEEP_NS = range(10, 15)
VERIFY_N = 8
# A balanced cycle of one verification per m keeps the median in the middle
# cost level whatever the seed (the dense oracle's cost grows as m^2).
VERIFY_MS = (2, 3, 4)
EVAL_MAX_M = 14
CORRELATIONS_MS = (1, 2, 3)
CUTOFF_ROWS = 40

# Closed-form work per grid point, in milliseconds, as a linear model of the
# seed commit's term counts (diagonal-sum calls, bit-flip counts, inner
# terms), fitted once to its measured time. It only sizes sweep grids so
# that every sweep operation does about the same work; it is fixed, so the
# workload does not change when the closed form gets faster.
WORK_PER_CALL_MS = 0.0237
WORK_PER_FLIP_MS = 0.00046
WORK_PER_TERM_MS = 0.00079
SWEEP_OP_WORK_MS = 500.0
SWEEP_JSON_OPS = 2  # of the ten sweep operations in each cycle


class CheckError(Exception):
    """An output that does not match what the operation must produce."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation. `argv` follows `python -m depolqfi.cli`; when
    `to_file` is set the runner appends `-o <path>` and checks that file,
    otherwise it checks standard output."""

    argv: tuple[str, ...]
    to_file: bool
    check: Callable[[str], "Outcome"]
    points: int = 0  # closed-form correlated points the operation asks for
    verifies: int = 0
    dense_n: int = 0  # qubit count of the oracle's density matrices, if any


@dataclass
class Outcome:
    """What an operation's output showed. `results` counts correct results
    (sweep rows, passing verifications, commands) and is set only when the
    whole output passed its check."""

    results: int = 0
    inf_points: int = 0
    passes: int = 0
    error: Optional[str] = None


def lattice_value(index: int) -> float:
    return round(LATTICE_STEP * (index + 1), 2)


def lattice_index(value: float) -> int:
    index = round(value / LATTICE_STEP) - 1
    if not 0 <= index < LATTICE_SIZE or abs(value - lattice_value(index)) > 1e-9:
        raise CheckError(f"value {value!r} is not on the parameter lattice")
    return index


def key(*parts: int) -> str:
    return ",".join(map(str, parts))


@functools.cache
def golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def golden_grid(table: str, *head) -> float:
    """Golden value at (*head, r, lambda) from a 7x7 block of the table."""
    *prefix, r, lam = head
    block = golden()[table][key(*prefix)] if prefix else golden()[table]
    row = lattice_index(r) // GOLDEN_STRIDE
    col = lattice_index(lam) // GOLDEN_STRIDE
    return block[row * len(GOLDEN_INDICES) + col]


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * max(abs(value), abs(expected)) + ABS_FLOOR


def expect_close(what: str, value: float, expected: float) -> None:
    if not close(value, expected):
        raise CheckError(f"{what}: got {value!r}, golden {expected!r}")


def finite_qfi(row: dict) -> float:
    qfi = float(row["qfi"])
    if not math.isfinite(qfi) or qfi < 0.0:
        raise CheckError(f"qfi {row['qfi']!r} is not finite and non-negative")
    return qfi


def parse_rows(text: str) -> list[dict]:
    """Rows of CSV or JSON output as dicts of the CSV column names."""
    stripped = text.lstrip()
    if stripped.startswith(("[", "{")):
        data = json.loads(stripped)
        return [dict(row) for row in ([data] if isinstance(data, dict) else data)]
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise CheckError("empty output")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            raise CheckError(f"row has {len(fields)} fields, header {len(header)}")
        rows.append(dict(zip(header, fields)))
    return rows


def checked(check: Callable[[str], Outcome]) -> Callable[[str], Outcome]:
    """Turn a parse or check failure into an Outcome with an error."""

    @functools.wraps(check)
    def run(text: str) -> Outcome:
        outcome = Outcome()
        try:
            check(text, outcome)
        except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            outcome.results = 0
            outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome

    return run


# ---------------------------------------------------------------------------
# closed-sweep


def point_work_ms(n: int, m: int) -> float:
    """Model time of one correlated closed-form point (see WORK_PER_*)."""
    if m < n:
        blocks = [(u, v) for v in range(m + 1) for u in range(1, n - m + 1)]
    else:
        blocks = [(0, v) for v in range(1, n + 1)]
    flips = terms = 0
    for _, v in blocks:
        for k in range(m + 1):
            flips += 1
            terms += max(0, min(k, v) - max(k + v - m, 0) + 1)
    # final_diag and its derivative each run one diagonal sum per block
    return 2 * (
        len(blocks) * WORK_PER_CALL_MS + flips * WORK_PER_FLIP_MS + terms * WORK_PER_TERM_MS
    )


def lattice_grid(rng: random.Random, count: int) -> tuple[str, list[int]]:
    """A start:stop:count grid on the lattice that starts on a golden value,
    so every sweep holds golden rows."""
    steps = [s for s in (1, 2, 3) if (count - 1) * s < LATTICE_SIZE]
    step = rng.choice(steps)
    span = (count - 1) * step
    start = rng.choice([i for i in GOLDEN_INDICES if i + span < LATTICE_SIZE])
    indices = [start + j * step for j in range(count)]
    spec = f"{lattice_value(indices[0]):.2f}:{lattice_value(indices[-1]):.2f}:{count}"
    return spec, indices


def sweep_op(rng: random.Random, n: int, ms: list[int], fmt: str) -> Op:
    work = sum(point_work_ms(n, m) for m in ms)
    grid_points = max(4, round(SWEEP_OP_WORK_MS / work))
    low = max(2, math.ceil(grid_points / LATTICE_SIZE))
    r_count = rng.randint(low, max(2, min(LATTICE_SIZE, grid_points // 2)))
    lam_count = min(LATTICE_SIZE, max(2, round(grid_points / r_count)))
    r_spec, r_idx = lattice_grid(rng, r_count)
    lam_spec, lam_idx = lattice_grid(rng, lam_count)
    protocol = rng.choice(("correlated", "corr_vs_seq"))
    argv = [
        "sweep", "--protocol", protocol, "--n", str(n), "--m", ",".join(map(str, ms)),
        "--r-grid", r_spec, "--lambda-grid", lam_spec,
    ]
    if fmt == "json":
        argv += ["--format", "json"]
    expected = {(m, i, j) for m in ms for i in r_idx for j in lam_idx}
    sample_seed = rng.getrandbits(32)

    @checked
    def check(text: str, outcome: Outcome) -> None:
        rows = parse_rows(text)
        seen = set()
        golden_rows = []
        for row in rows:
            if row["protocol"] != protocol or int(row["n"]) != n:
                raise CheckError(f"row for {row['protocol']} n={row['n']}")
            i, j = lattice_index(float(row["r"])), lattice_index(float(row["lambda"]))
            point = (int(row["m"]), i, j)
            if float(row["qfi"]) == math.inf:
                outcome.inf_points += 1
            qfi = finite_qfi(row)
            seen.add(point)
            if i % GOLDEN_STRIDE == 0 and j % GOLDEN_STRIDE == 0:
                golden_rows.append((point, qfi))
        if len(rows) != len(expected) or seen != expected:
            raise CheckError(f"{len(rows)} rows, expected the {len(expected)}-point grid")
        sampler = random.Random(sample_seed)
        for (m, i, j), qfi in sampler.sample(golden_rows, min(GOLDEN_SAMPLE, len(golden_rows))):
            r, lam = lattice_value(i), lattice_value(j)
            golden_qfi = golden_grid("correlated", n, m, r, lam)
            expect_close(f"qfi n={n} m={m} r={r} lambda={lam}", qfi, golden_qfi)
        outcome.results = len(rows)

    return Op(tuple(argv), True, check, points=len(expected))


def closed_sweep(rng: random.Random) -> Iterator[list[Op]]:
    """Each cycle covers every (n, m) with 10 <= n <= 14 exactly once: for
    each n a seeded split of 1..n into two sweeps."""
    while True:
        formats = ["json"] * SWEEP_JSON_OPS + ["csv"] * (2 * len(SWEEP_NS) - SWEEP_JSON_OPS)
        rng.shuffle(formats)
        ops = []
        for n in SWEEP_NS:
            ms = list(range(1, n + 1))
            rng.shuffle(ms)
            for group in (ms[: n // 2], ms[n // 2 :]):
                ops.append(sweep_op(rng, n, sorted(group), formats[len(ops)]))
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------------------
# oracle-verify


def golden_point(rng: random.Random) -> tuple[float, float]:
    return lattice_value(rng.choice(GOLDEN_INDICES)), lattice_value(rng.choice(GOLDEN_INDICES))


def verify_op(n: int, m: int, r: float, lam: float) -> Op:
    @checked
    def check(text: str, outcome: Outcome) -> None:
        reports = json.loads(text)
        if len(reports) != 1:
            raise CheckError(f"{len(reports)} reports, expected 1")
        report = reports[0]
        params = report["params"]
        same_point = close(params["r"], r) and close(params["lambda"], lam)
        if (params["n"], params["m"]) != (n, m) or not same_point:
            raise CheckError(f"report for {params}")
        closed = float(report["closed_form_qfi"])
        oracle = float(report["oracle_qfi"])
        if closed == math.inf:
            outcome.inf_points += 1
        for name, value in (("closed_form_qfi", closed), ("oracle_qfi", oracle)):
            if not math.isfinite(value) or value < 0.0:
                raise CheckError(f"{name} {value!r} is not finite and non-negative")
        if report["pass"] is True:
            outcome.passes = 1
        else:
            raise CheckError(f"verification failed: rel_err {report['rel_err']!r}")
        golden_qfi = golden_grid("correlated", n, m, r, lam)
        expect_close(f"closed form n={n} m={m} r={r} lambda={lam}", closed, golden_qfi)
        outcome.results = 1

    argv = ("verify", "--n", str(n), "--m", str(m), "--r", f"{r:.2f}", "--lambda", f"{lam:.2f}")
    return Op(argv, False, check, points=1, verifies=1, dense_n=n)


def oracle_verify(rng: random.Random) -> Iterator[list[Op]]:
    while True:
        ms = list(VERIFY_MS)
        rng.shuffle(ms)
        yield [verify_op(VERIFY_N, m, *golden_point(rng)) for m in ms]


# ---------------------------------------------------------------------------
# cli-cold


def eval_op(rng: random.Random, protocol: str, n: int, m: int) -> Op:
    r, lam = golden_point(rng)
    argv = ["eval", "--protocol", protocol]
    if protocol in ("correlated", "corr_vs_seq"):
        argv += ["--n", str(n)]
        expected = golden_grid("correlated", n, m, r, lam)
    elif protocol == "sqsc":
        expected = golden_grid("sqsc", r, lam)
    else:
        expected = golden_grid(protocol, m, r, lam)
    if protocol != "sqsc":
        argv += ["--m", str(m)]
    argv += ["--r", f"{r:.2f}", "--lambda", f"{lam:.2f}"]
    if rng.random() < 0.5:
        argv += ["--format", "json"]
    correlated = protocol in ("correlated", "corr_vs_seq")

    @checked
    def check(text: str, outcome: Outcome) -> None:
        rows = parse_rows(text)
        if len(rows) != 1 or rows[0]["protocol"] != protocol:
            raise CheckError(f"expected one {protocol} row, got {len(rows)}")
        if correlated and float(rows[0]["qfi"]) == math.inf:
            outcome.inf_points += 1
        expect_close(f"{protocol} qfi", finite_qfi(rows[0]), expected)
        outcome.results = 1

    return Op(tuple(argv), False, check, points=int(correlated))


def table_op(which: str) -> Op:
    @checked
    def check(text: str, outcome: Outcome) -> None:
        lines = text.splitlines()
        expected = golden()["table"][which]
        if lines[0] != "lambda,m_opt,tie_partner,gain" or len(lines) != len(expected) + 1:
            raise CheckError(f"table has {len(lines) - 1} rows, expected {len(expected)}")
        for line, (lam, m_opt, tie, gain) in zip(lines[1:], expected):
            got_lam, got_m, got_tie, got_gain = line.split(",")
            if int(got_m) != m_opt or got_tie != tie:
                raise CheckError(f"table row {line!r}")
            expect_close("table lambda", float(got_lam), lam)
            expect_close("table gain", float(got_gain), gain)
        outcome.results = 1

    return Op(("table", which), False, check)


def correlations_op(rng: random.Random) -> Op:
    m = rng.choice(CORRELATIONS_MS)
    r, lam = golden_point(rng)

    @checked
    def check(text: str, outcome: Outcome) -> None:
        report = json.loads(text)
        for field in ("discord", "ppt_min_eigenvalue", "separability_threshold_r"):
            golden_value = golden_grid(f"correlations.{field}", m, r, lam)
            expect_close(field, float(report[field]), golden_value)
        outcome.results = 1

    argv = ("correlations", "--m", str(m), "--r", f"{r:.2f}", "--lambda", f"{lam:.2f}")
    return Op(argv, False, check)


def cutoff_op() -> Op:
    @checked
    def check(text: str, outcome: Outcome) -> None:
        lines = text.splitlines()
        expected = golden()["cutoff"]
        if lines[0] != "m,cutoff,squared_cutoff" or len(lines) != len(expected) + 1:
            raise CheckError(f"cutoff has {len(lines) - 1} rows, expected {len(expected)}")
        for line, (m, cutoff, squared) in zip(lines[1:], expected):
            got_m, got_cutoff, got_squared = line.split(",")
            if int(got_m) != m:
                raise CheckError(f"cutoff row {line!r}")
            expect_close("cutoff", float(got_cutoff), cutoff)
            expect_close("squared cutoff", float(got_squared), squared)
        outcome.results = 1

    return Op(("figure", "cutoff"), False, check)


def cli_cold(rng: random.Random) -> Iterator[list[Op]]:
    """Each cycle runs each short command once, in a seeded order."""
    while True:
        n = rng.choice(SWEEP_NS)
        ops = [
            eval_op(rng, "sqsc", 1, 1),
            eval_op(rng, "independent", 1, rng.randint(1, EVAL_MAX_M)),
            eval_op(rng, "sequential", 1, rng.randint(1, EVAL_MAX_M)),
            eval_op(rng, "correlated", n, rng.randint(1, n)),
            eval_op(rng, "corr_vs_seq", n, rng.randint(1, n)),
            table_op("spectator"),
            table_op("all-qubits"),
            correlations_op(rng),
            cutoff_op(),
        ]
        rng.shuffle(ops)
        yield ops


WORKLOADS = {
    "closed-sweep": closed_sweep,
    "oracle-verify": oracle_verify,
    "cli-cold": cli_cold,
}


def cycles(workload: str, seed: int, tag: str = "run") -> Iterator[list[Op]]:
    """Endless seeded cycles of the workload; `tag` separates the warm-up
    schedule from the measured one."""
    return WORKLOADS[workload](random.Random(f"{workload}:{tag}:{seed}"))
