"""Command-line front end: single evaluations, parameter sweeps, optimal
invocation tables, oracle verification, and two-qubit correlation reports.

Exit codes: 0 ok, 2 domain violation, 3 I/O failure, 4 capacity exceeded
(the dense cap, or memory running out).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import asymptotics, correlations
from .correlated import correlated_qfi
from .errors import CapacityError, DomainError
from .linalg import check_capacity
from .oracle import verify
from .protocols import ProtocolParams, check_params, sequential_qfi, sqsc_qfi

CSV_HEADER = (
    "protocol,n,m,r,lambda,qfi,qfi_per_channel,"
    "gain_vs_sqsc,gain_vs_seq,crb_variance_bound,method"
)

CSV_COLUMNS = CSV_HEADER.split(",")

PROTOCOLS = ("sqsc", "independent", "sequential", "correlated", "corr_vs_seq")


@dataclass(frozen=True)
class ResultRow:
    protocol: str
    n: int
    m: int
    r: float
    lam: float
    qfi: float
    qfi_per_channel: float
    gain_vs_sqsc: Optional[float]
    gain_vs_seq: Optional[float]
    crb_variance_bound: float
    method: str


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return ""
    if math.isinf(value):
        return "inf"
    return f"{value:.9e}"


def _csv_fields(row: ResultRow) -> list[str]:
    return [
        row.protocol,
        str(row.n),
        str(row.m),
        _fmt(row.r),
        _fmt(row.lam),
        _fmt(row.qfi),
        _fmt(row.qfi_per_channel),
        _fmt(row.gain_vs_sqsc),
        _fmt(row.gain_vs_seq),
        _fmt(row.crb_variance_bound),
        row.method,
    ]


def row_to_csv(row: ResultRow) -> str:
    return ",".join(_csv_fields(row))


def row_to_dict(row: ResultRow) -> dict:
    """The CSV fields keyed by column, with n, m, r and lambda as numbers."""
    data = dict(zip(CSV_COLUMNS, _csv_fields(row)))
    data.update(n=row.n, m=row.m, r=row.r)
    data["lambda"] = row.lam
    return data


def _gains(per_channel, ref, usable: np.ndarray) -> list[Optional[float]]:
    """per_channel / ref where usable and ref != 0, None elsewhere."""
    usable = usable & (ref != 0.0)
    ratio = per_channel / np.where(usable, ref, 1.0)
    return [
        g if ok else None
        for g, ok in zip(np.ravel(ratio).tolist(), np.ravel(usable).tolist())
    ]


def evaluate_grid(
    protocol: str, n: int, m: int, r, lam, include_limit: bool = False
) -> list[ResultRow]:
    """Evaluate one protocol for one (n, m) at every point of the equally
    shaped arrays r and lam, in their flat order. A gain is empty where
    r = 0, where lambda = 1 or where its reference QFI is 0."""
    if protocol not in PROTOCOLS:
        raise DomainError(f"unknown protocol {protocol!r}")
    check_params(n=n, m=m)
    r, lam = np.asarray(r, dtype=float), np.asarray(lam, dtype=float)
    if protocol in ("sqsc", "independent"):
        # sqsc is the independent protocol on one qubit. Its per-channel QFI
        # is sqsc_qfi itself: the round trip m * sqsc_qfi / m can move the
        # last printed digit.
        n = m = 1 if protocol == "sqsc" else m
        per_channel = sqsc_qfi(r, lam)
        value = m * per_channel
    else:
        if protocol == "sequential":
            n = 1
            value = sequential_qfi(m, r, lam)
        else:  # correlated / corr_vs_seq
            value = correlated_qfi(ProtocolParams(n, m, r, lam, include_limit))
        per_channel = value / m

    usable = (r > 0.0) & (lam < 1.0)
    lam_ref = np.where(usable, lam, 0.0)  # keeps the references defined at lambda = 1
    refs = sqsc_qfi(r, lam_ref), sequential_qfi(m, r, lam_ref) / m
    crb = asymptotics.cramer_rao_bound(value)
    columns = [np.ravel(a).tolist() for a in (r, lam, value, per_channel)]
    columns += [_gains(per_channel, ref, usable) for ref in refs]
    columns.append(np.ravel(crb).tolist())
    return [
        ResultRow(protocol, n, m, *fields, "closed_form") for fields in zip(*columns)
    ]


def evaluate_point(
    protocol: str, n: int, m: int, r: float, lam: float, include_limit: bool = False
) -> ResultRow:
    """Evaluate one protocol at one parameter point."""
    return evaluate_grid(protocol, n, m, r, lam, include_limit)[0]


def sweep_rows(
    protocol: str,
    ns: list[int],
    ms: list[int],
    r_grid: np.ndarray,
    lambda_grid: np.ndarray,
    include_limit: bool = False,
) -> list[ResultRow]:
    """Evaluate a full grid, one array evaluation per (n, m); rows come
    back sorted by their own (n, m, r, lambda), since evaluate_grid
    overrides n for sqsc, independent and sequential, and the grids may be
    unsorted."""
    r, lam = np.meshgrid(r_grid, lambda_grid, indexing="ij")
    rows = [
        row
        for n in ns
        for m in ms
        for row in evaluate_grid(protocol, n, m, r, lam, include_limit)
    ]
    rows.sort(key=lambda row: (row.n, row.m, row.r, row.lam))
    return rows


def _parse_int_list(raw: str) -> list[int]:
    try:
        values = [int(tok) for tok in raw.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise DomainError(f"expected comma-separated integers, got {raw!r}")
    return values


def _parse_grid(raw: str) -> np.ndarray:
    try:
        start, stop, count = raw.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise DomainError(f"grid must be start:stop:count, got {raw!r}") from None
    if count < 1:
        raise DomainError(f"grid count must be >= 1, got {count}")
    return np.linspace(start, stop, count)


def _write_lines(path: Optional[str], lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args: argparse.Namespace) -> int:
    row = evaluate_point(
        args.protocol, args.n, args.m, args.r, args.lam, args.include_limit
    )
    if args.format == "json":
        print(json.dumps(row_to_dict(row), indent=2))
    else:
        print(CSV_HEADER)
        print(row_to_csv(row))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = sweep_rows(
        args.protocol,
        _parse_int_list(args.n),
        _parse_int_list(args.m),
        _parse_grid(args.r_grid),
        _parse_grid(args.lambda_grid),
        include_limit=args.include_limit,
    )
    if args.format == "json":
        _write_lines(args.output, [json.dumps([row_to_dict(r) for r in rows], indent=2)])
    else:
        _write_lines(args.output, [CSV_HEADER] + [row_to_csv(r) for r in rows])
    return 0


TABLE_MODES = {
    "spectator": "spectator",
    "all-qubits": "all_qubits",
    "all_qubits": "all_qubits",
    "I": "spectator",
    "II": "all_qubits",
}


def cmd_table(args: argparse.Namespace) -> int:
    mode = TABLE_MODES[args.which]
    lines = ["lambda,m_opt,tie_partner,gain"]
    for rec in asymptotics.optimal_invocation_table(mode):
        tie = "" if rec.tie_partner is None else str(rec.tie_partner)
        lines.append(
            f"{_fmt(rec.lam)},{rec.m_opt},{tie},{_fmt(rec.optimal_gain_coefficient)}"
        )
    _write_lines(args.output, lines)
    return 0


def _verify_report_dict(report) -> dict:
    data = dataclasses.asdict(report)
    params = data.pop("params")
    params.pop("include_limit", None)
    params["lambda"] = params.pop("lam")
    data["params"] = params
    data["pass"] = data.pop("pass_")
    for key in ("closed_form_qfi", "oracle_qfi"):
        if math.isinf(data[key]):
            data[key] = "inf"
    return data


def cmd_verify(args: argparse.Namespace) -> int:
    reports = []
    if args.grid:
        check_params(n=args.max_n)
        check_capacity(args.max_n)
        r_values = (0.0, 0.1, 0.5, 0.9, 1.0)
        lam_values = (0.0, 0.3, 0.7, 0.99)
        for n in range(1, args.max_n + 1):
            for m in range(1, n + 1):
                for r in r_values:
                    for lam in lam_values:
                        reports.append(
                            verify(ProtocolParams(n, m, r, lam), tolerance=args.tol)
                        )
    else:
        if None in (args.n, args.m, args.r, args.lam):
            raise DomainError("verify needs --grid or all of --n --m --r --lambda")
        reports.append(
            verify(ProtocolParams(args.n, args.m, args.r, args.lam), tolerance=args.tol)
        )
    _write_lines(
        args.output, [json.dumps([_verify_report_dict(r) for r in reports], indent=2)]
    )
    return 0 if all(r.pass_ for r in reports) else 1


def cmd_correlations(args: argparse.Namespace) -> int:
    report = correlations.correlation_report(args.m, args.r, args.lam)
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return 0


FIGURE_PRESETS = {
    "seq-gain-m3": dict(protocol="sequential", ns=[1], ms=[3]),
    "corr-gain-n2-m1": dict(protocol="correlated", ns=[2], ms=[1]),
    "corr-gain-n5-m1": dict(protocol="correlated", ns=[5], ms=[1]),
    "corr-gain-n4-multi": dict(protocol="correlated", ns=[4], ms=[2, 3, 4]),
    "corr-vs-seq-n4": dict(protocol="corr_vs_seq", ns=[4], ms=[2, 3, 4]),
}


def cmd_figure(args: argparse.Namespace) -> int:
    if args.name == "cutoff":
        lines = ["m,cutoff,squared_cutoff"]
        for m in range(1, 41):
            curve = asymptotics.sequential_cutoff(m)
            lines.append(f"{m},{_fmt(curve.cutoff)},{_fmt(curve.squared_cutoff)}")
        _write_lines(args.output, lines)
        return 0
    preset = FIGURE_PRESETS[args.name]
    r_grid = np.linspace(0.05, 0.95, 19)
    lambda_grid = np.linspace(0.05, 0.95, 19)
    rows = sweep_rows(
        preset["protocol"],
        preset["ns"],
        preset["ms"],
        r_grid,
        lambda_grid,
    )
    _write_lines(args.output, [CSV_HEADER] + [row_to_csv(r) for r in rows])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depolqfi",
        description=(
            "Quantum Fisher information toolkit for depolarizing-channel "
            "parameter estimation with mixed initial states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one protocol at one point")
    p_eval.add_argument("--protocol", choices=PROTOCOLS, required=True)
    p_eval.add_argument("--n", type=int, default=1)
    p_eval.add_argument("--m", type=int, default=1)
    p_eval.add_argument("--r", type=float, required=True)
    p_eval.add_argument("--lambda", dest="lam", type=float, required=True)
    p_eval.add_argument("--include-limit", action="store_true")
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid to CSV/JSON")
    p_sweep.add_argument("--protocol", choices=PROTOCOLS, required=True)
    p_sweep.add_argument("--n", default="1", help="comma-separated qubit counts")
    p_sweep.add_argument("--m", default="1", help="comma-separated invocation counts")
    p_sweep.add_argument("--r-grid", default="0:1:21", help="start:stop:count")
    p_sweep.add_argument("--lambda-grid", default="0:0.95:20", help="start:stop:count")
    p_sweep.add_argument("--include-limit", action="store_true")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--output", "-o", default="-")
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = sub.add_parser("table", help="optimal invocation-count tables")
    p_table.add_argument("which", choices=sorted(TABLE_MODES))
    p_table.add_argument("--output", "-o", default="-")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="closed form vs brute-force oracle")
    p_verify.add_argument("--grid", action="store_true")
    p_verify.add_argument("--max-n", type=int, default=6)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--r", type=float)
    p_verify.add_argument("--lambda", dest="lam", type=float)
    p_verify.add_argument("--output", "-o", default="-")
    p_verify.set_defaults(func=cmd_verify)

    p_corr = sub.add_parser("correlations", help="two-qubit PPT and discord report")
    p_corr.add_argument("--m", type=int, default=1)
    p_corr.add_argument("--r", type=float, required=True)
    p_corr.add_argument("--lambda", dest="lam", type=float, required=True)
    p_corr.set_defaults(func=cmd_correlations)

    p_fig = sub.add_parser("figure", help="named sweep presets for figure data")
    p_fig.add_argument("name", choices=sorted(list(FIGURE_PRESETS) + ["cutoff"]))
    p_fig.add_argument("--output", "-o", default="-")
    p_fig.set_defaults(func=cmd_figure)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
