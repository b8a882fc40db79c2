"""Command-line front end: single evaluations, parameter sweeps, optimal
invocation tables, oracle verification, and two-qubit correlation reports.

Exit codes: 0 ok, 1 a failed verification, 2 domain violation, 3 I/O
failure (an unwritable `-o` file or standard output), 4 capacity exceeded
(the dense cap, or memory running out).

`main(argv)` returns its exit code to a Python caller; the `depolqfi`
process runs `run()`, which ends without the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import math
import os
import sys
from typing import NoReturn, Optional

from .errors import CapacityError, DomainError
from .protocols import PROTOCOLS, ProtocolParams, check_params

JSON_NUMBERS = ("n", "m", "r", "lambda")  # the columns JSON keeps as numbers


def _fmt(value) -> str:
    """A CSV field: a float with 10 significant digits, None empty, an int or
    a str as it is."""
    if value is None:
        return ""
    return f"{value:.9e}" if isinstance(value, float) else str(value)


def _parse_int_list(raw: str) -> list[int]:
    try:
        values = [int(tok) for tok in raw.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise DomainError(f"expected comma-separated integers, got {raw!r}")
    return values


def _parse_grid(raw: str) -> list[float]:
    """The values of np.linspace(start, stop, count) of a start:stop:count
    grid, to the bit, as a list formed with linspace's own float arithmetic,
    so that no numpy loads: i*step + start with the last value set to stop,
    or i/div*delta + start where the step rounds to 0. Refused unless every
    value is finite."""
    try:
        start, stop, count = raw.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise DomainError(f"grid must be start:stop:count, got {raw!r}") from None
    if count < 1:
        raise DomainError(f"grid count must be >= 1, got {count}")
    div, delta = count - 1, stop - start  # inf - inf and overflow give NaN or inf
    grid = [0.0 * delta + start]  # one value: linspace's 0 * delta, -0.0 or NaN too
    if div:
        step = delta / div
        if step == 0.0:  # a subnormal delta: linspace divides i by div first
            grid = [i / div * delta + start for i in range(count)]
        else:
            grid = [i * step + start for i in range(count)]
        grid[-1] = stop
    if not all(map(math.isfinite, grid)):
        raise DomainError(f"grid values must be finite, got {raw!r}")
    return grid


def _write_lines(path: Optional[str], lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        if sys.stdout is None:  # the process started with its stdout closed
            raise OSError(errno.EBADF, "standard output is closed")
        sys.stdout.write(text)
        sys.stdout.flush()  # a failed final write is an I/O failure too
        return
    with open(path, "w", newline="") as handle:
        handle.write(text)


def _write_table(
    path: Optional[str], table: dict, fmt: str, one_record: bool = False
) -> None:
    """Write a table, its columns keyed by name in column order, as CSV lines
    under a header of its keys, or as a JSON list of records of the CSV
    fields with n, m, r and lambda as numbers; with one_record, as its first
    record alone. The one place a CSV row is formatted."""
    as_json = fmt == "json"
    columns = (
        values if as_json and c in JSON_NUMBERS else map(_fmt, values)
        for c, values in table.items()
    )
    rows = zip(*columns)  # lazy: each row's fields are formatted as it is joined
    if not as_json:
        _write_lines(path, [",".join(table), *map(",".join, rows)])
        return
    records = [dict(zip(table, row)) for row in rows]
    _write_json(path, records[0] if one_record else records)


def _write_json(path: Optional[str], data) -> None:
    """Write data as indented JSON. json loads here only, for JSON output."""
    import json

    _write_lines(path, [json.dumps(data, indent=2)])


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args: argparse.Namespace) -> int:
    # the evaluation core loads only in the commands that use it
    from .evaluate import evaluate_grid

    table = evaluate_grid(
        args.protocol, [args.n], [args.m], args.r, args.lam, args.include_limit
    )
    _write_table(None, table, args.format, one_record=True)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .evaluate import evaluate_grid

    table = evaluate_grid(
        args.protocol,
        _parse_int_list(args.n),
        _parse_int_list(args.m),
        _parse_grid(args.r_grid),
        _parse_grid(args.lambda_grid),
        include_limit=args.include_limit,
    )
    _write_table(args.output, table, args.format)
    return 0


TABLE_MODES = {
    "spectator": "spectator",
    "all-qubits": "all_qubits",
    "all_qubits": "all_qubits",
    "I": "spectator",
    "II": "all_qubits",
}


def cmd_table(args: argparse.Namespace) -> int:
    from .asymptotics import optimal_invocation_table  # table and cutoff only

    rows = optimal_invocation_table(TABLE_MODES[args.which])
    lam, _, m_opt, tie, gain = zip(*rows)  # _ is the mode
    table = {"lambda": lam, "m_opt": m_opt, "tie_partner": tie, "gain": gain}
    _write_table(args.output, table, "csv")
    return 0


def _verify_report_dict(report) -> dict:
    data = report._asdict()
    params = data.pop("params")
    data["params"] = {"n": params.n, "m": params.m, "r": params.r, "lambda": params.lam}
    data["pass"] = data.pop("pass_")
    for key, value in data.items():
        if isinstance(value, float) and not math.isfinite(value):
            data[key] = _fmt(value)  # spelled as in CSV; JSON has no inf
    return data


def cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import check_capacity, verify, verify_walk  # no other command does

    if args.grid:
        check_params(n=args.max_n)
        check_capacity(args.max_n)
        grid = itertools.product(
            range(1, args.max_n + 1), (0.0, 0.1, 0.5, 0.9, 1.0), (0.0, 0.3, 0.7, 0.99)
        )
        reports = []
        for n, r, lam in grid:  # one walk reports every m of its (n, r, lambda)
            reports += verify_walk(ProtocolParams(n, 1, r, lam), args.tol)
        reports.sort(key=lambda report: report.params[:2])  # stable: (n, m, r, lambda)
    else:
        if None in (args.n, args.m, args.r, args.lam):
            raise DomainError("verify needs --grid or all of --n --m --r --lambda")
        reports = [verify(ProtocolParams(args.n, args.m, args.r, args.lam), args.tol)]
    _write_json(args.output, [_verify_report_dict(r) for r in reports])
    return 0 if all(r.pass_ for r in reports) else 1


def cmd_correlations(args: argparse.Namespace) -> int:
    from .correlations import correlation_report  # loaded by this command only

    report = correlation_report(args.m, args.r, args.lam)
    _write_json(None, report._asdict())
    return 0


FIGURE_GRID = "0.05:0.95:19"  # the r grid and the lambda grid of every preset
FIGURE_PRESETS = {
    "seq-gain-m3": dict(protocol="sequential", ns=[1], ms=[3]),
    "corr-gain-n2-m1": dict(protocol="correlated", ns=[2], ms=[1]),
    "corr-gain-n5-m1": dict(protocol="correlated", ns=[5], ms=[1]),
    "corr-gain-n4-multi": dict(protocol="correlated", ns=[4], ms=[2, 3, 4]),
    "corr-vs-seq-n4": dict(protocol="corr_vs_seq", ns=[4], ms=[2, 3, 4]),
}


def cmd_figure(args: argparse.Namespace) -> int:
    if args.name == "cutoff":
        from .asymptotics import sequential_cutoff

        ms, cutoff, squared = zip(*map(sequential_cutoff, range(1, 41)))
        table = {"m": ms, "cutoff": cutoff, "squared_cutoff": squared}
        _write_table(args.output, table, "csv")
        return 0
    from .evaluate import evaluate_grid

    grid = _parse_grid(FIGURE_GRID)
    table = evaluate_grid(r_axis=grid, lam_axis=grid, **FIGURE_PRESETS[args.name])
    _write_table(args.output, table, "csv")
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


def _error(message) -> None:
    """Print an `error:` line to stderr; a closed or broken stderr drops it."""
    if sys.stderr is not None:  # print(file=None) would write to stdout
        with contextlib.suppress(OSError):
            print(f"error: {message}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    if sys.stderr is None:  # argparse would print its usage errors to stdout
        with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
            args = parser.parse_args(argv)
    else:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        _error(exc)
        return 2
    except (CapacityError, MemoryError) as exc:
        _error(str(exc) or "out of memory")
        return 4
    except OSError as exc:
        _error(exc)
        return 3


def run() -> NoReturn:
    """The `depolqfi` process: run main on sys.argv, then end the process
    with its exit code at once, skipping the interpreter's teardown, which
    costs a short command a sizeable share of its wall time. That loses
    nothing: main flushes and closes every output, stderr is flushed here,
    and depolqfi has no atexit handlers or threads. argparse's exits (--help,
    usage errors) keep their code, or exit 3 if stdout cannot be flushed; a
    broken stderr changes no code. Uncaught exceptions exit normally."""
    try:
        code = main()
    except SystemExit as exc:  # from argparse, which has written its output
        code = exc.code
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError as err:
            _error(err)
            code = 3
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
