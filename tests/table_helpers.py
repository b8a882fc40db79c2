"""Reading the evaluation core's column tables in tests: one point's row, and
what the command line writes for a table."""

from __future__ import annotations

import contextlib
import io

from depolqfi.cli import _write_table
from depolqfi.evaluate import evaluate_grid


def point(protocol: str, n: int, m: int, r, lam, include_limit: bool = False) -> dict:
    """The one row of a one-point evaluate_grid table, keyed by column."""
    table = evaluate_grid(protocol, [n], [m], r, lam, include_limit)
    assert all(len(values) == 1 for values in table.values())
    return {column: values[0] for column, values in table.items()}


def written(table: dict, fmt: str = "csv") -> str:
    """The text the command line writes for a table: CSV or JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_table(None, table, fmt)
    return out.getvalue()
