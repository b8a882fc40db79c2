"""The evaluation core behind `eval`, `sweep` and the figure presets: one
protocol's QFI, per-channel QFI, gains and Cramer-Rao bound over the outer
product of an r axis and a lambda axis (a number is a one-value axis),
returned as a table of columns.

Nothing here imports numpy at module level. A point of sqsc, independent or
sequential is computed with math, so `eval` of those protocols never loads
numpy, as `table`, `correlations` and `figure cutoff` never do. The commands
that load it are `sweep` and the figure presets, which build grids, `verify`,
through the oracle, and `eval` of the correlated protocols, whose closed form
evaluates arrays even at one point.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from .errors import DomainError
from .protocols import PROTOCOLS, ProtocolParams, check_params, sequential_qfi, sqsc_qfi

if TYPE_CHECKING:
    import numpy as np


def cramer_rao_bound(h):
    """Variance lower bound 1/H; h = 0 maps to +inf and h = inf to 0. h may
    be an array, which gives one bound per entry; NaN is rejected."""
    if isinstance(h, (int, float)):  # a plain number: no numpy needed
        if not h >= 0.0:
            raise DomainError(f"QFI must be nonnegative, got {h}")
        return 1.0 / h if h else math.inf
    import numpy as np

    h = np.asarray(h, dtype=float)
    valid = h >= 0.0
    if not valid.all():
        raise DomainError(f"QFI must be nonnegative, got {h[~valid].flat[0]}")
    with np.errstate(divide="ignore"):
        bound = 1.0 / h
    return float(bound) if bound.ndim == 0 else bound


def _column(values) -> list[float]:
    """The entries of a number or an array, in flat order."""
    return values.ravel().tolist() if hasattr(values, "ravel") else [float(values)]


def _gains(per_channel: list, ref: list, usable: list) -> list[Optional[float]]:
    """per_channel / ref where usable and ref != 0, None elsewhere."""
    return [
        h / h_ref if ok and h_ref != 0.0 else None
        for h, h_ref, ok in zip(per_channel, ref, usable)
    ]


def _carried_shape(protocol: str, n: int, m: int) -> tuple[int, int]:
    """The (n, m) that a protocol's rows carry, after checking the requested
    pair: sqsc is one qubit used once, independent m qubits used once each,
    sequential one qubit used m times."""
    check_params(n=n, m=m)
    shapes = {"sqsc": (1, 1), "independent": (m, m), "sequential": (1, m)}
    return shapes.get(protocol, (n, m))


def evaluate_grid(
    protocol: str, n: int, m: int, r_axis, lam_axis, include_limit: bool = False
) -> dict[str, list]:
    """Evaluate one protocol for one (n, m) at every point of the outer
    product of r_axis and lam_axis, 1-D arrays or numbers (one-value axes).
    Returns a table: its columns as lists keyed by the CSV column names, in
    output order, one entry per point, sorted stably by (r, lambda) (-0.0
    ties with 0.0). A gain is None where r = 0, where lambda = 1 or where
    its reference QFI is 0. Two numbers load numpy only for the correlated
    protocols."""
    if protocol not in PROTOCOLS:
        raise DomainError(f"unknown protocol {protocol!r}")
    n, m = _carried_shape(protocol, n, m)
    r, lam = r_axis, lam_axis
    if not (isinstance(r, (int, float)) and isinstance(lam, (int, float))):
        import numpy as np

        # a column of r against a row of lambda: the closed forms broadcast
        # them, so their r-only and lambda-only parts run on the axes alone
        r = np.asarray(r, dtype=float).reshape(-1, 1)
        lam = np.asarray(lam, dtype=float).reshape(1, -1)
    if protocol in ("sqsc", "independent"):
        # sqsc is the independent protocol on one qubit. Its per-channel QFI
        # is sqsc_qfi itself: the round trip m * sqsc_qfi / m can move the
        # last printed digit.
        per_channel = sqsc_qfi(r, lam)
        value = m * per_channel
    else:
        if protocol == "sequential":
            value = sequential_qfi(m, r, lam)
        else:  # correlated / corr_vs_seq: the one closed form that needs numpy
            from .correlated import correlated_qfi

            value = correlated_qfi(ProtocolParams(n, m, r, lam, include_limit))
        per_channel = value / m

    lam_ref = lam * (lam < 1.0)  # 0 at lambda = 1 keeps the references defined
    sqsc_ref = _column(sqsc_qfi(r, lam_ref))
    seq_ref = [h / m for h in _column(sequential_qfi(m, r, lam_ref))]
    rs, lams = _column(r), _column(lam)
    rs, lams = [x for x in rs for _ in lams], lams * len(rs)
    per_channels = _column(per_channel)
    usable = [x > 0.0 and y < 1.0 for x, y in zip(rs, lams)]
    size = len(rs)
    table = {
        "protocol": [protocol] * size,
        "n": [n] * size,
        "m": [m] * size,
        "r": rs,
        "lambda": lams,
        "qfi": _column(value),
        "qfi_per_channel": per_channels,
        "gain_vs_sqsc": _gains(per_channels, sqsc_ref, usable),
        "gain_vs_seq": _gains(per_channels, seq_ref, usable),
        "crb_variance_bound": _column(cramer_rao_bound(value)),
        "method": ["closed_form"] * size,
    }
    order = sorted(range(size), key=lambda i: (rs[i], lams[i]))  # stable
    return {column: [values[i] for i in order] for column, values in table.items()}


def sweep_rows(
    protocol: str,
    ns: list[int],
    ms: list[int],
    r_grid: np.ndarray,
    lambda_grid: np.ndarray,
    include_limit: bool = False,
) -> dict[str, list]:
    """Evaluate a full grid as one table: the evaluate_grid tables of the
    distinct (n, m) that the rows carry (sqsc, independent and sequential map
    several requested pairs to one), in ascending (n, m), so the rows are in
    (n, m, r, lambda) order."""
    shapes = sorted({_carried_shape(protocol, n, m) for n in ns for m in ms})
    table: dict[str, list] = {}
    for n, m in shapes:
        part = evaluate_grid(protocol, n, m, r_grid, lambda_grid, include_limit)
        for column, values in part.items():
            table.setdefault(column, []).extend(values)
    return table

