"""The evaluation core behind `eval`, `sweep` and the figure presets, one
function: evaluate_grid, one protocol's QFI, per-channel QFI, gains and
Cramer-Rao bound for lists of n and m over the outer product of an r axis
and a lambda axis (a number is a one-value axis), as a table of columns.

Nothing here imports numpy at module level. A point of any protocol is
computed with math, so `eval` never loads numpy, as `table`, `correlations`
and `figure cutoff` never do. The commands that load it are `sweep` and the
figure presets, which build grids, and `verify`, through the oracle.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import DomainError
from .protocols import PROTOCOLS, ProtocolParams, check_params, sequential_qfi, sqsc_qfi


def cramer_rao_bound(h: float) -> float:
    """Variance lower bound 1/H of a QFI h; h = 0 maps to +inf and h = inf
    to 0. NaN and negative h are rejected."""
    if not h >= 0.0:
        raise DomainError(f"QFI must be nonnegative, got {h}")
    return 1.0 / h if h else math.inf


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
    protocol: str,
    ns: list[int],
    ms: list[int],
    r_axis,
    lam_axis,
    include_limit: bool = False,
) -> dict[str, list]:
    """Evaluate one protocol for every (n, m) of ns x ms at every point of
    the outer product of r_axis and lam_axis, 1-D arrays or numbers
    (one-value axes). Returns a table: its columns as lists keyed by the CSV
    column names, in output order, one entry per row. The rows are those of
    the distinct (n, m) that they carry (sqsc, independent and sequential
    map several requested pairs to one), in ascending (n, m), each sorted
    stably by (r, lambda) (-0.0 ties with 0.0). A gain is None where r = 0,
    where lambda = 1 or where its reference QFI is 0. Numbers never load
    numpy."""
    if protocol not in PROTOCOLS:
        raise DomainError(f"unknown protocol {protocol!r}")
    shapes = sorted({_carried_shape(protocol, n, m) for n in ns for m in ms})
    r, lam = r_axis, lam_axis
    if not (isinstance(r, (int, float)) and isinstance(lam, (int, float))):
        import numpy as np

        # the points of the grid on one flat, r-major axis
        axes = (np.asarray(x, dtype=float) for x in (r, lam))
        r, lam = (x.ravel() for x in np.meshgrid(*axes, indexing="ij"))
    lam_ref = lam * (lam < 1.0)  # 0 at lambda = 1 keeps the references defined
    rs, lams = _column(r), _column(lam)
    usable = [x > 0.0 and y < 1.0 for x, y in zip(rs, lams)]
    size = len(rs)
    order = sorted(range(size), key=lambda i: (rs[i], lams[i]))  # stable
    table: dict[str, list] = {}
    for n, m in shapes:
        if protocol in ("sqsc", "independent"):
            # sqsc is the independent protocol on one qubit. Its per-channel
            # QFI is sqsc_qfi itself: the round trip m * sqsc_qfi / m can move
            # the last printed digit.
            per_channel = _column(sqsc_qfi(r, lam))
            value = [m * h for h in per_channel]
        else:
            if protocol == "sequential":
                value = _column(sequential_qfi(m, r, lam))
            else:  # correlated / corr_vs_seq
                from .correlated import correlated_qfi

                params = ProtocolParams(n, m, r, lam, include_limit)
                value = _column(correlated_qfi(params))
            per_channel = [h / m for h in value]
        sqsc_ref = _column(sqsc_qfi(r, lam_ref))
        seq_ref = [h / m for h in _column(sequential_qfi(m, r, lam_ref))]
        part = {
            "protocol": [protocol] * size,
            "n": [n] * size,
            "m": [m] * size,
            "r": rs,
            "lambda": lams,
            "qfi": value,
            "qfi_per_channel": per_channel,
            "gain_vs_sqsc": _gains(per_channel, sqsc_ref, usable),
            "gain_vs_seq": _gains(per_channel, seq_ref, usable),
            "crb_variance_bound": [cramer_rao_bound(h) for h in value],
            "method": ["closed_form"] * size,
        }
        for column, values in part.items():
            table.setdefault(column, []).extend(values[i] for i in order)
    return table
