"""The array evaluation core behind `eval`, `sweep` and the figure presets:
one protocol's QFI, per-channel QFI, gains and Cramer-Rao bound over whole
arrays of (r, lambda) points, returned as a table of columns.

The command line imports this module, and with it numpy, only in the
commands that evaluate arrays; `table` and `figure cutoff` print scalar
formulas and never load it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .correlated import correlated_qfi
from .errors import DomainError
from .protocols import PROTOCOLS, ProtocolParams, check_params, sequential_qfi, sqsc_qfi


def cramer_rao_bound(h):
    """Variance lower bound 1/H; h = 0 maps to +inf and h = inf to 0. h may
    be an array, which gives one bound per entry; NaN is rejected."""
    h = np.asarray(h, dtype=float)
    valid = h >= 0.0
    if not valid.all():
        raise DomainError(f"QFI must be nonnegative, got {h[~valid].flat[0]}")
    with np.errstate(divide="ignore"):
        bound = 1.0 / h
    return float(bound) if bound.ndim == 0 else bound


def _gains(per_channel, ref, usable: np.ndarray) -> list[Optional[float]]:
    """per_channel / ref where usable and ref != 0, None elsewhere."""
    usable = usable & (ref != 0.0)
    ratio = per_channel / np.where(usable, ref, 1.0)
    return [
        g if ok else None
        for g, ok in zip(np.ravel(ratio).tolist(), np.ravel(usable).tolist())
    ]


def _carried_shape(protocol: str, n: int, m: int) -> tuple[int, int]:
    """The (n, m) that a protocol's rows carry, after checking the requested
    pair: sqsc is one qubit used once, independent m qubits used once each,
    sequential one qubit used m times."""
    check_params(n=n, m=m)
    shapes = {"sqsc": (1, 1), "independent": (m, m), "sequential": (1, m)}
    return shapes.get(protocol, (n, m))


def evaluate_grid(
    protocol: str, n: int, m: int, r, lam, include_limit: bool = False
) -> dict[str, list]:
    """Evaluate one protocol for one (n, m) at every point of the equally
    shaped arrays (or scalars) r and lam, in their flat order. Returns a
    table: its columns as lists with one entry per point, keyed by the CSV
    column names. A gain is None where r = 0, where lambda = 1 or where its
    reference QFI is 0."""
    if protocol not in PROTOCOLS:
        raise DomainError(f"unknown protocol {protocol!r}")
    n, m = _carried_shape(protocol, n, m)
    r, lam = np.asarray(r, dtype=float), np.asarray(lam, dtype=float)
    if protocol in ("sqsc", "independent"):
        # sqsc is the independent protocol on one qubit. Its per-channel QFI
        # is sqsc_qfi itself: the round trip m * sqsc_qfi / m can move the
        # last printed digit.
        per_channel = sqsc_qfi(r, lam)
        value = m * per_channel
    else:
        if protocol == "sequential":
            value = sequential_qfi(m, r, lam)
        else:  # correlated / corr_vs_seq
            value = correlated_qfi(ProtocolParams(n, m, r, lam, include_limit))
        per_channel = value / m

    usable = (r > 0.0) & (lam < 1.0)
    lam_ref = np.where(usable, lam, 0.0)  # keeps the references defined at lambda = 1
    sqsc_ref, seq_ref = sqsc_qfi(r, lam_ref), sequential_qfi(m, r, lam_ref) / m
    size = r.size
    return {
        "protocol": [protocol] * size,
        "n": [n] * size,
        "m": [m] * size,
        "r": np.ravel(r).tolist(),
        "lambda": np.ravel(lam).tolist(),
        "qfi": np.ravel(value).tolist(),
        "qfi_per_channel": np.ravel(per_channel).tolist(),
        "gain_vs_sqsc": _gains(per_channel, sqsc_ref, usable),
        "gain_vs_seq": _gains(per_channel, seq_ref, usable),
        "crb_variance_bound": np.ravel(cramer_rao_bound(value)).tolist(),
        "method": ["closed_form"] * size,
    }


def sweep_rows(
    protocol: str,
    ns: list[int],
    ms: list[int],
    r_grid: np.ndarray,
    lambda_grid: np.ndarray,
    include_limit: bool = False,
) -> dict[str, list]:
    """Evaluate a full grid as one table, one array evaluation for each
    distinct (n, m) that the rows carry (sqsc, independent and sequential map
    several requested pairs to one). The rows are in (n, m, r, lambda) order,
    since the grids may be unsorted; equal keys keep the grids' order."""
    r, lam = np.meshgrid(r_grid, lambda_grid, indexing="ij")
    order = np.lexsort((lam.ravel(), r.ravel()))  # stable; -0.0 ties with 0.0
    # sorted, in the meshgrid's shape: the closed form's round-off depends
    # on the shape of its arrays (at r = 0 it returns about 1e-32, not 0)
    r, lam = (a.ravel()[order].reshape(a.shape) for a in (r, lam))
    shapes = sorted({_carried_shape(protocol, n, m) for n in ns for m in ms})
    table: dict[str, list] = {}
    for n, m in shapes:
        part = evaluate_grid(protocol, n, m, r, lam, include_limit)
        for column, values in part.items():
            table.setdefault(column, []).extend(values)
    return table


def _parse_grid(raw: str) -> np.ndarray:
    try:
        start, stop, count = raw.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise DomainError(f"grid must be start:stop:count, got {raw!r}") from None
    if count < 1:
        raise DomainError(f"grid count must be >= 1, got {count}")
    return np.linspace(start, stop, count)
