"""The array evaluation core behind `eval`, `sweep` and the figure presets:
one protocol's QFI, per-channel QFI, gains and Cramer-Rao bound over whole
arrays of (r, lambda) points, returned as rows.

The command line imports this module, and with it numpy, only in the
commands that evaluate arrays; `table` and `figure cutoff` print scalar
formulas and never load it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .correlated import correlated_qfi
from .errors import DomainError
from .protocols import PROTOCOLS, ProtocolParams, check_params, sequential_qfi, sqsc_qfi


class ResultRow(NamedTuple):
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
) -> list[ResultRow]:
    """Evaluate one protocol for one (n, m) at every point of the equally
    shaped arrays r and lam, in their flat order. A gain is empty where
    r = 0, where lambda = 1 or where its reference QFI is 0."""
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
    refs = sqsc_qfi(r, lam_ref), sequential_qfi(m, r, lam_ref) / m
    crb = cramer_rao_bound(value)
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
    """Evaluate a full grid, one array evaluation for each distinct (n, m)
    that the rows carry (sqsc, independent and sequential map several
    requested pairs to one); rows come back sorted by (n, m, r, lambda),
    since the grids may be unsorted."""
    r, lam = np.meshgrid(r_grid, lambda_grid, indexing="ij")
    shapes = dict.fromkeys(_carried_shape(protocol, n, m) for n in ns for m in ms)
    rows = [
        row
        for n, m in shapes
        for row in evaluate_grid(protocol, n, m, r, lam, include_limit)
    ]
    rows.sort(key=lambda row: (row.n, row.m, row.r, row.lam))
    return rows


def _parse_grid(raw: str) -> np.ndarray:
    try:
        start, stop, count = raw.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise DomainError(f"grid must be start:stop:count, got {raw!r}") from None
    if count < 1:
        raise DomainError(f"grid count must be >= 1, got {count}")
    return np.linspace(start, stop, count)
