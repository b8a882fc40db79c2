"""Weak-polarization (r << 1) limits, cutoff curves and optimal invocation
counts for the estimation protocols."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .protocols import ProtocolParams, check_params

FLOOR_NUDGE = 1e-9

# Lambda columns of the optimal-invocation tables.
SPECTATOR_TABLE_LAMBDAS = (0.700, 0.800, 0.900, 0.950, 0.990, 0.995)
ALL_QUBITS_TABLE_LAMBDAS = (0.500, 0.700, 0.900, 0.950, 0.970, 0.990)


@dataclass(frozen=True)
class OptimalInvocation:
    """Optimal channel-use count at low polarization.

    spectator mode (m < n) optimizes m * lam^(2m-2), a per-spectator-count
    coefficient (gain divided by n); all_qubits mode (m = n) optimizes the
    absolute gain m^2 * lam^(2m-2). At integer thresholds both m_opt and
    m_opt + 1 achieve the same gain and tie_partner is populated.
    """

    lam: float
    mode: str
    m_opt: int
    tie_partner: Optional[int]
    optimal_gain_coefficient: float


@dataclass(frozen=True)
class CutoffCurve:
    m: int
    cutoff: float
    squared_cutoff: float


def lowr_sqsc(r: float) -> float:
    """SQSC QFI to lowest order in r."""
    check_params(r=r)
    return r * r


def lowr_sequential_per_channel(m: int, r: float, lam: float) -> float:
    """Sequential per-channel QFI to lowest order in r; lam = 1 is admitted
    as a limit."""
    check_params(m=m, r=r, lam=lam, include_limit=True)
    return m * lam ** (2 * m - 2) * r * r


def lowr_correlated_per_channel(n: int, m: int, r: float, lam: float) -> float:
    """Correlated-protocol per-channel QFI to lowest order in r; lam = 1 is
    admitted as a limit."""
    ProtocolParams(n, m, r, lam, include_limit=True)
    return m * n * lam ** (2 * m - 2) * r * r


def sequential_cutoff(m: int) -> CutoffCurve:
    """Channel-parameter cutoff m^(1/(2-2m)) above which m sequential uses
    beat the SQSC baseline at low polarization; m = 1 reports the limit
    value e^(-1/2)."""
    check_params(m=m)
    cutoff = math.exp(-0.5) if m == 1 else float(m) ** (1.0 / (2.0 - 2.0 * m))
    return CutoffCurve(m=m, cutoff=cutoff, squared_cutoff=cutoff * cutoff)


def correlated_cutoff(n: int, m: int) -> float:
    """Cutoff (m*n)^(1/(2-2m)) for the correlated protocol; m = 1 returns 0
    since the low-polarization gain is n >= 1 for every lambda."""
    ProtocolParams(n, m, r=0.0, lam=0.0)  # checks n, m and m <= n
    if m == 1:
        return 0.0
    return float(m * n) ** (1.0 / (2.0 - 2.0 * m))


def optimal_invocations(lam: float, mode: str) -> OptimalInvocation:
    """Optimal number of channel invocations at low polarization.

    The threshold is lam^2/(1-lam^2) in spectator mode and lam/(1-lam) in
    all_qubits mode; m_opt = floor(threshold) + 1, except at integer
    thresholds where m_opt = threshold ties with m_opt + 1.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lambda must lie in (0, 1), got {lam}")
    if mode == "spectator":
        threshold = lam * lam / (1.0 - lam * lam)
    elif mode == "all_qubits":
        threshold = lam / (1.0 - lam)
    else:
        raise DomainError(f"mode must be 'spectator' or 'all_qubits', got {mode!r}")
    floored = math.floor(threshold + FLOOR_NUDGE)
    if abs(threshold - floored) <= FLOOR_NUDGE and floored >= 1:
        m_opt, tie = floored, floored + 1
    else:
        m_opt, tie = floored + 1, None
    if mode == "spectator":
        coeff = m_opt * lam ** (2 * m_opt - 2)
    else:
        coeff = m_opt * m_opt * lam ** (2 * m_opt - 2)
    return OptimalInvocation(
        lam=lam, mode=mode, m_opt=m_opt, tie_partner=tie,
        optimal_gain_coefficient=coeff,
    )


def optimal_invocation_table(mode: str) -> list[OptimalInvocation]:
    """Rows of the optimal-invocation table for the given mode."""
    lams = (
        SPECTATOR_TABLE_LAMBDAS if mode == "spectator" else ALL_QUBITS_TABLE_LAMBDAS
    )
    return [optimal_invocations(lam, mode) for lam in lams]


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
