"""Weak-polarization (r << 1) cutoff curves and optimal invocation counts
for the estimation protocols, in scalar `math` arithmetic."""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import DomainError
from .protocols import check_params

FLOOR_NUDGE = 1e-9

# Lambda columns of the optimal-invocation tables.
SPECTATOR_TABLE_LAMBDAS = (0.700, 0.800, 0.900, 0.950, 0.990, 0.995)
ALL_QUBITS_TABLE_LAMBDAS = (0.500, 0.700, 0.900, 0.950, 0.970, 0.990)


class OptimalInvocation(NamedTuple):
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


class CutoffCurve(NamedTuple):
    m: int
    cutoff: float
    squared_cutoff: float


def sequential_cutoff(m: int) -> CutoffCurve:
    """Channel-parameter cutoff m^(1/(2-2m)) above which m sequential uses
    beat the SQSC baseline at low polarization; m = 1 reports the limit
    value e^(-1/2)."""
    check_params(m=m)
    cutoff = math.exp(-0.5) if m == 1 else float(m) ** (1.0 / (2.0 - 2.0 * m))
    return CutoffCurve(m=m, cutoff=cutoff, squared_cutoff=cutoff * cutoff)


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

