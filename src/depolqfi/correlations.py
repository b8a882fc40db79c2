"""Two-qubit correlation analysis of the correlated-state protocol: PPT
separability and quantum discord, from the closed-form spectra of the final
X state. Plain math; nothing here loads numpy."""

from __future__ import annotations

import math
from typing import NamedTuple

from .protocols import check_params

PPT_TOL = 1e-12


class DiscordIntermediates(NamedTuple):
    """Eigen-quantities mu_0..mu_3 (4x the rotated-state eigenvalues) and
    the dominant correlation coefficient c_corr = lambda^m r."""

    mu0: float
    mu1: float
    mu2: float
    mu3: float
    c_corr: float


class CorrelationReport(NamedTuple):
    m: int
    r: float
    lam: float
    ppt_min_eigenvalue: float
    separable: bool
    separability_threshold_r: float
    discord: float
    discord_initial: float


def separability_threshold(m: int, lam: float) -> float:
    """Polarization below which the final two-qubit state stays separable:
    sqrt(1 + 1/lambda^m) - 1, clamped to [0, 1]. lam = 1 is accepted as a
    limit evaluation (the prepared state). Where lambda^m is 0, lam = 0 or
    an underflow, this is the lambda^m -> 0 limit, 1."""
    check_params(m=m, lam=lam, include_limit=True)
    lm = lam**m
    if lm == 0.0:
        return 1.0
    return min(1.0, max(0.0, math.sqrt(1.0 + 1.0 / lm) - 1.0))


def ppt_analysis(m: int, r: float, lam: float) -> tuple[float, bool]:
    """Minimum eigenvalue of the partial transpose and the separable flag.

    The final state is an X state with (1 +- lambda^m r^2)/4 on its diagonal
    and +-i r lambda^m / 2 in its corners. Its partial transpose has the
    eigenvalues (1 + lambda^m r^2)/4 twice and (1 - lambda^m r^2)/4 +-
    r lambda^m / 2, so the smallest is (1 - lambda^m r^2)/4 - r lambda^m / 2.
    lam = 1 is accepted as a limit evaluation (the prepared state).
    """
    check_params(m=m, r=r, lam=lam, include_limit=True)
    lm = lam**m
    min_eig = (1.0 - lm * r * r) / 4.0 - r * lm / 2.0
    return min_eig, min_eig >= -PPT_TOL


def _xlog2x(x: float) -> float:
    """x log2 x with 0 log 0 := 0; clips tiny negative round-off."""
    if x <= 0.0:
        return 0.0
    return x * math.log2(x)


def discord_intermediates(m: int, r: float, lam: float) -> DiscordIntermediates:
    check_params(m=m, r=r, lam=lam, include_limit=True)
    lm = lam**m
    return DiscordIntermediates(
        mu0=1.0 - lm * r * r,
        mu1=1.0 + 2.0 * r * lm + lm * r * r,
        mu2=1.0 - 2.0 * r * lm + lm * r * r,
        mu3=1.0 - lm * r * r,
        c_corr=lm * r,
    )


def discord(m: int, r: float, lam: float) -> float:
    """Quantum discord of the final two-qubit state, in bits.

    lam = 1 evaluates the pre-channel state and equals discord_initial(r).
    """
    inter = discord_intermediates(m, r, lam)
    c = inter.c_corr
    mu_term = 0.25 * sum(
        _xlog2x(mu) for mu in (inter.mu0, inter.mu1, inter.mu2, inter.mu3)
    )
    binary_term = 0.5 * (_xlog2x(1.0 - c) + _xlog2x(1.0 + c))
    return mu_term - binary_term


def discord_initial(r: float) -> float:
    """Discord of the prepared two-qubit state before any channel use."""
    check_params(r=r)
    return 0.5 * (_xlog2x(1.0 + r) + _xlog2x(1.0 - r))


def correlation_report(m: int, r: float, lam: float) -> CorrelationReport:
    min_eig, separable = ppt_analysis(m, r, lam)
    return CorrelationReport(
        m=m,
        r=r,
        lam=lam,
        ppt_min_eigenvalue=min_eig,
        separable=separable,
        separability_threshold_r=separability_threshold(m, lam),
        discord=discord(m, r, lam),
        discord_initial=discord_initial(r),
    )
