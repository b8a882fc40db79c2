"""Closed-form single-qubit protocols for depolarizing-channel estimation.

Covers the single-qubit single-channel (SQSC) baseline, its pure-state and
entangled-pair reference values, the independent and sequential multi-use
protocols, and the sequential-use gain with its limit evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .linalg import is_hermitian

SLD_ALPHA_TOL = 1e-14


def lam_pow(lam: float, k: int) -> float:
    """lam**k with the convention 0**0 = 1."""
    if k == 0:
        return 1.0
    return lam**k


@dataclass(frozen=True)
class ProtocolParams:
    """Parameter bundle (n qubits, m channel invocations, polarization r,
    channel parameter lambda). lam = 1 is only admitted for explicit limit
    evaluations via include_limit=True."""

    n: int
    m: int
    r: float
    lam: float
    include_limit: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1 or int(self.n) != self.n:
            raise DomainError(f"n must be an integer >= 1, got {self.n}")
        if self.m < 1 or int(self.m) != self.m:
            raise DomainError(f"m must be an integer >= 1, got {self.m}")
        if not 0.0 <= self.r <= 1.0:
            raise DomainError(f"r must lie in [0, 1], got {self.r}")
        lam_max_ok = self.lam <= 1.0 if self.include_limit else self.lam < 1.0
        if not (0.0 <= self.lam and lam_max_ok):
            bound = "[0, 1]" if self.include_limit else "[0, 1)"
            raise DomainError(f"lambda must lie in {bound}, got {self.lam}")

    @property
    def p(self) -> float:
        return (1.0 + self.lam) / 2.0

    @property
    def q(self) -> float:
        return (1.0 - self.lam) / 2.0


@dataclass(frozen=True)
class SldComputation:
    """Symmetric logarithmic derivative L with the purity gap
    alpha = Tr(rho^2) - (Tr rho)^2 and the branch that produced it."""

    alpha: float
    sld: np.ndarray
    branch: str  # "alpha_zero" or "alpha_nonzero"


@dataclass(frozen=True)
class QfiReport:
    value: float
    per_channel: float
    method: str  # "closed_form" or "oracle"
    params: ProtocolParams


def sqsc_qfi(r: float, lam: float) -> float:
    """Baseline QFI for a single qubit and a single channel invocation."""
    _check_r_lam(r, lam)
    return r * r / (1.0 - lam * lam * r * r)


def pure_sqsc_qfi(lam: float) -> float:
    """SQSC baseline specialized to a pure input (r = 1)."""
    _check_r_lam(1.0, lam)
    return 1.0 / (1.0 - lam * lam)


def pure_entangled_qfi(lam: float) -> float:
    """Optimal pure-state value: one channel use on half of a maximally
    entangled qubit pair (the isotropic-state family lam*Phi + (1-lam)I/4)."""
    _check_r_lam(1.0, lam)
    return 3.0 / ((1.0 + 3.0 * lam) * (1.0 - lam))


def qubit_sld(rho: np.ndarray, drho: np.ndarray) -> SldComputation:
    """SLD of a 2x2 state from (rho, drho) via the corrected two-branch
    closed form; L satisfies drho = (L rho + rho L)/2."""
    if rho.shape != (2, 2) or drho.shape != (2, 2):
        raise DomainError("qubit_sld expects 2x2 matrices")
    if not is_hermitian(rho) or not is_hermitian(drho):
        raise DomainError("rho and drho must be Hermitian")
    tr = float(np.trace(rho).real)
    if abs(tr) < 1e-14:
        raise DomainError("Tr rho = 0 is outside the SLD domain")
    dtr = float(np.trace(drho).real)
    alpha = float((np.trace(rho @ rho) - np.trace(rho) ** 2).real)
    # d alpha / d lambda from the product rule
    dalpha = float(2.0 * (np.trace(rho @ drho)).real - 2.0 * tr * dtr)
    eye = np.eye(2, dtype=complex)
    if abs(alpha) <= SLD_ALPHA_TOL:
        dln_tr = dtr / tr
        sld = (2.0 * drho - dln_tr * rho) / tr
        branch = "alpha_zero"
    else:
        dln_alpha = dalpha / alpha
        dln_ratio = dln_alpha - dtr / tr
        sld = (2.0 * drho - dln_alpha * rho) / tr + dln_ratio * eye
        branch = "alpha_nonzero"
    return SldComputation(alpha=alpha, sld=sld, branch=branch)


def independent_qfi(m: int, r: float, lam: float) -> QfiReport:
    """m independent qubits, one channel use each: QFI is additive."""
    _check_m(m)
    base = sqsc_qfi(r, lam)
    params = ProtocolParams(n=m, m=m, r=r, lam=lam)
    return QfiReport(
        value=m * base, per_channel=base, method="closed_form", params=params
    )


def sequential_qfi(m: int, r: float, lam: float) -> QfiReport:
    """m sequential channel uses on one qubit."""
    _check_m(m)
    _check_r_lam(r, lam)
    value = (
        m * m * lam_pow(lam, 2 * m - 2) * r * r
        / (1.0 - lam_pow(lam, 2 * m) * r * r)
    )
    params = ProtocolParams(n=1, m=m, r=r, lam=lam)
    return QfiReport(
        value=value, per_channel=value / m, method="closed_form", params=params
    )


def sequential_gain(m: int, r: float, lam: float) -> float:
    """Per-channel QFI of the sequential protocol over the SQSC baseline.

    lam = 1 is accepted as a limit evaluation; the r = 1 case uses the
    reduced form m / sum_k y^k with y = 1/lam^2, which avoids the 0/0
    as lam -> 1.
    """
    _check_m(m)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"r must lie in [0, 1], got {r}")
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1] for gains, got {lam}")
    if r == 1.0:
        if lam == 0.0:
            return 1.0 if m == 1 else 0.0
        y = 1.0 / (lam * lam)
        return m / sum(y**k for k in range(m))
    num = m * (lam_pow(lam, 2 * m - 2) - lam_pow(lam, 2 * m) * r * r)
    den = 1.0 - lam_pow(lam, 2 * m) * r * r
    return num / den


def sequential_extra_invocation_advantage(m: int, lam: float) -> float:
    """Threshold on r^2 under which an (m+1)-th sequential invocation helps.

    Negative means no polarization benefits; lam = 0 returns -inf.
    """
    _check_m(m)
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    if lam == 0.0:
        return -math.inf
    return (lam * lam * (m + 1) - m) / lam ** (2 * m + 2)


def _check_m(m: int) -> None:
    if m < 1 or int(m) != m:
        raise DomainError(f"m must be an integer >= 1, got {m}")


def _check_r_lam(r: float, lam: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"r must lie in [0, 1], got {r}")
    if not 0.0 <= lam < 1.0:
        raise DomainError(f"lambda must lie in [0, 1), got {lam}")
