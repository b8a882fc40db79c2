"""Closed-form single-qubit protocols for depolarizing-channel estimation.

Covers the single-qubit single-channel (SQSC) baseline, its entangled-pair
reference value, the independent and sequential multi-use protocols, and the
sequential-use gain with its limit evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .linalg import is_hermitian

SLD_ALPHA_TOL = 1e-14


def check_params(n=1, m=1, r=0.0, lam=0.0, include_limit: bool = False) -> None:
    """Raise DomainError unless n and m are integers >= 1, r lies in [0, 1]
    and lambda in [0, 1), or in [0, 1] with include_limit. r and lambda may
    be arrays; every entry is checked, and NaN fails."""
    for name, k in (("m", m), ("n", n)):
        if not (k >= 1 and float(k).is_integer()):
            raise DomainError(f"{name} must be an integer >= 1, got {k}")
    for name, values, closed in (("r", r, True), ("lambda", lam, include_limit)):
        values = np.asarray(values, dtype=float)
        inside = (values >= 0.0) & ((values <= 1.0) if closed else (values < 1.0))
        if not inside.all():
            bound = "[0, 1]" if closed else "[0, 1)"
            bad = values[~inside].flat[0]
            raise DomainError(f"{name} must lie in {bound}, got {bad}")


@dataclass(frozen=True)
class ProtocolParams:
    """A validated correlated-protocol point: n qubits, m <= n channel
    invocations, polarization r and channel parameter lambda. lam = 1 is
    only admitted for explicit limit evaluations via include_limit=True."""

    n: int
    m: int
    r: float
    lam: float
    include_limit: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        check_params(self.n, self.m, self.r, self.lam, self.include_limit)
        if self.m > self.n:
            raise DomainError(
                f"correlated protocol requires m <= n, got m={self.m}, n={self.n}"
            )


@dataclass(frozen=True)
class SldComputation:
    """Symmetric logarithmic derivative L with the purity gap
    alpha = Tr(rho^2) - (Tr rho)^2 and the branch that produced it."""

    alpha: float
    sld: np.ndarray
    branch: str  # "alpha_zero" or "alpha_nonzero"


def sqsc_qfi(r: float, lam: float) -> float:
    """Baseline QFI for a single qubit and a single channel invocation;
    r and lam may be arrays."""
    check_params(r=r, lam=lam)
    return r * r / (1.0 - lam * lam * r * r)


def pure_entangled_qfi(lam: float) -> float:
    """Optimal pure-state value: one channel use on half of a maximally
    entangled qubit pair (the isotropic-state family lam*Phi + (1-lam)I/4)."""
    check_params(lam=lam)
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


def independent_qfi(m: int, r: float, lam: float) -> float:
    """QFI of m independent qubits, one channel use each: QFI is additive.
    r and lam may be arrays."""
    check_params(m=m)
    return m * sqsc_qfi(r, lam)


def sequential_qfi(m: int, r: float, lam: float) -> float:
    """QFI of m sequential channel uses on one qubit; r and lam may be
    arrays."""
    check_params(m=m, r=r, lam=lam)
    return m * m * lam ** (2 * m - 2) * r * r / (1.0 - lam ** (2 * m) * r * r)


def sequential_gain(m: int, r: float, lam: float) -> float:
    """Per-channel QFI of the sequential protocol over the SQSC baseline.

    lam = 1 is accepted as a limit evaluation; the r = 1 case uses the
    reduced form m / sum_k y^k with y = 1/lam^2, which avoids the 0/0
    as lam -> 1.
    """
    check_params(m=m, r=r, lam=lam, include_limit=True)
    if r == 1.0:
        if lam == 0.0:
            return 1.0 if m == 1 else 0.0
        y = 1.0 / (lam * lam)
        return m / sum(y**k for k in range(m))
    num = m * (lam ** (2 * m - 2) - lam ** (2 * m) * r * r)
    den = 1.0 - lam ** (2 * m) * r * r
    return num / den


def sequential_extra_invocation_advantage(m: int, lam: float) -> float:
    """Threshold on r^2 under which an (m+1)-th sequential invocation helps.

    Negative means no polarization benefits; lam = 0 returns -inf.
    """
    check_params(m=m, lam=lam, include_limit=True)
    if lam == 0.0:
        return -math.inf
    return (lam * lam * (m + 1) - m) / lam ** (2 * m + 2)

