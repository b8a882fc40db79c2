"""Closed-form single-qubit protocols for depolarizing-channel estimation.

Covers the single-qubit single-channel (SQSC) baseline and the sequential
multi-use protocol, together with the one domain check (check_params) and the
validated correlated-protocol point (ProtocolParams) that the other modules
share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


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


def sqsc_qfi(r: float, lam: float) -> float:
    """Baseline QFI for a single qubit and a single channel invocation;
    r and lam may be arrays."""
    check_params(r=r, lam=lam)
    return r * r / (1.0 - lam * lam * r * r)


def sequential_qfi(m: int, r: float, lam: float) -> float:
    """QFI of m sequential channel uses on one qubit; r and lam may be
    arrays."""
    check_params(m=m, r=r, lam=lam)
    return m * m * lam ** (2 * m - 2) * r * r / (1.0 - lam ** (2 * m) * r * r)
