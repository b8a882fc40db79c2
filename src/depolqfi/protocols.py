"""Closed-form single-qubit protocols for depolarizing-channel estimation.

Covers the single-qubit single-channel (SQSC) baseline and the sequential
multi-use protocol, together with the one domain check (check_params) and the
validated correlated-protocol point (ProtocolParams) that the other modules
share. Nothing here imports numpy at module level; the closed forms are plain
arithmetic that also works on arrays.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError

PROTOCOLS = ("sqsc", "independent", "sequential", "correlated", "corr_vs_seq")


def check_params(n=None, m=None, r=None, lam=None, include_limit: bool = False) -> None:
    """Raise DomainError unless each argument given is in its domain: n and m
    integers >= 1, r in [0, 1] and lambda in [0, 1), or in [0, 1] with
    include_limit. Arguments left at None are not checked. r and lambda may
    be arrays; every entry is checked, and NaN fails."""
    for name, k in (("m", m), ("n", n)):
        if k is not None and not (k >= 1 and float(k).is_integer()):
            raise DomainError(f"{name} must be an integer >= 1, got {k}")
    if r is None and lam is None:
        return
    import numpy as np  # here, so that the n and m rule alone never loads numpy

    for name, values, closed in (("r", r, True), ("lambda", lam, include_limit)):
        if values is None:
            continue
        values = np.asarray(values, dtype=float)
        inside = (values >= 0.0) & ((values <= 1.0) if closed else (values < 1.0))
        if not inside.all():
            bound = "[0, 1]" if closed else "[0, 1)"
            bad = values[~inside].flat[0]
            raise DomainError(f"{name} must lie in {bound}, got {bad}")


class _Point(NamedTuple):
    n: int
    m: int
    r: float
    lam: float


class ProtocolParams(_Point):
    """A validated correlated-protocol point: n qubits, m <= n channel
    invocations, polarization r and channel parameter lambda. lam = 1 is
    only admitted for explicit limit evaluations via include_limit=True,
    which the constructor checks and does not store."""

    __slots__ = ()

    def __new__(cls, n: int, m: int, r, lam, include_limit: bool = False):
        check_params(n, m, r, lam, include_limit)
        if m > n:
            raise DomainError(
                f"correlated protocol requires m <= n, got m={m}, n={n}"
            )
        return super().__new__(cls, n, m, r, lam)


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
