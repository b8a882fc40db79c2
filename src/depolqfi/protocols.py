"""Closed-form single-qubit protocols for depolarizing-channel estimation.

Covers the single-qubit single-channel (SQSC) baseline and the sequential
multi-use protocol, together with the one domain check (check_params) and the
validated correlated-protocol point (ProtocolParams) that the other modules
share. Nothing here imports numpy at module level: check_params and the
closed forms compute plain numbers with math and load numpy only for arrays.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError

PROTOCOLS = ("sqsc", "independent", "sequential", "correlated", "corr_vs_seq")
MAX_COUNT = 2**53  # every integer up to here is a float64 exactly


def check_params(n=None, m=None, r=None, lam=None, include_limit: bool = False) -> None:
    """Raise DomainError unless each argument given is in its domain: n and m
    integers in [1, MAX_COUNT], r in [0, 1] and lambda in [0, 1), or in
    [0, 1] with include_limit. Arguments left at None are not checked. r and
    lambda may be arrays; every entry is checked, and NaN fails."""
    for name, k in (("m", m), ("n", n)):
        if k is None:
            continue
        # past MAX_COUNT, float(k) and the closed forms' lambda**k can overflow
        if k > MAX_COUNT:
            raise DomainError(f"{name} must be an integer <= 2**53, got {k}")
        if not (k >= 1 and float(k).is_integer()):
            raise DomainError(f"{name} must be an integer >= 1, got {k}")
    for name, values, closed in (("r", r, True), ("lambda", lam, include_limit)):
        if values is None:
            continue
        if isinstance(values, (int, float)):  # np.float64 too: no numpy needed
            value = float(values)
            inside = 0.0 <= value <= 1.0 and (closed or value < 1.0)
            outside = [] if inside else [value]
        else:
            import numpy as np  # here, so that scalar checks never load numpy

            values = np.asarray(values, dtype=float)
            inside = (values >= 0.0) & ((values <= 1.0) if closed else (values < 1.0))
            outside = values[~inside]
        if len(outside):
            bound = "[0, 1]" if closed else "[0, 1)"
            raise DomainError(f"{name} must lie in {bound}, got {outside[0]}")


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
    return sequential_qfi(1, r, lam)


def sequential_qfi(m: int, r: float, lam: float) -> float:
    """QFI of m sequential channel uses on one qubit; r and lam may be
    arrays. The denominator 1 - lambda^(2m) r^2 is formed as
    -expm1(2m log lambda + 2 log r), which keeps its relative accuracy as
    r and lambda approach 1. Plain numbers are computed with math, so that
    they never load numpy; arrays with numpy."""
    check_params(m=m, r=r, lam=lam)
    if isinstance(r, (int, float)) and isinstance(lam, (int, float)):
        # math.log(0) raises where np.log gives -inf, whose -expm1 is the exact 1
        zero = r == 0.0 or lam == 0.0  # -0.0 too
        gap = 1.0 if zero else -math.expm1(2 * m * math.log(lam) + 2 * math.log(r))
    else:
        import numpy as np

        with np.errstate(divide="ignore"):
            gap = -np.expm1(2 * m * np.log(lam) + 2 * np.log(r))
    qfi = m * m * lam ** (2 * m - 2) * r * r / gap
    return qfi if getattr(qfi, "ndim", 0) else float(qfi)
