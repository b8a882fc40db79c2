"""Closed-form single-qubit protocols for depolarizing-channel estimation.

Covers the single-qubit single-channel (SQSC) baseline and the sequential
multi-use protocol, together with the one domain check (check_params) and the
validated correlated-protocol point (ProtocolParams) that the other modules
share. Nothing here imports numpy: the closed forms run in math floats on
numbers and axes, and check_params checks numbers.
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
    lambda are numbers (np.float64 and 0-d arrays too); NaN fails."""
    for name, k in (("m", m), ("n", n)):
        if k is None:
            continue
        # past MAX_COUNT, float(k) and the closed forms' lambda**k can overflow
        if k > MAX_COUNT:
            raise DomainError(f"{name} must be an integer <= 2**53, got {k}")
        if not (k >= 1 and float(k).is_integer()):
            raise DomainError(f"{name} must be an integer >= 1, got {k}")
    for name, value, closed in (("r", r, True), ("lambda", lam, include_limit)):
        if value is None:
            continue
        value = float(value)  # a list or an array of several values: TypeError
        if not (0.0 <= value <= 1.0 and (closed or value < 1.0)):
            bound = "[0, 1]" if closed else "[0, 1)"
            raise DomainError(f"{name} must lie in {bound}, got {value}")


class _Point(NamedTuple):
    n: int
    m: int
    r: float
    lam: float


class ProtocolParams(_Point):
    """A validated correlated-protocol point: n qubits, m <= n channel
    invocations, polarization r and channel parameter lambda, stored as
    floats. lam = 1 is only admitted for explicit limit evaluations via
    include_limit=True, which the constructor checks and does not store."""

    __slots__ = ()

    def __new__(cls, n: int, m: int, r, lam, include_limit: bool = False):
        check_params(n, m, r, lam, include_limit)
        if m > n:
            raise DomainError(
                f"correlated protocol requires m <= n, got m={m}, n={n}"
            )
        return super().__new__(cls, n, m, float(r), float(lam))


def _axis(values) -> list[float]:
    """An axis's values as floats, in order; a number is a one-value axis."""
    if isinstance(values, (int, float)):
        return [float(values)]
    if hasattr(values, "ravel"):  # a numpy array or scalar: numpy is loaded
        return values.ravel().astype(float).tolist()
    return [float(x) for x in values]


def sqsc_qfi(r, lam):
    """Baseline QFI of one qubit and one channel use: sequential_qfi at m = 1."""
    return sequential_qfi(1, r, lam)


def sequential_qfi(m: int, r, lam):
    """QFI of m sequential channel uses on one qubit, in math floats. r and
    lam are each a number or an axis (a list, tuple or 1-D array): two
    numbers give a float, else the r-major list over the outer product of
    their axes. m, then every r, then every lambda is checked. The
    denominator 1 - lambda^(2m) r^2 is -expm1(2m ln lambda + 2 ln r), which
    keeps its relative accuracy as r and lambda approach 1; ln 0 is -inf."""
    check_params(m=m)
    r_axis, lam_axis = _axis(r), _axis(lam)
    for x in r_axis:
        check_params(r=x)
    for y in lam_axis:
        check_params(lam=y)

    def log(x):  # math.log(0) raises; -0.0 too
        return math.log(x) if x else -math.inf

    lam_terms = [(m * m * y ** (2 * m - 2), 2 * m * log(y)) for y in lam_axis]
    values = []
    for x in r_axis:
        log_r = 2 * log(x)
        values += [c * x * x / -math.expm1(z + log_r) for c, z in lam_terms]
    numbers = isinstance(r, (int, float)) and isinstance(lam, (int, float))
    return values[0] if numbers else values
