"""Brute-force density-matrix oracle for the correlated-state protocol.

Builds the full 2^n x 2^n pipeline (product input, preparatory circuit,
per-qubit channel) and evaluates the QFI spectrally. Each channel acts by
reshaping rho to a (2,)*2n tensor and replacing the hit qubit with I/2 times
its partial trace. The lambda-derivative is carried forward beside rho, so m
channel uses cost O(m) channel applications. Used to verify every closed
form in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlated import correlated_qfi, final_state
from .errors import DomainError
from .linalg import I2, SIGMA_Y, _qubit_axes, check_capacity, hermitian_eig
from .protocols import ProtocolParams, check_params

QFI_ELEM_EPS = 1e-9


@dataclass(frozen=True)
class VerificationReport:
    params: ProtocolParams
    closed_form_qfi: float
    oracle_qfi: float
    abs_err: float
    rel_err: float
    max_state_entry_err: float
    symmetry_err: float
    tolerance: float
    state_tolerance: float
    pass_: bool


def initial_product_state(n: int, r: float) -> np.ndarray:
    """n-fold tensor power of (I + r sigma_y)/2."""
    check_params(n=n, r=r)
    check_capacity(n)
    single = (I2 + r * SIGMA_Y) / 2.0
    rho = single
    for _ in range(n - 1):
        rho = np.kron(rho, single)
    return rho


def apply_uprep(rho: np.ndarray, n: int) -> np.ndarray:
    """U rho U^dagger for the preparatory circuit U (controlled-Z on every
    qubit pair, then a Hadamard on every qubit): the CZ signs (-1)^C(popcount
    x, 2) on both sides, then a sum/difference butterfly on each of the 2n
    row and column axes, O(n 4^n) with no 2^n x 2^n unitary."""
    check_capacity(n)
    dim = 2**n
    if rho.shape != (dim, dim):
        raise DomainError(f"rho must have shape ({dim}, {dim}), got {rho.shape}")
    ones = ((np.arange(dim)[:, np.newaxis] >> np.arange(n)) & 1).sum(axis=1)
    signs = np.where(ones * (ones - 1) // 2 % 2, -1.0, 1.0)
    # each of the 2n Hadamards carries 1/sqrt(2)
    t = rho * (0.5**n * signs)[:, np.newaxis]
    t *= signs
    t = t.reshape((2,) * (2 * n))
    for axis in range(2 * n):
        low, high = np.moveaxis(t, axis, 0)
        diff = low - high
        low += high
        high[...] = diff
    return t.reshape(dim, dim)


def _mix(rho: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """I/2 tensor Tr_qubit rho, with I/2 at the qubit's slot."""
    axes = _qubit_axes(rho, qubit, n)
    t = np.moveaxis(rho.reshape((2,) * (2 * n)), axes, (0, 1))
    out = np.zeros_like(t)
    out[0, 0] = out[1, 1] = 0.5 * (t[0, 0] + t[1, 1])
    return np.moveaxis(out, (0, 1), axes).reshape(rho.shape)


def apply_depolarizing(rho: np.ndarray, qubit: int, lam: float, n: int) -> np.ndarray:
    """One depolarizing-channel invocation on the given qubit."""
    check_params(lam=lam, include_limit=True)
    return lam * rho + (1.0 - lam) * _mix(rho, qubit, n)


def _channels(
    rho: np.ndarray, m: int, lam: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The channel on each of qubits 1..m; returns (rho_f, d rho_f / d lambda).

    Forward-mode product rule: one use maps (rho, drho) to
    (Phi rho, Phi drho + rho - I/2 tensor Tr_qubit rho).
    """
    drho = np.zeros_like(rho)
    for qubit in range(1, m + 1):
        drho = apply_depolarizing(drho, qubit, lam, n) + rho - _mix(rho, qubit, n)
        rho = apply_depolarizing(rho, qubit, lam, n)
    return rho, drho


def spectral_qfi(rho: np.ndarray, drho: np.ndarray) -> float:
    """QFI from the eigenbasis matrix-element form
    H = sum_{j,k} 2 |<phi_j| drho |phi_k>|^2 / (p_j + p_k)."""
    if rho.shape != drho.shape:
        raise DomainError(f"shape mismatch: {rho.shape} vs {drho.shape}")
    spec = hermitian_eig(rho)
    p = spec.eigenvalues
    v = spec.eigenvectors
    elems = v.conj().T @ drho @ v
    psum = p[:, np.newaxis] + p[np.newaxis, :]
    mags = np.abs(elems)
    # eigh resolves eigenvalues only to about len(p) * eps * p_max; pairs
    # summing below that are zero. Both thresholds are relative, so the QFI
    # scales with (rho, drho).
    small = psum < len(p) * np.finfo(float).eps * p[-1]
    if np.any(small & (mags > QFI_ELEM_EPS * mags.max())):
        return math.inf
    safe = ~small
    return float(np.sum(2.0 * mags[safe] ** 2 / psum[safe]))


def oracle_final_state(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """Run the full pipeline; returns (rho_f, d rho_f / d lambda)."""
    rho_i = apply_uprep(initial_product_state(params.n, params.r), params.n)
    return _channels(rho_i, params.m, params.lam, params.n)


def verify(
    params: ProtocolParams,
    tolerance: float = 1e-8,
    state_tolerance: float = 1e-12,
) -> VerificationReport:
    """Compare the closed-form QFI and reconstructed state against the
    brute-force pipeline. Both tolerances must be finite and >= 0."""
    for name, tol in (("tolerance", tolerance), ("state_tolerance", state_tolerance)):
        if not 0.0 <= tol < math.inf:
            raise DomainError(f"{name} must be finite and >= 0, got {tol}")
    rho_f, drho = oracle_final_state(params)
    oracle_value = spectral_qfi(rho_f, drho)
    closed = correlated_qfi(params)

    dense_closed = final_state(params)
    max_state_err = float(np.max(np.abs(dense_closed - rho_f)))

    diag = np.real(np.diag(rho_f))
    symmetry_err = float(np.max(np.abs(diag - diag[::-1])))

    if math.isinf(closed) and math.isinf(oracle_value):
        abs_err = 0.0
        rel_err = 0.0
    else:
        abs_err = abs(closed - oracle_value)
        # floor keeps the ratio meaningful when both sides vanish (r = 0)
        rel_err = abs_err / max(abs(oracle_value), 1e-12)
    passed = rel_err <= tolerance and max_state_err <= state_tolerance
    return VerificationReport(
        params=params,
        closed_form_qfi=closed,
        oracle_qfi=oracle_value,
        abs_err=abs_err,
        rel_err=rel_err,
        max_state_entry_err=max_state_err,
        symmetry_err=symmetry_err,
        tolerance=tolerance,
        state_tolerance=state_tolerance,
        pass_=passed,
    )
