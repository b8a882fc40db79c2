"""Brute-force density-matrix oracle for the correlated-state protocol.

Builds the full 2^n x 2^n pipeline (product input, preparatory circuit,
per-qubit channel) and evaluates the QFI spectrally. Each channel acts by
reshaping rho to a (2,)*2n tensor and replacing the hit qubit with I/2 times
its partial trace. The lambda-derivative is carried forward beside rho, so m
channel uses cost O(m) channel applications. Used to verify every closed
form in the package.

The channels and the eigensolve run in a fixed phase frame: S^dagger rho S
with S = diag(1, i) on qubit n. The prepared state is exactly real there, so
they run in float64; if it ever is not, they run in complex128 on the same
frame state. The frame is a lambda-independent unitary that commutes with
every depolarizing use, so it leaves the QFI unchanged.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .correlated import correlated_qfi, final_state
from .errors import DomainError
from .linalg import I2, SIGMA_Y, _qubit_axes, check_capacity, hermitian_eig
from .protocols import ProtocolParams, check_params

QFI_ELEM_EPS = 1e-9
STATE_TOLERANCE = 1e-12


class VerificationReport(NamedTuple):
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
    x, 2) on both sides, then a sum/difference butterfly on each of the n row
    bits, most significant first, and then on each column bit as a row bit of
    the transpose. O(n 4^n) with no 2^n x 2^n unitary; every pass works on
    contiguous runs."""
    check_capacity(n)
    dim = 2**n
    if rho.shape != (dim, dim):
        raise DomainError(f"rho must have shape ({dim}, {dim}), got {rho.shape}")
    ones = ((np.arange(dim)[:, np.newaxis] >> np.arange(n)) & 1).sum(axis=1)
    signs = np.where(ones * (ones - 1) // 2 % 2, -1.0, 1.0)
    # each of the 2n Hadamards carries 1/sqrt(2)
    t = rho * (0.5**n * signs)[:, np.newaxis]
    t *= signs
    diff = np.empty(t.size // 2, dtype=t.dtype)
    for _ in range(2):  # the rows, then the columns as rows of the transpose
        for bit in range(n):
            pairs = t.reshape(2**bit, 2, -1)
            low, high = pairs[:, 0], pairs[:, 1]
            low_minus_high = diff.reshape(low.shape)
            np.subtract(low, high, out=low_minus_high)
            low += high
            high[...] = low_minus_high
        t = np.ascontiguousarray(t.T)
    return t


# (S^dagger rho S)[x, y] = i^(b(y) - b(x)) rho[x, y], b = the top bit (qubit n)
_FRAME_PHASES = np.array([[1.0, 1j], [-1j, 1.0]])


def _rephase(rho: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Each quadrant of rho times its phase: an exact swap and sign change of
    real and imaginary parts."""
    half = rho.shape[0] // 2
    t = rho.reshape(2, half, 2, half) * phases[:, np.newaxis, :, np.newaxis]
    return t.reshape(rho.shape)


def _to_frame(rho: np.ndarray) -> np.ndarray:
    """S^dagger rho S on qubit n: its float64 real part if the imaginary part
    is exactly zero, else the complex128 matrix itself."""
    t = _rephase(rho, _FRAME_PHASES)
    return t if t.imag.any() else np.ascontiguousarray(t.real)


def _from_frame(rho: np.ndarray) -> np.ndarray:
    """S rho S^dagger on qubit n, back in the computational basis."""
    return _rephase(rho, _FRAME_PHASES.conj())


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
        mixed = _mix(rho, qubit, n)
        drho = apply_depolarizing(drho, qubit, lam, n) + rho - mixed
        rho = lam * rho + (1.0 - lam) * mixed
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


def _frame_final_state(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """(rho_f, d rho_f / d lambda) in the phase frame, float64 when exact."""
    rho_i = apply_uprep(initial_product_state(params.n, params.r), params.n)
    return _channels(_to_frame(rho_i), params.m, params.lam, params.n)


def verify(params: ProtocolParams, tolerance: float = 1e-8) -> VerificationReport:
    """Compare the closed-form QFI and reconstructed state against the
    brute-force pipeline: the QFI to relative tolerance, which must be finite
    and >= 0, and every state entry to STATE_TOLERANCE."""
    if not 0.0 <= tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and >= 0, got {tolerance}")
    rho, drho = _frame_final_state(params)
    oracle_value = spectral_qfi(rho, drho)
    closed = correlated_qfi(params)
    rho_f = _from_frame(rho)

    dense_closed = final_state(params)
    max_state_err = float(np.max(np.abs(dense_closed - rho_f)))

    diag = np.real(np.diag(rho_f))
    symmetry_err = float(np.max(np.abs(diag - diag[::-1])))

    if math.isinf(closed) and math.isinf(oracle_value):
        abs_err = 0.0
        rel_err = 0.0
    elif math.isinf(closed) or math.isinf(oracle_value):
        abs_err = rel_err = math.inf  # inf / inf would make rel_err NaN
    else:
        abs_err = abs(closed - oracle_value)
        # floor keeps the ratio meaningful when both sides vanish (r = 0)
        rel_err = abs_err / max(abs(oracle_value), 1e-12)
    passed = rel_err <= tolerance and max_state_err <= STATE_TOLERANCE
    return VerificationReport(
        params=params,
        closed_form_qfi=closed,
        oracle_qfi=oracle_value,
        abs_err=abs_err,
        rel_err=rel_err,
        max_state_entry_err=max_state_err,
        symmetry_err=symmetry_err,
        tolerance=tolerance,
        state_tolerance=STATE_TOLERANCE,
        pass_=passed,
    )
