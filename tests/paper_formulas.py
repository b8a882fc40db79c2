"""Analytic results of the paper that the tests use as references.

No command prints these, so they live beside the tests rather than in the
package: the two-branch qubit SLD, the pure entangled-pair optimum, the
sequential-use gain and its limits, the weak-polarization (r << 1) limits,
the correlated cutoff, the explicit two-qubit final matrix with its partial
transpose (the dense reference for the closed-form PPT spectrum), the
one-qubit partial trace, the oracle's final state in the computational basis
and the discord rotation. Each checks its domain through depolqfi.protocols,
as the package functions do.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from depolqfi.correlated import final_x_entries
from depolqfi.errors import DomainError
from depolqfi.oracle import (
    _FRAME_PHASES,
    _frame_final_state,
    _is_hermitian,
    check_capacity,
)
from depolqfi.protocols import ProtocolParams, check_params

SLD_ALPHA_TOL = 1e-14

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Single-qubit rotation bringing the final state into Bell-diagonal-like
# form (I + sum_j c_j sigma_j x sigma_j)/4 without changing the discord.
DISCORD_ROTATION = np.array(
    [[0.0, np.exp(1j * np.pi / 8)], [np.exp(-1j * np.pi / 8), 0.0]]
)


class SldComputation(NamedTuple):
    """Symmetric logarithmic derivative L with the purity gap
    alpha = Tr(rho^2) - (Tr rho)^2 and the branch that produced it."""

    alpha: float
    sld: np.ndarray
    branch: str  # "alpha_zero" or "alpha_nonzero"


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
    if not _is_hermitian(rho) or not _is_hermitian(drho):
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


def lowr_sqsc(r: float) -> float:
    """SQSC QFI to lowest order in r."""
    check_params(r=r)
    return r * r


def lowr_sequential_per_channel(m: int, r: float, lam: float) -> float:
    """Sequential per-channel QFI to lowest order in r; lam = 1 is admitted
    as a limit."""
    check_params(m=m, r=r, lam=lam, include_limit=True)
    return m * lam ** (2 * m - 2) * r * r


def lowr_correlated_per_channel(n: int, m: int, r: float, lam: float) -> float:
    """Correlated-protocol per-channel QFI to lowest order in r; lam = 1 is
    admitted as a limit."""
    ProtocolParams(n, m, r, lam, include_limit=True)
    return m * n * lam ** (2 * m - 2) * r * r


def correlated_cutoff(n: int, m: int) -> float:
    """Cutoff (m*n)^(1/(2-2m)) for the correlated protocol; m = 1 returns 0
    since the low-polarization gain is n >= 1 for every lambda."""
    ProtocolParams(n, m, r=0.0, lam=0.0)  # checks n, m and m <= n
    if m == 1:
        return 0.0
    return float(m * n) ** (1.0 / (2.0 - 2.0 * m))


def two_qubit_final_matrix(m: int, r: float, lam: float) -> np.ndarray:
    """Final two-qubit state in the computational basis (n = 2).

    lam = 1 is accepted as a limit evaluation and yields the prepared
    (pre-channel) state.
    """
    check_params(m=m, r=r, lam=lam, include_limit=True)
    lm = lam**m
    diag_plus = (1.0 + lm * r * r) / 4.0
    diag_minus = (1.0 - lm * r * r) / 4.0
    corner = 2.0 * r * lm / 4.0
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = diag_plus
    rho[1, 1] = rho[2, 2] = diag_minus
    rho[0, 3] = 1j * corner
    rho[3, 0] = -1j * corner
    return rho


def _qubit_axes(rho: np.ndarray, qubit_index: int, n: int) -> tuple[int, int]:
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DomainError(f"rho must be square, got shape {rho.shape}")
    dim = rho.shape[0]
    if dim != 2**n:
        raise DomainError(f"rho has dimension {dim}, expected 2**{n}")
    if not 1 <= qubit_index <= n:
        raise DomainError(f"qubit_index {qubit_index} out of range 1..{n}")
    # axis 0 is the most significant row bit (qubit n)
    return n - qubit_index, 2 * n - qubit_index


def partial_transpose(rho: np.ndarray, qubit_index: int, n: int) -> np.ndarray:
    """Transpose the chosen qubit's indices only."""
    row_ax, col_ax = _qubit_axes(rho, qubit_index, n)
    t = rho.reshape([2] * (2 * n))
    t = np.swapaxes(t, row_ax, col_ax)
    d = 2**n
    return t.reshape(d, d)


def partial_trace(rho: np.ndarray, qubit_index: int, n: int) -> np.ndarray:
    """Trace out one qubit, returning a 2**(n-1) dimensional matrix."""
    row_ax, col_ax = _qubit_axes(rho, qubit_index, n)
    t = rho.reshape([2] * (2 * n))
    t = np.trace(t, axis1=row_ax, axis2=col_ax)
    d = 2 ** (n - 1)
    return t.reshape(d, d)


def oracle_final_state(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """Run the full pipeline; returns (rho_f, d rho_f / d lambda) in the
    computational basis."""
    rho, drho = _frame_final_state(params)
    return _from_frame(rho), _from_frame(drho)


def final_state(params: ProtocolParams) -> np.ndarray:
    """Dense 2^n x 2^n final (post-channel) state for scalar r and lambda,
    sum_x [d_x (|x><x| + |N-x><N-x|) + i lambda^m c_x (|x><N-x| - |N-x><x|)]
    over the x whose top bit is 0. Raises CapacityError above the oracle's
    MAX_DENSE_N qubits."""
    check_capacity(params.n)
    diag, counter = final_x_entries(params)
    dim = len(diag)
    x = np.arange(dim)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[x, x] = diag
    rho[x, dim - 1 - x] = np.where(x >= dim // 2, -1j, 1j) * counter
    return rho


def _rephase(rho: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Each quadrant of rho times its phase: an exact swap and sign change of
    real and imaginary parts."""
    half = rho.shape[0] // 2
    t = rho.reshape(2, half, 2, half) * phases[:, np.newaxis, :, np.newaxis]
    return t.reshape(rho.shape)


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
