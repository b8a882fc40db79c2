"""Brute-force density-matrix oracle for the correlated-state protocol.

Builds the full 2^n x 2^n pipeline (product input, preparatory circuit,
per-qubit channel) and evaluates the QFI spectrally. The circuit is 2n
sum/difference butterflies written over the product state. Each channel use
replaces the hit qubit with I/2 times its partial trace, in place, on its
two diagonal sub-blocks. The lambda-derivative is carried forward beside
rho along one walk per (n, r, lambda): n uses, on qubits 1..n in turn, with
the QFI read after each use that is verified. Used to verify every closed
form in the package.

The channels and the eigensolve run in a fixed phase frame: S^dagger rho S
with S = diag(1, i) on qubit n. The prepared state is exactly real there, so
they run in float64; if it ever is not, they run in complex128 on the same
frame state. The frame is a lambda-independent unitary that commutes with
every depolarizing use, so it leaves the QFI unchanged.

Every stage works in place where it can, and after the eigensolve the QFI
and the state check read one block of 2^n / 8 rows at a time: the arrays of
a verify peak below 4.8 float64 2^n x 2^n matrices for n >= 8 (rho,
drho, the eigenvectors, the kept QFI terms and one block's scratch),
besides the eigensolver's workspace, which sets the process's peak.
The oracle allows n <= MAX_DENSE_N qubits, the counterpart of the closed
form's MAX_CLOSED_FORM_N; spectral_qfi checks rho is Hermitian
(HERMITIAN_TOL) first.

The closed-form modules are imported before numpy: where no bytecode is
cached, they then compile before numpy loads, in memory that numpy's
objects reuse. Compiled after numpy, they leave about 0.9 MB of allocator
arenas pinned under the eigensolve's peak RSS.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

# before numpy, so that they compile before it loads (see the docstring)
from .correlated import correlated_qfi
from .arrays import final_x_entries

import numpy as np

from .errors import CapacityError, DomainError
from .protocols import ProtocolParams, check_params

MAX_DENSE_N = 12  # 2^12 x 2^12 matrices: about 0.8 GB for one verify
HERMITIAN_TOL = 1e-12
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


def check_capacity(n: int) -> None:
    """Raise CapacityError if n exceeds MAX_DENSE_N, before anything of size
    2^n is formed."""
    if n > MAX_DENSE_N:
        raise CapacityError(f"dimension 2**{n} exceeds cap {2**MAX_DENSE_N}")


def initial_product_state(n: int, r: float) -> np.ndarray:
    """n-fold tensor power of (I + r sigma_y)/2."""
    check_params(n=n, r=r)
    check_capacity(n)
    single = (np.eye(2, dtype=complex) + r * np.array([[0, -1j], [1j, 0]])) / 2.0
    rho = single
    for _ in range(n - 1):
        # np.kron(rho, single), one entry of single at a time: a product
        # with no broadcast, for which numpy allocates no iteration buffers
        out = np.empty((len(rho), 2) * 2, dtype=complex)
        for k, el in np.ndindex(2, 2):
            np.multiply(rho, single[k, el], out=out[:, k, :, el])
        rho = out.reshape(2 * len(rho), -1)
    return rho


def apply_uprep(rho: np.ndarray, n: int) -> np.ndarray:
    """U rho U^dagger for the preparatory circuit U (controlled-Z on every
    qubit pair, then a Hadamard on every qubit), written over rho, a writable
    C-contiguous float or complex array: the CZ signs (-1)^C(popcount x, 2)
    on both sides, then a sum/difference butterfly on each of the 2n bits of
    the flat (row, column) index, top bit first. O(n 4^n); its one buffer is
    half of rho (a peak of 1.05 float64 2^n x 2^n matrices for a complex rho)."""
    check_capacity(n)
    dim = 2**n
    if rho.shape != (dim, dim):
        raise DomainError(f"rho must have shape ({dim}, {dim}), got {rho.shape}")
    if not (rho.flags.c_contiguous and rho.flags.writeable and rho.dtype.kind in "fc"):
        # reshape would copy an array of another layout, not transform it
        raise DomainError("rho must be a writable C-contiguous float or complex array")
    ones = ((np.arange(dim)[:, np.newaxis] >> np.arange(n)) & 1).sum(axis=1)
    signs = np.where(ones * (ones - 1) // 2 % 2, -1.0, 1.0)
    # each of the 2n Hadamards carries 1/sqrt(2)
    rho *= (0.5**n * signs)[:, np.newaxis]
    rho *= signs
    diff = np.empty(rho.size // 2, dtype=rho.dtype)
    for bit in range(2 * n):
        low, high = np.moveaxis(rho.reshape(2**bit, 2, -1), 1, 0)
        low_minus_high = np.subtract(low, high, out=diff.reshape(low.shape))
        low += high
        high[...] = low_minus_high
    return rho


# (S^dagger rho S)[x, y] = i^(b(y) - b(x)) rho[x, y], b = the top bit (qubit n)
_FRAME_PHASES = np.array([[1.0, 1j], [-1j, 1.0]])


def _to_frame(rho: np.ndarray) -> np.ndarray:
    """S^dagger rho S on qubit n, rephasing the complex rho in place (an exact
    swap and sign change of real and imaginary parts in each quadrant): its
    float64 real part if the imaginary part is exactly zero, else rho."""
    half = rho.shape[0] // 2
    quadrants = rho.reshape(2, half, 2, half)  # a view: rho is contiguous
    quadrants *= _FRAME_PHASES[:, np.newaxis, :, np.newaxis]
    return rho if rho.imag.any() else np.ascontiguousarray(rho.real)


def _channels(
    rho: np.ndarray, lam: float, n: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The walk: the channel on qubits 1..n in turn, applied to rho in place;
    yields (rho, d rho / d lambda), the same two arrays, after each use.

    Forward-mode product rule: one use maps (rho, drho) to
    (Phi rho, Phi drho + rho - I/2 tensor Tr_qubit rho), with
    Phi rho = lam rho + (1 - lam) I/2 tensor Tr_qubit rho. I/2 tensor Tr_qubit
    is zero off the qubit's two diagonal sub-blocks and their half-trace
    (t_00 + t_11)/2 on both, so a use scales each matrix and adds
    quarter-size half-traces to those sub-blocks.
    """
    rho = np.ascontiguousarray(rho)
    drho = np.zeros_like(rho)
    for qubit in range(1, n + 1):
        # (bits above, row bit, bits below, bits above, column bit, bits below)
        shape = (2 ** (n - qubit), 2, 2 ** (qubit - 1)) * 2
        r, d = rho.reshape(shape), drho.reshape(shape)
        blocks = r[:, 0, :, :, 0], r[:, 1, :, :, 1]
        dblocks = d[:, 0, :, :, 0], d[:, 1, :, :, 1]
        mixed = np.add(*blocks)
        mixed *= 0.5
        dmixed = np.add(*dblocks)
        dmixed *= 0.5
        dmixed *= 1.0 - lam
        d *= lam
        for block in dblocks:
            block += dmixed
        d += r
        for block in dblocks:
            block -= mixed
        r *= lam
        mixed *= 1.0 - lam
        for block in blocks:
            block += mixed
        del mixed, dmixed  # no half-trace stays alive while the reader works
        yield rho, drho


def _is_hermitian(a: np.ndarray) -> bool:
    """max|a - a^dagger| <= HERMITIAN_TOL * max|a|: relative to a's own
    scale, so the zero matrix passes."""
    return bool(np.max(np.abs(a - a.conj().T)) <= HERMITIAN_TOL * np.max(np.abs(a)))


def _row_blocks(dim: int) -> Iterator[slice]:
    """The rows of a dim x dim matrix, dim / 8 at a time and at least two:
    numpy multiplies one row by BLAS gemv, whose sums can round apart from
    the gemm of the whole matrix."""
    step = max(dim // 8, 2)
    return (slice(start, start + step) for start in range(0, dim, step))


def spectral_qfi(rho: np.ndarray, drho: np.ndarray) -> float:
    """QFI from the eigenbasis matrix-element form
    H = sum_{j,k} 2 |<phi_j| drho |phi_k>|^2 / (p_j + p_k).

    After the eigensolve it works one block of rows j at a time, and its
    only full-size arrays are the eigenvectors and one vector of the kept
    terms. The terms go into it in row-major order and are summed once, so
    the sum has the bits of one sum over the whole matrix of terms."""
    if rho.shape != drho.shape:
        raise DomainError(f"shape mismatch: {rho.shape} vs {drho.shape}")
    if not _is_hermitian(rho):
        raise DomainError(f"rho is not Hermitian to {HERMITIAN_TOL:g} of its scale")
    p, v = np.linalg.eigh(rho)
    # eigh resolves eigenvalues only to about len(p) * eps * p_max; pairs
    # summing below that are zero. Both thresholds are relative, so the QFI
    # scales with (rho, drho).
    floor = len(p) * np.finfo(float).eps * p[-1]
    terms = np.empty(v.size)
    kept = 0
    mag_max = small_max = 0.0  # over all pairs, and over the pairs below floor
    for rows in _row_blocks(len(p)):
        # a real v is its own conjugate: no copy of it
        elems = (v[:, rows].conj().T if np.iscomplexobj(v) else v.T[rows]) @ drho @ v
        mags = np.abs(elems, out=None if np.iscomplexobj(elems) else elems)
        del elems
        psum = np.add.outer(p[rows], p)
        small = psum < floor
        mag_max = np.maximum(mag_max, mags.max())  # keeps a NaN, as one max would
        small_max = max(small_max, mags.max(where=small, initial=0.0))
        safe = np.logical_not(small, out=small)
        mags *= mags
        mags *= 2.0
        np.divide(mags, psum, out=mags, where=safe)
        block = mags[safe]
        terms[kept : kept + block.size] = block
        kept += block.size
    if small_max > QFI_ELEM_EPS * mag_max:
        return math.inf
    return float(np.sum(terms[:kept]))


def _walk(params: ProtocolParams) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(rho, d rho / d lambda) in the phase frame, float64 when exact, after
    use params.m and after each later use of the walk of params' n, r and lam."""
    # no name keeps the complex prepared state once it is framed
    rho = _to_frame(apply_uprep(initial_product_state(params.n, params.r), params.n))
    return itertools.islice(_channels(rho, params.lam, params.n), params.m - 1, None)


def _frame_final_state(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """(rho_f, d rho_f / d lambda) in the phase frame, float64 when exact."""
    return next(_walk(params))


def _state_errors(rho: np.ndarray, params: ProtocolParams) -> tuple[float, float]:
    """(max |closed form - oracle| over all entries, max |d_x - d_(N-x)|) for
    the frame state rho.

    The closed form is zero off the X pattern, where the error is |rho|. On
    it, the frame leaves the diagonal d_x as it is and turns the
    counter-diagonal +-i lambda^m c_x into -lambda^m c_x; the frame's phases
    are exact, so these are the errors in the computational basis."""
    diag, counter = final_x_entries(params)
    x = np.arange(len(rho))
    on_diag, anti = rho[x, x], rho[x, x[::-1]]
    maxima = [np.max(np.abs(on_diag - diag)), np.max(np.abs(anti + counter))]
    for rows in _row_blocks(len(rho)):
        off = np.abs(rho[rows])
        at = np.arange(len(off))
        off[at, x[rows]] = off[at, x[::-1][rows]] = 0.0
        maxima.append(np.max(off))
    d = on_diag.real
    return float(np.max(maxima)), float(np.max(np.abs(d - d[::-1])))


def verify(params: ProtocolParams, tolerance: float = 1e-8) -> VerificationReport:
    """Compare the closed-form QFI and reconstructed state against the
    brute-force pipeline: the QFI to relative tolerance, which must be finite
    and >= 0, and every state entry to STATE_TOLERANCE."""
    return next(verify_walk(params, tolerance))


def verify_walk(
    params: ProtocolParams, tolerance: float = 1e-8
) -> Iterator[VerificationReport]:
    """verify(params._replace(m=k), tolerance) for k = params.m..n in turn,
    from one walk: one preparation, and no eigensolve before use params.m."""
    if not 0.0 <= tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and >= 0, got {tolerance}")
    for m, (rho, drho) in enumerate(_walk(params), params.m):
        params = params._replace(m=m)
        oracle_value = spectral_qfi(rho, drho)
        closed = correlated_qfi(params)
        max_state_err, symmetry_err = _state_errors(rho, params)

        if math.isinf(closed) and math.isinf(oracle_value):
            abs_err = rel_err = 0.0
        elif math.isinf(closed) or math.isinf(oracle_value):
            abs_err = rel_err = math.inf  # inf / inf would make rel_err NaN
        else:
            abs_err = abs(closed - oracle_value)
            # floor keeps the ratio meaningful when both sides vanish (r = 0)
            rel_err = abs_err / max(abs(oracle_value), 1e-12)
        passed = rel_err <= tolerance and max_state_err <= STATE_TOLERANCE
        yield VerificationReport(
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
