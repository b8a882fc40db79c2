"""Dense linear algebra for multi-qubit density matrices.

Bit convention, used everywhere in this package: qubit 1 is the least
significant bit, so a basis index x reads x_n ... x_1 with qubit n leftmost.
Matrices are square numpy arrays, complex128 or, where a state is exactly
real (the oracle's phase frame), float64; operators on n qubits have
dimension 2**n.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError, NumericError

DEFAULT_DIM_CAP = 2**12
HERMITIAN_TOL = 1e-12

I2 = np.eye(2, dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def dim_cap() -> int:
    """Current dense dimension cap; override with env var DEPOLQFI_MAX_DIM."""
    raw = os.environ.get("DEPOLQFI_MAX_DIM")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise DomainError(f"DEPOLQFI_MAX_DIM must be an integer, got {raw!r}") from None
    if cap < 2:
        raise DomainError(f"DEPOLQFI_MAX_DIM must be >= 2, got {cap}")
    return cap


def check_capacity(n: int) -> None:
    """Raise CapacityError if a dense n-qubit matrix exceeds dim_cap()."""
    if 2**n > dim_cap():
        raise CapacityError(f"dimension 2**{n} exceeds cap {dim_cap()}")


def _check_square(a: np.ndarray, name: str = "matrix") -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    return a.shape[0]


def is_hermitian(a: np.ndarray) -> bool:
    """max|a - a^dagger| <= HERMITIAN_TOL * max|a|: relative to a's own
    scale, so the zero matrix passes. One temporary of a's size holds
    a^dagger, then |a - a^dagger|, then |a|."""
    work = np.conjugate(a.T)
    np.subtract(a, work, out=work)
    asymmetry = np.abs(work, out=work).real.max()
    return bool(asymmetry <= HERMITIAN_TOL * np.abs(a, out=work).real.max())


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors[:, k] is the
    orthonormal eigenvector for eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(a: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian-flagged matrix."""
    _check_square(a, "matrix")
    if not is_hermitian(a):
        raise DomainError(
            f"matrix is not Hermitian within relative tolerance {HERMITIAN_TOL:g}"
        )
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        residual = float(np.max(np.abs(a - a.conj().T)))
        raise NumericError(
            f"eigensolver failed to converge (asymmetry residual {residual:g})"
        ) from exc
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)
