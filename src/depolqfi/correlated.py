"""Correlated-state protocol closed forms.

n qubits are prepared jointly (pairwise controlled-Z gates, then Hadamards)
from identical polarization-r inputs; the channel then acts once on each of
the m least significant qubits. The resulting density matrix splits into
2x2 blocks on span{|x>, |N-x>} with N = 2^n - 1, which makes the QFI a
finite combinatorial sum.

A block depends on x only through the zero counts u (spectator bits) and
v (channel bits). The m channel uses act on v as one (m+1)x(m+1) stochastic
matrix T(lambda), so every block diagonal is an entry of H T^T with
H[u, v'] = d_{u+v'}; _blocks evaluates all of them at once, for a whole
array of (r, lambda) points.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, PositivityError
from .linalg import check_capacity
from .protocols import ProtocolParams

MAX_CLOSED_FORM_N = 60
# Relative to the block's diagonal entry d: the block QFI is homogeneous of
# degree 1 in the state's scale, which shrinks as 2^-(n+1) (1 +/- r)^n.
BLOCK_EPS = 1e-13


def _check_n(n: int) -> None:
    if n > MAX_CLOSED_FORM_N:
        raise DomainError(f"n = {n} exceeds closed-form cap {MAX_CLOSED_FORM_N}")


def _unscaled_coefficients(n: int, r) -> tuple[np.ndarray, np.ndarray]:
    """2^(n+1) times the prepared state's diagonal (d_j) and counter-diagonal
    (c_j) coefficients, indexed by the zero count j of the n-bit string along
    a last axis appended to the shape of r."""
    r = np.asarray(r, dtype=float)[..., np.newaxis]
    j = np.arange(n + 1)
    plus = (1.0 + r) ** j * (1.0 - r) ** (n - j)
    minus = (1.0 + r) ** (n - j) * (1.0 - r) ** j
    return plus + minus, plus - minus


def _transition(m: int, lam) -> np.ndarray:
    """T(lambda) and dT/dlambda, acting on the zero count v of the m
    channel bits, stacked with shape (2,) + lam.shape + (m+1, m+1).

    T[v, v'] sums the bit-flip terms C(v, l) C(m-v, f) q^k p^(m-k), where l
    of the v zeros and f of the m-v ones flip (k = l + f, v' = v - l + f).
    (k, v, v') fixes l and f, so T = w @ flips and dT/dlambda = w' @ flips,
    with w_k = q^k p^(m-k) and the lambda-free table
    flips[k, v, v'] = C(v, l) C(m-v, f). All terms are positive, so T
    carries no cancellation.
    """
    v, el, f = np.indices((m + 1,) * 3).reshape(3, -1)
    keep = (el <= v) & (f <= m - v)
    v, el, f = v[keep], el[keep], f[keep]
    binom = np.array(
        [[math.comb(a, b) for b in range(m + 1)] for a in range(m + 1)], dtype=float
    )
    flips = np.zeros((m + 1,) * 3)
    flips[el + f, v, v - el + f] = binom[v, el] * binom[m - v, f]
    flips = flips.reshape(m + 1, -1)
    lam = np.asarray(lam, dtype=float)[..., np.newaxis]
    p, q = (1.0 + lam) / 2.0, (1.0 - lam) / 2.0
    ks = np.arange(m + 1)
    q_pow, p_pow = q**ks, p ** (m - ks)  # q^k and p^(m-k)
    weight = q_pow * p_pow
    # d/dlambda of q^k p^(m-k), with dp/dlambda = 1/2 and dq/dlambda = -1/2;
    # an exponent is clipped at 0 only where its factor m-k or k is 0
    d_weight = 0.5 * (
        (m - ks) * q_pow * p ** np.maximum(m - ks - 1, 0)
        - ks * q ** np.maximum(ks - 1, 0) * p_pow
    )
    weights = np.stack([weight, d_weight])
    return (weights @ flips).reshape(weights.shape[:-1] + (m + 1, m + 1))


def _blocks(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal d, prepared counter-diagonal c and d/dlambda of d for every
    zero-count profile, as arrays indexed [..., u, v] with u in 0..n-m and v
    in 0..m. d and its derivative lead with the broadcast shape of r and
    lam, c with the shape of r. All three omit the state's scale 2^-(n+1)."""
    n, m = params.n, params.m
    _check_n(n)
    d, c = _unscaled_coefficients(n, params.r)
    window = sliding_window_view(d, m + 1, axis=-1)  # [..., u, v'] = d[..., u + v']
    diag, slope = window @ np.swapaxes(_transition(m, params.lam), -1, -2)
    return diag, sliding_window_view(c, m + 1, axis=-1), slope


def final_state(params: ProtocolParams) -> np.ndarray:
    """Dense 2^n x 2^n final (post-channel) state for scalar r and lambda,
    sum_x [d_x (|x><x| + |N-x><N-x|) + i lambda^m c_x (|x><N-x| - |N-x><x|)]
    over the x whose top bit is 0. Raises CapacityError above dim_cap()."""
    n, m = params.n, params.m
    check_capacity(n)
    diag, counter, _ = _blocks(params)
    scale = 0.5 ** (n + 1)
    diag = scale * diag
    counter = params.lam**m * (scale * counter)
    dim = 2**n
    x = np.arange(dim)
    # Read every x through the member of {x, N-x} with top bit 0, so both
    # halves of a pair carry the same d: diag at the mirrored profile
    # (n-m-u, m-v) can differ from it in the last bit.
    mirrored = x >= dim // 2
    rep = np.where(mirrored, dim - 1 - x, x)
    ones = (rep[:, np.newaxis] >> np.arange(n)) & 1
    u = (n - m) - ones[:, m:].sum(axis=1)
    v = m - ones[:, :m].sum(axis=1)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[x, x] = diag[u, v]
    rho[x, dim - 1 - x] = np.where(mirrored, -1j, 1j) * counter[u, v]
    return rho


def block_qfi(d, c, d_dot, m: int, lam: float):
    """QFI contribution of 2x2 blocks with prepared counter-diagonal c.

    Eigenvalue form: p_pm = d +/- lambda^m c has derivative
    pdot_pm = d_dot +/- m lambda^(m-1) c, and the block contributes
    pdot^2 / p per branch. A branch below BLOCK_EPS * d has vanished: it
    contributes 0 when its derivative is also below BLOCK_EPS * d, +inf
    otherwise (a real rank drop, where the QFI is discontinuous). Takes
    scalars, which give a float, or arrays, which give one value per block;
    lam broadcasts against them too.
    """
    d, c, d_dot = np.broadcast_arrays(d, c, d_dot)
    lm_c = lam**m * c
    slope = m * lam ** (m - 1) * c
    short = d < np.abs(lm_c) - 1e-12 * d
    if np.any(short):
        raise PositivityError(
            f"block positivity violated: d={d[short][0]}, lam^m c={lm_c[short][0]}"
        )
    total = np.zeros(d.shape)
    for sign in (1.0, -1.0):
        p = d + sign * lm_c
        pdot = d_dot + sign * slope
        live = np.where(np.abs(pdot) <= BLOCK_EPS * d, 0.0, math.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            total += np.where(p <= BLOCK_EPS * d, live, pdot * pdot / p)
    return float(total) if total.ndim == 0 else total


def correlated_qfi(params: ProtocolParams):
    """Total QFI of the correlated-state protocol (closed form): a float, or
    an array over the broadcast shape when params carry arrays of r and
    lambda. It is exactly 0 wherever r = 0."""
    n, m = params.n, params.m
    diag, counter, slope = _blocks(params)
    # Each pair {x, N-x} counts once, through the x whose top bit is 0: so
    # u >= 1 when that bit is a spectator (m < n), v >= 1 when it is not.
    if m < n:
        present = np.s_[..., 1:, :]
        weight = np.outer(_comb_row(n - m - 1), _comb_row(m))
    else:
        present = np.s_[..., :, 1:]
        weight = _comb_row(n - 1)
    lam_blocks = np.asarray(params.lam, dtype=float)[..., np.newaxis, np.newaxis]
    h = block_qfi(diag[present], counter[present], slope[present], m, lam_blocks)
    total = 0.5 ** (n + 1) * np.sum(weight * h, axis=(-2, -1))
    # r = 0 prepares I/2^n, which every lambda leaves alone: the QFI is exactly
    # 0 there, where the sum above leaves round-off of about 1e-32
    total = np.where(np.asarray(params.r) == 0.0, 0.0, total)
    return float(total) if total.ndim == 0 else total


def _comb_row(k: int) -> np.ndarray:
    """C(k, 0..k) as floats."""
    return np.array([math.comb(k, i) for i in range(k + 1)], dtype=float)
