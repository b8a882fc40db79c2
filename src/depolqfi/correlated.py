"""Correlated-state protocol closed forms.

n qubits are prepared jointly (pairwise controlled-Z gates, then Hadamards)
from identical polarization-r inputs; the channel then acts once on each of
the m least significant qubits. The resulting density matrix splits into
2x2 blocks on span{|x>, |N-x>} with N = 2^n - 1, which makes the QFI a
finite combinatorial sum.

A block depends on x only through the zero counts u (spectator bits) and
v (channel bits). The m channel uses act on v as one (m+1)x(m+1) stochastic
matrix T(lambda), so every block diagonal is an entry of H T^T with
H[u, v'] = d_{u+v'}; _blocks evaluates all of them at once, for r and
lambda that broadcast, such as a column of r against a row of lambda.

A block's eigenvalues are p_pm = d +/- lambda^m c. The mirror (u, v) ->
(n-m-u, m-v), the profile of N-x, swaps P_+ and P_- and leaves d and T
alone, so it sends p_+ to p_-, and p_- needs no evaluation of its own: the
QFI is 2^-(n+1) sum_(u,v) C(n-m, u) C(m, v) pdot_+^2 / p_+, one branch over
every profile. p_+ is a sum of nonnegative terms, accurate as r and lambda
approach 1. The QFI is inf only where p_+ is exactly 0 and its slope is not,
as at r = lambda = 1. For lambda < 1 it is 0 only at r = 1, on the blocks
that no bit flip links to j = 0 or n, and so is its slope.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError
from .protocols import ProtocolParams

MAX_CLOSED_FORM_N = 60


def _unscaled_coefficients(n: int, r) -> tuple[np.ndarray, np.ndarray]:
    """P+_j = (1+r)^j (1-r)^(n-j) and P-_j = P+_(n-j), indexed by the zero
    count j of the n-bit string along a last axis appended to the shape of r.
    2^(n+1) times the prepared state's diagonal is d_j = P+_j + P-_j, and its
    counter-diagonal c_j = P+_j - P-_j."""
    r = np.asarray(r, dtype=float)[..., np.newaxis]
    j = np.arange(n + 1)
    plus = (1.0 + r) ** j * (1.0 - r) ** (n - j)
    return plus, plus[..., ::-1]


def _transition(m: int, lam) -> tuple[np.ndarray, np.ndarray]:
    """T(lambda) without its no-flip part p^m I, and dT/dlambda in full,
    acting on the zero count v of the m channel bits: a pair of arrays of
    shape lam.shape + (m+1, m+1).

    T[v, v'] sums the bit-flip terms C(v, l) C(m-v, f) q^k p^(m-k), where l
    of the v zeros and f of the m-v ones flip (k = l + f, v' = v - l + f).
    (k, v, v') fixes l and f, so T = w @ flips and dT/dlambda = w' @ flips,
    with w_k = q^k p^(m-k) and the lambda-free table
    flips[k, v, v'] = C(v, l) C(m-v, f). All terms are positive, so T
    carries no cancellation.
    """
    ks = np.arange(m + 1)
    v, el, f = ks[:, np.newaxis, np.newaxis], ks[:, np.newaxis], ks
    v, el, f = np.nonzero((el <= v) & (f <= m - v))  # the triples that occur
    binom = np.array(
        [[math.comb(a, b) for b in range(m + 1)] for a in range(m + 1)], dtype=float
    )
    flips = np.zeros((m + 1,) * 3)
    flips[el + f, v, v - el + f] = binom[v, el] * binom[m - v, f]
    flips = flips.reshape(m + 1, -1)
    lam = np.asarray(lam, dtype=float)[..., np.newaxis]
    p, q = (1.0 + lam) / 2.0, (1.0 - lam) / 2.0
    q_pow, p_pow = q**ks, p ** (m - ks)  # q^k and p^(m-k)
    weight = (ks > 0) * q_pow * p_pow  # the flip terms of T only
    # d/dlambda of q^k p^(m-k), with dp/dlambda = 1/2 and dq/dlambda = -1/2;
    # an exponent is clipped at 0 only where its factor m-k or k is 0
    d_weight = 0.5 * (
        (m - ks) * q_pow * p ** np.maximum(m - ks - 1, 0)
        - ks * q ** np.maximum(ks - 1, 0) * p_pow
    )
    weights = np.stack([weight, d_weight])
    # one 2-D product whatever lam's shape: a batched matmul of single rows
    # takes another kernel, which rounds differently
    flat = weights.reshape(-1, m + 1) @ flips
    t, d_t = flat.reshape(weights.shape[:-1] + (m + 1, m + 1))
    return t, d_t


def _blocks(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """The block eigenvalue p_+ = d + lambda^m c and its lambda-slope
    pdot_+ = d_dot + m lambda^(m-1) c of every zero-count profile, indexed
    [..., u, v]: the broadcast shape of r and lam, u in 0..n-m and v in
    0..m; without the state's scale 2^-(n+1). With j = u + v,
    p_+ = T_(k>=1) d + (p^m + lambda^m) P_+ + (p^m - lambda^m) P_-, where
    p^m - lambda^m = q sum_i p^i lambda^(m-1-i): no term is negative.
    p_- and its slope are these at the mirror (n-m-u, m-v): [..., ::-1, ::-1]."""
    n, m = params.n, params.m
    if n > MAX_CLOSED_FORM_N:
        raise DomainError(f"n = {n} exceeds closed-form cap {MAX_CLOSED_FORM_N}")
    # [..., u, v'] = P[..., u + v'], so [..., u, v] is P_j
    plus, minus = (
        sliding_window_view(a, m + 1, axis=-1)
        for a in _unscaled_coefficients(n, params.r)
    )
    d = plus + minus
    flips, slope = (d @ np.swapaxes(t, -1, -2) for t in _transition(m, params.lam))
    lam = np.asarray(params.lam, dtype=float)[..., np.newaxis, np.newaxis]
    p, i = (1.0 + lam) / 2.0, np.arange(m)
    gap = (1.0 - lam) / 2.0 * np.sum(
        p[..., np.newaxis] ** i * lam[..., np.newaxis] ** (m - 1 - i), axis=-1
    )
    eig = flips + (p**m + lam**m) * plus + gap * minus
    return eig, slope + m * lam ** (m - 1) * (plus - minus)


def final_x_entries(params: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of the final (post-channel) state for scalar r and
    lambda, as two arrays over x = 0..2^n - 1: its diagonal d_x and the
    magnitudes lambda^m c_x of its counter-diagonal, where
    rho[x, N-x] = i lambda^m c_x if the top bit of x is 0 and
    -i lambda^m c_x if it is 1. Every other entry is 0."""
    n, m = params.n, params.m
    eig = 0.5 ** (n + 2) * _blocks(params)[0]
    mirror = eig[::-1, ::-1]  # p_-, at the profile of N-x
    # x and N-x add the same two floats, so d_x = d_(N-x) to the bit
    diag, counter = eig + mirror, eig - mirror
    ones = (np.arange(2**n)[:, np.newaxis] >> np.arange(n)) & 1
    u = (n - m) - ones[:, m:].sum(axis=1)
    v = m - ones[:, :m].sum(axis=1)
    # an x with top bit 1 is N-x of one with top bit 0, where eig - mirror is -c
    return diag[u, v], (1 - 2 * ones[:, -1]) * counter[u, v]


def block_qfi(p, p_dot):
    """QFI contribution p_dot^2 / p of block eigenvalues p with lambda-slopes
    p_dot, one per entry (a float for scalars). p = 0 contributes 0 where
    p_dot = 0 too, +inf otherwise: a real rank drop, where the QFI is
    discontinuous."""
    p, p_dot = np.asarray(p, dtype=float), np.asarray(p_dot, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(p == 0.0, np.where(p_dot == 0.0, 0.0, math.inf), p_dot * p_dot / p)
    return float(h) if h.ndim == 0 else h


def correlated_qfi(params: ProtocolParams):
    """Total QFI of the correlated-state protocol (closed form): a float, or
    an array over the broadcast shape when params carry arrays of r and
    lambda. It is exactly 0 wherever r = 0, and at m = n >= 2 where
    lambda = 0."""
    n, m = params.n, params.m
    # p_+ once per x: the mirrors N-x supply each block's p_-
    h = block_qfi(*_blocks(params))
    weight = np.outer(_comb_row(n - m), _comb_row(m))
    total = 0.5 ** (n + 1) * np.sum(weight * h, axis=(-2, -1))
    # r = 0 prepares I/2^n, which every lambda leaves alone: the QFI is exactly
    # 0 there, where the sum above leaves round-off of about 1e-32
    zero = np.asarray(params.r) == 0.0
    if 2 <= m == n:
        # at lambda = 0 with every qubit hit, d rho is the sum of each prepared
        # one-qubit marginal minus I/2 (times I/2^(n-1)); for n >= 2 each
        # marginal is I/2, so d rho = 0 and the QFI is exactly 0
        zero = zero | (np.asarray(params.lam) == 0.0)
    total = np.where(zero, 0.0, total)
    return float(total) if total.ndim == 0 else total


def _comb_row(k: int) -> np.ndarray:
    """C(k, 0..k) as floats."""
    return np.array([math.comb(k, i) for i in range(k + 1)], dtype=float)
