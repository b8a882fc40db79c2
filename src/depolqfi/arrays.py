"""The correlated closed form in numpy: array_qfi, the kernel that runs a
grid's points in chunks, and final_x_entries, the nonzero entries of the
final state at one point, which the oracle compares with its dense state.

Both run the product form of depolqfi.correlated through _blocks, which
forms p_+ and its lambda-slope of every (u, v) profile of a chunk of
points, and agree with grid_qfi to about 1e-14 relative. Only a sweep above
evaluate.PLAIN_WORK and the oracle import this module; the rest of the
closed form loads no numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .correlated import CANCELLATION
from .protocols import ProtocolParams

CHUNK_ELEMENTS = 2**14  # (point, profile) entries per work array (128 kB)


def _powers(k: int, hi, lo) -> tuple:
    """hi^i lo^(k-i) and lo^i hi^(k-i) over i = 0..k, along a last axis
    appended to the broadcast shape of the arrays hi and lo."""
    i = np.arange(k + 1)
    first = hi[..., np.newaxis] ** i * lo[..., np.newaxis] ** (k - i)
    return first, first[..., ::-1]


def _blocks(n: int, m: int, r, lam) -> tuple:
    """p_+ and its lambda-slope pdot_+ of every profile at the points of the
    1-D float arrays r and lam, of one length, indexed [point, u, v], without
    the state's scale 2^-(n+1), in two of the three arrays of that shape that
    it allocates. p_- and its slope are these at the mirror, [:, ::-1, ::-1]."""
    a, b, lam_r = 1.0 + r, 1.0 - r, lam * r
    big, small = 1.0 + lam_r, b + (1.0 - lam) * r  # A and B
    alpha, (pa, pb) = _powers(n - m, a, b), _powers(m, a, b)
    f, g = _powers(m, big, small)
    lam_m, lam_m1 = (lam[:, np.newaxis] ** e for e in (m, m - 1))
    v, (slope, size, work) = np.arange(m + 1), np.empty((3, r.size, n - m + 1, m + 1))

    def log_ratio(weight, image):
        # ln(lambda weight / image), 0 at lambda = 1; log 0 is clamped to
        # -1e3, below the log of any double, so that 0 times it is 0
        gap = np.where(lam < 1.0, (1.0 - lam) / image, 0.0)
        ratio = np.where(gap < 0.5, np.log1p(-gap), np.log(lam * weight / image))
        return np.maximum(ratio, -1e3)[:, np.newaxis]
    def combine(x, y, result, scratch):  # alpha_u x_v + alpha'_u y_v
        np.multiply(alpha[0][:, :, np.newaxis], x[:, np.newaxis, :], out=result)
        np.multiply(alpha[1][:, :, np.newaxis], y[:, np.newaxis, :], out=scratch)
        return np.add(result, scratch, out=result)
    with np.errstate(divide="ignore", invalid="ignore"):
        expm1 = np.expm1(v * log_ratio(b, small) + (m - v) * log_ratio(a, big))
        r_, lam_r_, big_, small_ = (x[:, np.newaxis] for x in (r, lam_r, big, small))
        rate, k = r_ / (big_ * small_), 2 * v - m
        f_dot = f * (rate * (k - m * lam_r_))
        g_dot = g * (rate * (-k - m * lam_r_)) * -expm1
        tilt = m * lam_m1 * pa  # the slopes of the lambda^m terms of X_v and Y_v
        untilt = -lam_m1 * pb * (m + lam_r_ * (v / small_ - (m - v) / big_))
        combine(f_dot + tilt, g_dot + untilt, slope, work)
        combine(np.abs(f_dot) + tilt, np.abs(g_dot) - untilt, size, work)
        np.abs(slope, out=work)
        work *= CANCELLATION
        # at r = 0, rate = 0 and tilt + untilt = m lam^(m-1) - lam^(m-1) m
        # = 0: the bulk slope is exactly 0 already
        work[r == 0.0] = math.inf
        redo = np.flatnonzero(work < size)
        eig = combine(f + lam_m * pa, g * -expm1, work, size)
        if not redo.size:
            return eig, slope
        # the slope again where its terms cancel, from each factor there, in
        # batches of a sixteenth of a chunk: their dozen or so gathered
        # arrays then hold about as much as one work array
        log_r, log_k = np.log1p(2.0 * r / b), np.log1p(2.0 * lam * r / small)
        for start in range(0, redo.size, CHUNK_ELEMENTS // 16):
            at = redo[start : start + CHUNK_ELEMENTS // 16]
            p, u, v = np.unravel_index(at, slope.shape)
            k, j = 2 * v - m, 2 * u + m - n
            # the log ratio of each pair's terms, where 0 times ln(a/b) = inf is 0
            s, s_c = (np.where(i == 0, 0.0, i * log_r[p]) for i in (j, j + k))
            s += k * log_k[p]
            plus, minus = alpha[0][p, u], alpha[1][p, u]
            x, y = plus * f[p, v], minus * g[p, v]
            delta, c = (
                np.sign(t) * np.maximum(hi, lo) * -np.expm1(-np.abs(t))
                for t, hi, lo in ((s, x, y), (s_c, plus * pa[p, v], minus * pb[p, v]))
            )
            d = rate[p, 0] * (k * delta - (m * lam * r)[p] * (x + y))
            slope.reshape(-1)[at] = d + (m * lam ** (m - 1))[p] * c
    return eig, slope


def final_x_entries(params: ProtocolParams) -> tuple:
    """The nonzero entries of the final (post-channel) state for scalar r and
    lambda, as two arrays over x = 0..2^n - 1: its diagonal d_x and the
    magnitudes lambda^m c_x of its counter-diagonal, where
    rho[x, N-x] = i lambda^m c_x if the top bit of x is 0 and
    -i lambda^m c_x if it is 1. Every other entry is 0."""
    n, m = params.n, params.m
    r, lam = np.array([[params.r], [params.lam]], dtype=float)  # one point
    eig = 0.5 ** (n + 2) * _blocks(n, m, r, lam)[0][0]
    mirror = eig[::-1, ::-1]  # p_-, at the profile of N-x
    # x and N-x add the same two floats, so d_x = d_(N-x) to the bit
    diag, counter = eig + mirror, eig - mirror
    ones = (np.arange(2**n)[:, np.newaxis] >> np.arange(n)) & 1
    u = (n - m) - ones[:, m:].sum(axis=1)
    v = m - ones[:, :m].sum(axis=1)
    # an x with top bit 1 is N-x of one with top bit 0, where eig - mirror is -c
    return diag[u, v], (1 - 2 * ones[:, -1]) * counter[u, v]


def array_qfi(n: int, m: int, r_axis, lam_axis):
    """grid_qfi in numpy: the same r-major points of a checked (n, m), as a
    flat float64 array. Each chunk gathers its points' r and lambda from
    the axes, so no copy of the grid is made, and each point gets the same
    value to the bit wherever it falls."""
    r_axis, lam_axis = (np.asarray(x, dtype=float) for x in (r_axis, lam_axis))
    total = np.empty(r_axis.size * lam_axis.size)
    chunk = max(1, CHUNK_ELEMENTS // ((n - m + 1) * (m + 1)))
    weight = np.outer(*([math.comb(j, i) for i in range(j + 1)] for j in (n - m, m)))
    for start in range(0, total.size, chunk):
        at = np.arange(start, min(start + chunk, total.size))
        r_at, lam_at = r_axis[at // lam_axis.size], lam_axis[at % lam_axis.size]
        eig, h = _blocks(n, m, r_at, lam_at)
        # a rank drop, p_+ = 0, adds 0 where its slope is 0, else inf: read
        # before the slope is squared, which may underflow to 0
        drops = np.flatnonzero(eig == 0.0)
        h_drops = np.where(h.flat[drops] == 0.0, 0.0, math.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(np.multiply(h, h, out=h), eig, out=h)
        h.flat[drops] = h_drops
        h *= weight
        # one contiguous row per point, so each point sums the same way
        values = total[start : start + at.size]
        np.sum(h.reshape(at.size, -1), axis=-1, out=values)
        # r = lambda = 1 (B = 0): a pure state, whose rank any noise raises
        values[(r_at == 1.0) & (lam_at == 1.0)] = math.inf
        del eig, h  # before the next chunk's arrays are allocated
    total *= 0.5 ** (n + 1)
    return total
