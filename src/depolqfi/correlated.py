"""Correlated-state protocol closed forms.

n qubits are prepared jointly (pairwise controlled-Z gates, then Hadamards)
from identical polarization-r inputs; the channel then acts once on each of
the m least significant qubits. The final state splits into 2x2 blocks on
span{|x>, |N-x>} (N = 2^n - 1) with eigenvalues p_pm = d +/- lambda^m c, set
by the zero counts u of x's n-m spectator bits and v of its m channel bits.

The prepared diagonal is P_+ + P_-: P_+ weighs each zero bit by a = 1+r and
each one bit by b = 1-r, P_- the reverse. A channel use flips its bit with
probability (1-lambda)/2, which maps (a, b) to (A, B) = (1 + lambda r,
(1-r) + (1-lambda) r). With alpha_u = a^u b^(n-m-u) and alpha'_u =
b^u a^(n-m-u), p_+ = alpha_u X_v + alpha'_u Y_v, X_v = A^v B^(m-v) +
lambda^m a^v b^(m-v) and Y_v = B^v A^(m-v) - lambda^m b^v a^(m-v) =
-B^v A^(m-v) expm1(v ln(lambda b/B) + (m-v) ln(lambda a/A)): no term is
negative, so p_+ keeps its relative accuracy as r, lambda -> 1. Its slope
takes the slopes of X_v and Y_v; where their terms cancel by more than
CANCELLATION it is r/(AB) [k delta - m lambda r d] + m lambda^(m-1) c,
k = 2v - m, with delta = alpha_u A^v B^(m-v) - alpha'_u B^v A^(m-v) and
c = P_+ - P_- each their larger term times -expm1(-|s|), s the log ratio of
their terms. The mirror (u, v) -> (n-m-u, m-v), the profile of N-x, sends
p_+ to p_-: the QFI is 2^-(n+1) sum_(u,v) C(n-m, u) C(m, v) pdot_+^2 / p_+.

Two kernels run these forms on the r and lambda axes of a grid, a checked
(n, m) and checked values, and return its points r-major: grid_qfi one
profile at a time in math floats, with no numpy, and array_qfi in numpy,
through _blocks on chunks of points. They round apart in the last bits, as
libm and numpy's vector log, expm1 and pow do, and agree to about 1e-14
relative. correlated_qfi is grid_qfi at one point.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .protocols import ProtocolParams

MAX_CLOSED_FORM_N = 60
CHUNK_ELEMENTS = 2**14  # (point, profile) entries per work array (128 kB)
CANCELLATION = 64.0  # slope terms that sum to more than this times the slope


def _powers(k: int, hi, lo) -> tuple:
    """hi^i lo^(k-i) and lo^i hi^(k-i) over i = 0..k, along a last axis
    appended to the broadcast shape of the arrays hi and lo."""
    import numpy as np

    i = np.arange(k + 1)
    first = hi[..., np.newaxis] ** i * lo[..., np.newaxis] ** (k - i)
    return first, first[..., ::-1]


def check_cap(n: int) -> None:  # DomainError if n is above the cap
    if n > MAX_CLOSED_FORM_N:
        raise DomainError(f"n = {n} exceeds closed-form cap {MAX_CLOSED_FORM_N}")


def grid_qfi(n: int, m: int, r_axis: list, lam_axis: list) -> list[float]:
    """correlated_qfi of a checked (n, m) at the points of the outer product
    of the float lists r_axis and lam_axis, r-major, in math floats. Factors
    of r only are formed once per r; an r = 0 row (-0.0 too) is 0: I/2^n."""
    values = []
    for r in r_axis:
        if r == 0.0:
            values += [0.0] * len(lam_axis)
            continue
        a, b = 1.0 + r, 1.0 - r
        # alpha_u, alpha'_u, j, C(n-m, u) per u; a^v b^(m-v), b^v a^(m-v), C(m, v) per v
        us = [(a**u * b ** (n - m - u), b**u * a ** (n - m - u), 2 * u + m - n,
               math.comb(n - m, u)) for u in range(n - m + 1)]
        vs = [(a**v * b ** (m - v), b**v * a ** (m - v), math.comb(m, v))
              for v in range(m + 1)]
        log_r = math.log1p(2.0 * r / b) if b else math.inf  # ln(a/b)
        # r = lambda = 1 (B = 0): a pure state, whose rank any noise raises
        values += [math.inf if r == lam == 1.0 else 0.5 ** (n + 1)
                   * math.fsum(_terms(m, r, lam, us, vs, log_r)) for lam in lam_axis]
    return values


def _terms(m: int, r: float, lam: float, us: list, vs: list, log_r: float):
    """The weighted QFI terms of one point, one (u, v) profile at a time."""
    b, lam_r = 1.0 - r, lam * r
    big, small = 1.0 + lam_r, b + (1.0 - lam) * r  # A and B
    rate, lam_m, lam_m1 = r / (big * small), lam**m, lam ** (m - 1)
    logs = []  # ln(lambda b/B) and ln(lambda a/A) as in _blocks; math.log(0) raises
    for weight, image in ((b, small), (1.0 + r, big)):
        gap, x = (1.0 - lam) / image, lam * weight / image
        logs.append(math.log1p(-gap) if gap < 0.5 else math.log(x) if x > 0.0 else -1e3)
    l_b, l_a = logs
    log_k = math.log1p(2.0 * lam_r / small)
    for v, (pa, pb, w) in enumerate(vs):
        # X_v, Y_v, their slopes and the slopes' sizes
        k, f, g = 2 * v - m, big**v * small ** (m - v), small**v * big ** (m - v)
        shrink = -math.expm1(v * l_b + (m - v) * l_a)
        f_dot = f * (rate * (k - m * lam_r))
        g_dot = g * (rate * (-k - m * lam_r)) * shrink
        tilt = m * lam_m1 * pa
        untilt = -lam_m1 * pb * (m + lam_r * (v / small - (m - v) / big))
        x, y, x_dot, y_dot = f + lam_m * pa, g * shrink, f_dot + tilt, g_dot + untilt
        x_size, y_size = abs(f_dot) + tilt, abs(g_dot) - untilt
        for plus, minus, j, weight in us:
            eig, slope = plus * x + minus * y, plus * x_dot + minus * y_dot
            if CANCELLATION * abs(slope) < plus * x_size + minus * y_size:
                # as in _blocks: each pair's difference from the log ratio of
                # its terms, where 0 times ln(a/b) = inf (r = 1) is 0
                s, s_c = (j and j * log_r) + k * log_k, (j + k) and (j + k) * log_r
                pairs = (s, plus * f, minus * g), (s_c, plus * pa, minus * pb)
                delta, c = (math.copysign(max(hi, lo) * -math.expm1(-abs(t)), t)
                            for t, hi, lo in pairs)
                slope = rate * (k * delta - m * lam * r * (plus * f + minus * g))
                slope += m * lam_m1 * c
            h = slope * slope / eig if eig else block_qfi(eig, slope)
            yield h * (weight * w)


def _blocks(n: int, m: int, r, lam) -> tuple:
    """p_+ and its lambda-slope pdot_+ of every profile at the points of the
    1-D float arrays r and lam, of one length, indexed [point, u, v], without
    the state's scale 2^-(n+1), in two of the three arrays of that shape that
    it allocates. p_- and its slope are these at the mirror, [:, ::-1, ::-1]."""
    import numpy as np

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
    import numpy as np

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


def block_qfi(p, p_dot):
    """QFI contribution p_dot^2 / p of block eigenvalues p with lambda-slopes
    p_dot, one per entry (a float for scalars). p = 0 contributes 0 where
    p_dot = 0 too, +inf otherwise: a real rank drop, where the QFI is
    discontinuous."""
    if isinstance(p, (int, float)) and isinstance(p_dot, (int, float)):
        if p == 0.0:
            return 0.0 if p_dot == 0.0 else math.inf
        return p_dot * p_dot / p
    import numpy as np

    p, p_dot = np.asarray(p, dtype=float), np.asarray(p_dot, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(p == 0.0, np.where(p_dot == 0.0, 0.0, math.inf), p_dot * p_dot / p)
    return float(h) if h.ndim == 0 else h


def array_qfi(n: int, m: int, r_axis, lam_axis):
    """grid_qfi in numpy: the same r-major points of a checked (n, m), as a
    flat float64 array. Each chunk gathers its points' r and lambda from
    the axes, so no copy of the grid is made, and each point gets the same
    value to the bit wherever it falls."""
    import numpy as np

    r_axis, lam_axis = (np.asarray(x, dtype=float) for x in (r_axis, lam_axis))
    total = np.empty(r_axis.size * lam_axis.size)
    chunk = max(1, CHUNK_ELEMENTS // ((n - m + 1) * (m + 1)))
    weight = np.outer(*([math.comb(j, i) for i in range(j + 1)] for j in (n - m, m)))
    for start in range(0, total.size, chunk):
        at = np.arange(start, min(start + chunk, total.size))
        r_at, lam_at = r_axis[at // lam_axis.size], lam_axis[at % lam_axis.size]
        eig, h = _blocks(n, m, r_at, lam_at)
        drops = np.flatnonzero(eig == 0.0)  # p_+ = 0: block_qfi gives 0 or inf
        h_drops = block_qfi(eig.flat[drops], h.flat[drops])
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


def correlated_qfi(params: ProtocolParams) -> float:
    """Total QFI of the correlated-state protocol (closed form) at the point
    of params, grid_qfi's 1x1 grid, with no numpy. It is exactly 0 wherever
    r = 0, and at m = n >= 2 where lambda = 0; inf at r = lambda = 1."""
    check_cap(params.n)
    return grid_qfi(params.n, params.m, [params.r], [params.lam])[0]
