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
(n, m) and checked values, and return its points r-major: grid_qfi here,
one profile at a time in math floats, and arrays.array_qfi in numpy, on
chunks of points. They round apart in the last bits, as libm and numpy's
vector log, expm1 and pow do, and agree to about 1e-14 relative.
correlated_qfi is grid_qfi at one point. This module imports no numpy, so
eval, the figure presets and small sweeps never compile the numpy kernel.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .protocols import ProtocolParams

MAX_CLOSED_FORM_N = 60
CANCELLATION = 64.0  # slope terms that sum to more than this times the slope


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
    logs = []  # ln(lambda b/B), ln(lambda a/A) as in arrays._blocks; math.log(0) raises
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
                # as in arrays._blocks: each pair's difference from the log
                # ratio of its terms, where 0 times ln(a/b) = inf (r = 1) is 0
                s, s_c = (j and j * log_r) + k * log_k, (j + k) and (j + k) * log_r
                pairs = (s, plus * f, minus * g), (s_c, plus * pa, minus * pb)
                delta, c = (math.copysign(max(hi, lo) * -math.expm1(-abs(t)), t)
                            for t, hi, lo in pairs)
                slope = rate * (k * delta - m * lam * r * (plus * f + minus * g))
                slope += m * lam_m1 * c
            # a rank drop, p_+ = 0, adds 0 where its slope is 0, else inf
            h = slope * slope / eig if eig else (math.inf if slope else 0.0)
            yield h * (weight * w)


def correlated_qfi(params: ProtocolParams) -> float:
    """Total QFI of the correlated-state protocol (closed form) at the point
    of params, grid_qfi's 1x1 grid, with no numpy. It is exactly 0 wherever
    r = 0, and at m = n >= 2 where lambda = 0; inf at r = lambda = 1."""
    check_cap(params.n)
    return grid_qfi(params.n, params.m, [params.r], [params.lam])[0]
