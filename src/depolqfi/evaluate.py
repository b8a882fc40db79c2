"""The evaluation core behind `eval`, `sweep` and the figure presets, one
function: evaluate_grid, one protocol's QFI, per-channel QFI, gains and
Cramer-Rao bound for lists of n and m over the outer product of an r axis
and a lambda axis (a number is a one-value axis), as a table of columns.
The gains' references, sqsc_qfi once per grid (also the m = 1 sequential
one) and sequential_qfi once per carried m > 1, each one call on the axes
in math floats, are the single-qubit rows.

Nothing here imports numpy at module level, and no single-qubit grid loads
it. A correlated grid whose closed-form work, its point count times the
summed _point_work of its carried (n, m), is at most PLAIN_WORK, one point
included, runs correlated.grid_qfi on its axes in math floats, so `eval`,
the figure presets and small sweeps never load numpy. A larger correlated
sweep loads it to run correlated.array_qfi on the same axes, and `verify`
loads it through the oracle. The two sides agree in every printed field.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .protocols import PROTOCOLS, ProtocolParams, _axis, check_params
from .protocols import sequential_qfi, sqsc_qfi

CORRELATED = ("correlated", "corr_vs_seq")
# The most work (see _point_work) that a correlated grid runs in math floats;
# a larger one runs in numpy, whose import costs 70-80 ms. In fresh-process
# wall time of corr_vs_seq sweeps (2-vCPU x86-64, numpy 2.4.6, 11 alternating
# runs a side), math floats won 11 of 11 runs at 2.0e5 units (n = 14, m = 1..7
# and n = 60, m = 30), 8 of 11 at 4.0e5 (n = 14) and 1 of 11 at 2.9e5 (60, 30).
PLAIN_WORK = 200_000


def cramer_rao_bound(h: float) -> float:
    """Variance lower bound 1/H of a QFI h; h = 0 maps to +inf and h = inf
    to 0. NaN and negative h are rejected."""
    if not h >= 0.0:
        raise DomainError(f"QFI must be nonnegative, got {h}")
    return 1.0 / h if h else math.inf


def _gains(per_channel: list, ref: list, usable: list) -> list[float | None]:
    """per_channel / ref where usable and ref != 0, None elsewhere."""
    return [
        h / h_ref if ok and h_ref != 0.0 else None
        for h, h_ref, ok in zip(per_channel, ref, usable)
    ]


def _carried_shape(protocol: str, n: int, m: int) -> tuple[int, int]:
    """The (n, m) that a protocol's rows carry, after checking the requested
    pair: sqsc is one qubit used once, independent m qubits used once each,
    sequential one qubit used m times."""
    check_params(n=n, m=m)
    shapes = {"sqsc": (1, 1), "independent": (m, m), "sequential": (1, m)}
    return shapes.get(protocol, (n, m))


def _point_work(protocol: str, n: int, m: int) -> int:
    """The math-float cost of one correlated point at a carried (n, m), in
    units of one (u, v) profile, fitted to evaluate_grid's time in process
    (0.30 us a unit on a 2-vCPU x86-64 host): its (n-m+1)(m+1) profiles,
    3 per v and 20 for its references and row; none for a single-qubit one."""
    return (n - m + 4) * (m + 1) + 20 if protocol in CORRELATED else 0


def evaluate_grid(
    protocol: str,
    ns: list[int],
    ms: list[int],
    r_axis,
    lam_axis,
    include_limit: bool = False,
) -> dict[str, list]:
    """Evaluate one protocol for every (n, m) of ns x ms at every point of
    the outer product of r_axis and lam_axis, 1-D arrays, lists or numbers
    (one-value axes). Returns a table: its columns as lists keyed by the CSV
    column names, in output order, one entry per row. The rows are those of
    the distinct (n, m) that they carry (sqsc, independent and sequential
    map several requested pairs to one), in ascending (n, m), each sorted
    stably by (r, lambda) (-0.0 ties with 0.0). A gain is None where r = 0,
    where lambda = 1 or where its reference QFI is 0."""
    if protocol not in PROTOCOLS:
        raise DomainError(f"unknown protocol {protocol!r}")
    shapes = sorted({_carried_shape(protocol, n, m) for n in ns for m in ms})
    r_axis, lam_axis = _axis(r_axis), _axis(lam_axis)
    # every value, in axis order, once per grid: the single-qubit forms
    # keep lambda < 1 whatever include_limit says
    closed = include_limit and protocol in CORRELATED
    for r in r_axis:
        check_params(r=r)
    for lam in lam_axis:
        check_params(lam=lam, include_limit=closed)
    if protocol in CORRELATED:
        from . import correlated
    # the points of the grid on one flat, r-major axis
    rs = [r for r in r_axis for _ in lam_axis]
    lams = lam_axis * len(r_axis)
    size = len(rs)
    plain = size * sum(_point_work(protocol, n, m) for n, m in shapes) <= PLAIN_WORK

    def correlated_values(n, m):  # checks, then one kernel on the axes
        ProtocolParams(n, m, 0.0, 0.0)  # m <= n, which ProtocolParams states
        correlated.check_cap(n)
        if plain:
            return correlated.grid_qfi(n, m, r_axis, lam_axis)
        return correlated.array_qfi(n, m, r_axis, lam_axis).tolist()

    usable = [r > 0.0 and lam < 1.0 for r, lam in zip(rs, lams)]
    order = sorted(range(size), key=lambda i: (rs[i], lams[i]))  # stable
    # 0 at lambda = 1 keeps the references defined; below 1 it is lambda to the bit
    lam_ref = [lam * (lam < 1.0) for lam in lam_axis]
    sqsc_ref, last_n = sqsc_qfi(r_axis, lam_ref), {m: n for n, m in shapes}
    seq_refs = {m: sqsc_ref if m == 1 else sequential_qfi(m, r_axis, lam_ref)
                for m in last_n}
    table: dict[str, list] = {}
    for n, m in shapes:
        seq_ref = seq_refs.pop(m) if n == last_n[m] else seq_refs[m]
        if protocol in ("sqsc", "independent"):
            # sqsc is the independent protocol on one qubit. Its per-channel
            # QFI is sqsc_qfi itself: the round trip m * sqsc_qfi / m can move
            # the last printed digit.
            per_channel = sqsc_ref
            value = [m * h for h in per_channel]
        else:  # correlated / corr_vs_seq, once per (n, m), or sequential
            value = seq_ref if protocol == "sequential" else correlated_values(n, m)
            per_channel = [h / m for h in value]
        seq_ref = [h / m for h in seq_ref]  # per channel
        part = {
            "protocol": [protocol] * size,
            "n": [n] * size,
            "m": [m] * size,
            "r": rs,
            "lambda": lams,
            "qfi": value,
            "qfi_per_channel": per_channel,
            "gain_vs_sqsc": _gains(per_channel, sqsc_ref, usable),
            "gain_vs_seq": _gains(per_channel, seq_ref, usable),
            "crb_variance_bound": [cramer_rao_bound(h) for h in value],
            "method": ["closed_form"] * size,
        }
        for column, values in part.items():
            table.setdefault(column, []).extend(values[i] for i in order)
    return table
