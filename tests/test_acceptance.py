"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.
"""

import math
import time

import numpy as np
import pytest

from depolqfi.asymptotics import (
    optimal_invocation_table,
    sequential_cutoff,
)
from depolqfi.cli import sweep_rows
from depolqfi.correlated import correlated_qfi
from depolqfi.correlations import (
    DISCORD_ROTATION,
    discord,
    discord_initial,
    discord_intermediates,
    separability_threshold,
    two_qubit_final_matrix,
)
from depolqfi.linalg import hermitian_eig, partial_transpose
from depolqfi.oracle import verify
from depolqfi.protocols import (
    ProtocolParams,
    pure_entangled_qfi,
    sequential_gain,
    sqsc_qfi,
)


def report(num: int, ok: bool, desc: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_spectator_table():
    start = time.perf_counter()
    expected_m = [1, 2, 5, 10, 50, 100]
    expected_gain = [1.00, 1.28, 2.15, 3.97, 18.67, 37.07]
    table = optimal_invocation_table("spectator")
    ok = len(table) == 6
    for rec, m_exp, g_exp in zip(table, expected_m, expected_gain):
        ok = ok and rec.m_opt == m_exp
        ok = ok and abs(rec.optimal_gain_coefficient - g_exp) <= 0.01
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, ok, f"spectator-mode invocation table (runtime {elapsed:.3f}s)")


def test_criterion_2_all_qubits_table():
    start = time.perf_counter()
    expected_m = [1, 3, 9, 19, 33, 100]
    expected_gain = [1.00, 2.16, 15.01, 56.96, 155.03, 1367.00]
    table = optimal_invocation_table("all_qubits")
    ok = len(table) == 6
    for i, (rec, m_exp, g_exp) in enumerate(zip(table, expected_m, expected_gain)):
        ok = ok and m_exp in (rec.m_opt, rec.tie_partner)
        tol = 1.0 if i == len(table) - 1 else 0.1
        ok = ok and abs(rec.optimal_gain_coefficient - g_exp) <= tol
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(2, ok, f"all-qubits invocation table (runtime {elapsed:.3f}s)")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    worst_rel = 0.0
    worst_state = 0.0
    count = 0
    for n in range(1, 9):
        for m in range(1, n + 1):
            for r in (0.0, 0.1, 0.5, 0.9, 1.0):
                for lam in (0.0, 0.3, 0.7, 0.99):
                    rep = verify(
                        ProtocolParams(n, m, r, lam),
                        tolerance=1e-8,
                        state_tolerance=1e-12,
                    )
                    count += 1
                    worst_rel = max(worst_rel, rep.rel_err)
                    worst_state = max(worst_state, rep.max_state_entry_err)
                    ok = ok and rep.pass_
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 180.0
    report(
        3,
        ok,
        f"closed form vs oracle on {count} points "
        f"(worst rel {worst_rel:.2e}, worst state {worst_state:.2e}, "
        f"runtime {elapsed:.1f}s)",
    )


def test_criterion_4_reduction_identities():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(40):
        r, lam = rng.uniform(0, 1), rng.uniform(0, 0.99)
        base = sqsc_qfi(r, lam)
        corr = correlated_qfi(ProtocolParams(1, 1, r, lam))
        seq = base * sequential_gain(1, r, lam) if r > 0 else 0.0
        ok = ok and abs(corr - base) <= 1e-12 * max(1.0, base)
        ok = ok and abs(seq - base) <= 1e-12 * max(1.0, base)
    # entangled-pair value: the n=2, m=1, r=1 prepared state is maximally
    # entangled, so the protocol must recover the optimal pure-pair QFI
    # 3/((1+3*lam)(1-lam)) (verified independently against the brute-force
    # oracle and the isotropic-state spectral decomposition)
    for lam in np.linspace(0.1, 0.9, 9):
        corr = correlated_qfi(ProtocolParams(2, 1, 1.0, lam))
        ok = ok and abs(corr - pure_entangled_qfi(lam)) <= 1e-10
    report(4, ok, "reduction identities and entangled-pair value")


def test_criterion_5_low_polarization_limits():
    ok = True
    r = 1e-3
    for n in (2, 4, 6):
        for m in (1, 2, n):
            for lam in (0.5, 0.8, 0.95):
                exact = correlated_qfi(ProtocolParams(n, m, r, lam)) / m
                approx = m * n * lam ** (2 * m - 2) * r * r
                ok = ok and abs(exact / approx - 1.0) <= 1e-3
    rs = np.array([1e-2, 1e-3, 1e-4])
    errs = np.array(
        [
            abs(
                correlated_qfi(ProtocolParams(4, 2, rv, 0.8)) / 2
                / (2 * 4 * 0.8**2 * rv * rv)
                - 1.0
            )
            for rv in rs
        ]
    )
    slope = float(np.polyfit(np.log(rs), np.log(errs), 1)[0])
    ok = ok and abs(slope - 2.0) <= 0.1
    report(5, ok, f"low-polarization limits (convergence slope {slope:.4f})")


def test_criterion_6_sequential_gain_properties():
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(200):
        m = int(rng.integers(1, 12))
        lam = rng.uniform(0.01, 0.99)
        r1, r2 = sorted(rng.uniform(0, 1, size=2))
        ok = ok and sequential_gain(m, r1, lam) >= sequential_gain(m, r2, lam) - 1e-12
        l1, l2 = sorted(rng.uniform(0.01, 1.0, size=2))
        r = rng.uniform(0, 1)
        ok = ok and sequential_gain(m, r, l2) >= sequential_gain(m, r, l1) - 1e-12
        ok = ok and sequential_gain(m, 1.0, lam) <= 1.0 + 1e-12
        ok = ok and sequential_gain(m, rng.uniform(0, 0.999), lam) <= m + 1e-12
    for m in (1, 2, 5, 11):
        ok = ok and abs(sequential_gain(m, 1.0, 1.0) - 1.0) <= 1e-9
        ok = ok and abs(sequential_gain(m, 0.42, 1.0) - m) <= 1e-9
    report(6, ok, "sequential-gain monotonicity, bounds and limit values")


def _pt_min_eig(m: int, r: float, lam: float) -> float:
    pt = partial_transpose(two_qubit_final_matrix(m, r, lam), 1, 2)
    return float(hermitian_eig(pt).eigenvalues[0])


def test_criterion_7_ppt_threshold():
    ok = True
    for m in range(1, 5):
        for lam in (0.3, 0.6, 0.9):
            closed = math.sqrt(1.0 + 1.0 / lam**m) - 1.0
            if _pt_min_eig(m, 1.0, lam) < 0.0:
                lo, hi = 0.0, 1.0
                while hi - lo > 1e-12:
                    mid = 0.5 * (lo + hi)
                    if _pt_min_eig(m, mid, lam) >= 0.0:
                        lo = mid
                    else:
                        hi = mid
                ok = ok and abs(0.5 * (lo + hi) - closed) <= 1e-10
            else:
                # no sign change in [0, 1]: the closed threshold lies beyond
                # full polarization and every state stays separable
                ok = ok and closed >= 1.0
                ok = ok and separability_threshold(m, lam) == 1.0
    ok = ok and abs(separability_threshold(1, 1.0) - (math.sqrt(2) - 1)) <= 1e-12
    report(7, ok, "PPT separability threshold via bisection")


def test_criterion_8_discord_suite():
    ok = True
    ok = ok and discord(1, 0.0, 0.7) == 0.0
    for r in np.linspace(0.0, 1.0, 21):
        ok = ok and abs(discord(3, float(r), 1.0) - discord_initial(float(r))) <= 1e-12
    for m in (1, 2):
        for r in (0.3, 0.8, 1.0):
            for lam in (0.2, 0.6, 0.95):
                inter = discord_intermediates(m, r, lam)
                u2 = np.kron(DISCORD_ROTATION, DISCORD_ROTATION)
                rho = two_qubit_final_matrix(m, r, lam)
                spectrum = 4.0 * hermitian_eig(u2 @ rho @ u2.conj().T).eigenvalues
                mus = np.sort([inter.mu0, inter.mu1, inter.mu2, inter.mu3])
                ok = ok and float(np.max(np.abs(spectrum - mus))) <= 1e-12
    for r in np.linspace(0, 1, 20):
        for lam in np.linspace(0, 1, 20):
            ok = ok and discord(1, float(r), float(lam)) >= -1e-12
    report(8, ok, "discord zero point, limit, spectrum match and nonnegativity")


def test_criterion_9_figure_data():
    rows = sweep_rows(
        "corr_vs_seq",
        [4],
        [2, 3, 4],
        np.linspace(0.05, 0.95, 19),
        np.linspace(0.05, 0.95, 19),
    )
    gains = [row.gain_vs_seq for row in rows]
    ok = len(gains) == 3 * 19 * 19
    ok = ok and all(g is not None and g > 1.0 for g in gains)
    cutoffs = [sequential_cutoff(m).cutoff for m in range(1, 41)]
    ok = ok and abs(cutoffs[0] - math.exp(-0.5)) <= 1e-4
    ok = ok and all(b > a for a, b in zip(cutoffs, cutoffs[1:]))
    ok = ok and cutoffs[-1] < 1.0
    report(9, ok, "correlated-vs-sequential sweep and cutoff-curve endpoints")
