import math

import numpy as np
import pytest

from depolqfi.correlated import (
    MAX_CLOSED_FORM_N,
    bit_profile,
    block_qfi,
    corr_vs_seq_gain,
    correlated_gain,
    correlated_qfi,
    final_counterdiag,
    final_diag,
    final_diag_derivative,
    final_state,
    prep_coefficients,
    prepared_state,
)
from depolqfi.errors import DomainError, PositivityError, UndefinedGainError
from depolqfi.linalg import hermitian_eig
from depolqfi.protocols import ProtocolParams, sequential_qfi, sqsc_qfi


def params(n, m, r, lam, **kw):
    return ProtocolParams(n=n, m=m, r=r, lam=lam, **kw)


class TestBitProfile:
    def test_splits_zero_counts(self):
        # n=5, m=2, x = 0b01101: low bits '01' has one zero, high '011' has one
        prof = bit_profile(0b01101, 5, 2)
        assert (prof.u, prof.v, prof.j) == (1, 1, 2)

    def test_all_zeros_and_all_ones(self):
        assert bit_profile(0, 4, 2).j == 4
        assert bit_profile(15, 4, 2).j == 0

    def test_counting_multiplicities(self):
        # number of x with profile (u, v) and x < 2^(n-1) is
        # C(n-m-1, u-1) * C(m, v) for m < n
        n, m = 5, 2
        counts = {}
        for x in range(2 ** (n - 1)):
            prof = bit_profile(x, n, m)
            counts[(prof.u, prof.v)] = counts.get((prof.u, prof.v), 0) + 1
        for (u, v), count in counts.items():
            assert count == math.comb(n - m - 1, u - 1) * math.comb(m, v)

    def test_domain(self):
        with pytest.raises(DomainError):
            bit_profile(16, 4, 2)
        with pytest.raises(DomainError):
            bit_profile(0, 4, 5)


class TestPrepCoefficients:
    def test_n1_values(self):
        table = prep_coefficients(1, 0.5)
        np.testing.assert_allclose(table.d, [0.5, 0.5])
        np.testing.assert_allclose(table.c, [-0.25, 0.25])

    def test_pure_limit(self):
        table = prep_coefficients(3, 1.0)
        np.testing.assert_allclose(table.d, [0.5, 0, 0, 0.5])
        np.testing.assert_allclose(table.c, [-0.5, 0, 0, 0.5])

    def test_unpolarized(self):
        table = prep_coefficients(4, 0.0)
        np.testing.assert_allclose(table.d, np.full(5, 1 / 16))
        np.testing.assert_allclose(table.c, np.zeros(5), atol=1e-16)

    def test_antisymmetry_and_trace(self):
        for n in (1, 2, 5):
            for r in (0.2, 0.7, 1.0):
                t = prep_coefficients(n, r)
                np.testing.assert_allclose(t.c, -t.c[::-1], atol=1e-15)
                np.testing.assert_allclose(t.d, t.d[::-1], atol=1e-15)
                # trace: sum over all 2^n strings of d_{j(x)} = 1
                total = sum(
                    math.comb(n, j) * t.d[j] for j in range(n + 1)
                )
                assert total == pytest.approx(1.0, abs=1e-14)

    def test_block_positivity(self):
        for n in (2, 4, 7):
            for r in (0.0, 0.3, 0.9, 1.0):
                t = prep_coefficients(n, r)
                assert np.all(t.d >= np.abs(t.c) - 1e-15)

    def test_cap(self):
        with pytest.raises(DomainError):
            prep_coefficients(MAX_CLOSED_FORM_N + 1, 0.5)


class TestPreparedState:
    def test_n2_pure_block_values(self):
        state = prepared_state(2, 1.0)
        d0, c0 = state.blocks[0]
        assert d0 == pytest.approx(0.5)
        assert c0 == pytest.approx(0.5)
        d1, c1 = state.blocks[1]
        assert d1 == pytest.approx(0.0, abs=1e-15)
        assert c1 == pytest.approx(0.0, abs=1e-15)

    def test_trace_one(self):
        for n in (1, 3, 6):
            for r in (0.0, 0.5, 1.0):
                assert prepared_state(n, r).trace() == pytest.approx(1.0, abs=1e-13)

    def test_dense_is_valid_density_matrix(self):
        rho = prepared_state(3, 0.6).to_dense()
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert hermitian_eig(rho).eigenvalues[0] >= -1e-14


class TestFinalEntries:
    def test_counterdiag_scaling(self):
        t = prep_coefficients(3, 0.4)
        for j in range(4):
            assert final_counterdiag(j, 3, 2, 0.4, 0.7) == pytest.approx(
                0.49 * t.c[j], rel=1e-14
            )

    def test_n2_m1_diag_matches_two_qubit_matrix(self):
        # (u=1, v=1) block carries |00>: entry (1 + lam r^2)/4
        r, lam = 0.8, 0.6
        p = params(2, 1, r, lam)
        assert final_diag(1, 1, p) == pytest.approx((1 + lam * r * r) / 4, rel=1e-14)
        assert final_diag(1, 0, p) == pytest.approx((1 - lam * r * r) / 4, rel=1e-14)

    def test_n2_m2_diag(self):
        r, lam = 0.8, 0.6
        p = params(2, 2, r, lam)
        assert final_diag(0, 2, p) == pytest.approx(
            (1 + lam * lam * r * r) / 4, rel=1e-14
        )

    def test_n1_m1_diag_is_half(self):
        p = params(1, 1, 0.9, 0.3)
        assert final_diag(0, 1, p) == pytest.approx(0.5, abs=1e-15)
        assert final_diag(0, 0, p) == pytest.approx(0.5, abs=1e-15)

    def test_lambda_one_recovers_prepared(self):
        p = params(3, 2, 0.7, 1.0, include_limit=True)
        t = prep_coefficients(3, 0.7)
        for u in range(2):
            for v in range(3):
                assert final_diag(u, v, p) == pytest.approx(
                    float(t.d[u + v]), rel=1e-13
                )

    def test_derivative_against_finite_difference(self):
        eps = 1e-6
        for (n, m, u, v) in [(2, 1, 1, 1), (4, 2, 2, 1), (5, 5, 0, 3)]:
            for r in (0.3, 0.9):
                lam = 0.55
                hi = final_diag(u, v, params(n, m, r, lam + eps))
                lo = final_diag(u, v, params(n, m, r, lam - eps))
                exact = final_diag_derivative(u, v, params(n, m, r, lam))
                assert exact == pytest.approx((hi - lo) / (2 * eps), abs=1e-9)

    def test_n2_m1_derivative_value(self):
        # d/dlam (1 + lam r^2)/4 = r^2/4
        p = params(2, 1, 0.8, 0.6)
        assert final_diag_derivative(1, 1, p) == pytest.approx(0.16, rel=1e-13)

    def test_domain(self):
        p = params(3, 2, 0.5, 0.5)
        with pytest.raises(DomainError):
            final_diag(2, 0, p)
        with pytest.raises(DomainError):
            final_diag(0, 3, p)


class TestFinalState:
    def test_n2_m1_pure_blocks(self):
        state = final_state(params(2, 1, 1.0, 0.5))
        d0, c0 = state.blocks[0]
        assert d0 == pytest.approx(0.375)
        assert c0 == pytest.approx(0.25)
        d1, c1 = state.blocks[1]
        assert d1 == pytest.approx(0.125)
        assert c1 == pytest.approx(0.0, abs=1e-15)

    def test_trace_preserved(self):
        for n in (1, 2, 4, 6):
            for m in range(1, n + 1):
                state = final_state(params(n, m, 0.7, 0.4))
                assert state.trace() == pytest.approx(1.0, abs=1e-12)

    def test_dense_positive(self):
        rho = final_state(params(4, 3, 0.9, 0.2)).to_dense()
        assert hermitian_eig(rho).eigenvalues[0] >= -1e-13

    def test_m_exceeds_n_rejected(self):
        with pytest.raises(DomainError):
            final_state(params(2, 3, 0.5, 0.5))


class TestBlockQfi:
    def test_static_block_contributes_zero(self):
        assert block_qfi(0.25, 0.0, 0.0, 1, 0.5) == 0.0

    def test_n1_reduction_to_sqsc(self):
        # single qubit: d = 1/2, c = r/2, d_dot = 0 gives the baseline QFI
        for r in (0.2, 0.8, 1.0):
            for lam in (0.1, 0.6, 0.9):
                h = block_qfi(0.5, r / 2.0, 0.0, 1, lam)
                assert h == pytest.approx(sqsc_qfi(r, lam), rel=1e-13)

    def test_matches_2x2_spectral_oracle(self):
        rng = np.random.default_rng(23)
        eps = 1e-7
        for _ in range(40):
            m = int(rng.integers(1, 5))
            lam = rng.uniform(0.1, 0.95)
            c = rng.uniform(-0.2, 0.2)
            d_dot = rng.uniform(-0.3, 0.3)
            d = abs(c) + rng.uniform(0.05, 0.3)

            def dense(lam_val):
                block = np.array(
                    [
                        [d + d_dot * (lam_val - lam), 1j * lam_val**m * c],
                        [-1j * lam_val**m * c, d + d_dot * (lam_val - lam)],
                    ]
                )
                return block

            drho = (dense(lam + eps) - dense(lam - eps)) / (2 * eps)
            rho = dense(lam)
            spec = hermitian_eig(rho)
            v, p = spec.eigenvectors, spec.eigenvalues
            elems = np.abs(v.conj().T @ drho @ v) ** 2
            psum = p[:, None] + p[None, :]
            oracle = float(np.sum(2 * elems / psum))
            assert block_qfi(d, c, d_dot, m, lam) == pytest.approx(oracle, rel=1e-6)

    def test_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(7)
        c = rng.uniform(-0.2, 0.2, 12)
        d = np.abs(c) + rng.uniform(0.0, 0.3, 12)
        d[0], c[0] = 0.0, 0.0  # an empty block
        d_dot = rng.uniform(-0.3, 0.3, 12)
        d_dot[0] = 0.0
        h = block_qfi(d, c, d_dot, 2, 0.6)
        assert h.shape == (12,)
        assert list(h) == [block_qfi(*args, 2, 0.6) for args in zip(d, c, d_dot)]

    def test_thresholds_scale_with_d(self):
        # the block QFI is homogeneous of degree 1 in (d, c, d_dot)
        base = block_qfi(0.5, 0.3, 0.1, 2, 0.7)
        for scale in (1e-20, 1e-40, 1e20):
            scaled = block_qfi(0.5 * scale, 0.3 * scale, 0.1 * scale, 2, 0.7)
            assert scaled == pytest.approx(base * scale, rel=1e-14, abs=0.0)

    def test_vanishing_branch_with_live_derivative_is_infinite(self):
        # p_- = 0 but pdot_- != 0
        assert math.isinf(block_qfi(0.5, 0.5, 0.0, 1, 1.0))

    def test_positivity_violation_raises(self):
        with pytest.raises(PositivityError):
            block_qfi(0.1, 0.5, 0.0, 1, 0.9)


class TestCorrelatedQfi:
    def test_n1_m1_is_sqsc(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            r, lam = rng.uniform(0, 1), rng.uniform(0, 0.99)
            h = correlated_qfi(params(1, 1, r, lam)).value
            assert h == pytest.approx(sqsc_qfi(r, lam), abs=1e-12, rel=1e-12)

    def test_n2_m1_pure_is_entangled_pair_value(self):
        from depolqfi.protocols import pure_entangled_qfi

        for lam in np.linspace(0.1, 0.9, 9):
            h = correlated_qfi(params(2, 1, 1.0, lam)).value
            assert h == pytest.approx(pure_entangled_qfi(lam), rel=1e-12)

    def test_direct_per_x_sum(self):
        # counting identity: summing blocks over x < 2^(n-1) directly equals
        # the (u, v) binomial-weighted sum
        from depolqfi.correlated import prep_coefficients as coeffs

        for (n, m) in [(3, 1), (4, 2), (5, 5), (6, 3)]:
            p = params(n, m, 0.65, 0.45)
            t = coeffs(n, p.r)
            direct = 0.0
            for x in range(2 ** (n - 1)):
                prof = bit_profile(x, n, m)
                direct += block_qfi(
                    final_diag(prof.u, prof.v, p),
                    float(t.c[prof.j]),
                    final_diag_derivative(prof.u, prof.v, p),
                    m,
                    p.lam,
                )
            assert correlated_qfi(p).value == pytest.approx(direct, rel=1e-12)

    def test_r_zero_gives_zero(self):
        assert correlated_qfi(params(5, 3, 0.0, 0.7)).value == pytest.approx(
            0.0, abs=1e-15
        )

    def test_per_channel_field(self):
        rep = correlated_qfi(params(4, 2, 0.5, 0.7))
        assert rep.per_channel == pytest.approx(rep.value / 2, rel=1e-15)
        assert rep.method == "closed_form"

    def test_m_greater_than_n_rejected(self):
        with pytest.raises(DomainError):
            correlated_qfi(params(3, 4, 0.5, 0.5))

    def test_grid_matches_scalar_calls(self):
        r, lam = np.meshgrid(
            np.linspace(0.05, 1.0, 5), np.linspace(0.0, 0.99, 6), indexing="ij"
        )
        for n, m in [(1, 1), (2, 1), (5, 5), (11, 1), (14, 7), (30, 13), (60, 1),
                     (60, 30), (60, 60)]:
            grid = correlated_qfi(params(n, m, r, lam)).value
            assert grid.shape == r.shape
            scalar = [
                correlated_qfi(params(n, m, a, b)).value
                for a, b in zip(r.flat, lam.flat)
            ]
            # values below 1e-25 are round-off of a true 0 (lambda = 0, m = n)
            np.testing.assert_allclose(grid.ravel(), scalar, rtol=1e-12, atol=1e-25)

    def test_grid_admits_lambda_one_only_as_limit(self):
        r, lam = np.array([0.3, 0.9]), np.array([0.5, 1.0])
        with pytest.raises(DomainError):
            params(3, 2, r, lam)
        grid = correlated_qfi(params(3, 2, r, lam, include_limit=True)).value
        limit = correlated_qfi(params(3, 2, 0.9, 1.0, include_limit=True)).value
        assert grid[1] == pytest.approx(limit, rel=1e-12)


def _double_sum_qfi(n, m, r, lam):
    """The QFI as the sum over blocks (u, v) of bit-flip double sums, at 50
    digits: the sum counts k flips, l of them among the v channel zeros."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r, lam = mpmath.mpf(r), mpmath.mpf(lam)
        p, q = (1 + lam) / 2, (1 - lam) / 2
        plus = [(1 + r) ** j * (1 - r) ** (n - j) for j in range(n + 1)]
        d = [plus[j] + plus[n - j] for j in range(n + 1)]
        c = [plus[j] - plus[n - j] for j in range(n + 1)]
        w = [q**k * p ** (m - k) for k in range(m + 1)]
        dw = [
            ((m - k) * q**k * p ** (m - k - 1) if k < m else 0) / 2
            - (k * q ** (k - 1) * p ** (m - k) if k > 0 else 0) / 2
            for k in range(m + 1)
        ]
        if m < n:
            blocks = [
                (u, v, math.comb(n - m - 1, u - 1) * math.comb(m, v))
                for u in range(1, n - m + 1)
                for v in range(m + 1)
            ]
        else:
            blocks = [(0, v, math.comb(n - 1, v - 1)) for v in range(1, n + 1)]
        total = mpmath.mpf(0)
        for u, v, weight in blocks:
            diag = slope = mpmath.mpf(0)
            for k in range(m + 1):
                inner = sum(
                    math.comb(v, el) * math.comb(m - v, k - el) * d[u + v + k - 2 * el]
                    for el in range(max(k + v - m, 0), min(k, v) + 1)
                )
                diag += w[k] * inner
                slope += dw[k] * inner
            for sign in (1, -1):
                eig = diag + sign * lam**m * c[u + v]
                eig_dot = slope + sign * m * lam ** (m - 1) * c[u + v]
                total += weight * eig_dot**2 / eig
        return float(total / 2 ** (n + 1))


class TestHighPrecisionReference:
    @pytest.mark.parametrize(
        "n, m, r, lam",
        [
            (10, 3, 0.35, 0.8),
            (10, 10, 0.95, 0.05),
            (12, 1, 0.8, 0.9),
            (12, 12, 0.9, 0.5),
            (14, 7, 0.65, 0.2),
            (14, 13, 0.05, 0.95),
        ],
    )
    def test_mid_size(self, n, m, r, lam):
        value = correlated_qfi(params(n, m, r, lam)).value
        assert value == pytest.approx(_double_sum_qfi(n, m, r, lam), rel=1e-12)

    @pytest.mark.parametrize(
        "n, m, r, lam, expected",
        [
            # tiny but nonzero blocks: an absolute threshold reports inf here
            (11, 1, 0.99, 0.95, 14.0592194058077),
            (40, 20, 0.5, 0.7, 5.6702203114275),
            (60, 30, 0.5, 0.7, 8.54265996012069),
        ],
    )
    def test_small_blocks_stay_finite(self, n, m, r, lam, expected):
        value = correlated_qfi(params(n, m, r, lam)).value
        reference = _double_sum_qfi(n, m, r, lam)
        assert reference == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(reference, rel=1e-12)


class TestGains:
    def test_low_r_gain_approaches_n(self):
        for n in (2, 3, 5):
            g = correlated_gain(params(n, 1, 1e-4, 0.8)).value
            assert g == pytest.approx(n, abs=1e-4)

    def test_corr_vs_seq_low_r_approaches_n(self):
        for n in (2, 4):
            g = corr_vs_seq_gain(params(n, 2, 1e-4, 0.8)).value
            assert g == pytest.approx(n, abs=1e-4)

    def test_undefined_at_r_zero(self):
        with pytest.raises(UndefinedGainError):
            correlated_gain(params(2, 1, 0.0, 0.5))
        with pytest.raises(UndefinedGainError):
            corr_vs_seq_gain(params(2, 2, 0.0, 0.5))

    def test_undefined_when_sequential_vanishes(self):
        with pytest.raises(UndefinedGainError):
            corr_vs_seq_gain(params(3, 2, 0.5, 0.0))

    def test_record_metadata(self):
        rec = correlated_gain(params(3, 2, 0.5, 0.6))
        assert rec.numerator_protocol == "correlated"
        assert rec.denominator_protocol == "sqsc"
        seq = sequential_qfi(2, 0.5, 0.6).per_channel
        rec2 = corr_vs_seq_gain(params(3, 2, 0.5, 0.6))
        assert rec2.value == pytest.approx(
            correlated_qfi(params(3, 2, 0.5, 0.6)).per_channel / seq, rel=1e-14
        )
