import math

import numpy as np
import pytest

from depolqfi.cli import evaluate_point
from depolqfi.correlated import (
    MAX_CLOSED_FORM_N,
    _blocks,
    _unscaled_coefficients,
    block_qfi,
    correlated_qfi,
    final_state,
)
from depolqfi.errors import CapacityError, DomainError, PositivityError
from depolqfi.linalg import hermitian_eig
from depolqfi.protocols import ProtocolParams, sqsc_qfi


def params(n, m, r, lam, **kw):
    return ProtocolParams(n=n, m=m, r=r, lam=lam, **kw)


def zero_counts(x, n, m):
    """(u, v): zeros among the n-m spectator bits and the m channel bits of
    x's n-bit string (qubit 1 is the least significant bit)."""
    bits = format(x, f"0{n}b")
    return bits[: n - m].count("0"), bits[n - m :].count("0")


def scaled_blocks(p):
    """diag, prepared counter-diagonal and d/dlambda of diag, with the
    state's scale 2^-(n+1) applied."""
    return tuple(0.5 ** (p.n + 1) * a for a in _blocks(p))


def prepared(n, r):
    """The state right after the preparatory circuit: lambda = 1."""
    return final_state(params(n, 1, r, 1.0, include_limit=True))


class TestBitProfile:
    def test_splits_zero_counts(self):
        # n=5, m=2, x = 0b01101: low bits '01' has one zero, high '011' has one
        x, p = 0b01101, params(5, 2, 0.6, 0.7)
        assert zero_counts(x, 5, 2) == (1, 1)
        diag, counter, _ = scaled_blocks(p)
        rho = final_state(p)
        assert rho[x, x] == pytest.approx(diag[1, 1], rel=1e-14)
        assert rho[x, 31 - x] == pytest.approx(0.49j * counter[1, 1], rel=1e-14)

    def test_all_zeros_and_all_ones(self):
        # x = 0 has profile (n-m, m); x = N shares its block, with -c
        n, m = 4, 2
        p = params(n, m, 0.6, 0.7)
        diag, counter, _ = scaled_blocks(p)
        rho = final_state(p)
        assert rho[0, 0] == rho[15, 15] == diag[n - m, m]
        assert rho[0, 15] == pytest.approx(0.49j * counter[n - m, m], rel=1e-14)
        assert rho[15, 0] == pytest.approx(-rho[0, 15], rel=1e-14)

    def test_counting_multiplicities(self):
        # the x < 2^(n-1) with profile (u, v) number C(n-m-1, u-1) C(m, v)
        # for m < n and C(n-1, v-1) for m = n, so the per-x trace of the
        # dense state equals the binomial-weighted sum over (u, v)
        for n, m in [(5, 2), (4, 1), (4, 4), (6, 3)]:
            diag = scaled_blocks(params(n, m, 0.65, 0.45))[0]
            if m < n:
                weighted = sum(
                    2 * math.comb(n - m - 1, u - 1) * math.comb(m, v) * diag[u, v]
                    for u in range(1, n - m + 1)
                    for v in range(m + 1)
                )
            else:
                weighted = sum(
                    2 * math.comb(n - 1, v - 1) * diag[0, v] for v in range(1, n + 1)
                )
            trace = np.trace(final_state(params(n, m, 0.65, 0.45))).real
            assert trace == pytest.approx(weighted, rel=1e-14)
            assert weighted == pytest.approx(1.0, rel=1e-13)


class TestPrepCoefficients:
    """The prepared state's (d_j, c_j), indexed by the zero count j."""

    @staticmethod
    def coefficients(n, r):
        d, c = _unscaled_coefficients(n, r)
        return 0.5 ** (n + 1) * d, 0.5 ** (n + 1) * c

    def test_n1_values(self):
        d, c = self.coefficients(1, 0.5)
        np.testing.assert_allclose(d, [0.5, 0.5])
        np.testing.assert_allclose(c, [-0.25, 0.25])

    def test_pure_limit(self):
        d, c = self.coefficients(3, 1.0)
        np.testing.assert_allclose(d, [0.5, 0, 0, 0.5])
        np.testing.assert_allclose(c, [-0.5, 0, 0, 0.5])

    def test_unpolarized(self):
        d, c = self.coefficients(4, 0.0)
        np.testing.assert_allclose(d, np.full(5, 1 / 16))
        np.testing.assert_allclose(c, np.zeros(5), atol=1e-16)

    def test_antisymmetry_and_trace(self):
        for n in (1, 2, 5):
            for r in (0.2, 0.7, 1.0):
                d, c = self.coefficients(n, r)
                np.testing.assert_allclose(c, -c[::-1], atol=1e-15)
                np.testing.assert_allclose(d, d[::-1], atol=1e-15)
                # trace: sum over all 2^n strings of d_{j(x)} = 1
                total = sum(math.comb(n, j) * d[j] for j in range(n + 1))
                assert total == pytest.approx(1.0, abs=1e-14)

    def test_block_positivity(self):
        for n in (2, 4, 7):
            for r in (0.0, 0.3, 0.9, 1.0):
                d, c = self.coefficients(n, r)
                assert np.all(d >= np.abs(c) - 1e-15)

    def test_cap(self):
        with pytest.raises(DomainError):
            correlated_qfi(params(MAX_CLOSED_FORM_N + 1, 1, 0.5, 0.5))


class TestPreparedState:
    def test_n2_pure_block_values(self):
        rho = prepared(2, 1.0)
        assert rho[0, 0] == pytest.approx(0.5)
        assert rho[0, 3] == pytest.approx(0.5j)
        assert abs(rho[1, 1]) <= 1e-15
        assert abs(rho[1, 2]) <= 1e-15

    def test_trace_one(self):
        for n in (1, 3, 6):
            for r in (0.0, 0.5, 1.0):
                assert np.trace(prepared(n, r)).real == pytest.approx(1.0, abs=1e-13)

    def test_dense_is_valid_density_matrix(self):
        rho = prepared(3, 0.6)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert hermitian_eig(rho).eigenvalues[0] >= -1e-14


class TestFinalEntries:
    def test_counterdiag_scaling(self):
        # the channel scales the counter-diagonal by lambda^m
        flip = np.fliplr(np.eye(8, dtype=bool))
        pre = prepared(3, 0.4)[flip]
        post = final_state(params(3, 2, 0.4, 0.7))[flip]
        np.testing.assert_allclose(post, 0.49 * pre, rtol=1e-14)

    def test_n2_m1_diag_matches_two_qubit_matrix(self):
        # x = 0 is block (u=1, v=1): entry (1 + lam r^2)/4; x = 1 is (1, 0)
        r, lam = 0.8, 0.6
        rho = final_state(params(2, 1, r, lam))
        assert rho[0, 0].real == pytest.approx((1 + lam * r * r) / 4, rel=1e-14)
        assert rho[1, 1].real == pytest.approx((1 - lam * r * r) / 4, rel=1e-14)

    def test_n2_m2_diag(self):
        r, lam = 0.8, 0.6
        rho = final_state(params(2, 2, r, lam))
        assert rho[0, 0].real == pytest.approx((1 + lam * lam * r * r) / 4, rel=1e-14)

    def test_n1_m1_diag_is_half(self):
        rho = final_state(params(1, 1, 0.9, 0.3))
        np.testing.assert_allclose(np.diag(rho), [0.5, 0.5], atol=1e-15)

    def test_lambda_one_recovers_prepared(self):
        # at the lambda = 1 limit the state is the prepared one, d_j on the
        # diagonal and i c_j on the counter-diagonal of the x with top bit 0
        n, r = 3, 0.7
        d, c = _unscaled_coefficients(n, r)
        rho = final_state(params(n, 2, r, 1.0, include_limit=True))
        for x in range(2 ** (n - 1)):
            j = sum(zero_counts(x, n, 0))
            assert rho[x, x].real == pytest.approx(d[j] / 16, rel=1e-13)
            assert rho[x, 7 - x] == pytest.approx(1j * c[j] / 16, rel=1e-13)

    def test_derivative_against_finite_difference(self):
        eps = 1e-6
        for (n, m, u, v) in [(2, 1, 1, 1), (4, 2, 2, 1), (5, 5, 0, 3)]:
            for r in (0.3, 0.9):
                lam = 0.55
                hi = scaled_blocks(params(n, m, r, lam + eps))[0][u, v]
                lo = scaled_blocks(params(n, m, r, lam - eps))[0][u, v]
                exact = scaled_blocks(params(n, m, r, lam))[2][u, v]
                assert exact == pytest.approx((hi - lo) / (2 * eps), abs=1e-9)

    def test_n2_m1_derivative_value(self):
        # d/dlam (1 + lam r^2)/4 = r^2/4
        slope = scaled_blocks(params(2, 1, 0.8, 0.6))[2]
        assert slope[1, 1] == pytest.approx(0.16, rel=1e-13)


class TestFinalState:
    def test_n2_m1_pure_blocks(self):
        rho = final_state(params(2, 1, 1.0, 0.5))
        assert rho[0, 0] == pytest.approx(0.375)
        assert rho[0, 3] == pytest.approx(0.25j)
        assert rho[1, 1] == pytest.approx(0.125)
        assert abs(rho[1, 2]) <= 1e-15

    def test_trace_preserved(self):
        for n in (1, 2, 4, 6):
            for m in range(1, n + 1):
                rho = final_state(params(n, m, 0.7, 0.4))
                assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_dense_positive(self):
        rho = final_state(params(4, 3, 0.9, 0.2))
        assert hermitian_eig(rho).eigenvalues[0] >= -1e-13

    def test_m_exceeds_n_rejected(self):
        with pytest.raises(DomainError):
            final_state(params(2, 3, 0.5, 0.5))

    def test_capacity(self, monkeypatch):
        with pytest.raises(CapacityError):
            final_state(params(30, 3, 0.5, 0.5))
        monkeypatch.setenv("DEPOLQFI_MAX_DIM", "8")
        final_state(params(3, 3, 0.5, 0.5))
        with pytest.raises(CapacityError):
            final_state(params(4, 3, 0.5, 0.5))


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
            h = correlated_qfi(params(1, 1, r, lam))
            assert h == pytest.approx(sqsc_qfi(r, lam), abs=1e-12, rel=1e-12)

    def test_n2_m1_pure_is_entangled_pair_value(self):
        from depolqfi.protocols import pure_entangled_qfi

        for lam in np.linspace(0.1, 0.9, 9):
            h = correlated_qfi(params(2, 1, 1.0, lam))
            assert h == pytest.approx(pure_entangled_qfi(lam), rel=1e-12)

    def test_direct_per_x_sum(self):
        # counting identity: summing blocks over x < 2^(n-1) directly equals
        # the (u, v) binomial-weighted sum
        for (n, m) in [(3, 1), (4, 2), (5, 5), (6, 3)]:
            p = params(n, m, 0.65, 0.45)
            diag, counter, slope = scaled_blocks(p)
            direct = 0.0
            for x in range(2 ** (n - 1)):
                u, v = zero_counts(x, n, m)
                direct += block_qfi(diag[u, v], counter[u, v], slope[u, v], m, p.lam)
            assert correlated_qfi(p) == pytest.approx(direct, rel=1e-12)

    def test_r_zero_gives_zero(self):
        assert correlated_qfi(params(5, 3, 0.0, 0.7)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_per_channel_field(self):
        row = evaluate_point("correlated", 4, 2, 0.5, 0.7)
        assert row.qfi == correlated_qfi(params(4, 2, 0.5, 0.7))
        assert row.qfi_per_channel == pytest.approx(row.qfi / 2, rel=1e-15)

    def test_m_greater_than_n_rejected(self):
        with pytest.raises(DomainError):
            correlated_qfi(params(3, 4, 0.5, 0.5))

    def test_grid_matches_scalar_calls(self):
        r, lam = np.meshgrid(
            np.linspace(0.05, 1.0, 5), np.linspace(0.0, 0.99, 6), indexing="ij"
        )
        for n, m in [(1, 1), (2, 1), (5, 5), (11, 1), (14, 7), (30, 13), (60, 1),
                     (60, 30), (60, 60)]:
            grid = correlated_qfi(params(n, m, r, lam))
            assert grid.shape == r.shape
            assert type(correlated_qfi(params(n, m, 0.5, 0.5))) is float
            scalar = [
                correlated_qfi(params(n, m, a, b))
                for a, b in zip(r.flat, lam.flat)
            ]
            # values below 1e-25 are round-off of a true 0 (lambda = 0, m = n)
            np.testing.assert_allclose(grid.ravel(), scalar, rtol=1e-12, atol=1e-25)

    def test_grid_admits_lambda_one_only_as_limit(self):
        r, lam = np.array([0.3, 0.9]), np.array([0.5, 1.0])
        with pytest.raises(DomainError):
            params(3, 2, r, lam)
        grid = correlated_qfi(params(3, 2, r, lam, include_limit=True))
        limit = correlated_qfi(params(3, 2, 0.9, 1.0, include_limit=True))
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
        value = correlated_qfi(params(n, m, r, lam))
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
        value = correlated_qfi(params(n, m, r, lam))
        reference = _double_sum_qfi(n, m, r, lam)
        assert reference == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(reference, rel=1e-12)


class TestGains:
    """Gains are defined by cli.evaluate_grid, which leaves undefined ones
    empty."""

    def test_low_r_gain_approaches_n(self):
        for n in (2, 3, 5):
            g = evaluate_point("correlated", n, 1, 1e-4, 0.8).gain_vs_sqsc
            assert g == pytest.approx(n, abs=1e-4)

    def test_corr_vs_seq_low_r_approaches_n(self):
        for n in (2, 4):
            g = evaluate_point("corr_vs_seq", n, 2, 1e-4, 0.8).gain_vs_seq
            assert g == pytest.approx(n, abs=1e-4)

    def test_undefined_at_r_zero(self):
        for protocol, m in (("correlated", 1), ("corr_vs_seq", 2)):
            row = evaluate_point(protocol, 2, m, 0.0, 0.5)
            assert row.gain_vs_sqsc is None
            assert row.gain_vs_seq is None
