import math

import numpy as np
import pytest

from depolqfi.correlations import (
    correlation_report,
    discord,
    discord_initial,
    discord_intermediates,
    ppt_analysis,
    separability_threshold,
)
from depolqfi.errors import DomainError
from depolqfi.protocols import ProtocolParams
from paper_formulas import (
    DISCORD_ROTATION,
    final_state,
    oracle_final_state,
    partial_transpose,
    two_qubit_final_matrix,
)


class TestFinalMatrix:
    def test_matches_block_construction(self):
        for m in (1, 2):
            for r in (0.0, 0.5, 1.0):
                for lam in (0.0, 0.4, 0.9):
                    dense = final_state(ProtocolParams(2, m, r, lam))
                    explicit = two_qubit_final_matrix(m, r, lam)
                    assert np.max(np.abs(dense - explicit)) <= 1e-14

    def test_matches_oracle(self):
        rho_f, _ = oracle_final_state(ProtocolParams(2, 1, 0.8, 0.6))
        assert np.max(np.abs(two_qubit_final_matrix(1, 0.8, 0.6) - rho_f)) <= 1e-14

    def test_lambda_one_is_prepared_state(self):
        pre = two_qubit_final_matrix(3, 0.7, 1.0)
        dense = final_state(ProtocolParams(2, 2, 0.7, 1.0, include_limit=True))
        assert np.max(np.abs(pre - dense)) <= 1e-14

    def test_entries(self):
        m, r, lam = 2, 0.6, 0.5
        rho = two_qubit_final_matrix(m, r, lam)
        lm = lam**m
        assert rho[0, 0] == pytest.approx((1 + lm * r * r) / 4)
        assert rho[1, 1] == pytest.approx((1 - lm * r * r) / 4)
        assert rho[0, 3] == pytest.approx(1j * 2 * r * lm / 4)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)


class TestPpt:
    def test_min_eigenvalue_closed_form(self):
        for m in (1, 2, 3):
            for r in (0.3, 0.8, 1.0):
                for lam in (0.2, 0.7, 1.0):
                    lm = lam**m
                    expected = (1 - lm * r * r - 2 * r * lm) / 4
                    min_eig, _ = ppt_analysis(m, r, lam)
                    assert min_eig == pytest.approx(expected, abs=1e-13)

    def test_min_eigenvalue_matches_dense_partial_transpose(self):
        # the closed-form spectrum against eigh of the explicit final matrix
        grid = (0.0, 1e-9, 0.3, 0.5, 0.8, 0.999999, 1.0)
        for m in (1, 2, 3, 7):
            for r in grid:
                for lam in grid:
                    pt = partial_transpose(two_qubit_final_matrix(m, r, lam), 1, 2)
                    dense = np.linalg.eigvalsh(pt)[0]
                    assert ppt_analysis(m, r, lam)[0] == pytest.approx(dense, abs=1e-14)

    def test_extreme_point(self):
        min_eig, separable = ppt_analysis(1, 1.0, 1.0)
        assert min_eig == pytest.approx(-0.5, abs=1e-13)
        assert not separable

    def test_threshold_values(self):
        assert separability_threshold(1, 1.0) == pytest.approx(
            math.sqrt(2) - 1, abs=1e-15
        )
        assert separability_threshold(1, 0.8) == pytest.approx(0.5, abs=1e-13)
        assert separability_threshold(1, 0.0) == 1.0
        # deep in the noisy regime every polarization stays separable
        assert separability_threshold(4, 0.3) == 1.0

    @pytest.mark.parametrize("m, lam", [(2, 1e-200), (3, 1e-120), (2, 1e-161)])
    def test_threshold_where_lambda_power_underflows(self, m, lam):
        # lam**m rounds to 0 (or to a subnormal): the lambda^m -> 0 limit
        assert separability_threshold(m, lam) == 1.0

    @pytest.mark.parametrize(
        "m, lam", [(1, -0.5), (1, 1.5), (1, math.nan), (0, 0.5), (1.5, 0.5)]
    )
    def test_threshold_domain(self, m, lam):
        with pytest.raises(DomainError):
            separability_threshold(m, lam)

    def test_threshold_matches_ppt_flag(self):
        for m in (1, 2):
            for lam in (0.6, 0.9):
                thr = separability_threshold(m, lam)
                if thr < 1.0:
                    assert ppt_analysis(m, thr - 1e-6, lam)[1]
                    assert not ppt_analysis(m, thr + 1e-6, lam)[1]

    def test_unpolarized_always_separable(self):
        for lam in (0.0, 0.5, 1.0):
            assert ppt_analysis(2, 0.0, lam)[1]

    def test_domain(self):
        with pytest.raises(DomainError):
            ppt_analysis(0, 0.5, 0.5)
        with pytest.raises(DomainError):
            ppt_analysis(1, 1.5, 0.5)


class TestDiscord:
    def test_zero_at_r_zero(self):
        assert discord(1, 0.0, 0.7) == 0.0
        assert discord(3, 0.0, 0.2) == 0.0

    def test_initial_closed_form(self):
        assert discord_initial(0.5) == pytest.approx(
            0.75 * math.log2(1.5) + 0.25 * math.log2(0.5), abs=1e-14
        )
        assert discord_initial(0.0) == 0.0
        assert discord_initial(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_lambda_one_limit_matches_initial(self):
        for r in np.linspace(0.0, 1.0, 21):
            assert discord(2, r, 1.0) == pytest.approx(
                discord_initial(r), abs=1e-12
            )

    def test_mu_list_is_rotated_spectrum(self):
        for m in (1, 2):
            for r in (0.3, 0.8, 1.0):
                for lam in (0.2, 0.6, 0.95):
                    inter = discord_intermediates(m, r, lam)
                    rho = two_qubit_final_matrix(m, r, lam)
                    u2 = np.kron(DISCORD_ROTATION, DISCORD_ROTATION)
                    rotated = u2 @ rho @ u2.conj().T
                    spectrum = 4.0 * np.linalg.eigvalsh(rotated)
                    mus = np.sort(
                        [inter.mu0, inter.mu1, inter.mu2, inter.mu3]
                    )
                    np.testing.assert_allclose(spectrum, mus, atol=1e-13)

    def test_mu_sum_is_four(self):
        inter = discord_intermediates(2, 0.7, 0.4)
        assert inter.mu0 + inter.mu1 + inter.mu2 + inter.mu3 == pytest.approx(
            4.0, abs=1e-14
        )
        assert inter.c_corr == pytest.approx(0.16 * 0.7, rel=1e-14)

    def test_nonnegative_on_grid(self):
        for r in np.linspace(0, 1, 20):
            for lam in np.linspace(0, 1, 20):
                assert discord(1, float(r), float(lam)) >= -1e-12

    def test_monotone_decay_in_channel_uses(self):
        vals = [discord(m, 0.9, 0.6) for m in range(1, 6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestReport:
    def test_fields(self):
        rep = correlation_report(1, 0.8, 0.6)
        assert rep.m == 1 and rep.r == 0.8 and rep.lam == 0.6
        assert rep.ppt_min_eigenvalue == pytest.approx(
            (1 - 0.6 * 0.64 - 2 * 0.8 * 0.6) / 4, abs=1e-13
        )
        assert rep.separable == (rep.ppt_min_eigenvalue >= -1e-12)
        assert rep.separability_threshold_r == pytest.approx(
            math.sqrt(1 + 1 / 0.6) - 1, abs=1e-13
        )
        assert rep.discord == pytest.approx(discord(1, 0.8, 0.6), abs=1e-15)
        assert rep.discord_initial == pytest.approx(discord_initial(0.8), abs=1e-15)
