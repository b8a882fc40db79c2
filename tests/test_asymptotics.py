import math

import numpy as np
import pytest

from depolqfi.asymptotics import (
    ALL_QUBITS_TABLE_LAMBDAS,
    SPECTATOR_TABLE_LAMBDAS,
    correlated_cutoff,
    cramer_rao_bound,
    lowr_correlated_per_channel,
    lowr_sequential_per_channel,
    lowr_sqsc,
    optimal_invocation_table,
    optimal_invocations,
    sequential_cutoff,
)
from depolqfi.correlated import correlated_qfi
from depolqfi.errors import DomainError
from depolqfi.protocols import ProtocolParams, sequential_qfi, sqsc_qfi


class TestLowrLimits:
    def test_sqsc(self):
        assert lowr_sqsc(1e-3) == pytest.approx(1e-6, rel=1e-14)
        r = 1e-4
        assert sqsc_qfi(r, 0.9) == pytest.approx(lowr_sqsc(r), rel=1e-7)

    def test_sequential(self):
        m, r, lam = 3, 1e-4, 0.8
        exact = sequential_qfi(m, r, lam) / m
        assert exact == pytest.approx(
            lowr_sequential_per_channel(m, r, lam), rel=1e-7
        )

    def test_correlated(self):
        n, m, r, lam = 4, 2, 1e-4, 0.8
        exact = correlated_qfi(ProtocolParams(n, m, r, lam)) / m
        assert exact == pytest.approx(
            lowr_correlated_per_channel(n, m, r, lam), rel=1e-6
        )

    def test_correlated_domain(self):
        with pytest.raises(DomainError, match="requires m <= n"):
            lowr_correlated_per_channel(2, 3, 0.1, 0.5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: lowr_sqsc(math.nan),
            lambda: lowr_sqsc(2.0),
            lambda: lowr_sqsc(-0.1),
            lambda: lowr_sequential_per_channel(2, 5.0, -3.0),
            lambda: lowr_sequential_per_channel(2, 0.5, 1.5),
            lambda: lowr_sequential_per_channel(0, 0.5, 0.5),
            lambda: lowr_correlated_per_channel(3, 2, math.nan, 0.5),
            lambda: lowr_correlated_per_channel(3, 2, 0.5, -0.1),
            lambda: lowr_correlated_per_channel(0, 1, 0.5, 0.5),
        ],
    )
    def test_domain(self, call):
        with pytest.raises(DomainError):
            call()

    def test_lambda_one_limit(self):
        assert lowr_sequential_per_channel(3, 0.1, 1.0) == pytest.approx(0.03)
        assert lowr_correlated_per_channel(4, 3, 0.1, 1.0) == pytest.approx(0.12)


class TestCutoffs:
    def test_m1_limit_value(self):
        assert sequential_cutoff(1).cutoff == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_m2(self):
        curve = sequential_cutoff(2)
        assert curve.cutoff == pytest.approx(2 ** (-0.5), rel=1e-14)
        assert curve.squared_cutoff == pytest.approx(0.5, rel=1e-14)

    def test_monotone_toward_one(self):
        cutoffs = [sequential_cutoff(m).cutoff for m in range(1, 41)]
        assert all(b > a for a, b in zip(cutoffs[1:], cutoffs[2:]))
        assert cutoffs[-1] < 1.0
        assert cutoffs[-1] > 0.95

    def test_cutoff_separates_gain_regimes(self):
        # just above the cutoff the low-r sequential gain beats 1, below it not
        for m in (2, 3, 5):
            lam_c = sequential_cutoff(m).cutoff
            assert m * lam_c ** (2 * m - 2) == pytest.approx(1.0, rel=1e-12)
            assert m * (lam_c * 1.01) ** (2 * m - 2) > 1.0
            assert m * (lam_c * 0.99) ** (2 * m - 2) < 1.0

    def test_correlated_cutoff(self):
        assert correlated_cutoff(4, 2) == pytest.approx(8 ** (-0.5), rel=1e-14)
        assert correlated_cutoff(5, 1) == 0.0
        with pytest.raises(DomainError, match="requires m <= n"):
            correlated_cutoff(2, 3)

    @pytest.mark.parametrize("n, m", [(1.5, 1), (3, 2.5), (math.nan, 1)])
    def test_correlated_cutoff_domain(self, n, m):
        with pytest.raises(DomainError):
            correlated_cutoff(n, m)

    def test_correlated_below_sequential(self):
        for n in (3, 4, 6):
            for m in range(2, n + 1):
                assert correlated_cutoff(n, m) < sequential_cutoff(m).cutoff


class TestOptimalInvocations:
    def test_spectator_threshold_cases(self):
        rec = optimal_invocations(0.7, "spectator")
        assert rec.m_opt == 1
        assert rec.tie_partner is None
        assert rec.optimal_gain_coefficient == pytest.approx(1.0)

    def test_spectator_tie_at_integer_threshold(self):
        # lam^2/(1-lam^2) = 1 at lam = 1/sqrt(2)
        rec = optimal_invocations(2 ** (-0.5), "spectator")
        assert rec.m_opt == 1
        assert rec.tie_partner == 2
        coeff_next = 2 * (2 ** (-0.5)) ** 2
        assert rec.optimal_gain_coefficient == pytest.approx(coeff_next, rel=1e-9)

    def test_all_qubits_tie(self):
        # lam/(1-lam) = 1 at lam = 0.5
        rec = optimal_invocations(0.5, "all_qubits")
        assert rec.m_opt == 1
        assert rec.tie_partner == 2
        assert rec.optimal_gain_coefficient == pytest.approx(
            4 * 0.5**2, rel=1e-9
        )

    def test_tie_gains_exactly_equal(self):
        rec = optimal_invocations(0.99, "all_qubits")
        assert rec.m_opt == 99 and rec.tie_partner == 100
        g99 = 99**2 * 0.99 ** (2 * 99 - 2)
        g100 = 100**2 * 0.99 ** (2 * 100 - 2)
        assert g99 == pytest.approx(g100, rel=1e-12)

    def test_m_opt_is_argmax(self):
        for lam in (0.6, 0.85, 0.93):
            for mode, coeff in (
                ("spectator", lambda m, l: m * l ** (2 * m - 2)),
                ("all_qubits", lambda m, l: m * m * l ** (2 * m - 2)),
            ):
                rec = optimal_invocations(lam, mode)
                best = max(range(1, 200), key=lambda m: coeff(m, lam))
                assert rec.m_opt == best

    def test_domain(self):
        with pytest.raises(DomainError):
            optimal_invocations(0.0, "spectator")
        with pytest.raises(DomainError):
            optimal_invocations(1.0, "spectator")
        with pytest.raises(DomainError):
            optimal_invocations(0.5, "nonsense")

    def test_table_lambdas(self):
        table = optimal_invocation_table("spectator")
        assert [rec.lam for rec in table] == list(SPECTATOR_TABLE_LAMBDAS)
        table = optimal_invocation_table("all_qubits")
        assert [rec.lam for rec in table] == list(ALL_QUBITS_TABLE_LAMBDAS)


class TestCramerRao:
    def test_values(self):
        assert cramer_rao_bound(4.0) == 0.25
        assert cramer_rao_bound(0.0) == math.inf
        assert cramer_rao_bound(math.inf) == 0.0
        bounds = cramer_rao_bound(np.array([[4.0, 0.0], [math.inf, 0.5]]))
        np.testing.assert_array_equal(bounds, [[0.25, math.inf], [0.0, 2.0]])

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            cramer_rao_bound(-1.0)
        for bad in (-1.0, math.nan):
            with pytest.raises(DomainError):
                cramer_rao_bound(np.array([1.0, bad]))
