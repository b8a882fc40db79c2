import math
from fractions import Fraction

import numpy as np
import pytest

from depolqfi.errors import DomainError
from depolqfi.linalg import I2, SIGMA_X, SIGMA_Y, SIGMA_Z
from depolqfi.protocols import (
    ProtocolParams,
    check_params,
    independent_qfi,
    pure_entangled_qfi,
    qubit_sld,
    sequential_extra_invocation_advantage,
    sequential_gain,
    sequential_qfi,
    sqsc_qfi,
)


def bloch_state(rx, ry, rz):
    return (I2 + rx * SIGMA_X + ry * SIGMA_Y + rz * SIGMA_Z) / 2.0


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, m=1, r=0.5, lam=0.5),
            dict(n=1, m=0, r=0.5, lam=0.5),
            dict(n=1, m=1, r=-0.1, lam=0.5),
            dict(n=1, m=1, r=1.1, lam=0.5),
            dict(n=1, m=1, r=0.5, lam=1.0),
            dict(n=1, m=1, r=0.5, lam=-0.2),
        ],
    )
    def test_domain_rejection(self, kwargs):
        with pytest.raises(DomainError):
            ProtocolParams(**kwargs)

    def test_m_above_n_rejected(self):
        message = r"^correlated protocol requires m <= n, got m=3, n=2$"
        with pytest.raises(DomainError, match=message):
            ProtocolParams(2, 3, 0.5, 0.5)
        assert ProtocolParams(3, 3, 0.5, 0.5).m == 3

    def test_limit_flag_admits_lambda_one(self):
        params = ProtocolParams(n=1, m=1, r=0.5, lam=1.0, include_limit=True)
        assert params.lam == 1.0

    def test_check_params_checks_every_array_entry(self):
        good = np.linspace(0.0, 0.9, 7)
        check_params(r=good, lam=good)
        for bad in (math.nan, -0.1, 1.5):
            values = good.copy()
            values[3] = bad
            for name in ("r", "lam"):
                with pytest.raises(DomainError):
                    check_params(**{name: values})
        with_one = np.append(good, 1.0)
        with pytest.raises(DomainError):
            check_params(lam=with_one)
        check_params(lam=with_one, include_limit=True)
        with pytest.raises(DomainError):
            check_params(lam=np.nextafter(1.0, 2.0), include_limit=True)
        for k in (2.5, math.nan, 0):
            with pytest.raises(DomainError):
                check_params(n=k)
            with pytest.raises(DomainError):
                check_params(m=k)


class TestSqsc:
    def test_values(self):
        assert sqsc_qfi(1.0, 0.0) == pytest.approx(1.0)
        assert sqsc_qfi(0.5, 0.8) == pytest.approx(0.25 / (1 - 0.16))
        assert sqsc_qfi(0.0, 0.5) == 0.0

    def test_pure_specialization(self):
        assert sqsc_qfi(1.0, 0.5) == pytest.approx(4.0 / 3.0)

    def test_divergence_toward_lambda_one(self):
        assert sqsc_qfi(1.0, 1 - 1e-8) > 1e7

    def test_domain(self):
        with pytest.raises(DomainError):
            sqsc_qfi(0.5, 1.0)
        with pytest.raises(DomainError):
            sqsc_qfi(2.0, 0.5)


class TestEntangledPair:
    def test_lambda_zero_is_three(self):
        # fully contracted point: state is Phi/0-mix I/4, all eigenvalues 1/4,
        # H = 4 Tr[(Phi - I/4)^2] = 3
        assert pure_entangled_qfi(0.0) == pytest.approx(3.0, abs=1e-15)

    def test_matches_isotropic_spectral_form(self):
        # lam*Phi + (1-lam)I/4: eigenvalues (1+3lam)/4 and (1-lam)/4 (x3)
        for lam in np.linspace(0.05, 0.95, 10):
            spectral = (9.0 / 4.0) / (1.0 + 3.0 * lam) + (3.0 / 4.0) / (1.0 - lam)
            assert pure_entangled_qfi(lam) == pytest.approx(spectral, rel=1e-14)

    def test_beats_pure_sqsc(self):
        # 3(1+lam)/(1+3lam) > 1 on [0, 1)
        for lam in np.linspace(0.0, 0.95, 20):
            assert pure_entangled_qfi(lam) > sqsc_qfi(1.0, lam)


class TestQubitSld:
    def test_bloch_closed_form(self):
        # rho = (I + lam r sigma)/2, drho = r sigma/2 gives
        # L = -lam r^2/(1-lam^2 r^2) I + r sigma/(1-lam^2 r^2)
        r, lam = 0.6, 0.7
        vec = np.array([0.48, 0.36, 0.0])  # |vec| = 0.6
        sig = vec[0] * SIGMA_X + vec[1] * SIGMA_Y + vec[2] * SIGMA_Z
        rho = (I2 + lam * sig) / 2.0
        drho = sig / 2.0
        comp = qubit_sld(rho, drho)
        denom = 1.0 - lam * lam * r * r
        expected = -lam * r * r / denom * I2 + sig / denom
        np.testing.assert_allclose(comp.sld, expected, atol=1e-13)
        assert comp.branch == "alpha_nonzero"
        assert comp.alpha == pytest.approx((lam * lam * r * r - 1.0) / 2.0)

    def test_defining_relation_and_finite_difference(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            vec = rng.standard_normal(3)
            vec *= rng.uniform(0.05, 0.95) / np.linalg.norm(vec)
            lam = rng.uniform(0.05, 0.95)
            sig = vec[0] * SIGMA_X + vec[1] * SIGMA_Y + vec[2] * SIGMA_Z
            rho = (I2 + lam * sig) / 2.0
            drho = sig / 2.0
            comp = qubit_sld(rho, drho)
            lhs = (comp.sld @ rho + rho @ comp.sld) / 2.0
            np.testing.assert_allclose(lhs, drho, atol=1e-12)
            eps = 1e-6
            fd = ((I2 + (lam + eps) * sig) / 2 - (I2 + (lam - eps) * sig) / 2) / (
                2 * eps
            )
            np.testing.assert_allclose(fd, drho, atol=1e-9)
            # H = Tr[drho L] reproduces the baseline closed form
            h = float(np.trace(drho @ comp.sld).real)
            r = float(np.linalg.norm(vec))
            assert h == pytest.approx(sqsc_qfi(r, lam), rel=1e-12)

    def test_alpha_zero_branch(self):
        # alpha = (r^2 - 1)/2 vanishes only for pure rho; a transverse
        # tangent drho = sigma_x/2 then has SLD sigma_x
        rho = (I2 + SIGMA_Y) / 2.0
        drho = SIGMA_X / 2.0
        comp = qubit_sld(rho, drho)
        assert comp.branch == "alpha_zero"
        np.testing.assert_allclose(comp.sld, SIGMA_X, atol=1e-14)
        lhs = (comp.sld @ rho + rho @ comp.sld) / 2.0
        np.testing.assert_allclose(lhs, drho, atol=1e-14)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            qubit_sld(np.eye(3, dtype=complex), np.eye(3, dtype=complex))
        with pytest.raises(DomainError):
            qubit_sld(np.array([[0, 1], [0, 0]], dtype=complex), I2)


class TestIndependent:
    def test_additivity(self):
        base = sqsc_qfi(0.4, 0.6)
        value = independent_qfi(5, 0.4, 0.6)
        assert value == pytest.approx(5 * base, rel=1e-14)
        assert value / 5 == pytest.approx(base, rel=1e-14)

    def test_per_channel_never_beats_baseline(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(1, 10))
            r, lam = rng.uniform(0, 1), rng.uniform(0, 0.99)
            assert independent_qfi(m, r, lam) / m == pytest.approx(
                sqsc_qfi(r, lam), rel=1e-14
            )


class TestSequential:
    def test_m1_reduces_to_sqsc(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            r, lam = rng.uniform(0, 1), rng.uniform(0, 0.99)
            assert sequential_qfi(1, r, lam) == pytest.approx(
                sqsc_qfi(r, lam), abs=1e-12, rel=1e-12
            )

    def test_closed_form_value(self):
        m, r, lam = 3, 0.5, 0.8
        expected = 9 * 0.8**4 * 0.25 / (1 - 0.8**6 * 0.25)
        assert sequential_qfi(m, r, lam) == pytest.approx(expected, rel=1e-14)

    def test_returns_float_or_array(self):
        for qfi in (sequential_qfi, independent_qfi):
            assert type(qfi(3, 0.5, 0.8)) is float
            values = qfi(3, np.array([0.5, 0.6]), np.array([[0.8], [0.2]]))
            assert values.shape == (2, 2)
            assert values[0, 1] == qfi(3, 0.6, 0.8)

    def test_lambda_zero(self):
        assert sequential_qfi(2, 0.7, 0.0) == 0.0
        assert sequential_qfi(1, 0.7, 0.0) == pytest.approx(0.49)


class TestSequentialGain:
    def test_exact_rational_value(self):
        # m=3, r=0.5, lam=0.8: exact fraction 16128/14601
        exact = Fraction(3, 1) * (
            Fraction(4, 5) ** 4 - Fraction(4, 5) ** 6 * Fraction(1, 4)
        ) / (1 - Fraction(4, 5) ** 6 * Fraction(1, 4))
        assert exact == Fraction(16128, 14601)
        assert sequential_gain(3, 0.5, 0.8) == pytest.approx(float(exact), rel=1e-14)

    def test_consistency_with_qfi_ratio(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            m = int(rng.integers(1, 12))
            r, lam = rng.uniform(0.05, 1), rng.uniform(0.05, 0.99)
            ratio = sequential_qfi(m, r, lam) / m / sqsc_qfi(r, lam)
            assert sequential_gain(m, r, lam) == pytest.approx(ratio, rel=1e-12)

    def test_limit_values(self):
        assert sequential_gain(7, 0.3, 1.0) == pytest.approx(7.0, abs=1e-12)
        assert sequential_gain(7, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert sequential_gain(1, 1.0, 0.0) == 1.0
        assert sequential_gain(3, 1.0, 0.0) == 0.0

    def test_pure_reduced_form(self):
        m, lam = 4, 0.9
        y = 1.0 / lam**2
        reduced = m / sum(y**k for k in range(m))
        assert sequential_gain(m, 1.0, lam) == pytest.approx(reduced, rel=1e-13)

    def test_monotone_in_r_and_lambda(self):
        lam = 0.85
        gains = [sequential_gain(4, r, lam) for r in np.linspace(0, 1, 30)]
        assert all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))
        r = 0.6
        gains = [sequential_gain(4, r, lam) for lam in np.linspace(0.01, 1.0, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = int(rng.integers(1, 15))
            lam = rng.uniform(0, 1)
            assert sequential_gain(m, 1.0, lam) <= 1.0 + 1e-12
            assert sequential_gain(m, rng.uniform(0, 0.999), lam) <= m + 1e-12


class TestExtraInvocation:
    def test_zero_crossing(self):
        # m=1: threshold vanishes exactly when lam^2 = 1/2
        lam = math.sqrt(0.5)
        assert sequential_extra_invocation_advantage(1, lam) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_signs(self):
        assert sequential_extra_invocation_advantage(1, 0.5) == pytest.approx(-8.0)
        assert sequential_extra_invocation_advantage(1, 1.0) == pytest.approx(1.0)
        assert sequential_extra_invocation_advantage(1, 0.0) == -math.inf

    def test_predicts_gain_ordering(self):
        # below the r^2 threshold the (m+1)-use gain beats the m-use gain
        for m in (1, 2, 3):
            for lam in (0.8, 0.9, 0.95):
                thr = sequential_extra_invocation_advantage(m, lam)
                if 0 < thr < 1:
                    r_lo, r_hi = math.sqrt(thr * 0.5), math.sqrt(
                        thr + (1 - thr) * 0.5
                    )
                    assert sequential_gain(m + 1, r_lo, lam) > sequential_gain(
                        m, r_lo, lam
                    )
                    assert sequential_gain(m + 1, r_hi, lam) < sequential_gain(
                        m, r_hi, lam
                    )
