import math
import re
from fractions import Fraction

import numpy as np
import pytest

from depolqfi.errors import DomainError
from depolqfi.protocols import (
    ProtocolParams,
    check_params,
    sequential_qfi,
    sqsc_qfi,
)
from paper_formulas import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    pure_entangled_qfi,
    qubit_sld,
    sequential_extra_invocation_advantage,
    sequential_gain,
)
from table_helpers import point


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

    def test_check_params_checks_each_value(self):
        check_params(r=0.45, lam=0.45)
        for bad in (math.nan, -0.1, 1.5):
            for name in ("r", "lam"):
                with pytest.raises(DomainError):
                    check_params(**{name: bad})
        with pytest.raises(DomainError):
            check_params(lam=1.0)
        check_params(lam=1.0, include_limit=True)
        with pytest.raises(DomainError):
            check_params(lam=np.nextafter(1.0, 2.0), include_limit=True)
        # counts are the integers that a float64 holds exactly
        check_params(n=2**53, m=2**53)
        for k in (2.5, math.nan, 0, math.inf, 2**53 + 1, 10**400):
            with pytest.raises(DomainError):
                check_params(n=k)
            with pytest.raises(DomainError):
                check_params(m=k)

    def test_params_hold_numbers_only(self):
        # an array of values is an axis, which evaluate_grid checks value by
        # value; a point holds floats, whatever number type it was given
        with pytest.raises(TypeError):
            ProtocolParams(4, 2, np.array([0.3, 0.6]), 0.5)
        with pytest.raises(TypeError):
            check_params(lam=[0.2, 0.3])
        params = ProtocolParams(4, 2, np.float64(0.5), np.array(1), include_limit=True)
        assert params == (4, 2, 0.5, 1.0)
        assert type(params.r) is float and type(params.lam) is float

    def test_check_params_checks_only_what_it_is_given(self):
        check_params()
        check_params(m=3)
        with pytest.raises(DomainError, match=r"^m must be an integer >= 1, got 0$"):
            check_params(m=0)
        with pytest.raises(DomainError, match=r"^m must be an integer >= 1, got 1.5$"):
            check_params(m=1.5)
        too_large = r"^m must be an integer <= 2\*\*53, got 9007199254740993$"
        with pytest.raises(DomainError, match=too_large):
            check_params(m=2**53 + 1)
        # an argument left out is not checked at a default value
        check_params(n=2, lam=1.0, include_limit=True)
        check_params(r=1.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(r=math.nan), "r must lie in [0, 1], got nan"),
            (dict(lam=math.nan), "lambda must lie in [0, 1), got nan"),
            (dict(r=math.inf), "r must lie in [0, 1], got inf"),
            (dict(r=-math.inf), "r must lie in [0, 1], got -inf"),
            (dict(lam=math.inf), "lambda must lie in [0, 1), got inf"),
            (dict(lam=-math.inf), "lambda must lie in [0, 1), got -inf"),
            (dict(lam=1.0), "lambda must lie in [0, 1), got 1.0"),
            (dict(lam=1.0, include_limit=True), None),
            (dict(lam=1), "lambda must lie in [0, 1), got 1.0"),
            (dict(r=1), None),
            (dict(r=2), "r must lie in [0, 1], got 2.0"),
            (dict(r=np.float64(1.5)), "r must lie in [0, 1], got 1.5"),
            (dict(lam=np.float64(1.0)), "lambda must lie in [0, 1), got 1.0"),
            (dict(lam=np.float64(0.5)), None),
            (dict(r=np.array(1.5)), "r must lie in [0, 1], got 1.5"),
            (dict(lam=np.array(1.0), include_limit=True), None),
        ],
    )
    def test_check_params_scalar_and_array_values(self, kwargs, message):
        # plain numbers, np.float64 and 0-d arrays give one verdict and
        # message each, that of float(value)
        if message is None:
            check_params(**kwargs)
        else:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                check_params(**kwargs)

    def test_params_are_a_named_tuple_of_the_point(self):
        params = ProtocolParams(4, 2, 0.5, 1.0, include_limit=True)
        assert params == (4, 2, 0.5, 1.0)
        assert params._fields == ("n", "m", "r", "lam")
        with pytest.raises(DomainError):
            ProtocolParams(4, 2, 0.5, 1.0)


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
        row = point("independent", 5, 5, 0.4, 0.6)
        assert row["qfi"] == pytest.approx(5 * base, rel=1e-14)
        assert row["qfi_per_channel"] == pytest.approx(base, rel=1e-14)

    def test_per_channel_never_beats_baseline(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(1, 10))
            r, lam = rng.uniform(0, 1), rng.uniform(0, 0.99)
            row = point("independent", m, m, r, lam)
            assert row["qfi_per_channel"] == pytest.approx(sqsc_qfi(r, lam), rel=1e-14)


class TestSequential:
    def test_m1_reduces_to_sqsc(self):
        # to the bit, numbers and axes: evaluate_grid takes the sqsc pass
        # as the m = 1 sequential reference
        rng = np.random.default_rng(4)
        edges = [0.0, -0.0, 1.0 - 2**-52, 1e-9, 5e-324]
        r = np.concatenate([edges, [1.0], rng.uniform(0, 1, 30)])
        lam = np.concatenate([edges, [0.5], rng.uniform(0, 0.99, 30)])
        for x, y in zip(r.tolist(), lam.tolist()):
            number = sequential_qfi(1, x, y)
            assert type(number) is float
            assert number.hex() == sqsc_qfi(x, y).hex(), (x, y)
        for rs, lams in ((r, lam), (r.tolist(), tuple(lam.tolist()))):
            values = sequential_qfi(1, rs, lams)
            assert [h.hex() for h in values] == [h.hex() for h in sqsc_qfi(rs, lams)]

    def test_closed_form_value(self):
        m, r, lam = 3, 0.5, 0.8
        expected = 9 * 0.8**4 * 0.25 / (1 - 0.8**6 * 0.25)
        assert sequential_qfi(m, r, lam) == pytest.approx(expected, rel=1e-14)

    def test_returns_float_or_array(self):
        # two numbers give a float; anything else the r-major list over the
        # outer product of the axes, where a number is a one-value axis
        assert type(sequential_qfi(3, 0.5, 0.8)) is float
        r, lam = [0.5, 0.6], np.array([0.8, 0.2, 0.4])
        values = sequential_qfi(3, r, lam)
        assert type(values) is list and len(values) == len(r) * len(lam)
        assert values == [sequential_qfi(3, x, y) for x in r for y in lam.tolist()]
        assert sequential_qfi(3, 0.5, lam) == sequential_qfi(3, [0.5], lam) == values[:3]
        assert sequential_qfi(3, r, 0.2) == sequential_qfi(3, r, (0.2,)) == values[1::3]
        assert sqsc_qfi(0.6, [0.8]) == [sqsc_qfi(0.6, 0.8)]

    def test_exact_as_r_and_lambda_approach_one(self):
        # 1 - lambda^(2m) r^2 cancels there; every float is dyadic, so
        # Fraction gives the exact QFI of the inputs as stored
        rng = np.random.default_rng(1301)
        for _ in range(300):
            m = int(rng.integers(1, 61))
            r, lam = (1.0 - 10.0 ** rng.uniform(-9.0, -1.0, size=2)).tolist()
            if rng.uniform() < 0.25:
                r = 1.0
            x, y = Fraction(r) ** 2, Fraction(lam) ** 2
            exact = m * m * y ** (m - 1) * x / (1 - y**m * x)
            assert sequential_qfi(m, r, lam) == pytest.approx(float(exact), rel=1e-14)
            exact_sqsc = x / (1 - y * x)
            assert sqsc_qfi(r, lam) == pytest.approx(float(exact_sqsc), rel=1e-14)

    def test_lambda_zero(self):
        assert sequential_qfi(2, 0.7, 0.0) == 0.0
        assert sequential_qfi(1, 0.7, 0.0) == pytest.approx(0.49)

    def test_numbers_and_arrays_agree(self):
        # axes and numbers both run in math floats, so they agree to the bit,
        # and with the one-point formula -expm1(2m ln lambda + 2 ln r), whose
        # denominator is exactly 1 where r = 0 or lambda = 0
        rng = np.random.default_rng(1501)
        lam_axis = [0.0, -0.0, *(1.0 - 10.0 ** -np.arange(1.0, 10.0))]
        lam_axis += rng.uniform(size=10).tolist()
        counts = [*range(1, 13), *rng.integers(13, 61, size=8).tolist(), 10**12, 2**53]
        for m in counts:
            r_axis = np.array([0.0, -0.0, 1.0, *rng.uniform(size=10)])
            values = sequential_qfi(m, r_axis, lam_axis)
            assert len(values) == r_axis.size * len(lam_axis)
            points = [(x, y) for x in r_axis.tolist() for y in lam_axis]
            for (x, y), value in zip(points, values):
                number = sequential_qfi(m, x, y)
                assert type(number) is float and number.hex() == value.hex(), (m, x, y)
                gap = 1.0 if x == 0.0 or y == 0.0 else -math.expm1(
                    2 * m * math.log(y) + 2 * math.log(x))
                assert number.hex() == (m * m * y ** (2 * m - 2) * x * x / gap).hex()

    def test_first_fault_in_an_axis(self):
        # a bad value inside an axis raises the message that it raises as a
        # number; m is checked first, then every r, then every lambda
        def message(*args):
            with pytest.raises(DomainError) as raised:
                sequential_qfi(*args)
            return str(raised.value)

        for bad in (1.5, -0.5, -5e-324, math.nan, math.inf):
            expected = message(2, bad, 0.5)
            assert expected.startswith("r must lie in [0, 1], got ")
            assert message(2, [0.3, bad, 2.0], np.array([0.5, 1.0])) == expected
        for bad in (1.0, 1.5, -0.5, math.nan, -math.inf):
            expected = message(2, 0.5, bad)
            assert expected.startswith("lambda must lie in [0, 1), got ")
            assert message(2, np.array([0.3, 1.0]), (0.2, bad, 2.0)) == expected
        expected = "m must be an integer >= 1, got 0"
        assert message(0, 0.5, 0.5) == message(0, [2.0], [2.0]) == expected


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
