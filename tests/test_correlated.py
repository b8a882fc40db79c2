import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from depolqfi.correlated import (
    CHUNK_ELEMENTS,
    MAX_CLOSED_FORM_N,
    _blocks,
    _powers,
    array_qfi,
    block_qfi,
    correlated_qfi,
    grid_qfi,
)
from depolqfi.errors import CapacityError, DomainError
from depolqfi.protocols import ProtocolParams, sqsc_qfi
from paper_formulas import final_state
from table_helpers import point


def params(n, m, r, lam, **kw):
    return ProtocolParams(n=n, m=m, r=r, lam=lam, **kw)


def both_paths(n, m, r, lam, **kw):
    """The closed form at one checked point on its two kernels: correlated_qfi
    (grid_qfi in math floats) and array_qfi on one-value numpy axes, as two
    floats."""
    number = correlated_qfi(params(n, m, r, lam, **kw))
    array = array_qfi(n, m, np.array([r]), np.array([lam]))
    assert type(number) is float and array.shape == (1,) and array.dtype == float
    return number, float(array[0])


def assert_agree(number, array, where):
    """A math value and a numpy value agree within 1e-14 relative and in
    every printed field; exactly where either is 0 or inf."""
    if number != array:
        assert abs(number - array) <= 1e-14 * abs(array), (*where, number, array)
        assert f"{number:.9e}" == f"{array:.9e}", (*where, number, array)


def assert_paths_agree(n, m, r, lam, **kw):
    assert_agree(*both_paths(n, m, r, lam, **kw), (n, m, r, lam))


def zero_counts(x, n, m):
    """(u, v): zeros among the n-m spectator bits and the m channel bits of
    x's n-bit string (qubit 1 is the least significant bit)."""
    bits = format(x, f"0{n}b")
    return bits[: n - m].count("0"), bits[n - m :].count("0")


def scaled_blocks(p):
    """Block eigenvalues p_pm and their lambda-slopes, indexed
    [branch, u, v], with the state's scale 2^-(n+1) applied: p_- is p_+ at
    the mirrored profile (n-m-u, m-v)."""
    r, lam = np.array([[p.r], [p.lam]], dtype=float)  # one point
    return tuple(
        0.5 ** (p.n + 1) * np.stack([a[0], a[0, ::-1, ::-1]])
        for a in _blocks(p.n, p.m, r, lam)
    )


def diagonal(p):
    """The final state's block diagonal d = (p_+ + p_-)/2 and its
    lambda-slope, indexed [u, v], with the state's scale."""
    eig, eig_dot = scaled_blocks(p)
    return (eig[0] + eig[1]) / 2, (eig_dot[0] + eig_dot[1]) / 2


def coefficients(n, r):
    """The prepared state's (d_j, c_j), indexed by the zero count j: d is
    P_+ + P_- and c is P_+ - P_-, with P_+ = (1+r)^j (1-r)^(n-j) the
    product weights that _powers gives."""
    r = np.asarray(r, dtype=float)
    plus, minus = _powers(n, 1.0 + r, 1.0 - r)
    return 0.5 ** (n + 1) * (plus + minus), 0.5 ** (n + 1) * (plus - minus)


def prepared(n, r):
    """The state right after the preparatory circuit: lambda = 1."""
    return final_state(params(n, 1, r, 1.0, include_limit=True))


class TestBitProfile:
    def test_splits_zero_counts(self):
        # n=5, m=2, x = 0b01101: low bits '01' has one zero, high '011' has one
        x, p = 0b01101, params(5, 2, 0.6, 0.7)
        assert zero_counts(x, 5, 2) == (1, 1)
        rho = final_state(p)
        assert rho[x, x] == pytest.approx(diagonal(p)[0][1, 1], rel=1e-14)
        # the counter-diagonal is lambda^m c_j at j = u + v
        c = coefficients(5, 0.6)[1]
        assert rho[x, 31 - x] == pytest.approx(0.49j * c[2], rel=1e-14)

    def test_all_zeros_and_all_ones(self):
        # x = 0 has profile (n-m, m); x = N shares its block, with -c
        n, m = 4, 2
        p = params(n, m, 0.6, 0.7)
        rho = final_state(p)
        assert rho[0, 0] == rho[15, 15] == diagonal(p)[0][n - m, m]
        c = coefficients(n, 0.6)[1]
        assert rho[0, 15] == pytest.approx(0.49j * c[n], rel=1e-14)
        assert rho[15, 0] == pytest.approx(-rho[0, 15], rel=1e-14)

    def test_counting_multiplicities(self):
        # the x < 2^(n-1) with profile (u, v) number C(n-m-1, u-1) C(m, v)
        # for m < n and C(n-1, v-1) for m = n, so the per-x trace of the
        # dense state equals the binomial-weighted sum over (u, v)
        for n, m in [(5, 2), (4, 1), (4, 4), (6, 3)]:
            diag = diagonal(params(n, m, 0.65, 0.45))[0]
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

    def test_branch_coefficients(self):
        # P_+ = (1+r)^j (1-r)^(n-j) and P_- is P_+ reversed, on any shape of r
        r = np.array([[0.5], [1.0]])
        plus, minus = _powers(2, 1.0 + r, 1.0 - r)
        assert plus.shape == minus.shape == (2, 1, 3)
        np.testing.assert_array_equal(plus[:, 0], [[0.25, 0.75, 2.25], [0, 0, 4]])
        np.testing.assert_array_equal(minus, plus[..., ::-1])

    def test_n1_values(self):
        d, c = coefficients(1, 0.5)
        np.testing.assert_allclose(d, [0.5, 0.5])
        np.testing.assert_allclose(c, [-0.25, 0.25])

    def test_pure_limit(self):
        d, c = coefficients(3, 1.0)
        np.testing.assert_allclose(d, [0.5, 0, 0, 0.5])
        np.testing.assert_allclose(c, [-0.5, 0, 0, 0.5])

    def test_unpolarized(self):
        d, c = coefficients(4, 0.0)
        np.testing.assert_allclose(d, np.full(5, 1 / 16))
        np.testing.assert_allclose(c, np.zeros(5), atol=1e-16)

    def test_antisymmetry_and_trace(self):
        for n in (1, 2, 5):
            for r in (0.2, 0.7, 1.0):
                d, c = coefficients(n, r)
                np.testing.assert_allclose(c, -c[::-1], atol=1e-15)
                np.testing.assert_allclose(d, d[::-1], atol=1e-15)
                # trace: sum over all 2^n strings of d_{j(x)} = 1
                total = sum(math.comb(n, j) * d[j] for j in range(n + 1))
                assert total == pytest.approx(1.0, abs=1e-14)

    def test_block_positivity(self):
        for n in (2, 4, 7):
            for r in (0.0, 0.3, 0.9, 1.0):
                d, c = coefficients(n, r)
                assert np.all(d >= np.abs(c) - 1e-15)

    def test_cap(self):
        with pytest.raises(DomainError):
            correlated_qfi(params(MAX_CLOSED_FORM_N + 1, 1, 0.5, 0.5))


def transition_sums(m, lam):
    """T(lambda) without its no-flip term p^m I, and dT/dlambda, as exact
    fractions: the triple sum over the zero count v, the flipped zeros l and
    the flipped ones f of C(v, l) C(m-v, f) q^k p^(m-k), k = l + f, into
    T[v, v - l + f]."""
    p, q = (1 + Fraction(lam)) / 2, (1 - Fraction(lam)) / 2
    t = np.zeros((2, m + 1, m + 1), dtype=object)
    for v in range(m + 1):
        for el in range(v + 1):
            for f in range(m - v + 1):
                k, count = el + f, math.comb(v, el) * math.comb(m - v, f)
                # d/dlambda of q^k p^(m-k), through p and through q
                by_p = (m - k) * q**k * p ** (m - k - 1)
                slope = by_p - k * q ** (k - 1) * p ** (m - k)
                t[0, v, v - el + f] += count * q**k * p ** (m - k) if k else 0
                t[1, v, v - el + f] += count * slope / 2
    return t


class TestTransition:
    @pytest.mark.parametrize("m", [1, 2, 5, 14])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_equals_the_triple_sum(self, m, lam):
        # the product form's channel step: the bit-flip triple sum carries
        # the channel bits' weights a^v b^(m-v) (a, b = 1 +/- r) to
        # A^v B^(m-v) (A, B = 1 +/- lambda r), and its lambda-slope to the
        # slope of that, exactly; _powers forms those products
        r, lam_ = Fraction(3, 8), Fraction(lam)
        t, d_t = transition_sums(m, lam)
        t = t + np.diag([((1 + lam_) / 2) ** m] * (m + 1))  # the no-flip term
        v = range(m + 1)
        weights = np.array([(1 + r) ** i * (1 - r) ** (m - i) for i in v])
        big, small = 1 + lam_ * r, 1 - lam_ * r
        image = [big**i * small ** (m - i) for i in v]
        image_dot = [
            r * (i * big ** (i - 1) * small ** (m - i) if i else 0)
            - r * ((m - i) * big**i * small ** (m - i - 1) if i < m else 0)
            for i in v
        ]
        assert list(t @ weights) == image
        assert list(d_t @ weights) == image_dot
        floats = _powers(m, np.array(float(big)), np.array(float(small)))
        np.testing.assert_allclose(floats[0], np.array(image, dtype=float), rtol=1e-15)
        np.testing.assert_array_equal(floats[1], floats[0][::-1])


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
        assert np.linalg.eigvalsh(rho)[0] >= -1e-14


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
        d, c = coefficients(n, r)
        rho = final_state(params(n, 2, r, 1.0, include_limit=True))
        for x in range(2 ** (n - 1)):
            j = sum(zero_counts(x, n, 0))
            assert rho[x, x].real == pytest.approx(d[j], rel=1e-13)
            assert rho[x, 7 - x] == pytest.approx(1j * c[j], rel=1e-13)

    def test_derivative_against_finite_difference(self):
        # each branch eigenvalue's slope, and so the diagonal's
        eps = 1e-6
        for (n, m, u, v) in [(2, 1, 1, 1), (4, 2, 2, 1), (5, 5, 0, 3)]:
            for r in (0.3, 0.9):
                lam = 0.55
                hi = scaled_blocks(params(n, m, r, lam + eps))[0][:, u, v]
                lo = scaled_blocks(params(n, m, r, lam - eps))[0][:, u, v]
                exact = scaled_blocks(params(n, m, r, lam))[1][:, u, v]
                np.testing.assert_allclose(exact, (hi - lo) / (2 * eps), atol=1e-9)

    def test_n2_m1_derivative_value(self):
        # d/dlam (1 + lam r^2)/4 = r^2/4
        slope = diagonal(params(2, 1, 0.8, 0.6))[1]
        assert slope[1, 1] == pytest.approx(0.16, rel=1e-13)

    def test_eigenvalues_are_d_plus_minus_lambda_m_c(self):
        # p_pm = d +/- lambda^m c on every block, with no entry below 0 even
        # where p_- is tiny (r and lambda near 1) or exactly 0 (r = 1)
        for n, m, r, lam in [(4, 2, 0.6, 0.7), (6, 6, 0.3, 0.2), (5, 3, 1.0, 0.9),
                             (6, 5, 1 - 1e-9, 1 - 1e-9)]:
            eig = scaled_blocks(params(n, m, r, lam))[0]
            d = diagonal(params(n, m, r, lam))[0]
            c = coefficients(n, r)[1]
            counter = lam**m * np.lib.stride_tricks.sliding_window_view(c, m + 1)
            assert np.all(eig >= 0.0)
            np.testing.assert_allclose(eig[0] - d, counter, rtol=1e-12, atol=1e-17)
            np.testing.assert_allclose(d - eig[1], counter, rtol=1e-12, atol=1e-17)


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
        np.testing.assert_array_equal(rho, rho.conj().T)
        assert np.linalg.eigvalsh(rho)[0] >= -1e-13

    def test_m_exceeds_n_rejected(self):
        with pytest.raises(DomainError):
            final_state(params(2, 3, 0.5, 0.5))

    def test_capacity(self):
        for n in (13, 30):
            with pytest.raises(CapacityError):
                final_state(params(n, 3, 0.5, 0.5))


def branches(d, c, d_dot, m, lam):
    """(p, p_dot) of a 2x2 block with diagonal d, prepared counter-diagonal c
    and diagonal slope d_dot, stacked p_+ then p_-."""
    sign = np.array([1.0, -1.0]).reshape((2,) + (1,) * np.ndim(d))
    return d + sign * lam**m * c, d_dot + sign * m * lam ** (m - 1) * c


class TestBlockQfi:
    def test_static_block_contributes_zero(self):
        assert block_qfi(0.25, 0.0) == 0.0
        assert block_qfi(*branches(0.25, 0.0, 0.0, 1, 0.5)).sum() == 0.0

    def test_n1_reduction_to_sqsc(self):
        # single qubit: d = 1/2, c = r/2, d_dot = 0 gives the baseline QFI
        for r in (0.2, 0.8, 1.0):
            for lam in (0.1, 0.6, 0.9):
                h = block_qfi(*branches(0.5, r / 2.0, 0.0, 1, lam)).sum()
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
            p, v = np.linalg.eigh(rho)
            elems = np.abs(v.conj().T @ drho @ v) ** 2
            psum = p[:, None] + p[None, :]
            oracle = float(np.sum(2 * elems / psum))
            h = block_qfi(*branches(d, c, d_dot, m, lam)).sum()
            assert h == pytest.approx(oracle, rel=1e-6)

    def test_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0.0, 0.3, (2, 12))
        p_dot = rng.uniform(-0.3, 0.3, (2, 12))
        p[:, 0], p_dot[:, 0] = 0.0, 0.0  # an empty block
        h = block_qfi(p, p_dot)
        assert h.shape == (2, 12)
        assert h.ravel().tolist() == [
            block_qfi(*args) for args in zip(p.ravel(), p_dot.ravel())
        ]

    def test_homogeneous_of_degree_one(self):
        # the block QFI scales with the state, as (p, p_dot) do
        p, p_dot = branches(0.5, 0.3, 0.1, 2, 0.7)
        base = block_qfi(p, p_dot)
        for scale in (1e-20, 1e-40, 1e20):
            scaled = block_qfi(p * scale, p_dot * scale)
            np.testing.assert_allclose(scaled, base * scale, rtol=1e-14, atol=0.0)

    def test_empty_branch_with_zero_slope_contributes_zero(self):
        assert block_qfi(0.0, 0.0) == 0.0
        assert block_qfi(0.0, -0.0) == 0.0

    def test_vanishing_branch_with_live_derivative_is_infinite(self):
        # p_- = 0 but pdot_- != 0, however small
        assert math.isinf(block_qfi(0.0, 0.5))
        assert math.isinf(block_qfi(0.0, -1e-300))
        assert math.isinf(block_qfi(*branches(0.5, 0.5, 0.0, 1, 1.0)).sum())

    def test_tiny_branch_stays_finite(self):
        # only an exact 0 is a rank drop
        assert block_qfi(1e-200, 1e-110) == pytest.approx(1e-20, rel=1e-14)


class TestCorrelatedQfi:
    def test_n1_m1_is_sqsc(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            r, lam = rng.uniform(0, 1), rng.uniform(0, 0.99)
            h = correlated_qfi(params(1, 1, r, lam))
            assert h == pytest.approx(sqsc_qfi(r, lam), abs=1e-12, rel=1e-12)

    def test_n2_m1_pure_is_entangled_pair_value(self):
        from paper_formulas import pure_entangled_qfi

        for lam in np.linspace(0.1, 0.9, 9):
            h = correlated_qfi(params(2, 1, 1.0, lam))
            assert h == pytest.approx(pure_entangled_qfi(lam), rel=1e-12)

    def test_direct_per_x_sum(self):
        # counting identity: summing blocks over x < 2^(n-1) directly equals
        # the (u, v) binomial-weighted sum
        for (n, m) in [(3, 1), (4, 2), (5, 5), (6, 3)]:
            p = params(n, m, 0.65, 0.45)
            eig, eig_dot = scaled_blocks(p)
            direct = 0.0
            for x in range(2 ** (n - 1)):
                u, v = zero_counts(x, n, m)
                direct += sum(map(block_qfi, eig[:, u, v], eig_dot[:, u, v]))
            assert correlated_qfi(p) == pytest.approx(direct, rel=1e-12)

    def test_r_zero_gives_zero(self):
        # the state is I/2^n for every lambda, on either kernel
        assert correlated_qfi(params(5, 3, 0.0, 0.7)) == 0.0
        assert correlated_qfi(params(5, 3, -0.0, 0.0)) == 0.0
        for r, lam in [
            (np.zeros(1), np.linspace(0.0, 0.95, 6)),
            (np.array([0.0, -0.0]), np.linspace(0.0, 0.95, 6)),
            (np.array([0.5, 0.0]), np.array([0.3875])),
        ]:
            for n, m in [(4, 2), (5, 3), (8, 7), (8, 8)]:
                values = array_qfi(n, m, r, lam).reshape(r.size, lam.size)
                assert np.all(values[r == 0.0] == 0.0)
        assert array_qfi(8, 7, np.array([0.0, 0.5]), np.array([0.3875]))[1] > 0.0

    def test_r_zero_runs_no_slope_re_form(self, monkeypatch):
        # at r = 0 the bulk slope is exactly 0, so _blocks re-forms no entry;
        # at m = n >= 2, lambda = 0 its terms cancel and it still does
        batches = []

        def spy(indices, shape):
            batches.append(indices.size)
            return unravel_index(indices, shape)

        unravel_index = np.unravel_index
        monkeypatch.setattr(np, "unravel_index", spy)
        lam = np.linspace(0.0, 0.99, 100)
        for n, m in [(4, 2), (8, 8), (60, 30)]:
            for r in (0.0, -0.0):
                assert np.all(array_qfi(n, m, np.array([r]), lam) == 0.0)
        assert batches == []
        array_qfi(8, 8, np.array([0.5]), np.array([0.0]))
        assert batches

    def test_r_zero_forms_no_second_slope_in_a_number(self, monkeypatch):
        # the number path returns 0 for an r = 0 row before it forms any
        # per-v row (m + 1 expm1 calls) or slope again (2 more each)
        calls = []

        def spy(x):
            calls.append(x)
            return expm1(x)

        expm1 = math.expm1
        monkeypatch.setattr(math, "expm1", spy)
        for n, m in [(4, 2), (14, 7), (60, 30)]:
            for r in (0.0, -0.0):
                for lam in (0.0, 0.5, 1.0 - 2.0**-52):
                    calls.clear()
                    assert correlated_qfi(params(n, m, r, lam)) == 0.0
                    assert calls == [], (n, m, r, lam)
        # m = n >= 2 at lambda = 0 cancels the slope's terms: it is formed again
        calls.clear()
        correlated_qfi(params(8, 8, 0.5, 0.0))
        assert len(calls) > 8 + 1

    def test_all_qubits_hit_at_lambda_zero_gives_zero(self):
        # m = n >= 2 at lambda = 0: every one-qubit marginal of the prepared
        # state is I/2, so d rho / d lambda = 0 whatever r is
        r = np.append(np.random.default_rng(13).uniform(0.0, 1.0, 8), 1.0)
        lam = np.array([0.0, -0.0, 0.5])
        for n in range(2, MAX_CLOSED_FORM_N + 1):
            assert [correlated_qfi(params(n, n, a, 0.0)) for a in r] == [0.0] * 9
            grid = array_qfi(n, n, r, lam).reshape(r.size, lam.size)
            assert np.all(grid[:, :2] == 0.0) and np.all(grid[:, 2] > 0.0), n
        # the exact QFI is 0 there too
        for n in range(2, 13):
            for a in r:
                exact = _exact_qfi(n, n, a, 0.0)
                assert correlated_qfi(params(n, n, a, 0.0)) == exact == 0
        # one qubit, or one spectator, keeps a QFI at lambda = 0
        assert correlated_qfi(params(1, 1, 0.5, 0.0)) == sqsc_qfi(0.5, 0.0) > 0.0
        assert correlated_qfi(params(8, 7, 0.5, 0.0)) > 0.0

    def test_per_channel_field(self):
        row = point("correlated", 4, 2, 0.5, 0.7)
        assert row["qfi"] == correlated_qfi(params(4, 2, 0.5, 0.7))
        assert row["qfi_per_channel"] == pytest.approx(row["qfi"] / 2, rel=1e-15)

    def test_m_greater_than_n_rejected(self):
        with pytest.raises(DomainError):
            correlated_qfi(params(3, 4, 0.5, 0.5))

    def test_grid_matches_scalar_calls(self):
        r, lam = np.linspace(0.05, 1.0, 5), np.linspace(0.0, 0.99, 6)
        for n, m in [(1, 1), (2, 1), (5, 5), (11, 1), (14, 7), (30, 13), (60, 1),
                     (60, 30), (60, 60)]:
            grid = array_qfi(n, m, r, lam)
            assert grid.shape == (r.size * lam.size,) and grid.dtype == float
            assert type(correlated_qfi(params(n, m, 0.5, 0.5))) is float
            scalar = [correlated_qfi(params(n, m, a, b)) for a in r for b in lam]
            np.testing.assert_allclose(grid, scalar, rtol=1e-12)

    def test_point_bits_do_not_depend_on_the_grid(self):
        # 2 r by 5000 lambda at (60, 30): chunks of 17 points split each
        # lambda row. Unsorted axes with -0.0 in both; each point alone gets
        # the bits it gets inside the grid
        rng = np.random.default_rng(34)
        r = np.array([0.83, -0.0])
        lam = np.concatenate([[0.5, -0.0, 0.0, 1 - 2**-52], rng.uniform(0.0, 1.0, 4996)])
        grid = array_qfi(60, 30, r, lam)
        chunk = CHUNK_ELEMENTS // (31 * 31)
        assert lam.size % chunk and grid.size == 2 * lam.size
        # every point of the chunks that split a row, and 200 more
        split = [i for i in range(grid.size) if i // chunk == lam.size // chunk]
        for i in split + list(rng.integers(0, grid.size, 200)):
            a, b = divmod(i, lam.size)
            alone = array_qfi(60, 30, r[a : a + 1], lam[b : b + 1])
            assert alone.tobytes() == grid[i : i + 1].tobytes(), (i, alone, grid[i])
        # list axes give the bits of numpy axes
        assert array_qfi(60, 30, [0.83], [0.5]).tobytes() == grid[:1].tobytes()

    def test_value_does_not_depend_on_array_shape(self):
        # a 1x1 grid and a 2x3 grid at the same point agree to the last
        # bit; a correlated eval (numbers) takes math, whose expm1, log1p,
        # log and pow can differ from numpy's in the last bit, so it agrees
        # with them to 1e-14 relative and in every printed field
        rng = np.random.default_rng(18)
        for _ in range(300):
            n = int(rng.integers(1, 61))
            m = int(rng.integers(1, n + 1))
            r, lam = rng.uniform(0.01, 0.99, 2)
            single = array_qfi(n, m, np.array([r]), np.array([lam]))
            grid = array_qfi(n, m, np.array([r, 0.3]), np.array([0.2, lam, 0.7]))
            assert grid[1] == single[0], (n, m, r, lam)
            assert_paths_agree(n, m, float(r), float(lam))
        # where math raises and numpy does not: r = 1 (b = 0, log 0), lambda
        # = 0 (log 0, and 0^0 at m = 1), r = 0, and m = n
        for n, m in [(1, 1), (2, 1), (2, 2), (5, 5), (12, 1), (12, 7), (60, 30),
                     (60, 60)]:
            for r, lam in [(1.0, 0.5), (1.0, 0.0), (1.0, 1e-9), (1.0, 1 - 2**-52),
                           (0.5, 0.0), (1e-9, 0.0), (0.0, 0.5), (0.0, 0.0), (-0.0, 0.7),
                           (0.5, 1.0), (1.0, 1.0)]:
                assert_paths_agree(n, m, r, lam, include_limit=True)

    def test_array_kernel_agrees_with_grid_kernel(self):
        # the same unsorted axes on both kernels, edges included: within
        # 1e-14 relative and in every printed field, point by point. At
        # (33, 1, 1 - 1e-9, 1) both overflow to inf (see
        # test_lambda_one_limit_near_pure_is_finite)
        rng = np.random.default_rng(341)
        r = np.concatenate([rng.uniform(0.0, 1.0, 5), [-0.0, 1.0, 1e-9, 1 - 1e-9]])
        lam = np.concatenate([rng.uniform(0.0, 1.0, 6), [0.0, 1.0, 1e-9, 1 - 2**-52]])
        rng.shuffle(r), rng.shuffle(lam)
        for n, m in [(1, 1), (2, 2), (7, 3), (14, 7), (33, 1), (40, 20), (60, 30),
                     (60, 59), (60, 60)]:
            grid = grid_qfi(n, m, r.tolist(), lam.tolist())
            with np.errstate(over="ignore"):
                array = array_qfi(n, m, r, lam)
            assert type(grid) is list and len(grid) == array.size
            points = [(n, m, a, b) for a in r for b in lam]
            for number, value, where in zip(grid, array.tolist(), points):
                assert_agree(number, value, where)

    def test_grid_admits_lambda_one_only_as_limit(self, monkeypatch):
        # evaluate_grid checks each value once, and on numpy arrays too
        # lambda = 1 only as a limit
        from depolqfi import evaluate

        monkeypatch.setattr(evaluate, "PLAIN_WORK", 0)
        r, lam = np.array([0.3, 0.9]), np.array([0.5, 1.0])
        with pytest.raises(DomainError):
            evaluate.evaluate_grid("correlated", [3], [2], r, lam)
        grid = evaluate.evaluate_grid("correlated", [3], [2], r, lam, True)["qfi"]
        limit = correlated_qfi(params(3, 2, 0.9, 1.0, include_limit=True))
        assert grid[3] == pytest.approx(limit, rel=1e-12)


def _bit_flip_sum(n, m, r, lam):
    """The QFI as the sum over blocks (u, v) of bit-flip double sums, in the
    arithmetic of r and lam (mpmath numbers or Fractions): the sum counts k
    flips, l of them among the v channel zeros. math.inf at a rank drop."""
    p, q = (1 + lam) / 2, (1 - lam) / 2
    plus = [(1 + r) ** j * (1 - r) ** (n - j) for j in range(n + 1)]
    d = [plus[j] + plus[n - j] for j in range(n + 1)]
    c = [plus[j] - plus[n - j] for j in range(n + 1)]
    w = [q**k * p ** (m - k) for k in range(m + 1)]
    dw = [
        (
            ((m - k) * q**k * p ** (m - k - 1) if k < m else 0)
            - (k * q ** (k - 1) * p ** (m - k) if k > 0 else 0)
        )
        / 2
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
    total = 0 * r
    for u, v, weight in blocks:
        diag = slope = 0 * r
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
            if eig:
                total += weight * eig_dot**2 / eig
            elif eig_dot:  # a rank drop
                return math.inf
    return total / 2 ** (n + 1)


def _double_sum_qfi(n, m, r, lam):
    """_bit_flip_sum at 50 digits, as a float."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return float(_bit_flip_sum(n, m, mpmath.mpf(r), mpmath.mpf(lam)))


def _exact_qfi(n, m, r, lam):
    """_bit_flip_sum in Fractions: every float is a dyadic rational, so this
    is the exact QFI, a Fraction (or math.inf)."""
    return _bit_flip_sum(n, m, Fraction(r), Fraction(lam))


def _exact_product_qfi(n, m, r, lam, bits=None):
    """The QFI from the product form in integers, a second derivation that
    shares no channel sum with _bit_flip_sum. With r = R/D and lambda =
    L/E, the bit weights D(1 +/- r) and DE(1 +/- lambda r) are integers, so
    each block's p_+ is an integer over D^n E^m and its slope one over
    D^n E^(m-1). Returns the exact QFI as a Fraction (math.inf at a rank
    drop); with bits, a float summed from block terms each cut to bits bits
    below the largest, so within (n+1)^2 2^(1-bits) of it, relative."""
    R, D = Fraction(r).as_integer_ratio()
    L, E = Fraction(lam).as_integer_ratio()
    a, b = D + R, D - R
    big, small = D * E + L * R, D * E - L * R
    x, y, x_dot, y_dot = [], [], [], []
    for v in range(m + 1):
        pa, pb = a**v * b ** (m - v), b**v * a ** (m - v)
        f, g = big**v * small ** (m - v), small**v * big ** (m - v)
        x.append(f + L**m * pa)
        y.append(g - L**m * pb)
        # the slopes of f and g, through d(1 +/- lambda r)/dlambda = +/- r
        up = v and v * big ** (v - 1) * small ** (m - v)
        down = (m - v) and (m - v) * big**v * small ** (m - v - 1)
        x_dot.append(R * (up - down) + m * L ** (m - 1) * pa)
        up = (m - v) and (m - v) * small**v * big ** (m - v - 1)
        down = v and v * small ** (v - 1) * big ** (m - v)
        y_dot.append(R * (up - down) - m * L ** (m - 1) * pb)
    terms = []
    for u in range(n - m + 1):
        plus, minus = a**u * b ** (n - m - u), b**u * a ** (n - m - u)
        for v in range(m + 1):
            eig = plus * x[v] + minus * y[v]
            slope = plus * x_dot[v] + minus * y_dot[v]
            if slope and not eig:
                return math.inf
            if slope:
                terms.append((math.comb(n - m, u) * math.comb(m, v) * slope**2, eig))
    # each term over eig is pdot^2/p times D^n E^(m-2)
    scale = Fraction(E * E, E**m * D**n * 2 ** (n + 1))
    if bits is None:
        return sum((Fraction(t, eig) for t, eig in terms), Fraction(0)) * scale
    if not terms:
        return 0.0
    shift = bits - max(t.bit_length() - eig.bit_length() for t, eig in terms)
    total = sum((t << max(shift, 0)) // (eig << max(-shift, 0)) for t, eig in terms)
    return float(total * Fraction(2) ** -shift * scale)


class TestMemory:
    @pytest.mark.parametrize(
        "n, m, size", [(60, 30, 16), (60, 60, 64), (20, 10, 16)]
    )
    def test_peak_is_a_few_grid_arrays(self, n, m, size):
        # one unit is a float64 array over the (r, lambda) grid and the
        # (u, v) profiles; a grid of more than CHUNK_ELEMENTS such entries
        # runs in chunks of rows and peaks below this
        r, lam = np.linspace(0.01, 0.99, size), np.linspace(0.0, 0.95, size)
        peak = traced_peak(array_qfi, n, m, r, lam)
        assert peak <= 6 * 8 * size * size * (n - m + 1) * (m + 1)

    @pytest.mark.parametrize("n, m", [(60, 30), (60, 60), (20, 10)])
    def test_peak_does_not_grow_with_the_grid(self, n, m):
        # two and eight chunks' worth of r values against 16 lambda, and two
        # r values against 1000 and 5000 lambda, whose chunks split a row,
        # hold the same work arrays at once
        rows = max(1, CHUNK_ELEMENTS // (16 * (n - m + 1) * (m + 1)))
        grids = [(2 * rows, 16), (8 * rows, 16), (2, 1000), (2, 5000)]
        peaks = [
            traced_peak(array_qfi, n, m, np.linspace(0.01, 0.99, count),
                        np.linspace(0.0, 0.95, size))
            for count, size in grids
        ]
        assert max(peaks[1:]) <= 1.25 * peaks[0], peaks

    def test_one_point_peak_is_a_few_profile_arrays(self):
        # at one point (one-value axes) every array is over the (u, v)
        # profiles or smaller, with no (m+1)^3 table: a few of them, besides
        # a fixed 16 kB
        for n, m in [(60, 30), (60, 60)]:
            profile_array = 8 * (n - m + 1) * (m + 1)
            one = np.array([0.5])
            assert traced_peak(array_qfi, n, m, one, one) <= 10 * profile_array + 2**14

    def test_number_peak_is_at_most_a_float_per_profile(self):
        # the number path sums its terms as it forms them: at most one
        # Python float per (u, v) profile is alive at once
        n, m = 60, 30
        peak = traced_peak(correlated_qfi, params(n, m, 0.5, 0.5))
        assert peak <= (n - m + 1) * (m + 1) * sys.getsizeof(0.5), peak


def traced_peak(form, *args):
    """The tracemalloc peak of one call form(*args), in bytes."""
    form(*args)  # first-call allocations out of the count
    tracemalloc.start()
    try:
        form(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MID_SIZE = [
    (10, 3, 0.35, 0.8),
    (10, 10, 0.95, 0.05),
    (12, 1, 0.8, 0.9),
    (12, 12, 0.9, 0.5),
    (14, 7, 0.65, 0.2),
    (14, 13, 0.05, 0.95),
]


class TestHighPrecisionReference:
    """Both kernels of the closed form, numbers and one-value axes, against
    50-digit and exact references."""

    @pytest.mark.parametrize("n, m, r, lam", MID_SIZE)
    def test_mid_size(self, n, m, r, lam):
        reference = _double_sum_qfi(n, m, r, lam)
        for value in both_paths(n, m, r, lam):
            assert value == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("n, m, r, lam", [p for p in MID_SIZE if p[0] <= 12])
    def test_mid_size_exact(self, n, m, r, lam):
        exact = float(_exact_qfi(n, m, r, lam))
        for value in both_paths(n, m, r, lam):
            assert value == pytest.approx(exact, rel=1e-12)

    def test_exact_value_at_tiny_r_and_lambda(self):
        # the slope's four terms cancel from O(1) down to this; formed
        # without them, the closed form keeps it
        exact = _exact_qfi(5, 3, 1e-9, 1e-9)
        assert float(exact) == pytest.approx(6.0000000000000017e-36, rel=1e-15)
        for value in both_paths(5, 3, 1e-9, 1e-9):
            assert value == pytest.approx(float(exact), rel=1e-12)

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
        reference = _double_sum_qfi(n, m, r, lam)
        assert reference == pytest.approx(expected, rel=1e-12)
        for value in both_paths(n, m, r, lam):
            assert value == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize(
        "n, m, r, lam",
        [
            # p_- = d - lambda^m c by subtraction lost 4.5e-8, 3.7e-5, 1.4e-11
            (6, 5, 1 - 1e-9, 1 - 1e-9),
            (2, 1, 1.0, 1 - 1e-12),
            (12, 11, 0.5, 1 - 2**-52),
        ],
    )
    def test_near_pure_weak_noise(self, n, m, r, lam):
        reference = _double_sum_qfi(n, m, r, lam)
        for value in both_paths(n, m, r, lam):
            assert value == pytest.approx(reference, rel=1e-14)

    def test_tiny_eigenvalue_is_not_a_rank_drop(self):
        # p_- of about 1e-16 is accurate and nonzero: the QFI is finite
        reference = _double_sum_qfi(5, 2, 1.0, 1 - 2**-52)
        for value in both_paths(5, 2, 1.0, 1 - 2**-52):
            assert math.isfinite(value)
            assert value == pytest.approx(6.755399441055745e15, rel=1e-14)
            assert value == pytest.approx(reference, rel=1e-14)

    def test_seeded_band_near_one(self):
        # r and lambda both in 1 - 10^[-9, -2], where the eigenvalues p_-
        # are small differences of O(1) terms unless formed without one
        rng = np.random.default_rng(2016)
        for _ in range(24):
            n = int(rng.integers(1, 31))
            m = int(rng.integers(1, n + 1))
            r, lam = map(float, 1.0 - 10.0 ** rng.uniform(-9.0, -2.0, 2))
            reference = _double_sum_qfi(n, m, r, lam)
            for value in both_paths(n, m, r, lam):
                assert value == pytest.approx(reference, rel=1e-14), (n, m, r, lam)


def _kappa(n, m, r, lam):
    """|d ln H / d ln r| + |d ln H / d ln lambda|, by central differences of
    the product-form reference. Where r or lambda exceeds 1/2, its exact
    complement 1 - r or 1 - lambda takes its place; a 0 there adds nothing.
    A step that rounds away (1 - lambda = 2^-52) is widened."""
    total = 0.0
    for i, x in enumerate((r, lam)):
        near_one = x > 0.5
        gap = 1.0 - x if near_one else x
        for step in (1e-6, 1e-3, 0.5):
            if gap == 0.0:
                break
            ends = []
            for sign in (1.0, -1.0):
                point = [r, lam]
                point[i] = gap * (1.0 + sign * step)
                if near_one:
                    point[i] = 1.0 - point[i]
                moved = 1.0 - point[i] if near_one else point[i]  # the float that ran
                h = _exact_product_qfi(n, m, *point, bits=200)
                ends.append((math.log(h), math.log(moved)))
            (h_hi, x_hi), (h_lo, x_lo) = ends
            if x_hi != x_lo:
                total += abs((h_hi - h_lo) / (x_hi - x_lo))
                break
    return total


def assert_meets_kappa_bar(n, m, r, lam):
    """The closed form on both paths against the product-form reference:
    exactly 0 or inf where the QFI is; elsewhere within 1e-12 relative
    where the condition number kappa is at most 1e3, and within 100 eps
    kappa beyond."""
    reference = _exact_product_qfi(n, m, r, lam, bits=200)
    values = both_paths(n, m, r, lam)
    if reference in (0.0, math.inf):
        assert values == (reference, reference), (n, m, r, lam, values)
        return
    kappa = _kappa(n, m, r, lam)
    bar = 1e-12 if kappa <= 1e3 else 100 * np.finfo(float).eps * kappa
    for path, value in zip(("number", "array"), values):
        error = abs(value - reference) / reference
        print(f"({n}, {m}, {r!r}, {lam!r}) {path}: rel err {error:.1e}, "
              f"kappa {kappa:.1e}")
        assert error <= bar, (n, m, r, lam, path, error, kappa)


def _uniform(low, high):
    return lambda rng: rng.uniform(low, high)


def _power(low, high):
    return lambda rng: 10.0 ** rng.uniform(low, high)


def _below_one(low, high):
    return lambda rng: 1.0 - 10.0 ** rng.uniform(low, high)


MID, SMALL, NEAR_ONE = _uniform(0.01, 0.99), _power(-9.0, -2.0), _below_one(-9.0, -2.0)


def _switch_band(rng):
    r = rng.uniform(0.7, 1.0)
    return r, rng.uniform(0.3, 0.7) / r


# (r, lambda) draws of the seeded edge bands: where cancellation or a tiny
# eigenvalue threatens, and around lambda r = 1/2
EDGE_BANDS = {
    "both mid": lambda rng: (MID(rng), MID(rng)),
    "small r": lambda rng: (
        _power(-9.0, -3.0)(rng), (MID, SMALL, NEAR_ONE)[rng.integers(3)](rng)
    ),
    "small lambda": lambda rng: (MID(rng), SMALL(rng)),
    "r near 1, small lambda": lambda rng: (NEAR_ONE(rng), SMALL(rng)),
    "r near 1": lambda rng: (NEAR_ONE(rng), MID(rng)),
    "lambda near 1": lambda rng: (MID(rng), NEAR_ONE(rng)),
    "both near 1": lambda rng: (NEAR_ONE(rng), NEAR_ONE(rng)),
    "lambda r near 1/2": _switch_band,
}

# the corners of the domain: m = n, and a few m < n, at its edges in r and
# lambda, with exact values 0 at r = 0 and at m = n >= 2, lambda = 0
CORNERS = [
    (n, m, r, lam)
    for n, m in [(1, 1), (2, 2), (5, 5), (12, 12), (40, 40), (2, 1), (3, 2), (6, 3),
                 (12, 1), (30, 29)]
    for r, lam in [(1.0, 0.0), (1.0, 0.5), (0.5, 0.0), (1e-9, 0.0), (1.0, 1e-9),
                   (0.0, 0.5)]
]

# points where a closed form formed with cancelling terms lost 4 to 20 digits
NAMED_POINTS = [
    (30, 30, 1e-9, 1e-9),
    (4, 4, 5.3e-8, 6.8e-8),
    (5, 3, 1e-9, 1e-9),
    (18, 7, 1.06e-9, 0.035),
    (57, 57, 9.9e-6, 1.2e-5),
    (25, 25, 0.435, 1.39e-6),
    (21, 9, 1.37e-5, 0.0939),
    (1, 1, 1e-9, 0.0),
    (2, 2, 1.0, 1e-9),
    (12, 12, 1.0, 1e-9),
    # where the dense oracle cannot resolve the smallest eigenvalues
    (7, 7, 1.0, 0.99996),
    (6, 5, 1 - 1e-9, 1 - 1e-9),
    (5, 2, 1.0, 1 - 2**-52),
]


class TestEdgeAccuracy:
    """The closed form over the edges of its domain, n <= 60, on both paths
    (numbers and one-value axes), against the exact product form."""

    @pytest.mark.parametrize("seed", range(12))
    def test_product_form_equals_bit_flip_sum(self, seed):
        # two exact derivations of the QFI agree as Fractions
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, n + 1))
        r, lam = rng.uniform(0.0, 1.0, 2)
        r, lam = [(r, lam), (1.0, lam), (r, 0.0)][seed % 3]
        assert _exact_product_qfi(n, m, r, lam) == _exact_qfi(n, m, r, lam)

    @pytest.mark.parametrize("n, m, r, lam", CORNERS)
    def test_corner(self, n, m, r, lam):
        # n <= 12 against the bit-flip sum, beyond it against the product
        # form, where the 50-digit bit-flip sum leaves 6.6e-102 at
        # (40, 40, 1e-9, 0) for an exact 0
        exact = _exact_qfi(n, m, r, lam) if n <= 12 else _exact_product_qfi(n, m, r, lam)
        for value in both_paths(n, m, r, lam):
            if exact == 0:
                assert value == 0.0
            else:
                assert value == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("n, m, r, lam", NAMED_POINTS)
    def test_named_point(self, n, m, r, lam):
        assert_meets_kappa_bar(n, m, r, lam)

    @pytest.mark.parametrize("band", list(EDGE_BANDS))
    def test_seeded_band(self, band):
        rng = np.random.default_rng(list(EDGE_BANDS).index(band) + 1)
        for _ in range(20):
            n = int(rng.integers(1, MAX_CLOSED_FORM_N + 1))
            m = int(rng.integers(1, n + 1))
            assert_meets_kappa_bar(n, m, *map(float, EDGE_BANDS[band](rng)))

    @pytest.mark.parametrize(
        "n, m", [(1, 1), (2, 1), (3, 2), (5, 5), (12, 7), (60, 1), (60, 60)]
    )
    def test_pure_noiseless_limit_is_infinite(self, n, m):
        # r = lambda = 1, the --include-limit point: the pure state's rank
        # jumps for any lambda < 1, in a number and in a grid alike
        assert _exact_product_qfi(n, m, 1.0, 1.0) == math.inf
        assert both_paths(n, m, 1.0, 1.0, include_limit=True) == (math.inf, math.inf)
        grid = array_qfi(n, m, np.array([1.0, 0.5]), np.array([1.0, 0.3]))
        assert grid[0] == math.inf and np.all(np.isfinite(grid[1:]))

    @pytest.mark.xfail(strict=True, reason="the lambda = 1 limit overflows near r = 1")
    def test_lambda_one_limit_near_pure_is_finite(self):
        # the exact QFI is 5.4e305, but both kernels square a slope past the
        # largest double and return inf
        exact = float(_exact_product_qfi(33, 1, 1 - 1e-9, 1.0))
        for value in both_paths(33, 1, 1 - 1e-9, 1.0, include_limit=True):
            assert value == pytest.approx(exact, rel=1e-12)

    def test_inf_only_at_the_pure_noiseless_limit(self):
        # signed zeros, subnormals and both ends of r and lambda, at every
        # (n, m) with n <= 12: finite except at r = lambda = 1, on both paths
        edges = [0.0, -0.0, 5e-324, 1e-300, 1e-9, 0.5, 1 - 1e-9, 1 - 2.0**-52, 1.0]
        r = lam = np.array(edges)
        pure = (r[:, np.newaxis] == 1.0) & (lam == 1.0)
        for n in range(1, 13):
            for m in range(1, n + 1):
                numbers = np.array([
                    [correlated_qfi(params(n, m, a, b, include_limit=True)) for b in edges]
                    for a in edges
                ])
                grid = array_qfi(n, m, r, lam).reshape(r.size, lam.size)
                for values in (numbers, grid):
                    assert np.all(values[pure] == math.inf), (n, m)
                    assert np.all(np.isfinite(values[~pure])), (n, m)


class TestGains:
    """Gains are defined by evaluate.evaluate_grid, which leaves undefined ones
    empty."""

    def test_low_r_gain_approaches_n(self):
        for n in (2, 3, 5):
            g = point("correlated", n, 1, 1e-4, 0.8)["gain_vs_sqsc"]
            assert g == pytest.approx(n, abs=1e-4)

    def test_corr_vs_seq_low_r_approaches_n(self):
        for n in (2, 4):
            g = point("corr_vs_seq", n, 2, 1e-4, 0.8)["gain_vs_seq"]
            assert g == pytest.approx(n, abs=1e-4)

    def test_undefined_at_r_zero(self):
        for protocol, m in (("correlated", 1), ("corr_vs_seq", 2)):
            row = point(protocol, 2, m, 0.0, 0.5)
            assert row["gain_vs_sqsc"] is None
            assert row["gain_vs_seq"] is None
