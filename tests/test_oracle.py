import math

import numpy as np
import pytest

from depolqfi.correlated import correlated_qfi, final_state
from depolqfi.errors import CapacityError, DomainError
from depolqfi.linalg import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, partial_trace
from depolqfi.oracle import (
    _channels,
    apply_depolarizing,
    apply_uprep,
    initial_product_state,
    oracle_final_state,
    spectral_qfi,
    verify,
)
from depolqfi.protocols import ProtocolParams, sqsc_qfi


def params(n, m, r, lam, **kw):
    return ProtocolParams(n=n, m=m, r=r, lam=lam, **kw)


class TestInitialState:
    def test_single_qubit(self):
        np.testing.assert_allclose(
            initial_product_state(1, 0.5), (I2 + 0.5 * SIGMA_Y) / 2, atol=1e-15
        )

    def test_eigenvalues_are_products(self):
        rho = initial_product_state(2, 0.5)
        w = np.sort(np.linalg.eigvalsh(rho))
        np.testing.assert_allclose(w, [0.0625, 0.1875, 0.1875, 0.5625], atol=1e-14)

    def test_marginals(self):
        rho = initial_product_state(2, 0.7)
        single = (I2 + 0.7 * SIGMA_Y) / 2
        for traced_out in (1, 2):
            np.testing.assert_allclose(
                partial_trace(rho, traced_out, 2), single, atol=1e-13
            )

    def test_capacity(self, monkeypatch):
        monkeypatch.setenv("DEPOLQFI_MAX_DIM", "8")
        with pytest.raises(CapacityError):
            initial_product_state(4, 0.5)


class TestPrepCircuit:
    def test_matches_dense_circuit(self):
        # U = H^(x)n times the CZ product's signs (-1)^C(popcount x, 2);
        # non-Hermitian inputs tell a row axis from a column axis
        hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        rng = np.random.default_rng(43)
        for n in (1, 2, 3, 5, 7):
            dim = 2**n
            had = np.ones((1, 1))
            for _ in range(n):
                had = np.kron(had, hadamard)
            signs = [(-1.0) ** math.comb(bin(x).count("1"), 2) for x in range(dim)]
            u = had * np.array(signs)
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            np.testing.assert_allclose(
                apply_uprep(a, n), u @ a @ u.conj().T, rtol=0, atol=1e-12
            )

    def test_capacity(self, monkeypatch):
        monkeypatch.setenv("DEPOLQFI_MAX_DIM", "8")
        with pytest.raises(CapacityError):
            apply_uprep(np.eye(16, dtype=complex) / 16, 4)

    def test_wrong_shape(self):
        for shape in ((8, 8), (4, 8), (2, 2), (16,)):
            with pytest.raises(DomainError):
                apply_uprep(np.zeros(shape, dtype=complex), 2)

    def test_n2_bell_projector_from_zero(self):
        # |00> -> CZ leaves it, Hadamards spread it: all entries 1/4
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        out = apply_uprep(rho, 2)
        np.testing.assert_allclose(out, np.full((4, 4), 0.25), atol=1e-14)

    def test_pure_input_gives_ghz_type_state(self):
        # r = 1 prepared state is (|0...0> - i|1...1>)/sqrt(2)
        for n in (2, 3, 4):
            rho = apply_uprep(initial_product_state(n, 1.0), n)
            dim = 2**n
            ghz = np.zeros(dim, dtype=complex)
            ghz[0] = 1 / math.sqrt(2)
            ghz[-1] = -1j / math.sqrt(2)
            overlap = float((ghz.conj() @ rho @ ghz).real)
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_matches_coefficient_table(self):
        # the closed form's lambda = 1 limit is the prepared state
        for n in (1, 2, 3, 5):
            for r in (0.0, 0.5, 1.0):
                circuit = apply_uprep(initial_product_state(n, r), n)
                closed = final_state(params(n, 1, r, 1.0, include_limit=True))
                assert np.max(np.abs(circuit - closed)) <= 1e-14


class TestChannel:
    def test_identity_at_lambda_one(self):
        rho = apply_uprep(initial_product_state(2, 0.5), 2)
        np.testing.assert_allclose(
            apply_depolarizing(rho, 1, 1.0, 2), rho, atol=1e-15
        )

    def test_full_contraction_single_qubit(self):
        rho = (I2 + 0.9 * SIGMA_Y) / 2
        np.testing.assert_allclose(
            apply_depolarizing(rho, 1, 0.0, 1), I2 / 2, atol=1e-15
        )

    def test_bloch_vector_scaling(self):
        rho = (I2 + 0.8 * SIGMA_Y) / 2
        out = apply_depolarizing(rho, 1, 0.6, 1)
        np.testing.assert_allclose(out, (I2 + 0.48 * SIGMA_Y) / 2, atol=1e-14)

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        out = apply_depolarizing(rho, 2, 0.35, 3)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-13)
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-13

    def test_invocations_commute(self):
        rho = apply_uprep(initial_product_state(3, 0.7), 3)
        ab = apply_depolarizing(apply_depolarizing(rho, 1, 0.4, 3), 2, 0.4, 3)
        ba = apply_depolarizing(apply_depolarizing(rho, 2, 0.4, 3), 1, 0.4, 3)
        assert np.max(np.abs(ab - ba)) <= 1e-14

    def test_twirl_is_embedded_partial_trace(self):
        # channel at lam=0 must give I/2 on the hit qubit, original marginal
        # on the rest
        rho = apply_uprep(initial_product_state(2, 0.9), 2)
        out = apply_depolarizing(rho, 1, 0.0, 2)
        np.testing.assert_allclose(
            out, np.kron(partial_trace(rho, 1, 2), I2 / 2), atol=1e-13
        )
        # and equal the Pauli twirl (rho + X rho X + Y rho Y + Z rho Z)/4
        # with each Pauli embedded at the qubit's slot (qubit 1 rightmost)
        rng = np.random.default_rng(41)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        for qubit in (1, 2, 3):
            left, right = np.eye(2 ** (3 - qubit)), np.eye(2 ** (qubit - 1))
            twirl = rho.copy()
            for pauli in (SIGMA_X, SIGMA_Y, SIGMA_Z):
                op = np.kron(np.kron(left, pauli), right)
                twirl += op @ rho @ op
            np.testing.assert_allclose(
                apply_depolarizing(rho, qubit, 0.0, 3), twirl / 4, atol=1e-14
            )

    def test_qubit_out_of_range(self):
        with pytest.raises(DomainError):
            apply_depolarizing(np.eye(4, dtype=complex) / 4, 3, 0.5, 2)


class TestDerivative:
    def test_single_use_bloch_form(self):
        # d/dlam [(I + lam r sigma_y)/2] = r sigma_y / 2
        rho = (I2 + 0.8 * SIGMA_Y) / 2
        _, d = _channels(rho, 1, 0.37, 1)
        np.testing.assert_allclose(d, 0.8 * SIGMA_Y / 2, atol=1e-14)

    def test_traceless(self):
        _, d = oracle_final_state(params(3, 2, 0.6, 0.5))
        assert abs(np.trace(d)) <= 1e-14

    def test_finite_difference(self):
        lam, eps = 0.55, 1e-6
        for n, m in ((3, 1), (3, 3), (4, 4)):
            rho = apply_uprep(initial_product_state(n, 0.6), n)

            def pipeline(lam_val):
                out = rho
                for qubit in range(1, m + 1):
                    out = apply_depolarizing(out, qubit, lam_val, n)
                return out

            fd = (pipeline(lam + eps) - pipeline(lam - eps)) / (2 * eps)
            _, exact = oracle_final_state(params(n, m, 0.6, lam))
            assert np.max(np.abs(fd - exact)) <= 1e-9


class TestSpectralQfi:
    def test_zero_for_static_state(self):
        # the rank-deficient diag(1, 0) too: no derivative, no divergence
        for diag in ([0.6, 0.4], [1.0, 0.0]):
            rho = np.diag(diag).astype(complex)
            assert spectral_qfi(rho, np.zeros((2, 2), dtype=complex)) == 0.0

    def test_homogeneous_of_degree_one(self):
        # scaling (rho, drho) by c scales the QFI by c, down to tiny c and up
        # to large c; at c = 1: 2(0.1^2/1.2 + 0.1^2/0.8) + 2 * 2 * 0.05^2
        # = 31/600. The unitary rotation leaves the QFI as it is but makes
        # rho and drho Hermitian only to round-off, as computed states are.
        u = np.array([[0.8, -0.6], [0.6, 0.8]]) @ np.diag([1.0, np.exp(0.7j)])
        rho = u @ np.diag([0.6, 0.4]) @ u.conj().T
        drho = u @ np.array([[0.1, 0.05j], [-0.05j, -0.1]]) @ u.conj().T
        for c in (1.0, 1e-12, 1e-20, 1e8):
            assert spectral_qfi(c * rho, c * drho) == pytest.approx(
                c * 31 / 600, rel=1e-12, abs=0.0
            )

    def test_reproduces_sqsc(self):
        for r in (0.2, 0.7, 1.0):
            for lam in (0.1, 0.5, 0.9):
                rho = (I2 + lam * r * SIGMA_Y) / 2
                drho = r * SIGMA_Y / 2
                assert spectral_qfi(rho, drho) == pytest.approx(
                    sqsc_qfi(r, lam), rel=1e-12
                )

    def test_infinite_flag(self):
        # rank-deficient state whose derivative leaks out of the support
        rho = np.diag([1.0, 0.0]).astype(complex)
        drho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        assert math.isinf(spectral_qfi(rho, drho))

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            spectral_qfi(np.eye(2, dtype=complex), np.eye(4, dtype=complex))


class TestVerify:
    def test_reference_point(self):
        report = verify(params(4, 2, 0.5, 0.7))
        assert report.pass_
        assert report.rel_err <= 1e-10
        assert report.max_state_entry_err <= 1e-13
        assert report.symmetry_err <= 1e-13

    def test_r_zero_edge(self):
        report = verify(params(3, 2, 0.0, 0.5))
        assert report.pass_
        assert report.closed_form_qfi == pytest.approx(0.0, abs=1e-12)

    def test_zero_pattern_off_paired_positions(self):
        rho_f, _ = oracle_final_state(params(3, 2, 0.6, 0.4))
        dim = 8
        mask = np.zeros((dim, dim), dtype=bool)
        for x in range(dim):
            mask[x, x] = True
            mask[x, dim - 1 - x] = True
        assert np.max(np.abs(rho_f[~mask])) <= 1e-14

    def test_flip_symmetry(self):
        rho_f, _ = oracle_final_state(params(4, 3, 0.8, 0.6))
        diag = np.real(np.diag(rho_f))
        assert np.max(np.abs(diag - diag[::-1])) <= 1e-14

    def test_infinite_branch_agreement(self):
        # pure prepared state, one use at the lambda -> 1 limit keeps a
        # vanishing eigenvalue with live derivative on both routes
        report = verify(params(2, 1, 1.0, 1.0, include_limit=True))
        assert math.isinf(report.closed_form_qfi)
        assert math.isinf(report.oracle_qfi)
        assert report.pass_

    def test_oracle_matches_closed_form_qfi_value(self):
        p = params(5, 3, 0.9, 0.8)
        report = verify(p)
        assert report.closed_form_qfi == pytest.approx(
            correlated_qfi(p), rel=1e-14
        )
        assert report.pass_

    def test_final_state_agreement_dense(self):
        p = params(4, 4, 0.7, 0.3)
        rho_f, _ = oracle_final_state(p)
        assert np.max(np.abs(final_state(p) - rho_f)) <= 1e-13

    @pytest.mark.parametrize(
        "n, m, r, lam",
        [
            (5, 5, 1.0, 0.999999),
            (4, 2, 1.0, 0.999999),
            (6, 6, 1.0, 0.9999),
            (7, 7, 1.0, 0.9999),
            (8, 4, 1.0, 0.9999),
        ],
    )
    def test_tiny_eigenvalues_near_lambda_one(self, n, m, r, lam):
        # eigenvalue pairs of order (1 - lambda)^2 are real branches, not
        # rank drops, as long as eigh resolves them
        report = verify(params(n, m, r, lam))
        assert report.pass_, report
        assert report.rel_err <= 1e-10

    def test_random_points_pass(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(
            max_examples=50, derandomize=True, database=None, deadline=None
        )
        @hypothesis.given(
            nm=st.integers(1, 7).flatmap(
                lambda n: st.tuples(st.just(n), st.integers(1, n))
            ),
            r=st.floats(0.0, 1.0),
            lam=st.floats(0.0, 0.99999),
        )
        def check(nm, r, lam):
            report = verify(params(*nm, r, lam))
            assert report.pass_, report

        check()
