import numpy as np
import pytest

from depolqfi.errors import DomainError
from depolqfi.linalg import (
    HERMITIAN_TOL,
    I2,
    SIGMA_Y,
    hermitian_eig,
    is_hermitian,
)
from paper_formulas import SIGMA_X, partial_trace, partial_transpose


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestPartialTrace:
    def test_product_basis_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(partial_trace(rho, 1, 2), expected)

    def test_bell_pair_is_maximally_mixed(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        np.testing.assert_allclose(partial_trace(rho, 1, 2), I2 / 2, atol=1e-15)

    def test_product_state_factorization(self):
        r = 0.37
        single = (I2 + r * SIGMA_Y) / 2
        rho = np.kron(single, single)
        np.testing.assert_allclose(partial_trace(rho, 2, 2), single, atol=1e-12)

    def test_recovers_factors_random(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            a = random_density(rng, 2)
            b = random_density(rng, 2)
            rho = np.kron(a, b)  # a on qubit 2, b on qubit 1
            np.testing.assert_allclose(partial_trace(rho, 1, 2), a, atol=1e-12)
            np.testing.assert_allclose(partial_trace(rho, 2, 2), b, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 8)
        assert np.trace(partial_trace(rho, 2, 3)) == pytest.approx(1.0, abs=1e-14)

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            partial_trace(np.eye(4, dtype=complex), 3, 2)


class TestPartialTranspose:
    def test_product_state_unchanged_spectrum(self):
        rng = np.random.default_rng(5)
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        rho = np.kron(a, b)
        pt = partial_transpose(rho, 1, 2)
        np.testing.assert_allclose(pt, np.kron(a, b.T), atol=1e-14)

    def test_result_hermitian(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 4)
        pt = partial_transpose(rho, 2, 2)
        np.testing.assert_allclose(pt, pt.conj().T, atol=1e-14)

    def test_maximally_mixed_is_ppt(self):
        pt = partial_transpose(np.eye(4, dtype=complex) / 4, 1, 2)
        assert hermitian_eig(pt).eigenvalues[0] == pytest.approx(0.25)


class TestHermitianEig:
    def test_diagonal(self):
        spec = hermitian_eig(np.diag([0.8, 0.2]).astype(complex))
        np.testing.assert_allclose(spec.eigenvalues, [0.2, 0.8])

    def test_sigma_x(self):
        spec = hermitian_eig(SIGMA_X)
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)
        minus, plus = spec.eigenvectors[:, 0], spec.eigenvectors[:, 1]
        assert abs(abs(minus @ np.array([1, -1]) / np.sqrt(2)) - 1) < 1e-12
        assert abs(abs(plus @ np.array([1, 1]) / np.sqrt(2)) - 1) < 1e-12

    def test_paired_block_eigenvalues(self):
        # d on the diagonal, +/- i c on the counter-diagonal -> d +/- c
        d, c = 0.4, 0.15
        block = np.array([[d, 1j * c], [-1j * c, d]])
        np.testing.assert_allclose(
            hermitian_eig(block).eigenvalues, [d - c, d + c], atol=1e-14
        )

    def test_non_hermitian_rejected(self):
        # the asymmetry is judged against the matrix's own scale
        for scale in (1.0, 1e-13):
            with pytest.raises(DomainError):
                hermitian_eig(scale * np.array([[0, 1], [0, 0]], dtype=complex))

    def test_is_hermitian_matches_full_size_check(self):
        # asymmetries around the relative threshold, real and complex; the
        # input is left as it was
        rng = np.random.default_rng(71)
        for dtype in (np.float64, np.complex128):
            a = random_hermitian(rng, 8)
            a = a.real.copy() if dtype is np.float64 else a
            skew = np.zeros((8, 8), dtype=dtype)
            skew[2, 5] = np.max(np.abs(a))
            for step in (0.0, 0.5, 0.999, 1.0, 1.001, 2.0):
                b = a + step * HERMITIAN_TOL * skew
                kept = b.copy()
                asymmetry = np.max(np.abs(b - b.conj().T))
                assert is_hermitian(b) == (asymmetry <= HERMITIAN_TOL * np.max(np.abs(b)))
                assert np.array_equal(b, kept)

    def test_zero_matrix(self):
        spec = hermitian_eig(np.zeros((2, 2), dtype=complex))
        np.testing.assert_array_equal(spec.eigenvalues, [0.0, 0.0])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(21)
        for dim in (2, 4, 8):
            a = random_hermitian(rng, dim)
            spec = hermitian_eig(a)
            v, w = spec.eigenvectors, spec.eigenvalues
            scale = np.max(np.abs(a))
            assert np.max(np.abs(a - (v * w) @ v.conj().T)) <= 1e-11 * scale
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-11
            assert np.all(np.diff(w) >= -1e-14)

    def test_eigenvalues_invariant_under_unitary_conjugation(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = random_hermitian(rng, 4)
            q, _ = np.linalg.qr(
                rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            )
            w1 = hermitian_eig(a).eigenvalues
            w2 = hermitian_eig(q @ a @ q.conj().T).eigenvalues
            np.testing.assert_allclose(w1, w2, atol=1e-11)
