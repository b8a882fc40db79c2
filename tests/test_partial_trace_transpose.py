"""The dense partial trace and partial transpose of tests/paper_formulas.py,
the references for the oracle's channel and the closed-form PPT spectrum."""

import numpy as np
import pytest

from depolqfi.errors import DomainError
from paper_formulas import I2, SIGMA_Y, partial_trace, partial_transpose


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
        assert np.linalg.eigvalsh(pt)[0] == pytest.approx(0.25)
