import itertools
import math
import tracemalloc

import numpy as np
import pytest

from depolqfi import oracle
from depolqfi.correlated import correlated_qfi
from depolqfi.errors import CapacityError, DomainError
from depolqfi.oracle import (
    HERMITIAN_TOL,
    MAX_DENSE_N,
    QFI_ELEM_EPS,
    _channels,
    _frame_final_state,
    _is_hermitian,
    _to_frame,
    apply_uprep,
    check_capacity,
    initial_product_state,
    spectral_qfi,
    verify,
    verify_walk,
)
from depolqfi.protocols import ProtocolParams, sqsc_qfi
from paper_formulas import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _mix,
    apply_depolarizing,
    final_state,
    oracle_final_state,
    partial_trace,
)


def params(n, m, r, lam, **kw):
    return ProtocolParams(n=n, m=m, r=r, lam=lam, **kw)


def walk_state(rho, m, lam, n):
    """The walk's m-th yield: (rho, drho) after the channel on qubits 1..m."""
    return next(itertools.islice(_channels(rho, lam, n), m - 1, None))


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

    def test_capacity(self):
        check_capacity(MAX_DENSE_N)
        cap = r"^dimension 2\*\*13 exceeds cap 4096$"
        with pytest.raises(CapacityError, match=cap):
            initial_product_state(MAX_DENSE_N + 1, 0.5)

    def test_refusal_forms_nothing_of_size_2_to_the_n(self):
        # 2**(10**8) alone would be a 12.5 MB integer
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                check_capacity(10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_equals_kron_chain(self):
        for n in (1, 2, 5):
            single = (I2 + 0.35 * SIGMA_Y) / 2.0
            want = single
            for _ in range(n - 1):
                want = np.kron(want, single)
            assert np.array_equal(initial_product_state(n, 0.35), want)


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
                apply_uprep(a.copy(), n), u @ a @ u.conj().T, rtol=0, atol=1e-12
            )

    def test_capacity(self):
        # refused on n alone, before the shape check
        with pytest.raises(CapacityError):
            apply_uprep(np.eye(2), MAX_DENSE_N + 1)

    def test_transforms_its_input_in_place(self):
        rho = initial_product_state(3, 0.6)
        assert apply_uprep(rho, 3) is rho
        closed = final_state(params(3, 1, 0.6, 1.0, include_limit=True))
        assert np.max(np.abs(rho - closed)) <= 1e-14
        # a float input stays float: |0><0| -> the all-1/8 matrix
        real = np.zeros((8, 8))
        real[0, 0] = 1.0
        assert apply_uprep(real, 3) is real
        assert real.dtype == np.float64
        assert np.array_equal(real, np.full((8, 8), 0.125))

    def test_peak_memory(self):
        # besides its input, a buffer of half the input's bytes; one unit is
        # a float64 2^n x 2^n matrix
        n = 10
        rho = initial_product_state(n, 0.35)
        tracemalloc.start()
        try:
            apply_uprep(rho, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * 4**n

    def test_refuses_what_it_cannot_overwrite(self):
        # an F-ordered array would be copied by reshape, not transformed
        rho = initial_product_state(2, 0.5)
        read_only = rho.copy()
        read_only.flags.writeable = False
        for bad in (np.asfortranarray(rho), np.ones((4, 4), dtype=int), read_only):
            with pytest.raises(DomainError, match="C-contiguous float or complex"):
                apply_uprep(bad, 2)

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
        _, d = walk_state(rho, 1, 0.37, 1)
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


def reference_channels(rho, m, lam, n):
    """The out-of-place channel chain and its product-rule derivative."""
    drho = np.zeros_like(rho)
    for qubit in range(1, m + 1):
        mixed = _mix(rho, qubit, n)
        drho = apply_depolarizing(drho, qubit, lam, n) + rho - mixed
        rho = lam * rho + (1.0 - lam) * mixed
    return rho, drho


def reference_spectral_qfi(rho, drho):
    """The spectral sum with full-size temporaries throughout."""
    p, v = np.linalg.eigh(rho)
    mags = np.abs(v.conj().T @ drho @ v)
    psum = p[:, np.newaxis] + p[np.newaxis, :]
    small = psum < len(p) * np.finfo(float).eps * p[-1]
    if np.any(small & (mags > QFI_ELEM_EPS * mags.max())):
        return math.inf
    return float(np.sum(2.0 * mags[~small] ** 2 / psum[~small]))


class TestInPlaceKernels:
    @pytest.mark.parametrize("lam", [0.0, 0.35, 1.0])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_channels_match_out_of_place_chain(self, dtype, lam):
        # the same operations per entry, so the same bits
        rng = np.random.default_rng(59)
        a = rng.standard_normal((8, 8)).astype(dtype)
        if dtype is np.complex128:
            a += 1j * rng.standard_normal((8, 8))
        rho = a.copy()
        for m, got in enumerate(_channels(rho, lam, 3), 1):
            assert got[0] is rho
            for want, have in zip(reference_channels(a, m, lam, 3), got):
                assert have.dtype == dtype
                assert np.array_equal(have, want)

    def test_spectral_qfi_matches_full_size_sum(self):
        # real and complex, finite and inf: the same entries summed in the
        # same order
        rng = np.random.default_rng(67)
        # n = 8 takes 8 blocks of 32 rows. At (8, 2, 1, 0.7) the dropped
        # pairs move the kept terms off the block edges, so block sums
        # summed again would round apart from the one sum.
        points = (
            (4, 3, 0.6, 0.5), (4, 4, 1.0, 0.99), (3, 1, 0.0, 0.3), (2, 1, 1.0, 1.0),
            (8, 4, 0.35, 0.65), (8, 2, 1.0, 0.7),
        )
        for point in points:
            rho, drho = _frame_final_state(params(*point, include_limit=True))
            a = rng.standard_normal(rho.shape) + 1j * rng.standard_normal(rho.shape)
            u, _ = np.linalg.qr(a)
            for x, dx in ((rho, drho), (u @ rho @ u.conj().T, u @ drho @ u.conj().T)):
                assert spectral_qfi(x, dx) == reference_spectral_qfi(x, dx)

    def test_is_hermitian_matches_full_size_check(self):
        # asymmetries around the relative threshold, real and complex; the
        # input is left as it was. The zero matrix is Hermitian.
        rng = np.random.default_rng(71)
        for dtype in (np.float64, np.complex128):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            a = (a + a.conj().T) / 2
            a = a.real.copy() if dtype is np.float64 else a
            skew = np.zeros((8, 8), dtype=dtype)
            skew[2, 5] = np.max(np.abs(a))
            for step in (0.0, 0.5, 0.999, 1.0, 1.001, 2.0):
                b = a + step * HERMITIAN_TOL * skew
                kept = b.copy()
                asymmetry = np.max(np.abs(b - b.conj().T))
                assert _is_hermitian(b) == (asymmetry <= HERMITIAN_TOL * np.max(np.abs(b)))
                assert np.array_equal(b, kept)
        assert _is_hermitian(np.zeros((2, 2), dtype=complex))


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

    def test_non_hermitian_rejected(self):
        # the asymmetry is judged against the matrix's own scale
        for scale in (1.0, 1e-13):
            rho = scale * np.array([[0, 1], [0, 0]], dtype=complex)
            with pytest.raises(DomainError):
                spectral_qfi(rho, np.zeros((2, 2), dtype=complex))


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

    def test_x_entry_check_equals_dense_difference(self):
        # off the X pattern |0 - z| = |z|, and the frame's phases are exact,
        # so the X-entry check gives the dense maximum to the bit; at n = 8
        # it reads rho in 8 blocks of 32 rows
        points = [
            (n, m, r, lam)
            for n in range(1, 7)
            for m in range(1, n + 1)
            for r in GRID_R
            for lam in GRID_LAM
        ]
        points += itertools.product([8], range(1, 9), (0.0, 0.5, 1.0), (0.0, 0.7))
        for point in points:
            p = params(*point)
            report = verify(p)
            rho_f, _ = oracle_final_state(p)
            dense = np.max(np.abs(final_state(p) - rho_f))
            diag = np.real(np.diag(rho_f))
            symmetry = np.max(np.abs(diag - diag[::-1]))
            assert report.max_state_entry_err == dense, p
            assert report.symmetry_err == symmetry, p

    def test_state_check_reads_every_row(self):
        # one off-X entry of 1 in any row, at the block edges too, is the
        # error; the flip symmetry of a real state would hide a skipped row
        p = params(8, 4, 0.35, 0.65)
        rho, _ = _frame_final_state(p)
        for row in (0, 31, 32, 127, 128, 224, 255):
            spiked = rho.copy()
            spiked[row, (row + 2) % 256] = 1.0
            assert oracle._state_errors(spiked, p)[0] == 1.0, row

    @pytest.mark.parametrize("n", [8, 10])
    def test_state_check_adds_no_full_size_array(self, n):
        # besides rho, one unit being a float64 2^n x 2^n matrix: the check
        # takes |rho| one block of rows at a time
        p = params(n, n // 2, 0.35, 0.65)
        rho, _ = _frame_final_state(p)
        oracle._state_errors(rho, p)  # first-call allocations out of the count
        tracemalloc.start()
        try:
            oracle._state_errors(rho, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 8 * 4**n

    @pytest.mark.parametrize("n, m", [(6, 3), (8, 4), (8, "walk")])
    def test_peak_memory(self, n, m):
        # tracemalloc sees numpy's arrays, not the eigensolver's workspace;
        # one unit is a float64 2^n x 2^n matrix. "walk" reads all n uses of
        # one walk, each into a report, as `verify --grid` does.
        def run():
            if m == "walk":
                return list(verify_walk(params(n, 1, 0.35, 0.65)))
            return verify(params(n, m, 0.35, 0.65))

        run()  # first-call allocations out of the count
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 8 * 4**n

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


# the `verify --grid` set and the n = 8 parameter lattice of the benchmark
GRID_R = (0.0, 0.1, 0.5, 0.9, 1.0)
GRID_LAM = (0.0, 0.3, 0.7, 0.99)
LATTICE = [round(0.05 * (i + 1), 2) for i in range(19)]


def phase_on_qubit(n, qubit, phase):
    """Diagonal of diag(1, phase) on one qubit (qubit 1 least significant)."""
    bits = (np.arange(2**n) >> (qubit - 1)) & 1
    return np.where(bits == 1, phase, 1.0 + 0j)


class TestPhaseFrame:
    def test_prepared_state_is_real_in_frame(self):
        # m and lambda act only through the channels, whose coefficients are
        # real, so the prepared state at each (n, r) settles the frame's dtype
        points = {(n, r) for n in range(1, 9) for r in GRID_R}
        points |= {(8, r) for r in LATTICE}
        for n, r in sorted(points):
            rho = _to_frame(apply_uprep(initial_product_state(n, r), n))
            assert rho.dtype == np.float64, (n, r)

    def test_final_state_is_float64_on_verify_grid(self):
        for n in range(1, 9):
            for m in range(1, n + 1):
                for lam in GRID_LAM:
                    rho, drho = _frame_final_state(params(n, m, 0.9, lam))
                    assert rho.dtype == drho.dtype == np.float64, (n, m, lam)

    @pytest.mark.parametrize(
        "n, m, r, lam",
        [(1, 1, 0.5, 0.3), (3, 2, 0.6, 0.4), (5, 5, 1.0, 0.99), (6, 3, 0.1, 0.0)],
    )
    def test_matches_direct_complex_pipeline(self, n, m, r, lam):
        rho_i = apply_uprep(initial_product_state(n, r), n)
        direct = walk_state(rho_i, m, lam, n)
        framed = oracle_final_state(params(n, m, r, lam))
        for want, got in zip(direct, framed):
            assert got.dtype == np.complex128
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(direct[0]))

    def test_spectral_qfi_is_basis_and_dtype_independent(self):
        rho, drho = _frame_final_state(params(4, 3, 0.6, 0.5))
        assert rho.dtype == np.float64
        value = spectral_qfi(rho, drho)
        assert value > 0.0
        rng = np.random.default_rng(47)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        u, _ = np.linalg.qr(a)
        rotated = spectral_qfi(u @ rho @ u.conj().T, u @ drho @ u.conj().T)
        assert rotated == pytest.approx(value, rel=1e-12, abs=0.0)
        as_complex = spectral_qfi(rho.astype(complex), drho.astype(complex))
        assert as_complex == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_channel_commutes_with_s_on_every_qubit(self):
        rng = np.random.default_rng(53)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        for s_qubit in (1, 2, 3):
            s = phase_on_qubit(3, s_qubit, 1j)
            rotated = s[:, np.newaxis] * rho * s.conj()
            for qubit in (1, 2, 3):
                for lam in (0.0, 0.35):
                    lhs = apply_depolarizing(rotated, qubit, lam, 3)
                    out = apply_depolarizing(rho, qubit, lam, 3)
                    rhs = s[:, np.newaxis] * out * s.conj()
                    assert np.max(np.abs(lhs - rhs)) <= 1e-15

    def test_imaginary_preparation_keeps_complex_path(self, monkeypatch):
        # a Hermitian imaginary part on the (0, 1) pair, where the frame's
        # phase is 1, must reach the state check instead of being dropped
        prepare = oracle.apply_uprep

        def skewed(rho, n):
            out = prepare(rho, n)
            out[0, 1] += 1e-6j
            out[1, 0] -= 1e-6j
            return out

        monkeypatch.setattr(oracle, "apply_uprep", skewed)
        p = params(3, 2, 0.5, 0.7)
        rho, drho = _frame_final_state(p)
        assert rho.dtype == drho.dtype == np.complex128
        report = verify(p)
        assert report.max_state_entry_err >= 1e-7
        assert not report.pass_
