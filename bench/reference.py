"""Fixed reference computations that gauge how fast the host runs right now.

    python3 bench/reference.py start|numpy|python

The benchmark runs one of these as a child process between the program's
operations and scales its timings by how long the reference took against its
nominal time (see REFERENCE_NOMINAL_S in run.py). The code here is fixed and
shares nothing with depolqfi, so a change to the program cannot move it; a
shared host that slows every process for minutes at a time moves both alike.

- start: interpreter start and `import numpy`, the floor of every CLI call;
- numpy: Pauli twirls of a dense 2^8 x 2^8 density matrix through
  Kronecker embeddings and a Hermitian eigensolve on one BLAS thread, the
  kind of work the dense oracle does;
- python: pure-Python loops over binomial sums in a pool of os.cpu_count()
  processes, the kind of work the closed-form sweep does.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

NUMPY_QUBITS = 8
NUMPY_ROUNDS = 2
PYTHON_TASKS = 8
PYTHON_TERMS = 120_000

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def numpy_work() -> float:
    """Half-depolarize each qubit of a seeded 8-qubit density matrix in turn,
    as Pauli twirls through Kronecker embeddings, then diagonalize. The
    state stays a density matrix, so no value drifts toward overflow or
    subnormal numbers that would change the cost."""
    dim = 2**NUMPY_QUBITS
    rng = np.random.default_rng(0)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    for _ in range(NUMPY_ROUNDS):
        for qubit in range(NUMPY_QUBITS):
            twirl = rho.copy()
            for pauli in PAULIS:
                op = np.kron(np.kron(np.eye(2**qubit), pauli), np.eye(dim >> (qubit + 1)))
                twirl = twirl + op @ rho @ op
            rho = 0.5 * rho + 0.125 * twirl
    return float(np.linalg.eigvalsh(rho)[-1])


def python_task(seed: int) -> float:
    total = 0.0
    d = [1.0 / (1 + seed + i) for i in range(64)]
    for i in range(PYTHON_TERMS):
        v, k = i % 13, i % 11
        total += math.comb(v + k, k) * d[(v + k + seed) % 64] * 0.5**k
    return total


def python_work() -> float:
    with ProcessPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        return sum(pool.map(python_task, range(PYTHON_TASKS)))


KINDS = {"start": lambda: 0.0, "numpy": numpy_work, "python": python_work}


if __name__ == "__main__":
    print(KINDS[sys.argv[1]]())
