"""Test-side references that the package does not use itself.

`random_density_matrix` draws a seeded mixed state; `dense_circuit` builds
V(theta) as a dense matrix from np.kron-embedded block unitaries, apart from
the factor walk (`ansatz._forward_states`) the package trains with.
"""

import numpy as np

from vqse.qmath import DensityMatrix


def random_density_matrix(n, rank=None, seed=None):
    """Random mixed state from a Gaussian factor: A A^dag / Tr, rank-limited."""
    rng = np.random.default_rng(seed)
    d = 2**n
    r = d if rank is None else int(rank)
    a = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace(), validate=False)


def dense_circuit(a):
    """V(theta) as a 2^n x 2^n matrix: kron(I, B_b, I) for each block b, multiplied in circuit order."""
    v = np.eye(2**a.n, dtype=complex)
    for mat, (q, _) in zip(a.block_matrices(), a.block_pairs):
        v = np.kron(np.kron(np.eye(2**q), mat), np.eye(2 ** (a.n - q - 2))) @ v
    return v
