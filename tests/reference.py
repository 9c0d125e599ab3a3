"""Test-side references that the package does not use itself.

`basis_pure_state` and `basis_density_matrix` build a computational-basis
state; `random_density_matrix` draws a seeded mixed state; `dense_circuit` builds
V(theta) as a dense matrix from np.kron-embedded block unitaries, apart from
the factor walk (`ansatz._forward_states`) the package trains with;
`locate_factorization_all_candidates` is the factorizing-field search that
golden-searches every round and weighs its minimum against every crossing;
`mix_special_angles` puts exact 0, +-pi/2 and +-pi into drawn angles;
`dense_eigenvector_error` is eps_v on the 2^n x 2^n matrix of rho, each
eigenvector prepared by its own V^dag |z> circuit;
`eigenvector_preparation_gates` is V^dag |z> as a list of native gates, the
gate-by-gate oracle (with `run_circuit`) of the fused noisy re-preparation;
`product_seeking_vector_svd` is the degenerate-level pick scored by an SVD of
each mixed vector, the oracle of the pencil scan; `sampled_gradient_per_copy`
is the sampled gradient making each shifted copy of a block in its own
`_apply_left` call, the oracle of the one contraction per block;
`angle_generators_per_angle` conjugates each angle's generator by its own
`_chain` product, the oracle of `BlockKind.angle_generators`' stacked products.
"""

import itertools
import math

import numpy as np

from vqse.ansatz import _GENERATOR, _chain, block_unitary, prepare_eigenvector
from vqse.experiments import (
    FIELD_HALVINGS,
    FactorizationNotFound,
    Gate,
    _bisect_sign_change,
    _check_fields,
    _golden_min,
)
from vqse.hamiltonians import sample_counts
from vqse.qmath import PAULI_X, DensityMatrix, PureState, _apply_left, _bitstring_index, abs2, bitstring_to_index


def basis_pure_state(n, z):
    """|z> for a computational-basis label (bitstring or index)."""
    i = bitstring_to_index(z) if isinstance(z, str) else int(z)
    amp = np.zeros(2**n, dtype=complex)
    amp[i] = 1.0
    return PureState(amp, validate=False)


def basis_density_matrix(n, z):
    """|z><z| for a computational-basis label (bitstring or index)."""
    amp = basis_pure_state(n, z).amplitudes
    return DensityMatrix(np.outer(amp, amp.conj()), validate=False)


def random_density_matrix(n, rank=None, seed=None):
    """Random mixed state from a Gaussian factor: A A^dag / Tr, rank-limited."""
    rng = np.random.default_rng(seed)
    d = 2**n
    r = d if rank is None else int(rank)
    a = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace(), validate=False)


SPECIAL_ANGLES = (0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi)


def mix_special_angles(rng, angles, share):
    """Replace about `share` of the entries of `angles` (in place) by SPECIAL_ANGLES; return it."""
    special = rng.random(angles.shape) < share
    angles[special] = rng.choice(SPECIAL_ANGLES, int(special.sum()))
    return angles


def dense_eigenvector_error(rho, a, est):
    """sum_i || rho |v_i> - lambda~_i |v_i> ||^2 with |v_i> = V^dag |z_i> and rho's dense matrix."""
    total = 0.0
    for lam, z in zip(est.lambdas, est.bitstrings):
        v = prepare_eigenvector(a, z).amplitudes
        delta = rho.data @ v - lam * v
        total += float(np.vdot(delta, delta).real)
    return total


def eigenvector_preparation_gates(a, z):
    """Gate list preparing V^dag |z>: X gates for z, then reversed blocks.

    Each block dagger is decomposed into its native gates (single-qubit
    rotations around one self-inverse entangler) so that per-gate noise
    applies at the same granularity as in the preparation circuit.
    """
    _bitstring_index(z, a.n)  # the check prepare_eigenvector makes
    gates = [Gate(PAULI_X, (q,)) for q, bit in enumerate(z) if bit == "1"]
    daggers = a.kind.rotations(a.kind._factors(a.block_angles)).conj().swapaxes(-1, -2)
    for pair, (pre0, pre1, post0, post1) in zip(reversed(a.block_pairs), daggers[::-1]):
        gates += [Gate(post0, pair[:1]), Gate(post1, pair[1:]), Gate(a.kind.entangler, pair),
                  Gate(pre0, pair[:1]), Gate(pre1, pair[1:])]
    return gates


def dense_circuit(a):
    """V(theta) as a 2^n x 2^n matrix: kron(I, B_b, I) for each block b, multiplied in circuit order."""
    v = np.eye(2**a.n, dtype=complex)
    for mat, (q, _) in zip(block_unitary(a.kind, a.block_angles), a.block_pairs):
        v = np.kron(np.kron(np.eye(2**q), mat), np.eye(2 ** (a.n - q - 2))) @ v
    return v


def locate_factorization_all_candidates(spec, h_grid, tolerance=1e-8):
    """`locate_factorization` by the all-candidates rule: each round the golden
    minimum around the best grid point, then every bisected crossing; the
    smallest residual wins, the first on a tie."""
    hs = np.asarray(sorted(float(h) for h in h_grid))
    _check_fields(spec, hs)
    line = spec._line

    def scan(h):
        _, s, _, i = line.ground(h)
        return float(1.0 - s[0] ** 2), i

    def split(a, b):
        return lambda h: line.lowest(a, h) - line.lowest(b, h)

    for _ in range(FIELD_HALVINGS + 1):
        residuals, sectors = zip(*map(scan, hs))
        k = int(np.argmin(residuals))
        lo, hi = hs[max(k - 1, 0)], hs[min(k + 1, hs.size - 1)]
        candidates = [_golden_min(lambda h: scan(h)[0], lo, hi)]
        for h0, h1, a, b in zip(hs, hs[1:], sectors, sectors[1:]):
            if a != b:
                candidates.append(_bisect_sign_change(split(a, b), h0, h1))
        best_r, best_h = min(((scan(h)[0], float(h)) for h in candidates), key=lambda c: c[0])
        if best_r < tolerance:
            return best_h
        hs = np.sort(np.concatenate([hs, 0.5 * (hs[:-1] + hs[1:])]))
    raise FactorizationNotFound(f"best residual {best_r:.3e}")


def product_seeking_vector_svd(ground, keep, gamma):
    """`experiments._product_seeking_vector` with lambda_1 the top singular value squared of each mixed vector:
    one stacked SVD over the 361 angles, one SVD per golden-refinement step."""
    if ground.shape[1] == 1:
        return ground[:, 0]

    def lam1(v):  # of one vector, or of a stack of them
        return np.linalg.svd(v.reshape(v.shape[:-1] + (2**keep, -1)), compute_uv=False)[..., 0] ** 2

    phis = np.linspace(0.0, np.pi, 361, endpoint=False)
    peaks = []
    for i, j in itertools.combinations(range(ground.shape[1]), 2):
        vi, vj = ground[:, i], ground[:, j]
        scan = lam1(np.cos(phis)[:, None] * vi + np.sin(phis)[:, None] * vj)
        for k in np.flatnonzero((scan >= np.roll(scan, 1)) & (scan >= np.roll(scan, -1))):
            lo, hi = phis[k] - np.pi / 360, phis[k] + np.pi / 360
            p = _golden_min(lambda q: -lam1(np.cos(q) * vi + np.sin(q) * vj), lo, hi)
            cand = np.cos(p) * vi + np.sin(p) * vj
            up, down = cand.reshape(2, -1)
            x, z = 2.0 * up @ down, up @ up - down @ down
            peaks.append((lam1(cand), math.sin(gamma) * x + math.cos(gamma) * z, x, cand))
    best = max(peak[0] for peak in peaks)
    near = [peak for peak in peaks if peak[0] >= best - 1e-12]
    along = max(peak[1] for peak in near)
    return max((peak for peak in near if peak[1] >= along - 1e-6), key=lambda peak: peak[2])[3]


def sampled_gradient_per_copy(states, a, angles, factors, mats, energies, shots, rngs):
    """`solver._gradient` with shots > 0, each block's 2w shifted copies made by 2w `_apply_left` calls.

    `factors`, the exact path's input, is not read: the shifted blocks are built from the angles."""
    pairs, n, w = a.block_pairs, a.n, a.kind.angles_per_block
    runs, rank = mats.shape[0], states[0].shape[-1]
    shifted = np.tile(angles[..., None, None, :], (1, 1, w, 2, 1))
    shifted[..., np.arange(w), :, np.arange(w)] += [np.pi / 2, -np.pi / 2]
    shifted = a.kind.unitaries(a.kind._factors(shifted))
    wide = np.empty((runs, 2**n, 0), dtype=np.result_type(states[-1], shifted))
    for b, (state, pair) in enumerate(zip(states[:-1], pairs)):
        if b:
            wide = _apply_left(wide, mats[:, b], pair, n)
        blocks = shifted[:, b].reshape(runs, 2 * w, 4, 4).swapaxes(0, 1)  # copy by copy, all runs each
        fresh = [_apply_left(state, block, pair, n) for block in blocks]
        wide = np.concatenate([wide] + fresh, axis=-1)
    p = abs2(wide).reshape(runs, 2**n, -1, rank).sum(axis=-1).swapaxes(1, 2).copy()
    counts = np.stack([sample_counts(q, shots, rng) for rng, q in zip(rngs, p)])
    val = (counts[:, :, None, :] @ energies[:, None, :, None]).reshape(runs, -1) / shots
    return 0.5 * (val[:, 0::2] - val[:, 1::2])


def angle_generators_per_angle(kind, factors):
    """`kind.angle_generators(factors)` with angle i's Q built alone: U^dag g_i U, U = `_chain` of
    F_{i-1} ... F_0, on the pre rotations and V g_i V^dag, V = `_chain` of F_{k-1} ... F_{i+1}, on the post ones."""
    k = len(kind.axes)
    out = np.empty(factors.shape, dtype=np.result_type(factors, *(_GENERATOR[ax] for ax in kind.axes)))
    for q in range(4):
        for i, ax in enumerate(kind.axes):
            g = np.broadcast_to(_GENERATOR[ax], factors.shape[:-4] + (2, 2))
            if q < 2 and i > 0:
                u = _chain(factors[..., q, :i, :, :])
                g = u.conj().swapaxes(-1, -2) @ g @ u
            elif q >= 2 and i < k - 1:
                v = _chain(factors[..., q, i + 1:, :, :])
                g = v @ g @ v.conj().swapaxes(-1, -2)
            out[..., q, i, :, :] = g
    return out
