"""Tests for the layered brick-pattern ansatz."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqse.ansatz import (
    CNOT,
    CZ,
    BlockKind,
    LayeredAnsatz,
    apply_ansatz,
    block_unitary,
    brick_pairs,
    prepare_eigenvector,
    rotation_y,
    rotation_z,
)
from vqse.qmath import DensityMatrix, fidelity_pure

from reference import (
    angle_generators_per_angle,
    basis_density_matrix,
    dense_circuit,
    mix_special_angles,
    random_density_matrix,
)


class TestStructure:
    def test_brick_pattern(self):
        assert brick_pairs(2) == [(0, 1)]
        assert brick_pairs(3) == [(0, 1), (1, 2)]
        assert brick_pairs(4) == [(0, 1), (2, 3), (1, 2)]
        assert brick_pairs(5) == [(0, 1), (2, 3), (1, 2), (3, 4)]

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("layers", range(1, 5))
    def test_parameter_count_formula(self, n, layers):
        expected = 4 * layers * (n // 2 + (n - 1) // 2)
        assert LayeredAnsatz.n_parameters(n, layers, BlockKind.RY_CZ) == expected
        assert LayeredAnsatz.n_parameters(n, layers, BlockKind.G_CNOT_G) == 3 * expected

    def test_theta_length_is_enforced(self):
        with pytest.raises(ValueError, match="entries"):
            LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.zeros(5))

    def test_block_kind_parse(self):
        assert BlockKind.parse("rycz") is BlockKind.RY_CZ
        assert BlockKind.parse("GCnotG") is BlockKind.G_CNOT_G
        with pytest.raises(ValueError):
            BlockKind.parse("xx")


class TestRotationConvention:
    def test_half_angle_convention(self):
        # R_k(theta) = exp(i theta sigma_k / 2)
        theta = 0.7
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0])
        assert np.allclose(rotation_y(theta), _expm(1j * theta * sy / 2))
        assert np.allclose(rotation_z(theta), _expm(1j * theta * sz / 2))

    def test_two_pi_shift_flips_sign(self):
        # exp(i (theta + 2pi) sigma / 2) = -exp(i theta sigma / 2)
        assert np.allclose(rotation_y(0.3 + 2 * np.pi), -rotation_y(0.3))


def _expm(m):
    w, v = np.linalg.eig(m)
    return (v * np.exp(w)) @ np.linalg.inv(v)


class TestDenseCircuit:
    """The test-side V(theta) that the circuit walks are checked against."""

    def test_zero_angles_rycz_gives_cz(self):
        a = LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.zeros(4))
        assert np.allclose(dense_circuit(a), CZ)

    def test_zero_angles_gcnotg_gives_cnot(self):
        a = LayeredAnsatz(2, 1, BlockKind.G_CNOT_G, np.zeros(12))
        assert np.allclose(dense_circuit(a), CNOT)

    @pytest.mark.parametrize("kind", list(BlockKind))
    @pytest.mark.parametrize("seed", range(4))
    def test_output_is_unitary(self, kind, seed):
        a = LayeredAnsatz.random(3, 2, kind, seed)
        v = dense_circuit(a)
        assert np.linalg.norm(v @ v.conj().T - np.eye(8)) < 1e-9

    def test_layer_order(self):
        # two layers of zero-angle CZ blocks cancel to the identity
        a = LayeredAnsatz(2, 2, BlockKind.RY_CZ, np.zeros(8))
        assert np.allclose(dense_circuit(a), np.eye(4))

    def test_two_pi_shift_changes_global_sign_only(self):
        a = LayeredAnsatz.random(2, 1, BlockKind.RY_CZ, 8)
        v = dense_circuit(a)
        w = dense_circuit(LayeredAnsatz(a.n, a.layers, a.kind, a.theta + 2 * np.pi * np.eye(a.theta.size)[0]))
        # half-angle generator: 2pi shift multiplies the block by -1
        assert abs(abs(np.trace(v.conj().T @ w)) - 4.0) < 1e-10
        assert np.abs(w + v).max() < 1e-10


def generator_derivative(kind, angles, j):
    """dB/dtheta_j of one block from `kind.angle_generators`: B (Q on the wire) for
    a pre rotation, (Q on the wire) B for a post one."""
    q, i = divmod(j, len(kind.axes))
    factors = kind._factors(angles)
    gen = kind.angle_generators(factors)[q, i]
    wide = np.kron(gen, np.eye(2)) if q % 2 == 0 else np.kron(np.eye(2), gen)
    block = kind.unitaries(factors)
    return block @ wide if q < 2 else wide @ block


class TestBlockDerivatives:
    @pytest.mark.parametrize("kind", list(BlockKind))
    def test_matches_half_of_pi_shifted_block(self, kind):
        # R_k(t + pi) = R_k(t) i sigma_k, so dB/dtheta_j = B(theta + pi e_j) / 2
        w = kind.angles_per_block
        assert kind.angle_generators(kind._factors(np.zeros(w))).shape == (4, len(kind.axes), 2, 2)
        for angles in np.random.default_rng(4).uniform(-np.pi, np.pi, (100, w)):
            for j in range(w):
                shifted = angles.copy()
                shifted[j] += np.pi
                assert np.abs(generator_derivative(kind, angles, j) - block_unitary(kind, shifted) / 2).max() < 1e-15

    @pytest.mark.parametrize("kind", list(BlockKind))
    def test_end_generators_are_exact(self, kind):
        # the first factor of a pre rotation and the last of a post one need no conjugation
        angles = np.random.default_rng(5).uniform(-np.pi, np.pi, (3, kind.angles_per_block))
        gens = kind.angle_generators(kind._factors(angles))
        first, last = _REFERENCE_GENERATOR[kind.axes[0]], _REFERENCE_GENERATOR[kind.axes[-1]]
        assert all(np.array_equal(g, first) for g in gens[:, :2, 0].reshape(-1, 2, 2))
        assert all(np.array_equal(g, last) for g in gens[:, 2:, -1].reshape(-1, 2, 2))

    @pytest.mark.parametrize("kind, built", [(BlockKind.RY_CZ, 0), (BlockKind.G_CNOT_G, 1)])
    def test_one_axis_blocks_build_no_factor(self, kind, built):
        # every rycz generator is the constant g: it reads only the shape of the factors
        # built for the walk, so NaN factors leave it finite; gcnotg conjugates by them
        factors = np.full(kind._factors(np.zeros((3, kind.angles_per_block))).shape, np.nan)
        assert np.isnan(kind.angle_generators(factors)).any() == bool(built)

    def test_exact_zeros_at_zero_angles(self):
        # pre rotation on pair[0] at t = 0: CZ (dR_y(0) x I), dR_y(0) = [[0, 1/2], [-1/2, 0]]
        d_ry = np.array([[0.0, 0.5], [-0.5, 0.0]])
        expected = CZ @ np.kron(d_ry, np.eye(2))
        assert np.array_equal(generator_derivative(BlockKind.RY_CZ, np.zeros(4), 0), expected)


class TestDtypes:
    def test_real_gates_are_float64(self):
        # R_y, CZ and CNOT are real, so a rycz block is real orthogonal
        angles = np.random.default_rng(6).uniform(-np.pi, np.pi, (3, 4))
        factors = BlockKind.RY_CZ._factors(angles)
        for arr in (CZ, CNOT, rotation_y(angles), factors, BlockKind.RY_CZ.unitaries(factors),
                    BlockKind.RY_CZ.angle_generators(factors)):
            assert arr.dtype == np.float64

    def test_gcnotg_blocks_are_complex128(self):
        angles = np.random.default_rng(7).uniform(-np.pi, np.pi, (3, 12))
        assert rotation_z(angles).dtype == np.complex128
        factors = BlockKind.G_CNOT_G._factors(angles)
        assert BlockKind.G_CNOT_G.unitaries(factors).dtype == np.complex128
        assert BlockKind.G_CNOT_G.angle_generators(factors).dtype == np.complex128


_REFERENCE_ROTATION = {"y": rotation_y, "z": rotation_z}
_REFERENCE_GENERATOR = {"y": np.array([[0.0, 0.5], [-0.5, 0.0]], dtype=complex),
                        "z": np.diag([0.5j, -0.5j])}


def _reference_block(kind, angles, derived=None):
    """One block, one rotation at a time: (rotations, unitary).

    Each rotation is the product of rotation_y / rotation_z factors in the
    order they act; with `derived` = j, angle j's factor R_k is replaced by
    (i sigma_k / 2) R_k.  The block is kron(post) . entangler . kron(pre).
    """
    k = len(kind.axes)
    rotations = []
    for q in range(4):
        factors = [_REFERENCE_ROTATION[ax](angles[q * k + i]) for i, ax in enumerate(kind.axes)]
        if derived is not None and derived // k == q:
            i = derived % k
            factors[i] = _REFERENCE_GENERATOR[kind.axes[i]] @ factors[i]
        rotations.append(reduce(np.matmul, factors[::-1]))
    pre0, pre1, post0, post1 = rotations
    return rotations, np.kron(post0, post1) @ kind.entangler @ np.kron(pre0, pre1)


@st.composite
def angle_stacks(draw):
    """A block kind and angles of shape lead + (angles per block,), with exact
    0, +-pi/2 and +-pi mixed into uniform draws."""
    kind = draw(st.sampled_from(list(BlockKind)))
    w = kind.angles_per_block
    blocks = draw(st.integers(1, 3))
    lead = draw(st.sampled_from([(), (blocks,), (blocks, w, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angles = rng.uniform(-np.pi, np.pi, lead + (w,))
    return kind, mix_special_angles(rng, angles, draw(st.sampled_from([0.0, 0.3, 1.0])))


class TestBlockStacks:
    @settings(max_examples=40)
    @given(angle_stacks())
    def test_every_slice_matches_the_per_block_reference(self, case):
        kind, angles = case
        lead, w, factors = angles.shape[:-1], kind.angles_per_block, kind._factors(angles)
        rotations, unitaries = kind.rotations(factors), kind.unitaries(factors)
        assert factors.shape == lead + (4, len(kind.axes), 2, 2)
        assert rotations.shape == lead + (4, 2, 2)
        assert unitaries.shape == lead + (4, 4)
        assert kind.angle_generators(factors).shape == lead + (4, len(kind.axes), 2, 2)
        for idx in np.ndindex(lead):
            ref_rotations, ref_unitary = _reference_block(kind, angles[idx])
            assert np.array_equal(rotations[idx], np.array(ref_rotations))
            assert np.array_equal(unitaries[idx], ref_unitary)
            for j in range(w):
                derived = _reference_block(kind, angles[idx], j)[1]
                assert np.abs(generator_derivative(kind, angles[idx], j) - derived).max() < 1e-15

    @settings(max_examples=40)
    @given(angle_stacks())
    def test_generators_match_the_per_angle_chain_products(self, case):
        # the cumulative prefix / suffix products and one stacked conjugation per side
        # are bitwise each angle's own `_chain` conjugation
        kind, angles = case
        factors = kind._factors(angles)
        got, want = kind.angle_generators(factors), angle_generators_per_angle(kind, factors)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @settings(max_examples=40)
    @given(angle_stacks())
    def test_every_slice_matches_the_single_block_call(self, case):
        kind, angles = case
        factors = kind._factors(angles)
        rotations, unitaries = kind.rotations(factors), kind.unitaries(factors)
        generators = kind.angle_generators(factors)
        for idx in np.ndindex(angles.shape[:-1]):
            own = kind._factors(angles[idx])
            assert np.array_equal(factors[idx], own)
            assert np.array_equal(rotations[idx], kind.rotations(own))
            assert np.array_equal(unitaries[idx], kind.unitaries(own))
            assert np.array_equal(unitaries[idx], block_unitary(kind, angles[idx]))
            assert np.array_equal(generators[idx], kind.angle_generators(own))


@st.composite
def factored_states(draw):
    """Rank-r state whose factor is given, or left to eigh of its matrix."""
    n = draw(st.integers(2, 5))
    rank = draw(st.integers(1, 2**n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor = rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank))
    factor /= np.linalg.norm(factor)
    rho = DensityMatrix(factor=factor) if draw(st.booleans()) else DensityMatrix(factor @ factor.conj().T)
    kind = draw(st.sampled_from(list(BlockKind)))
    return rho, LayeredAnsatz.random(n, draw(st.integers(1, 2)), kind, rng)


class TestApplyAnsatz:
    @settings(max_examples=60)
    @given(factored_states())
    def test_matches_dense_circuit(self, case):
        rho, a = case
        v = dense_circuit(a)
        dense = v @ rho.data @ v.conj().T
        out = apply_ansatz(rho, a)
        assert np.abs(out.data - dense).max() < 1e-12
        assert np.abs(out.diagonal() - dense.diagonal().real).max() < 1e-12

    def test_zero_angle_rycz_fixes_diagonal_state(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        a = LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.zeros(4))
        assert np.abs(apply_ansatz(rho, a).data - rho.data).max() < 1e-12

    def test_zero_angle_gcnotg_acts_as_cnot(self):
        rho = basis_density_matrix(2, "10")
        a = LayeredAnsatz(2, 1, BlockKind.G_CNOT_G, np.zeros(12))
        out = apply_ansatz(rho, a)
        assert np.allclose(out.data, basis_density_matrix(2, "11").data)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_ansatz(random_density_matrix(2, seed=0),
                         LayeredAnsatz.random(3, 1, BlockKind.RY_CZ, 0))


class TestPrepareEigenvector:
    def test_zero_angles_all_zero_bitstring(self):
        a = LayeredAnsatz(3, 1, BlockKind.RY_CZ, np.zeros(8))
        psi = prepare_eigenvector(a, "000")
        assert fidelity_pure(basis_density_matrix(3, "000"), psi) == pytest.approx(1.0)

    def test_diagonal_block_gives_global_phase_only(self):
        a = LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.zeros(4))
        psi = prepare_eigenvector(a, "11")
        # CZ^dag |11> = -|11>: fidelity ignores the global phase
        assert fidelity_pure(basis_density_matrix(2, "11"), psi) == pytest.approx(1.0)
        assert psi.amplitudes[3] == pytest.approx(-1.0)

    def test_is_column_of_v_dagger(self):
        a = LayeredAnsatz.random(3, 2, BlockKind.G_CNOT_G, 11)
        v = dense_circuit(a)
        psi = prepare_eigenvector(a, "101")
        assert np.abs(psi.amplitudes - v.conj().T[:, 5]).max() < 1e-12

    def test_bad_bitstring_length(self):
        a = LayeredAnsatz.random(3, 1, BlockKind.RY_CZ, 0)
        with pytest.raises(ValueError):
            prepare_eigenvector(a, "01")

