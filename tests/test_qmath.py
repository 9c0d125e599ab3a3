"""Tests for the dense linear-algebra substrate."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vqse import qmath
from vqse.qmath import (
    DensityMatrix,
    KrausChannel,
    PureState,
    amplitude_damping_channel,
    apply_channel,
    apply_unitary,
    abs2,
    bitstring_to_index,
    depolarizing_channel,
    exact_eigs,
    fidelity_pure,
    index_to_bitstring,
    partial_trace,
    purity,
)

from reference import basis_density_matrix, basis_pure_state, random_density_matrix

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def bell_state():
    amp = np.zeros(4, dtype=complex)
    amp[[0, 3]] = 1 / np.sqrt(2)
    return DensityMatrix(np.outer(amp, amp.conj()))


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestConventions:
    def test_qubit0_is_most_significant_bit(self):
        # flipping qubit 0 of |000> must land on index 4 = |100>
        rho = basis_density_matrix(3, "000")
        out = apply_unitary(rho, PAULI_X, [0])
        assert out.data[4, 4] == pytest.approx(1.0)
        assert bitstring_to_index("100") == 4
        assert index_to_bitstring(4, 3) == "100"

    def test_bitstring_roundtrip(self):
        for i in range(16):
            assert bitstring_to_index(index_to_bitstring(i, 4)) == i

    def test_bad_bitstring_rejected(self):
        with pytest.raises(ValueError):
            bitstring_to_index("01x")


class TestDensityMatrix:
    def test_invariant_validation(self):
        good = np.eye(2) / 2
        DensityMatrix(good)  # no raise
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # every comparison with NaN is false, so only an explicit check catches it
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.full((4, 4), bad))
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]) + np.diag([0, 0, 0, bad]))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(3) / 3)

    def test_pure_state_norm_checked(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(np.array([1.0, 1.0]))


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteInputFailsEveryCheck:
    """Each tolerance check reads `not err <= TOL`: NaN, which fails every comparison, must not pass it."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_unitarity(self, bad):
        u = np.array([[bad, 0], [0, 1]], dtype=complex)
        controlled = np.eye(4, dtype=complex)
        controlled[2:, 2:] = u
        for stack in (u, np.stack([np.eye(2), u]), controlled):
            with pytest.raises(ValueError, match="not unitary"):
                qmath._check_unitary(stack)
        with pytest.raises(ValueError, match="not unitary"):
            apply_unitary(basis_density_matrix(1, "0"), u, [0])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_pure_state_norm(self, bad):
        with pytest.raises(ValueError, match="norm"):
            PureState([bad, 1.0])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_kraus_completeness(self, bad):
        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel([[[bad, 0], [0, 1]]])
        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel([np.eye(2) / np.sqrt(2), np.array([[0, bad], [0, 0]]) / np.sqrt(2)])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_eigenvalue_sums(self, bad):
        # LAPACK refuses a NaN factor itself (LinAlgError is a ValueError); an infinite one gives NaN values
        with pytest.raises(ValueError):
            DensityMatrix(factor=np.array([[bad], [0.0]]), validate=False).eigenvalues()
        with pytest.raises(ValueError, match="sum to"):
            exact_eigs(DensityMatrix(np.array([[bad, 0], [0, 1.0]]), validate=False))


class TestDtypeFollowsInput:
    """Real input is held as float64 and complex input as complex128, by its dtype alone."""

    def test_real_data_stays_real_and_every_read_works(self):
        # a real [custom] state file is such a matrix
        a = np.random.default_rng(21).standard_normal((8, 3))
        data = a @ a.T / np.linalg.norm(a) ** 2
        rho = DensityMatrix(data)  # validated
        assert rho.data.dtype == np.float64
        f = rho.factor()
        assert f.dtype == np.float64 and np.abs(f @ f.T - data).max() < 1e-14
        w, v = exact_eigs(rho)
        wc, vc = exact_eigs(DensityMatrix(data.astype(complex)))
        assert v.dtype == np.float64
        assert np.abs(w - wc).max() < 1e-12
        assert np.abs(v[:, :3] - vc[:, :3]).max() < 1e-12  # the three simple levels, phase-fixed
        assert np.abs(rho.diagonal() - np.diag(data)).max() < 1e-15

    def test_real_data_is_still_validated(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.2], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_complex_dtype_with_zero_imaginary_part_stays_complex(self):
        a = np.random.default_rng(22).standard_normal((8, 2)).astype(complex)
        a /= np.linalg.norm(a)
        assert DensityMatrix(factor=a).factor().dtype == np.complex128
        assert DensityMatrix(a @ a.conj().T).data.dtype == np.complex128

    @pytest.mark.parametrize(
        "dtype, held", [(np.int64, np.float64), (np.float32, np.float64), (np.complex64, np.complex128)]
    )
    def test_narrow_input_is_widened(self, dtype, held):
        one = np.diag([1, 0]).astype(dtype)
        assert DensityMatrix(one).data.dtype == held
        assert DensityMatrix(factor=one[:, :1]).factor().dtype == held


class _NoImag(np.ndarray):
    @property
    def imag(self):
        raise AssertionError(".imag read on a real array")


class TestAbs2:
    def test_real_and_complex(self):
        assert np.array_equal(abs2(np.array([[3.0, -4.0]])), [[9.0, 16.0]])
        z = abs2(np.array([3 + 4j, -1j]))
        assert z.dtype == np.float64 and np.array_equal(z, [25.0, 1.0])

    def test_real_input_reads_no_imaginary_part(self):
        # on a float array `.imag` allocates a zero array
        assert np.array_equal(abs2(np.arange(3.0).view(_NoImag)), [0.0, 1.0, 4.0])


def _known_factor(name):
    """A purification factor A with a closed form, for three kinds of state."""
    if name == "rank_deficient":
        rng = np.random.default_rng(8)
        a = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        return a / np.linalg.norm(a)
    if name == "maximally_mixed":
        return np.eye(8, dtype=complex) / np.sqrt(8)
    return np.eye(8, dtype=complex)[:, [5]]  # basis state |101>


class TestFactor:
    @pytest.mark.parametrize("name", ["rank_deficient", "maximally_mixed", "basis"])
    @pytest.mark.parametrize("given", ["data", "factor"])
    def test_reproduces_data(self, name, given):
        a = _known_factor(name)
        data = a @ a.conj().T
        if given == "factor":
            rho = DensityMatrix(factor=a)
            assert np.abs(rho.data - data).max() < 1e-15
            assert not rho.data.flags.writeable and rho.data is rho.data
            assert np.abs(rho.diagonal() - rho.data.diagonal().real).max() < 1e-15
        else:
            rho = DensityMatrix(data)
        f = rho.factor()
        assert f.shape[0] == 8 and not f.flags.writeable
        assert np.abs(f @ f.conj().T - rho.data).max() < 1e-14

    def test_eigh_factor_is_cached_and_has_the_state_rank(self):
        rho = basis_density_matrix(3, "101")
        assert rho.factor() is rho.factor()
        assert rho.factor().shape == (8, 1)
        a = _known_factor("rank_deficient")
        assert DensityMatrix(a @ a.conj().T).factor().shape == (8, 2)

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="not both"):
            DensityMatrix(np.eye(4) / 4, factor=np.eye(4) / 2)
        with pytest.raises(ValueError, match="factor"):
            DensityMatrix()
        with pytest.raises(ValueError, match="not a matrix"):
            DensityMatrix(factor=np.ones(4) / 2)
        with pytest.raises(ValueError, match="power of two"):
            DensityMatrix(factor=np.ones((3, 1)) / np.sqrt(3))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(factor=np.ones((4, 1)) / 4)


class TestApplyUnitary:
    def test_identity_fixes_state(self):
        rho = basis_density_matrix(1, "0")
        out = apply_unitary(rho, np.eye(2), [0])
        assert np.allclose(out.data, rho.data)

    def test_pauli_x_flips_basis_state(self):
        rho = basis_density_matrix(1, "0")
        out = apply_unitary(rho, PAULI_X, [0])
        assert np.allclose(out.data, basis_density_matrix(1, "1").data)

    def test_cnot_is_an_involution(self):
        # oracle: two applications via explicit dense matrix multiplication
        rho = random_density_matrix(2, seed=5)
        once = apply_unitary(rho, CNOT, [0, 1])
        twice = apply_unitary(once, CNOT, [0, 1])
        assert np.abs(twice.data - rho.data).max() < 1e-12
        direct = CNOT @ rho.data @ CNOT.conj().T
        assert np.abs(once.data - direct).max() < 1e-12

    def test_embedding_matches_kron(self):
        # gate on a non-adjacent pair versus explicitly kron-built operator
        rho = random_density_matrix(3, seed=8)
        u = random_unitary(2, 3)
        ops = [np.eye(2)] * 3
        ops[2] = u
        full = np.kron(np.kron(ops[0], ops[1]), ops[2])
        out = apply_unitary(rho, u, [2])
        assert np.abs(out.data - full @ rho.data @ full.conj().T).max() < 1e-12

    def test_rejects_non_unitary(self):
        rho = basis_density_matrix(1, "0")
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(rho, np.array([[1, 1], [0, 1]]), [0])

    def test_rejects_bad_targets(self):
        rho = random_density_matrix(2, seed=0)
        with pytest.raises(ValueError, match="range"):
            apply_unitary(rho, np.eye(2), [2])
        with pytest.raises(ValueError, match="duplicate"):
            apply_unitary(rho, CNOT, [1, 1])


class TestPartialTrace:
    def test_bell_state_reduction_is_maximally_mixed(self):
        red = partial_trace(bell_state(), [0])
        assert np.abs(red.data - np.eye(2) / 2).max() < 1e-12

    def test_product_state_reduction(self):
        rho = basis_density_matrix(2, "01")
        red = partial_trace(rho, [1])
        assert np.allclose(red.data, basis_density_matrix(1, "1").data)

    def test_reduction_spectrum_equals_schmidt_coefficients(self):
        # oracle: SVD of the amplitude matrix of a random pure tripartite state
        rng = np.random.default_rng(17)
        amp = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amp /= np.linalg.norm(amp)
        rho = DensityMatrix(np.outer(amp, amp.conj()))
        red = partial_trace(rho, [0, 1])
        svals = np.linalg.svd(amp.reshape(4, 2), compute_uv=False)
        w = exact_eigs(red)[0]
        assert np.allclose(np.sort(w)[::-1][:2], np.sort(svals**2)[::-1], atol=1e-10)

    def test_both_reductions_share_nonzero_spectrum(self):
        rng = np.random.default_rng(23)
        amp = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        amp /= np.linalg.norm(amp)
        rho = DensityMatrix(np.outer(amp, amp.conj()))
        wa = exact_eigs(partial_trace(rho, [0]))[0]
        wb = exact_eigs(partial_trace(rho, [1, 2, 3]))[0]
        assert np.abs(np.sort(wb)[::-1][:2] - np.sort(wa)[::-1]).max() < 1e-10

    def test_trace_preserved_and_keep_order(self):
        rho = random_density_matrix(3, seed=2)
        red = partial_trace(rho, [0, 2])
        assert abs(red.data.trace() - 1.0) < 1e-12

    def test_empty_and_full_keep_rejected(self):
        rho = random_density_matrix(2, seed=1)
        with pytest.raises(ValueError):
            partial_trace(rho, [])
        with pytest.raises(ValueError):
            partial_trace(rho, [0, 1])


class TestExactEigs:
    def test_maximally_mixed_two_qubits(self):
        w, _ = exact_eigs(DensityMatrix(np.eye(4) / 4))
        assert np.allclose(w, [0.25, 0.25, 0.25, 0.25])

    def test_pure_state(self):
        w, v = exact_eigs(basis_density_matrix(1, "0"))
        assert np.allclose(w, [1.0, 0.0])
        assert abs(abs(v[0, 0]) - 1.0) < 1e-12

    def test_descending_order_and_sum(self):
        rho = random_density_matrix(3, seed=4)
        w, _ = exact_eigs(rho)
        assert np.all(np.diff(w) <= 1e-15)
        assert abs(w.sum() - 1.0) < 1e-10

    def test_eigen_equation_and_reconstruction(self):
        rho = random_density_matrix(3, seed=9)
        w, v = exact_eigs(rho)
        for i in range(8):
            assert np.abs(rho.data @ v[:, i] - w[i] * v[:, i]).max() < 1e-8
        recon = (v * w) @ v.conj().T
        assert np.linalg.norm(recon - rho.data) < 1e-8

    def test_deterministic_for_same_input(self):
        rho = random_density_matrix(2, seed=12)
        w1, v1 = exact_eigs(rho)
        w2, v2 = exact_eigs(rho)
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


@st.composite
def spectrum_cases(draw):
    """A rank-r state on n qubits given as its factor or its matrix."""
    n = draw(st.integers(1, 5))
    rank = draw(st.integers(1, 2**n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank))
    a /= np.linalg.norm(a)
    if draw(st.booleans()):
        return DensityMatrix(factor=a, validate=False)
    return DensityMatrix(a @ a.conj().T)


class TestEigenvalues:
    @settings(max_examples=80)
    @given(spectrum_cases())
    def test_factor_spectrum_matches_exact_eigs(self, rho):
        w = rho.eigenvalues()
        assert w.shape == (rho.dim,)
        assert np.abs(w - exact_eigs(rho)[0]).max() < 1e-12
        assert not w.flags.writeable
        assert rho.eigenvalues() is w

    def test_unnormalized_factor_raises(self):
        a = np.ones((4, 2)) / np.sqrt(8)
        assert np.allclose(DensityMatrix(factor=a, validate=False).eigenvalues(), [1, 0, 0, 0])
        with pytest.raises(ValueError, match="sum to"):
            DensityMatrix(factor=1.1 * a, validate=False).eigenvalues()


class TestPurityFidelity:
    def test_purity_examples(self):
        assert purity(basis_density_matrix(1, "0")) == pytest.approx(1.0)
        assert purity(DensityMatrix(np.eye(4) / 4)) == pytest.approx(0.25)

    def test_purity_matches_eigenvalue_sum(self):
        rho = random_density_matrix(3, seed=21)
        w, _ = exact_eigs(rho)
        assert abs(purity(rho) - (w**2).sum()) < 1e-10

    @pytest.mark.parametrize("form", ["data", "factor"])
    @pytest.mark.parametrize("n, rank, seed", [(1, 1, 0), (3, 2, 1), (4, 16, 2), (6, 5, 3)])
    def test_purity_matches_the_dense_oracle(self, form, n, rank, seed):
        # the spectrum's sum of squares against Tr[rho^2] = <rho, rho> on the dense matrix
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank))
        f /= np.linalg.norm(f)
        rho = DensityMatrix(f @ f.conj().T) if form == "data" else DensityMatrix(factor=f)
        assert abs(purity(rho) - np.vdot(rho.data, rho.data).real) < 1e-12

    def test_fidelity_pure_examples(self):
        zero = basis_density_matrix(1, "0")
        assert fidelity_pure(zero, basis_pure_state(1, "0")) == pytest.approx(1.0)
        assert fidelity_pure(zero, basis_pure_state(1, "1")) == pytest.approx(0.0)
        mixed = DensityMatrix(np.eye(8) / 8)
        rng = np.random.default_rng(0)
        amp = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = PureState(amp / np.linalg.norm(amp))
        assert fidelity_pure(mixed, psi) == pytest.approx(1 / 8)

    def test_fidelity_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_pure(DensityMatrix(np.eye(4) / 4), basis_pure_state(1, "0"))


class TestChannels:
    def test_depolarizing_zero_is_identity(self):
        rho = random_density_matrix(1, seed=3)
        out = apply_channel(rho, depolarizing_channel(0.0), [0])
        assert np.abs(out.data - rho.data).max() < 1e-12

    def test_depolarizing_one_gives_maximally_mixed(self):
        rho = basis_density_matrix(1, "0")
        out = apply_channel(rho, depolarizing_channel(1.0), [0])
        assert np.abs(out.data - np.eye(2) / 2).max() < 1e-12

    def test_depolarizing_embedded_leaves_other_qubit(self):
        rho = basis_density_matrix(2, "10")
        out = apply_channel(rho, depolarizing_channel(1.0), [1])
        assert np.abs(partial_trace(out, [1]).data - np.eye(2) / 2).max() < 1e-12
        assert np.allclose(partial_trace(out, [0]).data, basis_density_matrix(1, "1").data)

    def test_amplitude_damping_on_excited_state(self):
        # oracle: direct Kraus algebra K0 |1><1| K0^dag + K1 |1><1| K1^dag
        gamma = 0.3
        rho = basis_density_matrix(1, "1")
        out = apply_channel(rho, amplitude_damping_channel(gamma), [0])
        expected = (1 - gamma) * basis_density_matrix(1, "1").data \
            + gamma * basis_density_matrix(1, "0").data
        assert np.abs(out.data - expected).max() < 1e-12

    def test_two_qubit_depolarizing_trace_preserving(self):
        ch = depolarizing_channel(0.37, arity=2)
        s = sum(k.conj().T @ k for k in ch.operators)
        assert np.abs(s - np.eye(4)).max() < 1e-12

    def test_non_trace_preserving_rejected(self):
        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel([np.eye(2) * 0.5])


def embedded(op, targets, n):
    """op on `targets` (in that order) as a dense 2^n x 2^n matrix.

    kron(op, I) acts on the qubits reordered as targets + rest; the
    permutation P sends that order back to qubit 0 first.
    """
    order = list(targets) + [q for q in range(n) if q not in targets]
    full = np.kron(op, np.eye(2 ** (n - len(targets))))
    perm = np.zeros((2**n, 2**n))
    for i in range(2**n):
        bits = format(i, f"0{n}b")
        perm[i, int("".join(bits[q] for q in order), 2)] = 1.0
    return perm @ full @ perm.T


def _damping_pair(gamma_a, gamma_b):
    """Independent amplitude damping on two qubits, as one 2-qubit channel."""
    a, b = amplitude_damping_channel(gamma_a), amplitude_damping_channel(gamma_b)
    return KrausChannel([np.kron(x, y) for x in a.operators for y in b.operators])


@st.composite
def channel_cases(draw):
    """A random state, k = 1 or 2 unordered targets, and a channel or unitary on them."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(2, n)))
    targets = draw(st.permutations(range(n)))[:k]
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["depolarizing", "damping", "unitary"]))
    if kind == "depolarizing":
        ch = depolarizing_channel(draw(st.floats(0.0, 1.0)), arity=k)
    elif kind == "damping":
        rates = [draw(st.floats(0.0, 1.0)) for _ in range(k)]
        ch = amplitude_damping_channel(rates[0]) if k == 1 else _damping_pair(*rates)
    else:
        ch = KrausChannel([random_unitary(2**k, seed)])
    return random_density_matrix(n, seed=seed), ch, targets


class TestSuperoperator:
    """Each gate or channel is one contraction of its superoperator on vec(rho)."""

    @settings(max_examples=120)
    @given(channel_cases())
    def test_matches_dense_kraus_sum(self, case):
        rho, ch, targets = case
        dense = [embedded(k, targets, rho.n) for k in ch.operators]
        want = sum(e @ rho.data @ e.conj().T for e in dense)
        assert np.abs(apply_channel(rho, ch, targets).data - want).max() <= 1e-14
        if len(ch.operators) == 1:
            got = apply_unitary(rho, ch.operators[0], targets).data
            assert np.abs(got - want).max() <= 1e-14

    def test_one_contraction_per_call(self, monkeypatch):
        calls = []
        real = qmath._apply_left
        monkeypatch.setattr(qmath, "_apply_left", lambda *args: calls.append(args) or real(*args))
        rho = random_density_matrix(3, seed=1)
        apply_channel(rho, depolarizing_channel(0.1, arity=2), [2, 0])
        assert len(calls) == 1
        apply_channel(rho, amplitude_damping_channel(0.2), [1])
        assert len(calls) == 2
        apply_unitary(rho, CNOT, [0, 2])
        assert len(calls) == 3


@st.composite
def apply_left_cases(draw):
    """A column stack on n qubits, 1-3 targets and a real or complex operator on them.

    The targets are one ascending run (a matmul, batched or with the target
    bits moved to the front), the same run descending, or drawn in any order
    (a tensordot), so every form of `_apply_left` is hit.
    """
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(3, n)))
    layout = draw(st.sampled_from(["ascending", "descending", "any"]))
    if layout == "any":
        targets = tuple(draw(st.permutations(range(n)))[:k])
    else:
        start = draw(st.integers(0, n - k))
        targets = tuple(range(start, start + k))[:: 1 if layout == "ascending" else -1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op = rng.standard_normal((2**k, 2**k))
    if draw(st.booleans()):
        op = op + 1j * rng.standard_normal(op.shape)
    cols = draw(st.integers(1, 4))
    mat = rng.standard_normal((2**n, cols)) + 1j * rng.standard_normal((2**n, cols))
    return mat, op, targets, n


class TestApplyLeft:
    @settings(max_examples=150)
    @given(apply_left_cases())
    def test_matches_dense_embedded_operator(self, case):
        mat, op, targets, n = case
        one_run = targets == tuple(range(targets[0], targets[0] + len(targets)))
        with mock.patch.object(qmath.np, "tensordot", wraps=np.tensordot) as tensordot:
            got = qmath._apply_left(mat, op, targets, n)
            from_list = qmath._apply_left(mat, op, list(targets), n)
        # one ascending run of row bits is a matmul; every other target set a tensordot
        assert tensordot.call_count == (0 if one_run else 2)
        assert np.abs(got - embedded(op, targets, n) @ mat).max() <= 1e-13
        assert np.array_equal(from_list, got)

    @settings(max_examples=60)
    @given(apply_left_cases(), st.integers(1, 3), st.booleans())
    def test_run_axis_matches_each_run_alone(self, case, runs, shared_mat):
        # on one ascending run of targets, op and mat may carry a leading run axis
        # (mat may also be one array shared by every run); run i is run i's call
        mat, op, targets, n = case
        assume(targets == tuple(range(targets[0], targets[0] + len(targets))))
        ops = np.stack([op * (1 + 0.5j * i) for i in range(runs)])
        mats = [mat if shared_mat else mat * (1 - 0.25 * i) for i in range(runs)]
        got = qmath._apply_left(mat if shared_mat else np.stack(mats), ops, targets, n)
        assert got.shape == (runs, 2**n, mat.shape[1])
        for i in range(runs):
            assert np.array_equal(got[i], qmath._apply_left(mats[i], ops[i], targets, n))

    @pytest.mark.parametrize("q, cols", [(0, 1), (0, 3), (2, 1), (2, 3)])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-run"])
    def test_copies_axis_matches_one_call_per_copy(self, q, cols, shared):
        # a (C, R, 4, 4) stack, copies before runs, on the pair (q, q + 1) of n = 4 qubits:
        # q = 0 takes the batched matmul (2^q <= rest), q = 2 with cols < 4 the swapped one;
        # the factor is shared, (2^n, cols), or per run, (R, 2^n, cols)
        rng = np.random.default_rng(8 * q + cols)
        n, runs, copies = 4, 3, 5
        ops = rng.standard_normal((copies, runs, 4, 4)) + 1j * rng.standard_normal((copies, runs, 4, 4))
        mat = rng.standard_normal((2**n, cols) if shared else (runs, 2**n, cols))
        got = qmath._apply_left(mat, ops, (q, q + 1), n)
        assert got.shape == (copies, runs, 2**n, cols)
        for c in range(copies):
            assert np.array_equal(got[c], qmath._apply_left(mat, ops[c], (q, q + 1), n))
        if shared:  # with no run axis on the factor, (R, C, 4, 4) reads the same way
            swapped = qmath._apply_left(mat, ops.swapaxes(0, 1), (q, q + 1), n)
            assert np.array_equal(swapped, got.swapaxes(0, 1))

    def test_no_targets_is_the_identity(self):
        rho = random_density_matrix(2, seed=1)
        assert np.array_equal(apply_unitary(rho, np.eye(1), []).data, rho.data)


class TestInvariantPreservation:
    """Operations returning states must keep them valid density matrices."""

    @pytest.mark.parametrize("seed", range(6))
    def test_unitary_and_channel_preserve_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        rho = random_density_matrix(n, seed=seed + 100)
        u = random_unitary(4, seed + 200)
        pair = sorted(rng.choice(n, size=2, replace=False).tolist())
        out = apply_unitary(rho, u, pair)
        out.validate()
        ch = depolarizing_channel(rng.uniform(0, 1))
        out2 = apply_channel(out, ch, [int(rng.integers(0, n))])
        out2.validate()
        partial_trace(out2, list(range(n - 1))).validate()
