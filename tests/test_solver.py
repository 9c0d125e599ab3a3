"""Tests for gradients, the training loop, readout and the shot planner."""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqse import solver
from vqse.ansatz import (
    BlockKind,
    LayeredAnsatz,
    _forward_states,
    apply_ansatz,
    rotation_y,
)
from vqse.experiments import random_low_rank_state
from vqse.hamiltonians import (
    AdaptiveHamiltonian,
    default_local_weights,
    global_from_local,
    sample_counts,
)
from vqse.qmath import DensityMatrix, exact_eigs
from vqse.solver import (
    CostConfig,
    EigenEstimate,
    OptimizerConfig,
    StepwiseSchedule,
    _gradient,
    optimize,
    optimize_runs,
    param_shift_gradient,
    plan_shots,
    readout,
)

from reference import (
    basis_density_matrix,
    dense_circuit,
    mix_special_angles,
    random_density_matrix,
    sampled_gradient_per_copy,
)


def cost_config(n, m, variant="local", shots=0):
    local = default_local_weights(n, m)
    return CostConfig(variant=variant, local=local, m=m, shots=shots)


def adaptive_hamiltonian(n, m):
    local = default_local_weights(n, m)
    marked = [format(i, f"0{n}b") for i in (1, 2 ** n - 1, 2)[:m]]
    glob = global_from_local(local, m).with_bitstrings(marked)
    return AdaptiveHamiltonian(local=local, global_part=glob, f=0.5)  # StepwiseSchedule(10, 5) at t = 0.6


def dense_shift_gradient(rho, a, h):
    """[C(theta + pi/2 e_nu) - C(theta - pi/2 e_nu)] / 2 with V built densely."""
    energies = h.energies()

    def cost(theta):
        v = dense_circuit(LayeredAnsatz(a.n, a.layers, a.kind, theta))
        return float(energies @ np.diag(v @ rho.data @ v.conj().T).real)

    return np.array([
        0.5 * (cost(a.theta + np.pi / 2 * e_nu) - cost(a.theta - np.pi / 2 * e_nu))
        for e_nu in np.eye(a.theta.size)
    ])


def full_forward_sampled_gradient(rho, a, h, shots, seed):
    """One full forward pass and one sample per shifted circuit, nu order, + before -."""
    rng = np.random.default_rng(seed)
    energies = h.energies()
    grad = np.empty(a.theta.size)
    for nu, e_nu in enumerate(np.eye(a.theta.size)):
        val = []
        for d in (np.pi / 2, -np.pi / 2):
            shifted = LayeredAnsatz(a.n, a.layers, a.kind, a.theta + d * e_nu)
            val.append(float(energies @ sample_counts(apply_ansatz(rho, shifted).diagonal(), shots, rng)) / shots)
        grad[nu] = 0.5 * (val[0] - val[1])
    return grad


class TestParameterShiftRule:
    def test_single_qubit_closed_form(self):
        # C(theta) = <I - Z> after R_y(theta)|0>: 1 - cos(theta); the +-pi/2
        # shift rule must give the exact derivative sin(theta)
        def c(theta):
            v = rotation_y(theta) @ np.array([1.0, 0.0])
            return 1.0 - (abs(v[0]) ** 2 - abs(v[1]) ** 2)

        for theta in (0.0, np.pi / 2, 1.1, -2.3):
            ps = 0.5 * (c(theta + np.pi / 2) - c(theta - np.pi / 2))
            assert ps == pytest.approx(np.sin(theta), abs=1e-12)
        assert 0.5 * (c(np.pi) - c(0.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", list(BlockKind))
    def test_matches_finite_differences(self, kind):
        rho = random_density_matrix(3, seed=14)
        a = LayeredAnsatz.random(3, 2, kind, 3)
        h = default_local_weights(3, 3)
        grad = param_shift_gradient(rho, a, h)
        step = 1e-5

        def cost(theta):
            return h.energies() @ apply_ansatz(rho, LayeredAnsatz(a.n, a.layers, a.kind, theta)).diagonal()

        for nu, e_nu in enumerate(np.eye(a.theta.size)):
            cp, cm = cost(a.theta + step * e_nu), cost(a.theta - step * e_nu)
            assert grad[nu] == pytest.approx((cp - cm) / (2 * step), abs=1e-6)

    @pytest.mark.parametrize("kind", list(BlockKind))
    @pytest.mark.parametrize("n", [2, 3, 5])  # odd n leaves a qubit idle in each row
    @pytest.mark.parametrize("layers", [1, 2])
    def test_exact_matches_dense_reference(self, kind, n, layers):
        rho = random_density_matrix(n, seed=20 + n)
        a = LayeredAnsatz.random(n, layers, kind, 30 + n + layers)
        h = adaptive_hamiltonian(n, 2)
        ref = dense_shift_gradient(rho, a, h)
        assert np.abs(param_shift_gradient(rho, a, h) - ref).max() < 1e-12

    @pytest.mark.parametrize("kind", list(BlockKind))
    @pytest.mark.parametrize("n_ancilla", [0, 1, 3])  # rank 1, 2 and full at n = 3
    def test_exact_matches_dense_reference_on_given_factor(self, kind, n_ancilla):
        rho = random_low_rank_state(3, n_ancilla, seed=60 + n_ancilla)
        a = LayeredAnsatz.random(3, 2, kind, 70 + n_ancilla)
        h = adaptive_hamiltonian(3, 2)
        ref = dense_shift_gradient(rho, a, h)
        assert np.abs(param_shift_gradient(rho, a, h) - ref).max() < 1e-12

    @pytest.mark.parametrize("kind", list(BlockKind))
    # (4, 2, None) is the xy_afm_shots circuit on a full-rank state; rank 1
    # leaves a single column behind the last pair
    @pytest.mark.parametrize("n,layers,rank", [(2, 1, None), (3, 2, None), (5, 1, None), (4, 2, None), (4, 2, 1)])
    def test_sampled_matches_full_forward_reference(self, kind, n, layers, rank):
        rho = random_density_matrix(n, rank=rank, seed=40 + n)
        a = LayeredAnsatz.random(n, layers, kind, 50 + n)
        h = adaptive_hamiltonian(n, 2)
        ref = full_forward_sampled_gradient(rho, a, h, 300, seed=9)
        assert np.array_equal(param_shift_gradient(rho, a, h, shots=300, rng=9), ref)

    @pytest.mark.parametrize("kind", list(BlockKind))
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_sampled_contractions_linear_in_blocks(self, monkeypatch, kind, layers):
        # one walk (B), the copies in flight through blocks 1..B-1 (B - 1) and
        # one contraction per block making its 2w shifted copies (B); one call
        # per copy took 2wB for those, and re-walking every shifted circuit's
        # tail would take B + wB(B + 1)
        import vqse.ansatz
        import vqse.solver

        calls = []
        real = vqse.solver._apply_left
        for module in (vqse.ansatz, vqse.solver):
            monkeypatch.setattr(module, "_apply_left", lambda *args: calls.append(args) or real(*args))
        rho = random_density_matrix(4, seed=5)
        a = LayeredAnsatz.random(4, layers, kind, 6)
        param_shift_gradient(rho, a, adaptive_hamiltonian(4, 2), shots=100, rng=1)
        assert len(calls) == 3 * a.n_blocks - 1

    def test_flat_at_maximally_mixed_state(self):
        rho = DensityMatrix(np.eye(4) / 4)
        a = LayeredAnsatz.random(2, 2, BlockKind.RY_CZ, 9)
        grad = param_shift_gradient(rho, a, default_local_weights(2, 2))
        assert np.abs(grad).max() < 1e-12

    def test_sampled_gradient_is_seeded_and_consistent(self):
        rho = random_density_matrix(2, seed=3)
        a = LayeredAnsatz.random(2, 1, BlockKind.RY_CZ, 4)
        h = default_local_weights(2, 2)
        g1 = param_shift_gradient(rho, a, h, shots=4000, rng=7)
        g2 = param_shift_gradient(rho, a, h, shots=4000, rng=7)
        assert np.array_equal(g1, g2)
        exact = param_shift_gradient(rho, a, h)
        assert np.abs(g1 - exact).max() < 0.1


@st.composite
def adjoint_cases(draw):
    """Untrained circuit with exact 0, +-pi/2 and +-pi mixed into its angles,
    rank-r state (factor given or from eigh), adaptive H."""
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(list(BlockKind)))
    layers = draw(st.integers(1, 2))
    rank = draw(st.integers(1, 2**n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor = rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank))
    factor /= np.linalg.norm(factor)
    given_factor = draw(st.booleans())
    rho = DensityMatrix(factor=factor) if given_factor else DensityMatrix(factor @ factor.conj().T)
    theta = rng.uniform(-np.pi, np.pi, LayeredAnsatz.n_parameters(n, layers, kind))
    a = LayeredAnsatz(n, layers, kind, mix_special_angles(rng, theta, draw(st.sampled_from([0.0, 0.3, 1.0]))))
    m = draw(st.integers(1, 2))
    marked = draw(st.lists(st.integers(0, 2**n - 1), min_size=m, max_size=m, unique=True))
    local = default_local_weights(n, m)
    glob = global_from_local(local, m).with_bitstrings([format(i, f"0{n}b") for i in marked])
    h = AdaptiveHamiltonian(local=local, global_part=glob, f=draw(st.integers(0, 20)) / 20)
    return rho, a, h


class TestWhyLocalCostFirst:
    def test_global_gradients_shrink_faster_with_n_than_local(self):
        # global-cost gradients vanish faster with n than local-cost ones (Cerezo,
        # Sone, Volkoff, Cincio & Coles, Nat. Commun. 12, 1791 (2021)), which is why
        # training starts from H_L: Var[dC/dtheta] over random angles, global over local
        ratios = []
        for n in (4, 6, 8):
            rho = random_density_matrix(n, rank=4, seed=n)
            local = default_local_weights(n, 3)
            costs = (local, global_from_local(local, 3))
            rng = np.random.default_rng(n)
            grads = [[], []]
            for _ in range(200):
                a = LayeredAnsatz.random(n, 2, BlockKind.RY_CZ, rng)
                for g, h in zip(grads, costs):
                    g.append(param_shift_gradient(rho, a, h))
            var_local, var_global = (np.var(g, axis=0).mean() for g in grads)
            ratios.append(var_global / var_local)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 0.5 * ratios[0]


class TestAdjointProperty:
    @settings(max_examples=60)
    @given(adjoint_cases())
    def test_factor_path_matches_dense_shift_reference(self, case):
        rho, a, h = case
        ref = dense_shift_gradient(rho, a, h)
        assert np.abs(param_shift_gradient(rho, a, h) - ref).max() < 1e-12


class TestLockstepSampledGradient:
    @pytest.mark.parametrize("kind", list(BlockKind))
    @pytest.mark.parametrize("rank", [1, 3, None])
    def test_runs_match_per_copy_sample_counts(self, kind, rank):
        # two runs with their own angles, Hamiltonians and generators, read in one
        # pass over the wide array, against one sample_counts call per shifted circuit
        n, layers, shots = 4, 2, 300
        rho = random_density_matrix(n, rank=rank, seed=12)
        ansatze = [LayeredAnsatz.random(n, layers, kind, seed) for seed in (3, 4)]
        hams = [adaptive_hamiltonian(n, 2), default_local_weights(n, 2)]
        angles = np.stack([a.block_angles for a in ansatze])
        factors = kind._factors(angles)
        mats = kind.unitaries(factors)
        states = _forward_states(rho.factor(), ansatze[0], mats)
        energies = np.stack([h.energies() for h in hams])
        rngs = [np.random.default_rng(seed) for seed in (5, 6)]
        got = _gradient(states, ansatze[0], angles, factors, mats, energies, shots, rngs)
        for i, (a, h, seed) in enumerate(zip(ansatze, hams, (5, 6))):
            assert np.array_equal(got[i], full_forward_sampled_gradient(rho, a, h, shots, seed))


def lockstep_inputs(kind, runs, rank, n=4, layers=2):
    """The arguments of `_gradient` for `runs` circuits of one shape on one random state, plus the circuit."""
    rho = random_density_matrix(n, rank=rank, seed=21)
    ansatze = [LayeredAnsatz.random(n, layers, kind, seed) for seed in range(30, 30 + runs)]
    angles = np.stack([a.block_angles for a in ansatze])
    factors = kind._factors(angles)
    mats = kind.unitaries(factors)
    states = _forward_states(rho.factor(), ansatze[0], mats)
    hams = [adaptive_hamiltonian(n, 2), default_local_weights(n, 2)] * runs
    return states, ansatze[0], angles, factors, mats, np.stack([h.energies() for h in hams[:runs]])


class TestBatchedShiftedCopies:
    """The sampled gradient makes all 2w shifted copies of a block, for every run, in one contraction."""

    @pytest.mark.parametrize("kind", list(BlockKind))
    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("rank", [1, 3, None])
    def test_counts_and_gradient_match_the_per_copy_calls(self, kind, runs, rank):
        args = lockstep_inputs(kind, runs, rank)
        drawn = {}
        for name, gradient in (("batched", _gradient), ("per-copy", sampled_gradient_per_copy)):
            rngs = [np.random.default_rng(seed) for seed in range(runs)]
            counts = []

            def recorded(*a, **k):
                counts.append(sample_counts(*a, **k))
                return counts[-1]

            with mock.patch.object(solver, "sample_counts", recorded), mock.patch("reference.sample_counts", recorded):
                grad = gradient(*args, 200, rngs)
            drawn[name] = (grad, counts, [rng.bit_generator.state for rng in rngs])
        (grad, counts, states), (ref_grad, ref_counts, ref_states) = drawn["batched"], drawn["per-copy"]
        assert np.array_equal(grad, ref_grad)
        assert len(counts) == len(ref_counts) == runs
        assert all(np.array_equal(c, r) for c, r in zip(counts, ref_counts))
        assert states == ref_states

    @pytest.mark.parametrize("kind", list(BlockKind))
    @pytest.mark.parametrize("runs", [1, 3])
    def test_one_contraction_per_block_for_its_copies(self, monkeypatch, kind, runs):
        # one call per block makes its 2w copies (copies axis first), and B - 1 carry the copies in flight
        states, a, angles, factors, mats, energies = lockstep_inputs(kind, runs, 2, layers=3)
        calls = []
        real = solver._apply_left
        monkeypatch.setattr(solver, "_apply_left", lambda *args: calls.append(args[1].shape) or real(*args))
        _gradient(states, a, angles, factors, mats, energies, 100, [np.random.default_rng(i) for i in range(runs)])
        copies = [shape for shape in calls if len(shape) == 4]
        assert len(calls) == 2 * a.n_blocks - 1
        assert copies == [(2 * kind.angles_per_block, runs, 4, 4)] * a.n_blocks


class TestLockstepExactGradient:
    @pytest.mark.parametrize("kind", list(BlockKind))
    @pytest.mark.parametrize("runs", [2, 3])
    # one block at n = 2, L = 1; an idle qubit in each row at odd n
    @pytest.mark.parametrize("n,layers", [(2, 1), (3, 2), (5, 1)])
    def test_runs_match_their_own_one_run_call(self, kind, runs, n, layers):
        rng = np.random.default_rng(17 + n)
        rho = random_density_matrix(n, rank=3, seed=n)
        ansatze = [LayeredAnsatz.random(n, layers, kind, rng) for _ in range(runs)]
        energies = rng.standard_normal((runs, 2**n))
        angles = np.stack([a.block_angles for a in ansatze])
        factors = kind._factors(angles)
        mats = kind.unitaries(factors)
        states = _forward_states(rho.factor(), ansatze[0], mats)
        got = _gradient(states, ansatze[0], angles, factors, mats, energies, 0, None)
        for i, a in enumerate(ansatze):
            own_factors = kind._factors(angles[i:i + 1])
            own = kind.unitaries(own_factors)
            states = _forward_states(rho.factor(), a, own)
            own_grad = _gradient(states, a, angles[i:i + 1], own_factors, own, energies[i:i + 1], 0, None)
            assert np.array_equal(got[i], own_grad[0])


@st.composite
def lockstep_cases(draw):
    """R untrained circuits of one shape on a rank-r state, one cost variant, with or without shots."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(list(BlockKind)))
    layers = draw(st.integers(1, 2))
    rank = draw(st.integers(1, 2**n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank))
    rho = DensityMatrix(factor=factor / np.linalg.norm(factor), validate=False)
    runs = draw(st.integers(1, 3))
    ansatze = [LayeredAnsatz.random(n, layers, kind, rng) for _ in range(runs)]
    variant = draw(st.sampled_from(["local", "global", "adaptive"]))
    shots = draw(st.sampled_from([0, 50]))
    m = draw(st.integers(1, 2))
    return rho, ansatze, cost_config(n, m, variant, shots), [seed + 1 + i for i in range(runs)]


class TestLockstepProperty:
    @settings(max_examples=60)
    @given(lockstep_cases())
    def test_lockstep_matches_separate_runs(self, case):
        rho, ansatze, cost, seeds = case
        schedule, adam = StepwiseSchedule(4, 2), OptimizerConfig(lr=0.1)
        lock_rngs = [np.random.default_rng(s) for s in seeds]
        together = optimize_runs(rho, ansatze, cost, schedule, adam, lock_rngs)
        for a, seed, rng, got in zip(ansatze, seeds, lock_rngs, together):
            solo_rng = np.random.default_rng(seed)
            want = optimize(rho, a, cost, schedule, adam, solo_rng)
            assert np.abs(got.ansatz.theta - want.ansatz.theta).max() <= 1e-12
            assert np.abs(np.array(got.trace) - np.array(want.trace)).max() <= 1e-12
            assert np.abs(got.transformed.factor() - want.transformed.factor()).max() <= 1e-12
            assert got.estimate.bitstrings == want.estimate.bitstrings
            assert np.abs(got.estimate.lambdas - want.estimate.lambdas).max() <= 1e-12
            if cost.shots:  # the same draws, in the same order, from each run's generator
                assert np.array_equal(got.estimate.lambdas, want.estimate.lambdas)
                assert rng.bit_generator.state == solo_rng.bit_generator.state
            assert np.array_equal(got.final_hamiltonian.energies(), want.final_hamiltonian.energies())

    def test_callback_fires_once_per_run_and_row(self):
        rho = random_density_matrix(3, seed=4)
        ansatze = [LayeredAnsatz.random(3, 1, BlockKind.RY_CZ, seed) for seed in (1, 2)]
        rows = []
        results = optimize_runs(rho, ansatze, cost_config(3, 2, "adaptive"), StepwiseSchedule(4, 2),
                                OptimizerConfig(), [7, 8], callback=lambda run, k, *_: rows.append((run, k)))
        assert rows == [(run, k) for k in range(5) for run in (0, 1)]
        assert [len(r.trace) for r in results] == [5, 5]

    def test_rejects_mismatched_runs(self):
        rho = random_density_matrix(3, seed=4)
        ansatze = [LayeredAnsatz.random(3, layers, BlockKind.RY_CZ, 1) for layers in (1, 2)]
        for runs, seeds in ((ansatze, [1, 2]), (ansatze[:1], [1, 2]), ([], [])):
            with pytest.raises(ValueError, match="one shape"):
                optimize_runs(rho, runs, cost_config(3, 2), StepwiseSchedule(2, 1), OptimizerConfig(), seeds)


def locals_at_return(fn, *args):
    """Call fn(*args); return (its value, the locals of fn's frame as it returns)."""
    seen = {}

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is fn.__code__:
            seen.update(frame.f_locals)

    sys.setprofile(profile)
    try:
        value = fn(*args)
    finally:
        sys.setprofile(None)
    return value, seen


def sampled_probabilities(states, a, angles, factors, mats, energies):
    """The outcome probabilities p that the sampled `_gradient` hands `sample_counts`, one array per run."""
    seen = []

    def spy(p, shots, rng):
        seen.append(p.copy())
        return sample_counts(p, shots, rng)

    with mock.patch.object(solver, "sample_counts", spy):
        _gradient(states, a, angles, factors, mats, energies, 16, [np.random.default_rng(1) for _ in energies])
    return seen


@st.composite
def real_cases(draw):
    """A real rank-r factor, R untrained circuits of one shape with exact 0, +-pi/2
    and +-pi mixed into their angles, and a cost (adaptive or local)."""
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(list(BlockKind)))
    layers = draw(st.integers(1, 2))
    rank = draw(st.integers(1, 2**n))
    runs = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor = rng.standard_normal((2**n, rank))
    factor /= np.linalg.norm(factor)
    theta = rng.uniform(-np.pi, np.pi, (runs, LayeredAnsatz.n_parameters(n, layers, kind)))
    mix_special_angles(rng, theta, draw(st.sampled_from([0.0, 0.3, 1.0])))
    ansatze = [LayeredAnsatz(n, layers, kind, t) for t in theta]
    return factor, ansatze, cost_config(n, draw(st.integers(1, 2)), draw(st.sampled_from(["adaptive", "local"])))


class TestRealArithmetic:
    """A real factor runs in float64 under rycz; it must agree with the same inputs cast to complex."""

    @settings(max_examples=40)
    @given(real_cases())
    def test_real_path_matches_the_complex_cast(self, case):
        factor, ansatze, cost = case
        a = ansatze[0]
        angles = np.stack([b.block_angles for b in ansatze])
        factors = a.kind._factors(angles)
        mats = a.kind.unitaries(factors)
        energies = np.stack([cost.local.energies(), cost.global_part.energies()])[: len(ansatze)]
        real = _forward_states(factor, a, mats)
        cast = _forward_states(factor.astype(complex), a, mats.astype(complex))
        for r, c in zip(real, cast):
            assert np.abs(r - c).max() <= 1e-12
        inputs = ((real, factors, mats), (cast, factors.astype(complex), mats.astype(complex)))
        exact = [_gradient(s, a, angles, f, m, energies, 0, None) for s, f, m in inputs]
        assert np.abs(exact[0] - exact[1]).max() <= 1e-12
        p_real, p_cast = (sampled_probabilities(s, a, angles, factors, mats, energies) for s in (real, cast))
        for r, c in zip(p_real, p_cast):
            assert r.dtype == np.float64 and np.abs(r - c).max() <= 1e-12
        schedule, adam = StepwiseSchedule(4, 2), OptimizerConfig(lr=0.1)
        got, want = (
            optimize_runs(DensityMatrix(factor=f, validate=False), ansatze, cost, schedule, adam, [1] * len(ansatze))
            for f in (factor, factor.astype(complex))
        )
        for g, w in zip(got, want):
            assert np.abs(np.array(g.trace) - np.array(w.trace)).max() <= 1e-12

    @pytest.mark.parametrize("kind, dtype", [(BlockKind.RY_CZ, np.float64), (BlockKind.G_CNOT_G, np.complex128)])
    def test_walk_dtype_follows_the_blocks(self, kind, dtype):
        # a real factor: rycz stays float64 in its states, env, wide and transformed
        # factor; gcnotg (R_z is complex) is complex128 throughout
        rho = random_low_rank_state(4, 1, seed=3)
        a = LayeredAnsatz.random(4, 2, kind, 5)
        angles = a.block_angles[None]
        factors = kind._factors(angles)
        mats = kind.unitaries(factors)
        states = _forward_states(rho.factor(), a, mats)
        assert {s.dtype for s in states[1:]} == {np.dtype(dtype)}
        energies = default_local_weights(4, 2).energies()[None]
        grad, frame = locals_at_return(solver._adjoint_gradient, states, a, factors, mats, energies)
        assert frame["env"].dtype == dtype and grad.dtype == np.float64
        args = (states, a, angles, factors, mats, energies, 8, [np.random.default_rng(1)])
        _, frame = locals_at_return(solver._gradient, *args)
        assert frame["wide"].dtype == dtype
        assert apply_ansatz(rho, a).factor().dtype == dtype
        res = optimize(rho, a, cost_config(4, 2, "adaptive"), StepwiseSchedule(2, 1), OptimizerConfig(), 1)
        assert res.transformed.factor().dtype == dtype

    def test_complex_factor_with_zero_imaginary_part_stays_complex(self):
        # the dtype is read, never the values
        factor = random_low_rank_state(4, 1, seed=3).factor().astype(complex)
        a = LayeredAnsatz.random(4, 2, BlockKind.RY_CZ, 5)
        res = optimize(DensityMatrix(factor=factor, validate=False), a, cost_config(4, 2), StepwiseSchedule(2, 1),
                       OptimizerConfig(), 1)
        assert res.transformed.factor().dtype == np.complex128


class TestSchedule:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            StepwiseSchedule(100, 30)

    def test_stepwise_values(self):
        sched = StepwiseSchedule(100, 20)
        assert [sched.t(k) for k in (0, 20, 100)] == [0.0, 0.2, 1.0]
        assert [sched.is_update(k) for k in (19, 20, 21)] == [False, True, False]


class TestReadout:
    def test_reads_sorted_diagonal(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex))
        a = LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.zeros(4))  # CZ keeps diagonals
        est = readout(rho, a, m=2)
        assert np.allclose(est.lambdas, [0.5, 0.3])
        assert est.bitstrings == ("00", "01")
        assert est.shots_used == 0

    def test_deterministic_state_sampled_exactly(self):
        rho = basis_density_matrix(2, "00")
        a = LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.zeros(4))
        est = readout(rho, a, m=1, shots=1000, rng=3)
        assert est.lambdas[0] == pytest.approx(1.0)
        assert not est.padded

    def test_tie_break_is_lexicographic(self):
        rho = DensityMatrix(np.eye(4) / 4)
        a = LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.zeros(4))
        est = readout(rho, a, m=3)
        assert est.bitstrings == ("00", "01", "10")

    def test_padding_flagged_when_too_few_outcomes(self):
        rho = basis_density_matrix(2, "00")
        a = LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.zeros(4))
        est = readout(rho, a, m=3, shots=50, rng=0)
        assert est.padded
        assert est.lambdas[0] == pytest.approx(1.0)
        assert np.allclose(est.lambdas[1:], 0.0)

    @pytest.mark.parametrize("shots", [-5, 2.5, float("nan")])
    def test_shots_must_be_a_non_negative_integer(self, shots):
        # 2.5 would draw 2 shots and divide the counts by 2.5; -5 and NaN would fail inside numpy
        rho = random_density_matrix(2, seed=1)
        a = LayeredAnsatz.random(2, 1, BlockKind.RY_CZ, 0)
        message = "shots must be a non-negative integer"
        with pytest.raises(ValueError, match=message):
            cost_config(2, 2, "adaptive", shots=shots)
        with pytest.raises(ValueError, match=message):
            readout(rho, a, m=2, shots=shots, rng=0)
        with pytest.raises(ValueError, match=message):
            param_shift_gradient(rho, a, default_local_weights(2, 2), shots=shots, rng=0)
        # a numpy integer is an integer
        assert cost_config(2, 2, "adaptive", shots=np.int64(8)).shots == 8
        assert readout(rho, a, m=2, shots=np.int64(8), rng=0).shots_used == 8

    def test_partial_sums_majorized_by_spectrum(self):
        for seed in range(8):
            rho = random_density_matrix(3, seed=seed)
            a = LayeredAnsatz.random(3, 2, BlockKind.RY_CZ, seed + 10)
            est = readout(rho, a, m=8)
            lam = exact_eigs(rho)[0]
            for k in range(1, 9):
                assert est.lambdas[:k].sum() <= lam[:k].sum() + 1e-10

    def test_hoeffding_envelope_monte_carlo(self):
        # each per-bitstring frequency must sit inside the concentration
        # envelope |est - p| <= c p with failure probability delta
        rho = random_density_matrix(3, seed=55)
        a = LayeredAnsatz.random(3, 1, BlockKind.RY_CZ, 2)
        rho_t = apply_ansatz(rho, a)
        p = rho_t.diagonal()
        order = np.argsort(-p, kind="stable")[:3]
        shots = 10**5
        delta = 1e-3
        # invert Pr(|est-p| >= c p) <= 2 exp(-2 N c^2 p^2) = delta per entry
        rng = np.random.default_rng(2024)
        failures = 0
        trials = 300
        for _ in range(trials):
            counts = rng.multinomial(shots, p / p.sum())
            for i in order:
                c_i = np.sqrt(np.log(2 / delta) / (2 * shots * p[i] ** 2))
                if abs(counts[i] / shots - p[i]) >= c_i * p[i]:
                    failures += 1
        assert failures <= max(3, int(2 * delta * trials * len(order)))


class TestEstimateValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            EigenEstimate(np.array([0.2, 0.5]), ("00", "01"))

    def test_rejects_mass_above_one(self):
        with pytest.raises(ValueError):
            EigenEstimate(np.array([0.8, 0.7]), ("00", "01"))

    def test_rejects_duplicate_bitstrings(self):
        with pytest.raises(ValueError):
            EigenEstimate(np.array([0.5, 0.3]), ("00", "00"))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            EigenEstimate(np.array([0.5, np.nan]), ("00", "01"))


class TestPlanShots:
    def test_reference_value(self):
        assert plan_shots(0.1, 0.01, 0.1).n_runs == 23026

    def test_all_unity(self):
        assert plan_shots(1.0, 1 / np.e, 1.0).n_runs == 1

    def test_inverse_form(self):
        # eigenvalues above sqrt(ln(1/delta) / (2 c^2 N)) are covered by N runs
        n_runs = 10**4
        lam = np.sqrt(np.log(100.0) / (2 * 0.1**2 * n_runs))
        assert plan_shots(0.1, 0.01, lam * 1.0001).n_runs <= n_runs
        assert plan_shots(0.1, 0.01, lam * 0.99).n_runs > n_runs

    def test_input_validation(self):
        with pytest.raises(ValueError):
            plan_shots(0.0, 0.01, 0.1)
        with pytest.raises(ValueError):
            plan_shots(0.1, 1.0, 0.1)
        with pytest.raises(ValueError):
            plan_shots(0.1, 0.01, 0.0)

    @pytest.mark.parametrize("args,name", [
        ((np.inf, 0.1, 0.1), "c"), ((np.nan, 0.1, 0.1), "c"), ((0.1, np.nan, 0.1), "delta"),
        ((0.1, 0.1, np.inf), "lambda_min"), ((0.1, 0.1, np.nan), "lambda_min"), ((0.1, 0.1, 1.5), "lambda_min"),
    ], ids=["c-inf", "c-nan", "delta-nan", "lambda_min-inf", "lambda_min-nan", "lambda_min-1.5"])
    def test_rejects_non_finite_and_unphysical_input_by_name(self, args, name):
        # an eigenvalue of rho is at most 1; inf once planned 1 run, NaN failed inside math.ceil
        with pytest.raises(ValueError, match=f"^{name} must"):
            plan_shots(*args)


class TestOptimize:
    def test_stationary_start_stays_put(self):
        # |00><00| with zero angles is a cost minimum of the local Hamiltonian;
        # the gradient vanishes so the trace never increases
        rho = basis_density_matrix(2, "00")
        a = LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.zeros(4))
        res = optimize(rho, a, cost_config(2, 2), StepwiseSchedule(20, 5),
                       OptimizerConfig(lr=0.01), rng=0)
        costs = [p.cost for p in res.trace]
        assert np.all(np.diff(costs) <= 1e-12)
        assert np.array_equal(res.ansatz.theta, a.theta)

    def test_converges_on_pure_basis_state(self):
        # landscape with a known global minimum at cost = E(00)
        rho = basis_density_matrix(2, "00")
        cfg = cost_config(2, 2)
        emin = min(cfg.local.energies())
        rng = np.random.default_rng(1)
        a = LayeredAnsatz.random(2, 1, BlockKind.RY_CZ, rng)
        res = optimize(rho, a, cfg, StepwiseSchedule(200, 20), OptimizerConfig(lr=0.1), rng)
        assert res.trace[-1].cost - emin < 1e-8
        assert len(res.trace) == 201

    def test_majorization_holds_along_fixed_cost_traces(self):
        rho = random_density_matrix(3, seed=8)
        lam = exact_eigs(rho)[0]
        for variant in ("local", "global"):
            cfg = cost_config(3, 3, variant)
            h = cfg.local if variant == "local" else cfg.global_part
            floor = np.sort(h.energies()) @ lam
            rng = np.random.default_rng(5)
            a = LayeredAnsatz.random(3, 1, BlockKind.RY_CZ, rng)
            res = optimize(rho, a, cfg, StepwiseSchedule(40, 10), OptimizerConfig(), rng)
            assert all(p.cost >= floor - 1e-10 for p in res.trace)

    def test_adaptive_final_hamiltonian_is_global(self):
        rho = random_density_matrix(2, seed=2)
        cfg = cost_config(2, 2, "adaptive")
        rng = np.random.default_rng(3)
        a = LayeredAnsatz.random(2, 1, BlockKind.RY_CZ, rng)
        res = optimize(rho, a, cfg, StepwiseSchedule(30, 10), OptimizerConfig(), rng)
        h = res.final_hamiltonian
        # update k weighs the global part by f = t = k / n_max, so the last one
        # (k = n_max) leaves the marked global part alone, to the last bit
        assert h.f == 1.0
        assert np.array_equal(h.energies(), h.global_part.energies())
        assert np.isclose(max(h.energies()), 1.0)

    def test_rows_are_costed_under_the_hamiltonian_in_force(self):
        # the last update sets f = 1, so the final row's cost is under the global part
        rho = random_density_matrix(3, seed=4)
        rng = np.random.default_rng(2)
        a = LayeredAnsatz.random(3, 1, BlockKind.RY_CZ, rng)
        res = optimize(rho, a, cost_config(3, 2, "adaptive"), StepwiseSchedule(10, 5),
                       OptimizerConfig(), rng)
        expected = res.final_hamiltonian.energies() @ res.transformed.diagonal()
        assert res.trace[-1].cost == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("shots", [0, 64])
    def test_one_walk_per_step(self, monkeypatch, shots):
        # every theta is walked once, for its trace row and the next gradient,
        # from one stack of its block unitaries; each step's gradient builds one
        # stack of angle generators (exact) or of shifted blocks (sampled); the
        # sampled gradient walks its shifted copies as columns of one array,
        # not as forward walks of their own
        import vqse.solver

        calls = {"walks": 0, "unitary stacks": 0, "shifted stacks": 0, "generator stacks": 0}
        unitaries, angle_generators = BlockKind.unitaries, BlockKind.angle_generators

        def walks(*args):
            calls["walks"] += 1
            return forward_states(*args)

        def counted_unitaries(kind, factors):
            # a walk's factors are (runs, blocks, 4, k, 2, 2); a shifted stack's (runs, blocks, w, 2, 4, k, 2, 2)
            calls["shifted stacks" if np.ndim(factors) == 8 else "unitary stacks"] += 1
            return unitaries(kind, factors)

        def counted_generators(kind, factors):
            calls["generator stacks"] += 1
            return angle_generators(kind, factors)

        forward_states = vqse.solver._forward_states
        monkeypatch.setattr(vqse.solver, "_forward_states", walks)
        monkeypatch.setattr(BlockKind, "unitaries", counted_unitaries)
        monkeypatch.setattr(BlockKind, "angle_generators", counted_generators)
        rho = random_density_matrix(3, seed=4)
        rng = np.random.default_rng(2)
        a = LayeredAnsatz.random(3, 2, BlockKind.RY_CZ, rng)
        n_max = 10
        optimize(rho, a, cost_config(3, 2, "adaptive", shots), StepwiseSchedule(n_max, 5),
                 OptimizerConfig(), rng)
        assert calls["walks"] == n_max + 1
        assert calls["unitary stacks"] == n_max + 1
        assert calls["generator stacks"] == (n_max if shots == 0 else 0)
        assert calls["shifted stacks"] == (n_max if shots else 0)

    @pytest.mark.parametrize("kind", list(BlockKind))
    @pytest.mark.parametrize("shots", [0, 64])
    def test_factors_formed_once_per_step(self, monkeypatch, kind, shots):
        # the walk's block unitaries and the exact gradient's generators read one stack of
        # rotation factors per step; the sampled gradient adds its shifted copies' stack
        stacks, factors = [], BlockKind._factors
        monkeypatch.setattr(BlockKind, "_factors", lambda self, angles: stacks.append(np.ndim(angles)) or factors(self, angles))
        rho = random_density_matrix(3, seed=4)
        rng = np.random.default_rng(2)
        a = LayeredAnsatz.random(3, 2, kind, rng)
        n_max = 10
        optimize(rho, a, cost_config(3, 2, "adaptive", shots), StepwiseSchedule(n_max, 5), OptimizerConfig(), rng)
        assert stacks.count(3) == n_max + 1  # (runs, blocks, w) angles: one stack per walk
        assert stacks.count(5) == (n_max if shots else 0)  # (runs, blocks, w, 2, w): the shifted copies
        assert len(stacks) == n_max + 1 + (n_max if shots else 0)

    @pytest.mark.parametrize("kind", list(BlockKind))
    @pytest.mark.parametrize("runs", [1, 3])
    def test_exact_gradient_matches_generators_built_from_its_angles(self, monkeypatch, kind, runs):
        # each step's gradient reads the factors its walk formed: it is bitwise the gradient of
        # each run alone, with blocks and generators built afresh from that step's angles
        steps, gradient = [], solver._gradient

        def spy(states, a, angles, factors, mats, energies, shots, rngs):
            grad = gradient(states, a, angles, factors, mats, energies, shots, rngs)
            steps.append((a, angles.copy(), energies.copy(), grad))
            return grad

        monkeypatch.setattr(solver, "_gradient", spy)
        rho = random_density_matrix(3, rank=2, seed=7)
        ansatze = [LayeredAnsatz.random(3, 2, kind, seed) for seed in range(runs)]
        optimize_runs(rho, ansatze, cost_config(3, 2, "adaptive"), StepwiseSchedule(6, 3), OptimizerConfig(),
                      list(range(runs)))
        assert len(steps) == 6
        for a, angles, energies, grad in steps:
            for i in range(runs):
                own = kind._factors(angles[i:i + 1])
                mats = kind.unitaries(own)
                states = _forward_states(rho.factor(), a, mats)
                want = solver._adjoint_gradient(states, a, own, mats, energies[i:i + 1])
                assert np.array_equal(grad[i], want[0])

    def test_returns_final_transformed_state(self):
        rho = random_density_matrix(3, seed=4)
        rng = np.random.default_rng(2)
        a = LayeredAnsatz.random(3, 1, BlockKind.G_CNOT_G, rng)
        res = optimize(rho, a, cost_config(3, 2, "adaptive"), StepwiseSchedule(10, 5),
                       OptimizerConfig(), rng)
        assert np.array_equal(res.transformed.data, apply_ansatz(rho, res.ansatz).data)

    def test_nan_cost_raises_before_the_error_formula(self):
        rho = random_density_matrix(2, seed=1)
        a = LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.full(4, np.nan))
        with pytest.raises(FloatingPointError, match="NaN"):
            optimize(rho, a, cost_config(2, 2), StepwiseSchedule(2, 1), OptimizerConfig(), 0)

    def test_deterministic_replay(self):
        rho = random_density_matrix(2, seed=6)
        cfg = cost_config(2, 2, "adaptive")

        def run():
            rng = np.random.default_rng(11)
            a = LayeredAnsatz.random(2, 1, BlockKind.RY_CZ, rng)
            return optimize(rho, a, cfg, StepwiseSchedule(20, 5), OptimizerConfig(), rng)

        r1, r2 = run(), run()
        assert np.array_equal(r1.ansatz.theta, r2.ansatz.theta)
        assert all(p1 == p2 for p1, p2 in zip(r1.trace, r2.trace))

    def test_gd_option(self):
        rho = basis_density_matrix(2, "00")
        rng = np.random.default_rng(4)
        a = LayeredAnsatz.random(2, 1, BlockKind.RY_CZ, rng)
        res = optimize(rho, a, cost_config(2, 2), StepwiseSchedule(150, 15),
                       OptimizerConfig(kind="gd", lr=0.3), rng)
        emin = min(cost_config(2, 2).local.energies())
        assert res.trace[-1].cost - emin < 1e-6

    def test_invalid_optimizer_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(kind="lbfgs")

    @pytest.mark.parametrize("lr", [0.0, -0.1, np.nan, np.inf])
    def test_invalid_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="finite and positive"):
            OptimizerConfig(lr=lr)
