"""Tests for gradients, the training loop, readout and the shot planner."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

from reference import dense_circuit, random_density_matrix


def cost_config(n, m, variant="local", shots=0):
    local = default_local_weights(n, m)
    return CostConfig(variant=variant, local=local, global_part=global_from_local(local, m), m=m, shots=shots)


def adaptive_hamiltonian(n, m):
    local = default_local_weights(n, m)
    marked = [format(i, f"0{n}b") for i in (1, 2 ** n - 1, 2)[:m]]
    glob = global_from_local(local, m).with_bitstrings(marked)
    return AdaptiveHamiltonian(local=local, global_part=glob, f_of_t=StepwiseSchedule(10, 5), t=0.6)


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
            val.append(float(energies @ sample_counts(apply_ansatz(rho, shifted), shots, rng)) / shots)
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
        # the 2w shifted copies made at each block (2wB); re-walking every
        # shifted circuit's tail would take B + wB(B + 1)
        import vqse.ansatz
        import vqse.solver

        calls = []
        real = vqse.solver._apply_left
        for module in (vqse.ansatz, vqse.solver):
            monkeypatch.setattr(module, "_apply_left", lambda *args: calls.append(args) or real(*args))
        rho = random_density_matrix(4, seed=5)
        a = LayeredAnsatz.random(4, layers, kind, 6)
        param_shift_gradient(rho, a, adaptive_hamiltonian(4, 2), shots=100, rng=1)
        blocks, w = a.n_blocks, kind.angles_per_block
        assert len(calls) == 2 * blocks - 1 + 2 * w * blocks

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
    """Untrained circuit, rank-r state (factor given or from eigh), adaptive H."""
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(list(BlockKind)))
    layers = draw(st.integers(1, 2))
    rank = draw(st.integers(1, 2**n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor = rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank))
    factor /= np.linalg.norm(factor)
    given_factor = draw(st.booleans())
    rho = DensityMatrix(factor @ factor.conj().T, factor=factor if given_factor else None)
    a = LayeredAnsatz.random(n, layers, kind, rng)
    m = draw(st.integers(1, 2))
    marked = draw(st.lists(st.integers(0, 2**n - 1), min_size=m, max_size=m, unique=True))
    local = default_local_weights(n, m)
    glob = global_from_local(local, m).with_bitstrings([format(i, f"0{n}b") for i in marked])
    t = draw(st.integers(0, 20)) / 20  # f(t) = t on this schedule
    h = AdaptiveHamiltonian(local=local, global_part=glob, f_of_t=StepwiseSchedule(20, 1), t=t)
    return rho, a, h


class TestAdjointProperty:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
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
        mats = kind.unitaries(angles)
        states = _forward_states(rho.factor(), ansatze[0], mats)
        energies = np.stack([h.energies() for h in hams])
        rngs = [np.random.default_rng(seed) for seed in (5, 6)]
        got = _gradient(states, ansatze[0], angles, mats, energies, shots, rngs)
        for i, (a, h, seed) in enumerate(zip(ansatze, hams, (5, 6))):
            assert np.array_equal(got[i], full_forward_sampled_gradient(rho, a, h, shots, seed))


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
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(lockstep_cases())
    def test_lockstep_matches_separate_runs(self, case):
        rho, ansatze, cost, seeds = case
        schedule, adam = StepwiseSchedule(4, 2), OptimizerConfig(lr=0.1)
        lock_rngs = [np.random.default_rng(s) for s in seeds]
        together = optimize_runs(rho, ansatze, cost, schedule, adam, lock_rngs)
        for a, seed, rng, got in zip(ansatze, seeds, lock_rngs, together):
            solo_rng = np.random.default_rng(seed)
            want = optimize(rho, a, cost, schedule, adam, solo_rng)
            assert np.abs(got.theta_opt - want.theta_opt).max() <= 1e-12
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


class TestSchedule:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            StepwiseSchedule(100, 30)

    def test_stepwise_values(self):
        sched = StepwiseSchedule(100, 20)
        assert sched(0.0) == 0.0
        assert sched(1.0) == 1.0
        assert sched(0.31) == pytest.approx(0.2)  # holds the last update value
        assert sched(0.2) == pytest.approx(0.2)
        assert [sched.is_update(k) for k in (19, 20, 21)] == [False, True, False]

    @pytest.mark.parametrize("n_max, s, k", [(22, 1, 15), (360, 36, 252), (100, 20, 60)])
    def test_update_iteration_sees_its_own_value(self, n_max, s, k):
        # k / n_max * n_max rounds to just below k for (22, 1, 15) and (360, 36, 252)
        assert StepwiseSchedule(n_max, s)(k / n_max) == k / n_max

    def test_exact_at_every_iteration(self):
        for n_max in range(1, 121):
            for s in (d for d in range(1, n_max + 1) if n_max % d == 0):
                sched = StepwiseSchedule(n_max, s)
                for k in range(n_max + 1):
                    assert sched(sched.t(k)) == k // s * s / n_max, (n_max, s, k)


class TestReadout:
    def test_reads_sorted_diagonal(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex))
        a = LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.zeros(4))  # CZ keeps diagonals
        est = readout(rho, a, m=2)
        assert np.allclose(est.lambdas, [0.5, 0.3])
        assert est.bitstrings == ("00", "01")
        assert est.shots_used == 0

    def test_deterministic_state_sampled_exactly(self):
        rho = DensityMatrix.basis_state(2, "00")
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
        rho = DensityMatrix.basis_state(2, "00")
        a = LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.zeros(4))
        est = readout(rho, a, m=3, shots=50, rng=0)
        assert est.padded
        assert est.lambdas[0] == pytest.approx(1.0)
        assert np.allclose(est.lambdas[1:], 0.0)

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


class TestOptimize:
    def test_stationary_start_stays_put(self):
        # |00><00| with zero angles is a cost minimum of the local Hamiltonian;
        # the gradient vanishes so the trace never increases
        rho = DensityMatrix.basis_state(2, "00")
        a = LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.zeros(4))
        res = optimize(rho, a, cost_config(2, 2), StepwiseSchedule(20, 5),
                       OptimizerConfig(lr=0.01), rng=0)
        costs = [p.cost for p in res.trace]
        assert np.all(np.diff(costs) <= 1e-12)
        assert np.array_equal(res.theta_opt, a.theta)

    def test_converges_on_pure_basis_state(self):
        # landscape with a known global minimum at cost = E(00)
        rho = DensityMatrix.basis_state(2, "00")
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
        assert h.t == 1.0 and h.f == 1.0
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
        # stack of derivatives (exact) or of shifted blocks (sampled); the
        # sampled gradient walks its shifted copies as columns of one array,
        # not as forward walks of their own
        import vqse.solver

        calls = {"walks": 0, "unitary stacks": 0, "shifted stacks": 0, "derivative stacks": 0}
        unitaries, derivatives = BlockKind.unitaries, BlockKind.derivatives

        def walks(*args):
            calls["walks"] += 1
            return forward_states(*args)

        def counted_unitaries(kind, angles):
            # a walk's stack is (runs, blocks, w); a shifted stack is (runs, blocks, w, 2, w)
            calls["shifted stacks" if np.ndim(angles) == 5 else "unitary stacks"] += 1
            return unitaries(kind, angles)

        def counted_derivatives(kind, angles):
            calls["derivative stacks"] += 1
            return derivatives(kind, angles)

        forward_states = vqse.solver._forward_states
        monkeypatch.setattr(vqse.solver, "_forward_states", walks)
        monkeypatch.setattr(BlockKind, "unitaries", counted_unitaries)
        monkeypatch.setattr(BlockKind, "derivatives", counted_derivatives)
        rho = random_density_matrix(3, seed=4)
        rng = np.random.default_rng(2)
        a = LayeredAnsatz.random(3, 2, BlockKind.RY_CZ, rng)
        n_max = 10
        optimize(rho, a, cost_config(3, 2, "adaptive", shots), StepwiseSchedule(n_max, 5),
                 OptimizerConfig(), rng)
        assert calls["walks"] == n_max + 1
        assert calls["unitary stacks"] == n_max + 1
        assert calls["derivative stacks"] == (n_max if shots == 0 else 0)
        assert calls["shifted stacks"] == (n_max if shots else 0)

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
        assert np.array_equal(r1.theta_opt, r2.theta_opt)
        assert all(p1 == p2 for p1, p2 in zip(r1.trace, r2.trace))

    def test_gd_option(self):
        rho = DensityMatrix.basis_state(2, "00")
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
