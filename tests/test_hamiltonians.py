"""Tests for the diagonal cost Hamiltonians."""

import warnings

import numpy as np
import pytest

from vqse.ansatz import BlockKind, LayeredAnsatz, apply_ansatz
from vqse.hamiltonians import (
    AdaptiveHamiltonian,
    DegenerateSpectrumError,
    GlobalPart,
    LocalWeights,
    default_local_weights,
    global_from_local,
    lowest_levels,
    sample_counts,
)
from vqse.qmath import DensityMatrix, exact_eigs

from reference import basis_density_matrix, random_density_matrix


def local_energy(r, z):
    """The closed form E(z) = 1 - sum_j r_j (1 - 2 z_j)."""
    return 1.0 - sum(rj * (1 - 2 * int(c)) for rj, c in zip(r, z))


class TestEnergies:
    def test_local_formula(self):
        h = LocalWeights(np.array([0.1, 0.1]))
        assert h.energies()[0] == pytest.approx(0.8)  # 00
        assert h.energies()[3] == pytest.approx(1.2)  # 11

    def test_global_definition(self):
        h = GlobalPart(2, ("00",), np.array([0.9]))
        assert h.energies() == pytest.approx([0.1, 1.0, 1.0, 1.0])

    def test_adaptive_convex_combination(self):
        local = LocalWeights(np.array([0.1, 0.1]))
        glob = GlobalPart(2, ("00",), np.array([0.9]))
        h = AdaptiveHamiltonian(local, glob, f=0.5)
        assert h.energies()[0] == pytest.approx(0.5 * 0.8 + 0.5 * 0.1)

    @pytest.mark.parametrize("f", [np.nan, -0.1, 1.1])
    def test_adaptive_weight_outside_unit_interval_rejected(self, f):
        local = LocalWeights(np.array([0.1, 0.1]))
        glob = GlobalPart(2, ("00",), np.array([0.9]))
        with pytest.raises(ValueError, match="weight f"):
            AdaptiveHamiltonian(local, glob, f=f)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            GlobalPart(2, ("000",), np.array([0.5]))

    def test_energy_vector_matches_closed_form(self):
        h = LocalWeights(np.array([0.07, 0.11, 0.13]))
        e = h.energies()
        for i, z in enumerate(["000", "001", "010", "011", "100", "101", "110", "111"]):
            assert e[i] == pytest.approx(local_energy(h.r, z))


class TestConstruction:
    def test_single_qubit_default(self):
        w = default_local_weights(1, 1)
        assert np.allclose(w.r, [0.5])
        assert sorted(w.energies()) == pytest.approx([0.5, 1.5])

    def test_n4_m6_lowest_levels_distinct(self):
        # brute force: enumerate all 16 energies
        w = default_local_weights(4, 6)
        e = np.sort(w.energies())
        assert np.all(np.diff(e[:6]) > 1e-9)

    def test_explicit_r1_delta_example(self):
        w = default_local_weights(2, 2, r1=0.3, delta=0.05)
        e = dict(zip(("00", "01", "10", "11"), w.energies()))
        assert e["00"] == pytest.approx(0.35)
        assert e["01"] == pytest.approx(1.05)
        assert e["10"] == pytest.approx(0.95)
        assert e["11"] == pytest.approx(1.65)

    def test_degenerate_request_fails_loudly(self):
        # equal weights collapse all single-flip levels
        with pytest.raises(DegenerateSpectrumError):
            default_local_weights(3, 3, r1=0.1, delta=0.0)

    def test_weight_positivity_and_budget(self):
        with pytest.raises(ValueError):
            LocalWeights(np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            LocalWeights(np.array([0.2, -0.1]))

    @pytest.mark.parametrize("r", [[np.nan, 0.1], [np.inf, 0.1], [0.1, -np.inf]])
    def test_non_finite_local_weights_rejected(self, r):
        with pytest.raises(ValueError, match="finite"):
            LocalWeights(np.array(r))

    @pytest.mark.parametrize("r1", [np.inf, np.nan])
    def test_non_finite_default_weights_rejected(self, r1):
        # checked before r1 + delta * arange(n), whose inf * 0 would warn first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="r1 must be finite"):
                default_local_weights(3, 2, r1=r1)

    @pytest.mark.parametrize("delta", [np.inf, -np.inf, np.nan])
    def test_non_finite_default_delta_rejected(self, delta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="delta must be finite"):
                default_local_weights(3, 2, r1=0.1, delta=delta)

    @pytest.mark.parametrize("q", [[np.nan], [np.inf], [0.5, np.nan]])
    def test_non_finite_global_weights_rejected(self, q):
        bitstrings = ("00", "01")[: len(q)]
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            GlobalPart(2, bitstrings, np.array(q))

    def test_global_part_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            GlobalPart(2, ("00", "00"), np.array([0.5, 0.4]))
        with pytest.raises(ValueError, match="decreasing"):
            GlobalPart(2, ("00", "01"), np.array([0.4, 0.5]))
        with pytest.raises(ValueError):
            GlobalPart(2, ("00",), np.array([1.5]))

    def test_companion_global_reproduces_local_low_levels(self):
        local = default_local_weights(4, 6)
        glob = global_from_local(local, 6)
        ll = lowest_levels(local, 6)
        gl = lowest_levels(glob, 6)
        assert [z for _, z in ll] == [z for _, z in gl]
        assert np.allclose([e for e, _ in ll], [e for e, _ in gl])


class TestLowestLevels:
    def test_example_n2(self):
        w = default_local_weights(2, 2, r1=0.3, delta=0.05)
        levels = lowest_levels(w, 3)
        assert levels[0] == (pytest.approx(0.35), "00")
        assert levels[1] == (pytest.approx(0.95), "10")
        assert levels[2] == (pytest.approx(1.05), "01")

    def test_global_levels(self):
        g = GlobalPart(3, ("101", "010"), np.array([0.6, 0.3]))
        levels = lowest_levels(g, 2)
        assert levels == [(pytest.approx(0.4), "101"), (pytest.approx(0.7), "010")]

    def test_adaptive_at_t1_equals_global(self):
        local = default_local_weights(3, 3)
        glob = global_from_local(local, 3)
        h = AdaptiveHamiltonian(local, glob, f=1.0)
        assert lowest_levels(h, 3) == lowest_levels(glob, 3)
        assert np.allclose(h.energies(), glob.energies())

    def test_adaptive_at_t0_equals_local(self):
        local = default_local_weights(3, 3)
        glob = global_from_local(local, 3)
        h = AdaptiveHamiltonian(local, glob, f=0.0)
        assert np.array_equal(h.energies(), local.energies())

    def test_degeneracy_detected(self):
        g = LocalWeights(np.array([0.2, 0.2]))  # single-flip levels collide
        with pytest.raises(DegenerateSpectrumError):
            lowest_levels(g, 3)

    def test_global_degeneracy_structure(self):
        # m marked levels plus one (2^n - m)-fold level at energy 1
        local = default_local_weights(4, 6)
        g = global_from_local(local, 6)
        e = g.energies()
        marked = np.sort(e)[:6]
        assert np.all(np.diff(marked) > 1e-9)
        assert np.count_nonzero(np.isclose(e, 1.0)) == 2**4 - 6


class TestCost:
    """The cost of a transformed state: energies() against its diagonal."""

    def test_basis_state(self):
        w = default_local_weights(3, 3)
        rho = basis_density_matrix(3, "000")
        assert w.energies() @ rho.diagonal() == pytest.approx(local_energy(w.r, "000"))

    def test_maximally_mixed_with_global(self):
        g = GlobalPart(2, ("00", "11"), np.array([0.5, 0.25]))
        rho = DensityMatrix(np.eye(4) / 4)
        assert g.energies() @ rho.diagonal() == pytest.approx(1 - 0.75 / 4)

    def test_matches_dense_matrix_oracle(self):
        rho = random_density_matrix(3, seed=31)
        w = default_local_weights(3, 4)
        dense = np.diag(w.energies())
        assert w.energies() @ rho.diagonal() == pytest.approx(np.trace(dense @ rho.data).real, abs=1e-12)


class TestSampledCost:
    """The mean energy of `sample_counts` outcomes estimates the cost."""

    def test_deterministic_on_basis_state(self):
        w = default_local_weights(2, 2)
        rho = basis_density_matrix(2, "10")
        for shots in (1, 7, 1000):
            mean = w.energies() @ sample_counts(rho.diagonal(), shots, 0) / shots
            assert mean == pytest.approx(local_energy(w.r, "10"))

    def test_large_sample_concentrates(self):
        # energies live in [0, 2]; Hoeffding makes 5e-3 deviations at 1e6
        # shots essentially impossible
        rho = random_density_matrix(2, seed=5)
        w = default_local_weights(2, 3)
        c = w.energies() @ sample_counts(rho.diagonal(), 10**6, 12345) / 10**6
        assert abs(c - w.energies() @ rho.diagonal()) < 5e-3

    def test_seed_reproducibility(self):
        rho = random_density_matrix(2, seed=5)
        assert np.array_equal(sample_counts(rho.diagonal(), 500, 42), sample_counts(rho.diagonal(), 500, 42))

    def test_unbiasedness(self):
        # mean over many independent seeds within 3 standard errors
        rho = random_density_matrix(2, seed=77)
        e = default_local_weights(2, 3).energies()
        exact = e @ rho.diagonal()
        shots = 100
        vals = np.array([e @ sample_counts(rho.diagonal(), shots, seed) / shots for seed in range(1000)])
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - exact) < 3 * se + 1e-12


class TestMajorizationBound:
    """cost >= sum_k E_k lambda_k for every state, circuit and diagonal H."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        rho = random_density_matrix(n, seed=seed + 50)
        a = LayeredAnsatz.random(n, int(rng.integers(1, 3)), BlockKind.RY_CZ, rng)
        m = 2 if n == 2 else 3  # the n=2 companion global exists only up to m=2
        local = default_local_weights(n, m)
        h = local if seed % 2 == 0 else global_from_local(local, m)
        c = h.energies() @ apply_ansatz(rho, a).diagonal()
        lam = exact_eigs(rho)[0]  # descending
        floor = np.sort(h.energies()) @ lam
        assert c >= floor - 1e-10
