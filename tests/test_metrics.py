"""Tests for error functionals and the verification bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqse.ansatz import BlockKind, LayeredAnsatz, apply_ansatz
from vqse.hamiltonians import (
    AdaptiveHamiltonian,
    DegenerateSpectrumError,
    default_local_weights,
    global_from_local,
    lowest_levels,
)
from vqse.metrics import (
    bound_checks,
    bound_from_cost,
    bound_from_purity,
    build_error_report,
    default_m_hat,
    eigen_errors,
    eigenvector_error,
    runs_per_success,
)
from vqse.qmath import DensityMatrix, exact_eigs, purity
from vqse.solver import EigenEstimate, readout

from reference import basis_density_matrix, dense_eigenvector_error, mix_special_angles, random_density_matrix


def make_estimate(lambdas, bitstrings, shots=0):
    return EigenEstimate(np.array(lambdas, dtype=float), tuple(bitstrings), shots)


class TestEigenErrors:
    def test_perfect_estimates(self):
        est = make_estimate([0.5, 0.3], ["00", "01"])
        res = eigen_errors(np.array([0.5, 0.3, 0.2]), est.lambdas, 2)
        assert res.eps_lambda == 0.0 and res.eps_rel == 0.0

    def test_hand_computed_example(self):
        est = make_estimate([0.5, 0.4], ["00", "01"])
        res = eigen_errors(np.array([0.5, 0.5]), est.lambdas, 2)
        assert res.eps_lambda == pytest.approx(0.01)
        assert res.eps_rel == pytest.approx(0.04)

    def test_all_zero_estimates(self):
        est = make_estimate([0.0], ["00"])
        res = eigen_errors(np.array([1.0]), est.lambdas, 1)
        assert res.eps_lambda == pytest.approx(1.0)
        assert res.eps_rel == pytest.approx(1.0)

    def test_zero_eigenvalue_terms_excluded_and_counted(self):
        est = make_estimate([0.6, 0.2], ["00", "01"])
        res = eigen_errors(np.array([0.8, 0.0]), est.lambdas, 2)
        assert res.eps_lambda == pytest.approx(0.04 + 0.04)
        assert res.eps_rel == pytest.approx((0.2 / 0.8) ** 2)
        assert res.n_excluded == 1

    def test_stacked_rows_match_their_own_calls(self):
        # stacked rows, as the training trace passes them, against one call per row; exact 0 excluded
        exact = np.array([0.5, 0.3, 0.2, 0.0])
        rows = np.random.default_rng(3).random((2, 3, 4))
        got = eigen_errors(exact, rows, 4)
        assert got.eps_lambda.shape == got.eps_rel.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            want = eigen_errors(exact, rows[i, j], 4)
            assert got.eps_lambda[i, j] == want.eps_lambda and got.eps_rel[i, j] == want.eps_rel

    def test_insufficient_data(self):
        est = make_estimate([0.6], ["00"])
        with pytest.raises(ValueError):
            eigen_errors(np.array([1.0]), est.lambdas, 2)


class TestEigenvectorError:
    def test_pure_state_perfectly_diagonalized(self):
        rho = basis_density_matrix(2, "00")
        a = LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.zeros(4))
        est = readout(rho, a, m=1)
        assert eigenvector_error(apply_ansatz(rho, a), est) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_state_in_standard_basis(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        a = LayeredAnsatz(2, 1, BlockKind.RY_CZ, np.zeros(4))
        for m in (1, 2, 4):
            est = readout(rho, a, m=m)
            assert eigenvector_error(apply_ansatz(rho, a), est) == pytest.approx(0.0, abs=1e-12)

    def test_residual_formula(self):
        # oracle: direct |rho v - lambda v|^2 for each prepared vector
        rho = random_density_matrix(2, seed=9)
        a = LayeredAnsatz.random(2, 2, BlockKind.RY_CZ, 4)
        est = readout(rho, a, m=2)
        total = 0.0
        from vqse.ansatz import prepare_eigenvector

        for lam, z in zip(est.lambdas, est.bitstrings):
            v = prepare_eigenvector(a, z).amplitudes
            d = rho.data @ v - lam * v
            total += float(np.vdot(d, d).real)
        assert eigenvector_error(apply_ansatz(rho, a), est) == pytest.approx(total, abs=1e-14)


    @settings(max_examples=100)
    @given(data=st.data())
    def test_transformed_residual_matches_the_dense_oracle(self, data):
        # eps_v read off rho~ = V rho V^dag against V^dag |z_i> circuits and rho's dense
        # matrix, on untrained angles with exact 0, +-pi/2 and +-pi mixed in
        n = data.draw(st.integers(2, 5), label="n")
        kind = data.draw(st.sampled_from(list(BlockKind)), label="kind")
        layers = data.draw(st.integers(1, 3), label="layers")
        rank = data.draw(st.integers(1, 2**n), label="rank")
        m = data.draw(st.integers(1, 2**n), label="m")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        factor = rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank))
        factor /= np.linalg.norm(factor)
        given_factor = data.draw(st.booleans(), label="given_factor")
        rho = DensityMatrix(factor=factor) if given_factor else DensityMatrix(factor @ factor.conj().T)
        theta = rng.uniform(-np.pi, np.pi, LayeredAnsatz.n_parameters(n, layers, kind))
        share = data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="share")
        a = LayeredAnsatz(n, layers, kind, mix_special_angles(rng, theta, share))
        est = readout(rho, a, m=m)
        got = eigenvector_error(apply_ansatz(rho, a), est)
        assert abs(got - dense_eigenvector_error(rho, a, est)) < 1e-12


class TestBoundFromCost:
    def test_saturation_for_pure_diagonalized_state(self):
        # C = E_1 for a pure state aligned with the lowest level (m = 1)
        bound = bound_from_cost(cost=0.2, energies=[0.2, 0.9], purity=1.0)
        assert bound.value == pytest.approx(1.0 - (0.9 - 0.2) ** 2 / (0.9 - 0.2) ** 2)
        assert bound.value == pytest.approx(0.0)
        assert not bound.degenerate

    def test_hand_computed_maximally_mixed(self):
        # single qubit, H = I - Z: C = 1, E = (0, 2), purity 1/2
        bound = bound_from_cost(cost=1.0, energies=[0.0, 2.0], purity=0.5)
        assert bound.value == pytest.approx(0.25)
        # eps_lambda for the exact top-1 estimate 0.5 is 0 <= 0.25
        assert 0.0 <= bound.value

    def test_degenerate_when_cost_exceeds_gap(self):
        bound = bound_from_cost(cost=1.5, energies=[0.2, 0.9], purity=0.7)
        assert bound.degenerate and bound.value == pytest.approx(0.7)

    def test_rejects_unsorted_energies(self):
        with pytest.raises(ValueError):
            bound_from_cost(0.1, [0.9, 0.2], 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_bounds_hold_for_arbitrary_circuits(self, seed):
        # the inequalities hold for any angles, not only optimized ones
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        m = 2
        rho = random_density_matrix(n, rank=2, seed=seed + 60)
        a = LayeredAnsatz.random(n, 2, BlockKind.RY_CZ, rng)
        local = default_local_weights(n, m)
        est = readout(rho, a, m=m)
        lam = exact_eigs(rho)[0]
        c = local.energies() @ apply_ansatz(rho, a).diagonal()
        energies = [e for e, _ in lowest_levels(local, m + 1)]
        pur = purity(rho)
        eps_l = eigen_errors(lam, est.lambdas, m).eps_lambda
        eps_v = eigenvector_error(apply_ansatz(rho, a), est)
        cb = bound_from_cost(c, energies, pur)
        wide = readout(rho, a, m=default_m_hat(m, n))
        bp = bound_from_purity(pur, wide.lambdas, n, wide.m)
        assert eps_l <= cb.value + 1e-9
        assert eps_v <= cb.value + 1e-9
        assert eps_l <= bp + 1e-9
        assert eps_v <= bp + 1e-9
        assert bp <= cb.value + 1e-9

    @settings(max_examples=100)
    @given(data=st.data())
    def test_bounds_hold_on_random_mixtures_and_hamiltonians(self, data):
        # C5 for any angles, not only trained ones: on a uniform mixture over a
        # random rank-r subspace (an r-fold degenerate spectrum), each error is
        # under both bounds and the purity bound under the cost bound, for the
        # local, the global and an adaptive Hamiltonian with random marked bitstrings
        n = data.draw(st.integers(2, 6), label="n")
        kind = data.draw(st.sampled_from(list(BlockKind)), label="kind")
        rank = data.draw(st.integers(1, 2**n), label="rank")
        m = data.draw(st.integers(1, min(2 ** (n - 1), 4)), label="m")
        layers = data.draw(st.integers(1, 3), label="layers")
        f = data.draw(st.floats(0.0, 1.0), label="f")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        basis, _ = np.linalg.qr(rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank)))
        rho = DensityMatrix(factor=basis / np.sqrt(rank))
        a = LayeredAnsatz.random(n, layers, kind, rng)
        local = default_local_weights(n, m)
        glob = global_from_local(local, m)
        marked = [format(int(i), f"0{n}b") for i in rng.choice(2**n, m, replace=False)]
        est, wide = readout(rho, a, m=m), readout(rho, a, m=default_m_hat(m, n))
        probabilities = apply_ansatz(rho, a).diagonal()
        for h in (local, glob, AdaptiveHamiltonian(local, glob.with_bitstrings(marked), f)):
            try:
                energies = [e for e, _ in lowest_levels(h, m + 1)]
            except DegenerateSpectrumError:
                continue  # the cost bound needs m + 1 distinct lowest levels
            cost = float(h.energies() @ probabilities)
            report = build_error_report(rho, apply_ansatz(rho, a), est, cost, energies, purity(rho), wide)
            checks = bound_checks(report.eps_lambda, report.eps_v, report.bound_cost, report.bound_purity)
            assert all(c.holds for c in checks)


class TestBoundFromPurity:
    def test_pure_perfect_readout(self):
        assert bound_from_purity(1.0, [1.0], n=2, m_hat=1) == pytest.approx(0.0)

    def test_hand_computed_maximally_mixed(self):
        val = bound_from_purity(0.25, [0.25, 0.25], n=2, m_hat=2)
        assert val == pytest.approx(0.0)

    def test_monotone_in_m_hat(self):
        rho = random_density_matrix(3, seed=13)
        a = LayeredAnsatz.random(3, 2, BlockKind.RY_CZ, 5)
        pur = purity(rho)
        values = []
        for m_hat in (2, 3, 4, 6):
            est = readout(rho, a, m=m_hat)
            values.append(bound_from_purity(pur, est.lambdas, 3, m_hat))
        assert np.all(np.diff(values) <= 1e-12)

    def test_full_register_rejected(self):
        with pytest.raises(ValueError):
            bound_from_purity(1.0, [0.25] * 4, n=2, m_hat=4)


class TestRunsPerSuccess:
    def test_all_succeed(self):
        assert runs_per_success([1e-9] * 5, 1e-6) == 1.0

    def test_partial(self):
        errors = [1e-9, 1e-9, 1, 1, 1, 1, 1, 1, 1, 1]
        assert runs_per_success(errors, 1e-6) == 5.0

    def test_none_succeed(self):
        assert runs_per_success([1.0, 2.0], 1e-6) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            runs_per_success([], 1e-6)
        with pytest.raises(ValueError):
            runs_per_success([1.0], 0.0)


class TestErrorReport:
    def _report(self, tamper=None):
        rho = random_density_matrix(2, rank=2, seed=3)
        a = LayeredAnsatz.random(2, 2, BlockKind.RY_CZ, 8)
        m = 2
        local = default_local_weights(2, m)
        est = readout(rho, a, m=m)
        report = build_error_report(
            rho=rho,
            rho_t=apply_ansatz(rho, a),
            est=est,
            cost=local.energies() @ apply_ansatz(rho, a).diagonal(),
            lowest_energies=[e for e, _ in lowest_levels(local, m + 1)],
            purity=purity(rho),
            est_wide=readout(rho, a, m=default_m_hat(m, 2)),
        )
        if tamper:
            from dataclasses import replace

            report = replace(report, **tamper)
        return report

    @pytest.mark.parametrize("form", ["data", "factor"])
    def test_eigenvalue_errors_match_the_dense_oracle(self, form):
        # the report reads rho's own spectrum; a dense eigh (exact_eigs) is the oracle
        rng = np.random.default_rng(21)
        f = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        f /= np.linalg.norm(f)
        rho = DensityMatrix(f @ f.conj().T) if form == "data" else DensityMatrix(factor=f)
        a = LayeredAnsatz.random(3, 2, BlockKind.RY_CZ, 4)
        m = 2
        local = default_local_weights(3, m)
        est = readout(rho, a, m=m)
        report = build_error_report(
            rho, apply_ansatz(rho, a), est, local.energies() @ apply_ansatz(rho, a).diagonal(),
            [e for e, _ in lowest_levels(local, m + 1)], purity(rho), readout(rho, a, m=default_m_hat(m, 3)),
        )
        want = eigen_errors(exact_eigs(rho)[0], est.lambdas, m)
        assert report.eps_lambda == pytest.approx(want.eps_lambda, rel=0, abs=1e-12)
        assert report.eps_rel == pytest.approx(want.eps_rel, rel=0, abs=1e-12)

    def test_clean_report_verifies(self):
        report = self._report()
        checks = bound_checks(report.eps_lambda, report.eps_v, report.bound_cost, report.bound_purity)
        assert all(c.holds for c in checks)

    def test_tampered_eps_detected(self):
        for value in (2.0, math.nan):
            bad = self._report(tamper={"eps_lambda": value})
            checks = bound_checks(bad.eps_lambda, bad.eps_v, bad.bound_cost, bad.bound_purity)
            assert any(c.lhs == "eps_lambda" and not c.holds for c in checks), value

    def test_tampered_bound_ordering_detected(self):
        bad = self._report(tamper={"bound_purity": 5.0, "bound_cost": 4.0})
        checks = bound_checks(bad.eps_lambda, bad.eps_v, bad.bound_cost, bad.bound_purity)
        assert any((c.lhs, c.rhs) == ("bound_purity", "bound_cost") and not c.holds for c in checks)
