"""Tests for the three application experiments."""

import dataclasses
import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vqse import experiments, qmath
from vqse.ansatz import CNOT, BlockKind, LayeredAnsatz, prepare_eigenvector
from vqse.cli import load_config, parse_config_text
from vqse.experiments import (
    FactorizationNotFound,
    Gate,
    LoopConfig,
    NoiseSpec,
    SpinChainSpec,
    GROUND_DEGENERACY_TOL,
    _FieldLine,
    _bisect_sign_change,
    _golden_min,
    _product_seeking_vector,
    eigensolver_experiment,
    factorization_residual,
    locate_factorization,
    pca_experiment,
    random_low_rank_state,
    run_circuit,
    w_preparation_gates,
    w_state,
    w_state_mitigation_runs,
    xy_ground_reduced,
    xy_hamiltonian,
    xy_spectroscopy_sweep,
    xy_sweep_point,
)
from vqse.qmath import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PureState,
    amplitude_damping_channel,
    apply_channel,
    apply_unitary,
    depolarizing_channel,
    exact_eigs,
    fidelity_pure,
    purity,
)
from vqse.solver import read_estimate, readout

from reference import (
    basis_density_matrix,
    eigenvector_preparation_gates,
    locate_factorization_all_candidates,
    product_seeking_vector_svd,
)

FAST_LOOP = LoopConfig(layers=2, kind=BlockKind.RY_CZ, n_max=40, s=10)
# the rings of C7: transverse ferromagnet, and the antiferromagnet of xy_afm_shots
FM_RING = SpinChainSpec(N=8, J_x=1.0, J_y=0.5, gamma=0.0, keep=4)
AFM_RING = SpinChainSpec(N=8, J_x=-1.0, J_y=-0.5, gamma=np.pi / 3, keep=4)
# a ferromagnet in a tilted field: its product point is a residual minimum, not a crossing
TILTED_FM_RING = SpinChainSpec(N=8, J_x=1.0, J_y=0.5, gamma=np.pi / 6, keep=4)
# the factorizing-field searches pinned here: the xy_afm_shots grid and C7's FM grid
FIELD_GRIDS = {"afm": (AFM_RING, [0.9, 1.0, 1.1]), "fm": (FM_RING, np.arange(0.4, 1.01, 0.05))}


def _shipped_grid(name):
    """The h_grid of configs/<name>.cfg, as a run reads it."""
    path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg"
    return load_config(parse_config_text(path.read_text()), {})[2]["h_grid"]


@functools.cache
def _factorizing_field(ring):
    return locate_factorization(*FIELD_GRIDS[ring])


class TestRandomLowRankState:
    def test_no_ancillas_gives_pure_state(self):
        rho = random_low_rank_state(3, 0, seed=4)
        assert purity(rho) == pytest.approx(1.0)

    def test_rank_sixteen(self):
        rho = random_low_rank_state(4, 4, seed=0)
        w = exact_eigs(rho)[0]
        assert np.count_nonzero(w > 1e-12) == 16
        assert w.sum() == pytest.approx(1.0)

    def test_rank_bounded_by_ancilla_dimension(self):
        rho = random_low_rank_state(6, 2, seed=1)
        w = exact_eigs(rho)[0]
        assert np.count_nonzero(w > 1e-12) <= 4

    def test_real_and_deterministic(self):
        a = random_low_rank_state(4, 4, seed=7)
        b = random_low_rank_state(4, 4, seed=7)
        assert np.array_equal(a.data, b.data)
        assert np.abs(a.data.imag).max() < 1e-12

    @pytest.mark.parametrize("n, n_ancilla", [(3, 0), (4, 1), (6, 2)])
    def test_factor_is_float64(self, n, n_ancilla):
        # a real factor keeps the rycz walk in real arithmetic
        assert random_low_rank_state(n, n_ancilla, seed=3).factor().dtype == np.float64

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            random_low_rank_state(9, 4, seed=0)

    @pytest.mark.parametrize("n, n_ancilla, name", [(0, 2, "n"), (-1, 2, "n"), (3, -1, "n_ancilla")])
    def test_bad_sizes_refused_by_name(self, n, n_ancilla, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            random_low_rank_state(n, n_ancilla, seed=0)

    @pytest.mark.parametrize("n, n_ancilla, seed", [(3, 0, 4), (4, 4, 7), (6, 2, 1), (8, 2, 1234)])
    def test_row_by_row_draw_is_column_zero_of_the_full_draw(self, n, n_ancilla, seed):
        # the seeded stream of a (d, d) draw, kept bit for bit
        g = np.random.default_rng(seed).standard_normal((2 ** (n + n_ancilla),) * 2)
        psi = g[:, 0] / np.linalg.norm(g[:, 0])
        got = random_low_rank_state(n, n_ancilla, seed).factor()
        assert np.array_equal(got, psi.reshape(2**n, 2**n_ancilla))


def pauli_chain_hamiltonian(spec, h):
    """H(h) = -sum_j (J_x Sx_j Sx_{j+1} + J_y Sy_j Sy_{j+1}) - h cos(gamma) sum Sz - h sin(gamma) sum Sx.

    Built from Pauli matrices by np.kron, S = sigma / 2, one bond per site j
    to j + 1 mod N (so N = 2 counts its one pair twice).
    """
    N = spec.N

    def spins(*site_ops):
        ops = [PAULI_I] * N
        for j, op in site_ops:
            ops[j] = op / 2
        return functools.reduce(np.kron, ops)

    ham = np.zeros((2**N, 2**N), dtype=complex)
    for j in range(N):
        k = (j + 1) % N
        ham -= spec.J_x * spins((j, PAULI_X), (k, PAULI_X)) + spec.J_y * spins((j, PAULI_Y), (k, PAULI_Y))
        ham -= h * (np.cos(spec.gamma) * spins((j, PAULI_Z)) + np.sin(spec.gamma) * spins((j, PAULI_X)))
    assert np.abs(ham.imag).max() == 0.0
    return ham.real


class TestXYChain:
    @pytest.mark.parametrize("ring", [FM_RING, AFM_RING, TILTED_FM_RING], ids=["fm", "afm", "tilted_fm"])
    @pytest.mark.parametrize("h", [0.3, 1.0, 2.5])
    def test_reduced_ground_factor_is_float64(self, ring, h):
        # conjugate-pair sectors are complex, but the ground basis built from them is real
        rho, _ = xy_ground_reduced(ring, h)
        assert rho.factor().dtype == np.float64

    def test_hamiltonian_is_symmetric(self):
        spec = SpinChainSpec(N=6, J_x=1.0, J_y=0.5, gamma=np.pi / 3, keep=3)
        ham = xy_hamiltonian(spec, 0.8)
        assert np.abs(ham - ham.T).max() < 1e-12

    def test_translation_invariance(self):
        spec = SpinChainSpec(N=5, J_x=-1.0, J_y=-0.5, gamma=0.4, keep=2)
        ham = xy_hamiltonian(spec, 0.7)
        d = 2**spec.N
        # cyclic shift permutation: qubit q -> q+1 (mod N)
        perm = np.zeros(d, dtype=int)
        for i in range(d):
            z = format(i, f"0{spec.N}b")
            perm[i] = int(z[-1] + z[:-1], 2)
        shifted = ham[np.ix_(perm, perm)]
        assert np.abs(shifted - ham).max() < 1e-10

    def test_noninteracting_limit_is_polarized_product(self):
        spec = SpinChainSpec(N=6, J_x=0.0, J_y=0.0, gamma=0.0, keep=3)
        red, energy = xy_ground_reduced(spec, 1.0)
        w = exact_eigs(red)[0]
        assert w[0] == pytest.approx(1.0)
        # all spins aligned with the field: energy -N h / 2
        assert energy == pytest.approx(-3.0)

    def test_reduced_spectrum_matches_schmidt_oracle(self):
        spec = SpinChainSpec(N=8, J_x=1.0, J_y=0.5, gamma=0.0, keep=4)
        red, _ = xy_ground_reduced(spec, 0.9)
        w, v = np.linalg.eigh(xy_hamiltonian(spec, 0.9))
        svals = np.linalg.svd(v[:, 0].reshape(2**4, 2**4), compute_uv=False)
        lam = exact_eigs(red)[0]
        assert np.abs(lam - np.sort(svals**2)[::-1]).max() < 1e-10

    @settings(max_examples=40)
    @given(
        N=st.integers(2, 8),
        gamma=st.one_of(st.just(0.0), st.floats(0.0, np.pi)),
        jx=st.floats(-2.0, 2.0),
        jy=st.floats(-2.0, 2.0),
        h=st.floats(0.0, 3.0),
    )
    def test_affine_field_line_matches_dense(self, N, gamma, jx, jy, h):
        spec = SpinChainSpec(N=N, J_x=jx, J_y=jy, gamma=gamma, keep=1)
        ham = xy_hamiltonian(spec, h)
        want = pauli_chain_hamiltonian(spec, h)
        assert np.abs(ham - want).max() <= 1e-13
        if gamma == 0.0:
            odd = np.array([bin(i).count("1") % 2 for i in range(2**N)], dtype=bool)
            assert np.all(ham[np.ix_(~odd, odd)] == 0.0)

    @settings(max_examples=60)
    @given(
        N=st.integers(2, 8),
        gamma=st.one_of(st.just(0.0), st.floats(0.0, np.pi)),
        jx=st.floats(-2.0, 2.0),
        jy=st.floats(-2.0, 2.0),
        h=st.floats(0.0, 3.0),
    )
    # degenerate ground levels: across the real sectors m = 0 and N/2 (C7's AFM
    # ring at h = 1), inside one conjugate pair (gamma = 0 and not), across two
    # pairs, and the whole space at H = 0
    @example(N=8, gamma=np.pi / 3, jx=-1.0, jy=-0.5, h=1.0)
    @example(N=3, gamma=0.0, jx=-1.0, jy=-0.5, h=0.1)
    @example(N=5, gamma=0.3, jx=-1.0, jy=-0.5, h=0.2)
    @example(N=3, gamma=0.0, jx=-1.0, jy=-1.0, h=0.0)
    @example(N=4, gamma=0.0, jx=0.0, jy=0.0, h=0.0)
    # an empty sector: at N = 2 no even-parity representative has m = 1
    @example(N=2, gamma=0.0, jx=1.0, jy=0.5, h=0.5)
    # a simple level with a gap of 1.7e-8, where the dense vector's Schmidt values are off by 7.7e-12
    @example(N=5, gamma=1.0227576148799074, jx=0.2585847053690711, jy=1.0227576148799074, h=1.192092896e-07)
    def test_translation_sectors_match_dense(self, N, gamma, jx, jy, h):
        keep = N // 2
        spec = SpinChainSpec(N=N, J_x=jx, J_y=jy, gamma=gamma, keep=keep)
        line = spec._line
        # a conjugate pair m, N - m (0 < m < N/2) is held once, as sector m's complex block
        copies = [2 if np.iscomplexobj(sector.coupling) else 1 for sector in line.sectors]
        assert sum(n * sector.coupling.shape[0] for n, sector in zip(copies, line.sectors)) == 2**N
        for n, sector in zip(copies, line.sectors):
            assert sector.coupling.shape[0] > 0
            dtype = complex if n == 2 else float
            assert sector.coupling.dtype == sector.field.dtype == sector.amplitude.dtype == dtype
        if gamma == 0.0:
            # with no x field F = -sum Sz, diagonal with entries (ones - N/2): one parity per sector
            for sector in line.sectors:
                ones = np.diag(sector.field).real + N / 2
                assert np.unique(ones % 2).size <= 1
        w, v = np.linalg.eigh(xy_hamiltonian(spec, h))
        levels = np.sort(np.concatenate([
            np.repeat(np.linalg.eigvalsh(sector.coupling + h * sector.field), n)
            for n, sector in zip(copies, line.sectors)
        ]))
        assert np.abs(levels - w).max() <= 1e-12
        e0, i = line._levels(h)[0]
        e1 = levels[1]
        assert e0 == levels[0]
        # the sector ground basis is orthonormal and spans the dense ground space
        space, e0_space, i_space = line.ground_space(h)
        dense = v[:, w - w[0] <= GROUND_DEGENERACY_TOL]
        assert (e0_space, i_space) == (e0, i)
        assert space.shape == dense.shape
        assert np.abs(space.T @ space - np.eye(space.shape[1])).max() <= 1e-12
        # the dense eigh's own ground space is accurate only to about 2^N eps |H| / gap,
        # gap being the distance to the next level: at N = 3, Jx = 1, Jy = 2,
        # h = 1e-8, gamma = 0 (gap 7e-9) its vector mixes the two parities at 3e-8
        gap = w[dense.shape[1]] - w[dense.shape[1] - 1] if dense.shape[1] < 2**N else np.inf
        accuracy = 2**N * np.finfo(float).eps * np.abs(w).max() / gap
        missed = np.linalg.norm(space @ (space.T @ dense) - dense, axis=0)
        assert np.all(missed <= max(1e-10, accuracy) * np.linalg.norm(dense, axis=0))
        # no pair scan here: a degenerate level's pick is checked in test_degenerate_ground_pick_*
        if e1 - e0 > GROUND_DEGENERACY_TOL:
            # a simple level lies in a real sector (m = 0 or N/2), whose weights are real
            assert not np.iscomplexobj(line.sectors[i].amplitude)
            u, s, e0_ground, i_ground = line.ground(h)
            assert (e0_ground, i_ground) == (e0, i)
            # Schmidt values as accurate as the dense vector they are checked against
            want = np.linalg.svd(v[:, 0].reshape(2**keep, -1), compute_uv=False)
            assert np.abs(s - want).max() <= max(1e-12, accuracy)

    def test_sectors_built_on_first_use(self):
        ring = dataclasses.replace(FM_RING)
        assert "_line" not in vars(ring)
        factorization_residual(ring, 0.5)
        line = ring._line
        assert "sectors" in vars(line)
        # the chain keeps its line: the second call reads the field the first one solved
        xy_ground_reduced(ring, 0.5)
        assert ring._line is line and list(line._grounds) == [0.5]
        fresh = _FieldLine(FM_RING)
        assert "sectors" not in vars(fresh)
        fresh.ground(0.5)
        assert "sectors" in vars(fresh)

    def test_one_line_per_chain_each_field_solved_once(self, monkeypatch):
        # the xy_afm_shots run: the search, the residual at its h*, then the sweep
        builds, solved, picks = [], [], []
        real_sectors, real_space = _FieldLine.sectors, _FieldLine.ground_space
        real_pick = experiments._product_seeking_vector
        sectors = functools.cached_property(lambda line: builds.append(line) or real_sectors.func(line))
        sectors.__set_name__(_FieldLine, "sectors")
        monkeypatch.setattr(_FieldLine, "sectors", sectors)
        monkeypatch.setattr(_FieldLine, "ground_space", lambda line, h: solved.append(h) or real_space(line, h))
        monkeypatch.setattr(experiments, "_product_seeking_vector",
                            lambda space, *args: picks.append(space.shape[1]) or real_pick(space, *args))
        ring = dataclasses.replace(AFM_RING)  # a cold line
        grid = [0.9, 1.0, 1.1]
        h_star = locate_factorization(ring, grid)
        searched = len(solved)
        factorization_residual(ring, h_star)
        xy_spectroscopy_sweep(ring, grid, m=3, loop=FAST_LOOP, runs=1, seed=1)
        assert len(builds) == 1
        # the residual re-reads the winning candidate, the sweep the scanned grid fields
        assert len(solved) == searched == len(set(solved))
        # the doublets at h = 1 and at h*, each picked once
        assert picks.count(2) == 2

    @pytest.mark.parametrize("ring, field", [
        ("afm", "0.9"),
        ("fm", "0.5"),
        ("afm", "1"),
        ("afm", "1-ulp"),
        ("afm", "1+ulp"),
        ("fm", "h*"),
    ])
    def test_memoized_ground_matches_a_fresh_line(self, ring, field):
        spec = {"afm": AFM_RING, "fm": FM_RING}[ring]
        h = {
            "0.9": 0.9,
            "0.5": 0.5,
            "1": 1.0,
            "h*": _factorizing_field(ring),
            "1-ulp": np.nextafter(1.0, 0.0),
            "1+ulp": np.nextafter(1.0, 2.0),
        }[field]
        shared = spec._line
        first = shared.ground(h)
        memoized = shared.ground(float(h))
        assert memoized is first
        fresh = _FieldLine(spec).ground(h)
        assert all(np.array_equal(got, want) for got, want in zip(memoized, fresh))
        u, s = memoized[:2]
        assert not u.flags.writeable and not s.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s[0] = 0.0

    @pytest.mark.parametrize("ring, field", [
        ("afm", "1"),
        ("afm", "h*"),
        ("afm", "1-ulp"),
        ("afm", "1+ulp"),
        ("fm", "h*"),
    ])
    def test_degenerate_ground_pick_does_not_depend_on_the_basis(self, ring, field):
        # at each field the ground level is a doublet holding two product states
        # (on the AFM ring, translates with overlap 0.316); the stated rule picks
        # the same one from the sector basis, the dense eigh basis and any mixing
        spec = {"afm": AFM_RING, "fm": FM_RING}[ring]
        h = {
            "1": 1.0,
            "h*": _factorizing_field(ring),
            "1-ulp": np.nextafter(1.0, 0.0),
            "1+ulp": np.nextafter(1.0, 2.0),
        }[field]
        w, v = np.linalg.eigh(xy_hamiltonian(spec, h))
        bases = [_FieldLine(spec).ground_space(h)[0], v[:, w - w[0] <= GROUND_DEGENERACY_TOL]]
        assert bases[0].shape[1] == bases[1].shape[1] == 2
        rng = np.random.default_rng(17)
        for basis in bases[:2]:
            for _ in range(5):
                q, _ = np.linalg.qr(rng.standard_normal((basis.shape[1],) * 2))
                bases.append(basis @ q)
        picks = [_product_seeking_vector(b, spec.keep, spec.gamma) for b in bases]
        picks = [p / np.linalg.norm(p) for p in picks]
        for pick in picks[1:]:
            assert 1.0 - (picks[0] @ pick) ** 2 <= 1e-12
        if ring == "afm":
            # site 0 points along the field: (<sigma^x_0>, <sigma^z_0>) = (sin gamma, cos gamma)
            up, down = picks[0].reshape(2, -1)
            bloch = np.array([2 * up @ down, up @ up - down @ down])
            assert np.abs(bloch - [np.sin(spec.gamma), np.cos(spec.gamma)]).max() <= 1e-6

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SpinChainSpec(N=13, J_x=1.0, J_y=0.5, gamma=0.0, keep=4)
        with pytest.raises(ValueError):
            SpinChainSpec(N=6, J_x=1.0, J_y=0.5, gamma=0.0, keep=6)


SCAN_ANGLES = np.linspace(0.0, np.pi, 361, endpoint=False)


def top_singular_squared(vectors, keep):
    """lambda_1 of each row of `vectors` (one or a stack), from its (kept sites x rest) matrix's SVD."""
    return np.linalg.svd(vectors.reshape(vectors.shape[:-1] + (2**keep, -1)), compute_uv=False)[..., 0] ** 2


@st.composite
def ground_pairs(draw, side):
    """A random real 2-D space on N sites with 2^N amplitudes, keep below, at or above N - keep; and a field angle."""
    if side == "at":
        N = draw(st.sampled_from([2, 4, 6, 8]))
        keep = N // 2
    else:
        N = draw(st.integers(3, 8))
        keep = draw(st.integers(1, (N - 1) // 2))
        keep = keep if side == "below" else N - keep
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space, _ = np.linalg.qr(rng.standard_normal((2**N, 2)))
    return space, keep, draw(st.floats(0.0, np.pi))


class TestPencilPick:
    """`_product_seeking_vector` scores the pair's mixed vectors by the top eigvalsh of one Gram pencil."""

    @pytest.mark.parametrize("side", ["below", "at", "above"])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_pencil_matches_the_svd_at_every_scan_angle(self, side, data):
        space, keep, gamma = data.draw(ground_pairs(side))
        scans, real = [], np.linalg.eigvalsh
        with mock.patch.object(np.linalg, "eigvalsh", lambda a: scans.append(real(a)[..., -1]) or real(a)):
            pick = _product_seeking_vector(space, keep, gamma)
        assert scans[0].shape == (361,)  # the scan, then single angles of the golden refinement
        mixed = np.cos(SCAN_ANGLES)[:, None] * space[:, 0] + np.sin(SCAN_ANGLES)[:, None] * space[:, 1]
        assert np.abs(scans[0] - top_singular_squared(mixed, keep)).max() <= 1e-12
        oracle = product_seeking_vector_svd(space, keep, gamma)
        assert abs(top_singular_squared(pick, keep) - top_singular_squared(oracle, keep)) <= 1e-12

    @pytest.mark.parametrize("ring, field", [
        ("afm", "1"),
        ("afm", "h*"),
        ("afm", "1-ulp"),
        ("afm", "1+ulp"),
        ("fm", "h*"),
    ])
    def test_ring_doublet_pick_matches_the_svd_scan(self, ring, field):
        spec = {"afm": AFM_RING, "fm": FM_RING}[ring]
        h = {
            "1": 1.0,
            "h*": _factorizing_field(ring),
            "1-ulp": np.nextafter(1.0, 0.0),
            "1+ulp": np.nextafter(1.0, 2.0),
        }[field]
        space = _FieldLine(spec).ground_space(h)[0]
        assert space.shape[1] == 2
        pick, oracle = (f(space, spec.keep, spec.gamma) for f in (_product_seeking_vector, product_seeking_vector_svd))
        assert 1.0 - (pick @ oracle) ** 2 / ((pick @ pick) * (oracle @ oracle)) <= 1e-12


# the chains of test_afm_crossing_on_three_point_grid and test_transverse_point_on_coarse_grids
CROSSING_CHAINS = [
    *((AFM_RING, grid) for grid in (
        [0.9, 1.0, 1.1], [0.6, 0.9, 1.2, 1.5], [0.95, 1.05, 1.15], [0.85, 1.05, 1.25], [0.7, 1.05, 1.4],
        [0.5, 0.8, 1.1, 1.4], [0.99, 1.2, 1.4], np.arange(0.4, 2.01, 0.2), np.arange(0.3, 2.01, 0.25),
        np.arange(0.5, 1.51, 0.1), np.linspace(0.1, 2.0, 13),
    )),
    *((FM_RING, grid) for grid in (
        np.arange(0.4, 1.01, 0.1), np.arange(0.3, 2.01, 0.1), [0.3, 0.8, 1.3], [0.5, 0.75, 1.0], [0.6, 0.9, 1.2],
        np.arange(0.4, 1.01, 0.05),
    )),
]


class TestFactorization:
    def test_transverse_analytic_point(self):
        # transverse field: the product point sits at sqrt(Jx Jy) exactly
        spec = SpinChainSpec(N=8, J_x=1.0, J_y=0.5, gamma=0.0, keep=4)
        h_star = locate_factorization(spec, np.arange(0.4, 1.01, 0.05))
        assert abs(h_star - np.sqrt(0.5)) < 1e-3
        red, _ = xy_ground_reduced(spec, h_star)
        assert 1.0 - exact_eigs(red)[0][0] < 1e-8

    @settings(max_examples=20)
    @given(
        N=st.sampled_from([4, 6, 8]),
        sign=st.sampled_from([1.0, -1.0]),
        size=st.floats(0.3, 2.0),
        ratio=st.floats(0.05, 0.95),
    )
    @example(N=8, sign=1.0, size=1.0, ratio=0.5)  # test_transverse_analytic_point's chain
    def test_closed_form_factorizing_field(self, N, sign, size, ratio):
        # with no x field and couplings of one sign, h_f = sqrt(J_x J_y)
        # (Kurmann, Thomas & Mueller, Physica A 112, 235 (1982)), a formula the search does not use
        J_x = sign * size
        spec = SpinChainSpec(N=N, J_x=J_x, J_y=ratio * J_x, gamma=0.0, keep=N // 2)
        h_star = locate_factorization(spec, np.linspace(0.05, 2.05, 11))
        assert abs(h_star - np.sqrt(spec.J_x * spec.J_y)) <= 1e-10

    def test_afm_nontransverse_point(self):
        # declared AFM configuration factorizes exactly at h = 1
        spec = SpinChainSpec(N=6, J_x=-1.0, J_y=-0.5, gamma=np.pi / 3, keep=3)
        h_star = locate_factorization(spec, np.arange(0.5, 1.51, 0.1))
        assert abs(h_star - 1.0) < 1e-6
        red, _ = xy_ground_reduced(spec, h_star)
        assert 1.0 - exact_eigs(red)[0][0] < 1e-8

    @pytest.mark.parametrize("grid", [
        np.arange(0.4, 1.01, 0.1),
        np.arange(0.3, 2.01, 0.1),
        [0.3, 0.8, 1.3],
        [0.5, 0.75, 1.0],
        [0.6, 0.9, 1.2],
        np.arange(0.4, 1.01, 0.05),  # C7's
    ], ids=["0.4-1.0", "0.3-2.0", "0.3-1.3x3", "0.5-1.0x3", "0.6-1.2x3", "C7"])
    def test_transverse_point_on_coarse_grids(self, grid):
        # the finite ring's ground level crosses N/2 times up to sqrt(Jx Jy);
        # each crossing changes the ground sector, whatever the grid spacing
        h_star = locate_factorization(FM_RING, grid)
        assert abs(h_star - np.sqrt(0.5)) <= 1e-12
        assert factorization_residual(FM_RING, h_star) < 1e-12

    @pytest.mark.parametrize("grid", [
        [0.9, 1.0, 1.1],
        [0.6, 0.9, 1.2, 1.5],
        [0.95, 1.05, 1.15],
        [0.85, 1.05, 1.25],
        [0.7, 1.05, 1.4],
        [0.5, 0.8, 1.1, 1.4],
        [0.99, 1.2, 1.4],
        np.arange(0.4, 2.01, 0.2),
        np.arange(0.3, 2.01, 0.25),
        np.arange(0.5, 1.51, 0.1),  # C7's
    ], ids=lambda grid: f"{grid[0]:g}-{grid[-1]:g}x{len(grid)}")
    def test_afm_crossing_on_three_point_grid(self, grid):
        # at gamma = pi/3, h = 1 is an exact level crossing (ground momentum
        # 0 against pi), not a smooth minimum of 1 - lambda_1; where two earlier
        # crossings share a grid cell with it, halving the cells separates them
        h_star = locate_factorization(AFM_RING, grid)
        assert abs(h_star - 1.0) <= 1e-12
        assert factorization_residual(AFM_RING, h_star) < 1e-12

    @pytest.mark.parametrize("ring", [AFM_RING, TILTED_FM_RING], ids=["afm", "tilted-fm"])
    def test_residual_minimum_on_a_simple_ground_level(self, ring):
        # the ground sector is the same at every grid point, so no crossing is
        # bisected: only the golden-searched minimum of 1 - lambda_1 finds h*
        grid = [1.7, 1.9, 2.1]
        h_star = locate_factorization(ring, grid)
        assert abs(h_star - 1.931853) <= 1e-5
        assert factorization_residual(ring, h_star) < 1e-8
        assert len({ring._line.ground(h)[3] for h in grid}) == 1
        # the dense reference: a simple ground level whose eigh vector is a product
        w, v = np.linalg.eigh(xy_hamiltonian(ring, h_star))
        assert w[1] - w[0] > 0.5
        s = np.linalg.svd(v[:, 0].reshape(2**ring.keep, -1), compute_uv=False)
        assert 1.0 - s[0] ** 2 < 1e-12

    @pytest.fixture
    def golden_calls(self, monkeypatch):
        # the search's golden calls; the product-seeking angle scan makes its own
        calls = []

        def counted(f, *args, **kwargs):
            if f.__qualname__.startswith("locate_factorization."):
                calls.append(args)
            return _golden_min(f, *args, **kwargs)

        monkeypatch.setattr(experiments, "_golden_min", counted)
        return calls

    @pytest.mark.parametrize("ring, grid, solves", [
        (AFM_RING, [0.9, 1.0, 1.1], 4),  # three grid points and the crossing
        (FM_RING, _shipped_grid("xy_fm_transverse"), 16),  # 13 grid points and three crossings
    ], ids=["afm-xy_afm_shots", "fm-shipped"])
    def test_golden_search_skipped_when_a_crossing_suffices(self, golden_calls, ring, grid, solves):
        ring = dataclasses.replace(ring)  # a cold line
        h_star = locate_factorization(ring, grid)
        assert factorization_residual(ring, h_star) < 1e-8
        assert golden_calls == []
        assert len(ring._line._grounds) == solves

    @pytest.mark.parametrize("ring", [AFM_RING, TILTED_FM_RING], ids=["afm", "tilted-fm"])
    def test_golden_search_runs_when_no_crossing_is_bracketed(self, golden_calls, ring):
        locate_factorization(dataclasses.replace(ring), [1.7, 1.9, 2.1])
        assert len(golden_calls) >= 1

    @pytest.mark.parametrize("ring, grid", [
        (AFM_RING, _shipped_grid("xy_afm")),
        (FM_RING, _shipped_grid("xy_fm_transverse")),
        (AFM_RING, [0.9, 1.0, 1.1]),
        (FM_RING, [0.3, 0.8, 1.3]),
        (AFM_RING, [0.7, 1.05, 1.4]),
        (AFM_RING, np.linspace(0.1, 2.0, 13)),
        (AFM_RING, [1.7, 1.9, 2.1]),
        (TILTED_FM_RING, [1.7, 1.9, 2.1]),
        (FM_RING, np.arange(0.4, 1.01, 0.05)),
        (AFM_RING, np.arange(0.5, 1.51, 0.1)),
    ], ids=[
        "afm-shipped", "fm-shipped", "afm-0.9-1.1x3", "fm-0.3-1.3x3", "afm-0.7-1.4x3",
        "afm-0.1-2.0x13", "afm-1.7-2.1x3", "tilted-fm-1.7-2.1x3", "fm-C7", "afm-C7",
    ])
    def test_same_field_as_the_all_candidates_rule(self, ring, grid):
        # crossings first, golden search only as fallback: the same float as
        # weighing the golden minimum against every crossing in every round
        ring = dataclasses.replace(ring)
        assert locate_factorization(ring, grid) == locate_factorization_all_candidates(ring, grid)

    def test_search_cost_in_full_diagonalizations(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(a, *args, _real=getattr(np.linalg, name), **kwargs):
                calls.append(a.shape[-1])
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        locate_factorization(dataclasses.replace(AFM_RING), [0.9, 1.0, 1.1])
        assert calls.count(2**AFM_RING.N) <= 144

    def test_search_diagonalizes_full_size_only_at_the_crossing(self, monkeypatch):
        # every level and ground vector comes from the translation sectors, the
        # degenerate ones too: the AFM crossing, its grid point h = 1 and the
        # FM search's crossings
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(a, *args, _real=getattr(np.linalg, name), **kwargs):
                calls.append(a.shape[-1])
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        afm, fm = dataclasses.replace(AFM_RING), dataclasses.replace(FM_RING)  # cold lines
        locate_factorization(afm, [0.9, 1.0, 1.1])
        xy_ground_reduced(afm, 1.0)
        locate_factorization(fm, FIELD_GRIDS["fm"][1])
        assert calls and calls.count(2**AFM_RING.N) == 0

    @pytest.fixture
    def crossings(self, monkeypatch):
        # (f, returned field, evaluations of f) of each crossing the search finds
        found = []

        def counted(f, lo, hi):
            seen = []
            x = _bisect_sign_change(lambda h: seen.append(h) or f(h), lo, hi)
            found.append((f, x, len(seen)))
            return x

        monkeypatch.setattr(experiments, "_bisect_sign_change", counted)
        return found

    @pytest.mark.parametrize("ring, grid", CROSSING_CHAINS, ids=[
        f"{'afm' if ring is AFM_RING else 'fm'}-{grid[0]:g}-{grid[-1]:g}x{len(grid)}" for ring, grid in CROSSING_CHAINS
    ])
    def test_crossing_takes_few_evaluations_and_ends_at_adjacent_floats(self, crossings, ring, grid):
        # regula falsi, then bisection: 4-26 evaluations of E_a - E_b per crossing
        # on these chains, where bisection alone took 48-53
        locate_factorization(dataclasses.replace(ring), grid)
        assert crossings
        for f, x, evaluations in crossings:
            assert evaluations <= 30
            lo = x if f(x) <= 0 else np.nextafter(x, -np.inf)
            assert f(lo) <= 0 < f(np.nextafter(lo, np.inf))
        assert sum(count for _, _, count in crossings) <= 20 * len(crossings)

    def test_crossing_on_a_grid_point_takes_four_evaluations(self, crossings):
        # E_a - E_b is exactly 0 at the xy_afm_shots grid point h = 1: the secant point
        # rounds onto it, and the inward steps of one and two ulps bracket the sign change
        h_star = locate_factorization(dataclasses.replace(AFM_RING), [0.9, 1.0, 1.1])
        (f, x, evaluations), = crossings
        assert f(1.0) == 0.0 and evaluations == 4
        assert 0 < 1.0 - h_star <= 4 * np.spacing(1.0)

    def test_crossing_ends_read_the_grid_levels(self, monkeypatch):
        # the scan solved both sectors' levels at the grid ends, so of the four evaluations of
        # E_a - E_b only the two inward steps solve, one eigvalsh per sector: 4 calls, not 8
        solved, search, eigvalsh = [], _bisect_sign_change, np.linalg.eigvalsh

        def counted(f, lo, hi):
            with mock.patch.object(np.linalg, "eigvalsh", lambda a: solved.append(a.shape) or eigvalsh(a)):
                return search(f, lo, hi)

        monkeypatch.setattr(experiments, "_bisect_sign_change", counted)
        h_star = locate_factorization(dataclasses.replace(AFM_RING), [0.9, 1.0, 1.1])
        assert len(solved) == 4
        assert h_star.hex() == "0x1.ffffffffffffep-1"  # the kept levels change no bit of h*

    @settings(max_examples=50)
    @given(root=st.floats(0.1, 1.0), power=st.sampled_from([1, 3]), lo=st.floats(-1.0, 0.1))
    def test_sign_change_of_a_monotone_function_is_found_exactly(self, root, power, lo):
        # (h - root)^power is <= 0 up to root and > 0 above it; an end may be the root itself
        f = lambda h: (h - root) ** power  # noqa: E731
        x = _bisect_sign_change(f, min(lo, root), 1.0)
        assert (x if f(x) <= 0 else np.nextafter(x, -np.inf)) == root

    @pytest.mark.parametrize("rounds", [0, 10, 59])
    def test_golden_search_evaluates_once_per_round(self, rounds):
        seen = []
        x = _golden_min(lambda h: seen.append(h) or (h - 0.3) ** 2, 0.0, 1.0, rounds)
        assert len(seen) == rounds + 2
        assert abs(x - 0.3) <= 0.5 * 0.6180339887498949**rounds + 1e-7

    def test_noninteracting_everywhere_factorized(self):
        spec = SpinChainSpec(N=4, J_x=0.0, J_y=0.0, gamma=0.0, keep=2)
        h_star = locate_factorization(spec, [0.2, 0.5, 0.8])
        red, _ = xy_ground_reduced(spec, h_star)
        assert 1.0 - exact_eigs(red)[0][0] < 1e-8

    def test_residual_is_never_negative(self):
        # S_0^2 of the normalized product vector rounds to just above 1 at the
        # h* found on the xy_afm_shots grid
        h_star = locate_factorization(AFM_RING, [0.9, 1.0, 1.1])
        for h in (1.0, h_star):
            assert factorization_residual(AFM_RING, h) >= 0.0

    def test_zero_hamiltonian_is_refused_up_front(self):
        # J_x = J_y = 0 makes H(0) = 0, whose 2^N-fold ground space would send
        # the product-seeking search over every pair of ground vectors
        spec = SpinChainSpec(N=3, J_x=0.0, J_y=0.0, gamma=0.0, keep=1)
        with mock.patch("vqse.experiments._product_seeking_vector") as scan:
            with pytest.raises(ValueError, match="J_x = J_y = 0"):
                locate_factorization(spec, [-1.0, 0.5, 1.0])
            with pytest.raises(ValueError, match="J_x = J_y = 0"):
                xy_ground_reduced(spec, 0.0)
            with pytest.raises(ValueError, match="J_x = J_y = 0"):
                factorization_residual(spec, 0.0)
        scan.assert_not_called()
        # away from h = 0 the same chain is a field alone, and factorized
        assert factorization_residual(spec, 0.5) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_are_refused_up_front(self, bad):
        # sorted() can leave a NaN inside the grid, between finite values
        for grid in ([0.9, bad, 1.1], [bad, 0.9, 1.0], [0.9, 1.0, bad]):
            with pytest.raises(ValueError, match="finite"):
                locate_factorization(AFM_RING, grid)
        with pytest.raises(ValueError, match="finite"):
            factorization_residual(AFM_RING, bad)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1e-8])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            locate_factorization(AFM_RING, [0.9, 1.0, 1.1], tolerance)

    def test_not_found_raises(self):
        # in-plane field on the ferromagnet admits no product ground state
        spec = SpinChainSpec(N=6, J_x=1.0, J_y=0.5, gamma=np.pi / 2, keep=3)
        with pytest.raises(FactorizationNotFound):
            locate_factorization(spec, np.arange(0.3, 1.21, 0.1))


# the noise model of configs/wstate.cfg
SHIPPED_NOISE = NoiseSpec(p_depol_1q=0.002, p_depol_2q=0.02)


def gate_by_gate(n, gates, noise):
    """The noisy circuit from the public calls: unitary, depolarizing, then damping per target."""
    rho = basis_density_matrix(n, 0)
    for g in gates:
        rho = apply_unitary(rho, g.matrix, g.targets)
        p = noise.p_depol_1q if len(g.targets) == 1 else noise.p_depol_2q
        if p > 0:
            rho = apply_channel(rho, depolarizing_channel(p, len(g.targets)), g.targets)
        if noise.gamma_ad > 0:
            for q in g.targets:
                rho = apply_channel(rho, amplitude_damping_channel(noise.gamma_ad), (q,))
    return rho


@st.composite
def noisy_circuits(draw, on):
    """n in [1, 4], 1-6 random 1- and 2-qubit unitaries, and noise rates switched by `on`.

    Pairs are adjacent ascending, adjacent descending, or at least two
    qubits apart in either order.
    """
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layouts = ["one"] + ["ascending", "descending"] * (n >= 2) + ["apart"] * (n >= 3)
    gates = []
    for _ in range(draw(st.integers(1, 6))):
        layout = draw(st.sampled_from(layouts))
        if layout == "one":
            targets = (draw(st.integers(0, n - 1)),)
        elif layout == "apart":
            q = draw(st.integers(0, n - 3))
            targets = (q, draw(st.integers(q + 2, n - 1)))[:: draw(st.sampled_from([1, -1]))]
        else:
            q = draw(st.integers(0, n - 2))
            targets = (q, q + 1) if layout == "ascending" else (q + 1, q)
        dim = 2 ** len(targets)
        a, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        gates.append(Gate(a * (np.diag(r) / np.abs(np.diag(r))), targets))
    rates = [draw(st.floats(0.01, 1.0)) if is_on else 0.0 for is_on in on]
    return n, gates, NoiseSpec(*rates)


class TestWStateCircuit:
    @pytest.mark.parametrize("on", list(itertools.product([False, True], repeat=3)))
    @settings(max_examples=25)
    @given(data=st.data())
    def test_fused_matches_gate_by_gate(self, on, data):
        # on: whether p_depol_1q, p_depol_2q and gamma_ad are nonzero
        n, gates, noise = data.draw(noisy_circuits(on))
        got = run_circuit(n, gates, noise).data
        assert np.abs(got - gate_by_gate(n, gates, noise).data).max() <= 1e-14

    @pytest.mark.parametrize(
        "gate, message",
        [
            (Gate(np.array([[1, 1], [0, 1]], dtype=complex), (0,)), "not unitary"),
            (Gate(0.5 * CNOT, (0, 2)), "not unitary"),
            (Gate(CNOT, (1, 1)), "duplicate"),
            (Gate(PAULI_X, (3,)), "out of range"),
            (Gate(CNOT, (0,)), "does not match"),
            (Gate(np.eye(8, dtype=complex), (0, 1, 2)), r"targets \(0, 1, 2\)"),
            (Gate(np.array([[np.nan, 0], [0, 1]], dtype=complex), (0,)), "not unitary"),
            (Gate(np.diag([1, 1, 1, np.inf]).astype(complex), (1, 2)), "not unitary"),
            (Gate(np.diag([1, -np.inf]).astype(complex), (2,)), "not unitary"),
        ],
        ids=["non-unitary 1q", "non-unitary 2q", "duplicate target", "target out of range", "shape",
             "three qubits", "NaN 1q", "inf 2q", "-inf 1q"],
    )
    def test_bad_gate_raises(self, monkeypatch, gate, message):
        # the whole list is checked before the first gate runs, whatever the noise
        monkeypatch.setattr(qmath, "_apply_left", mock.Mock(side_effect=AssertionError("a gate ran")))
        for noise in (SHIPPED_NOISE, NoiseSpec(), None):
            with pytest.raises(ValueError, match=message):
                run_circuit(3, w_preparation_gates() + [gate], noise)

    @pytest.mark.parametrize("circuit", ["w_preparation", "gcnotg_2_layers"])
    def test_one_contraction_per_gate(self, monkeypatch, circuit):
        if circuit == "w_preparation":
            gates = w_preparation_gates()
        else:
            gates = eigenvector_preparation_gates(LayeredAnsatz.random(3, 2, BlockKind.G_CNOT_G, 4), "101")
        calls = []
        real = qmath._apply_left
        monkeypatch.setattr(qmath, "_apply_left", lambda *args: calls.append(args) or real(*args))
        with mock.patch.object(qmath.np, "tensordot", wraps=np.tensordot) as tensordot:
            run_circuit(3, gates, SHIPPED_NOISE)
        assert len(calls) == len(gates)
        assert tensordot.call_count == 0

    def test_preparation_is_exact(self):
        rho = run_circuit(3, w_preparation_gates(), None)
        assert fidelity_pure(rho, w_state()) == pytest.approx(1.0)

    def test_preparation_uses_three_entanglers(self):
        assert sum(1 for g in w_preparation_gates() if len(g.targets) == 2) == 3

    def test_eigenvector_gates_match_direct_preparation(self):
        for kind in BlockKind:
            a = LayeredAnsatz.random(3, 2, kind, 6)
            for z in ("000", "101"):
                direct = prepare_eigenvector(a, z)
                circuit = run_circuit(3, eigenvector_preparation_gates(a, z), None)
                assert fidelity_pure(circuit, direct) == pytest.approx(1.0)

    @pytest.mark.parametrize("z", ["0x1", "01", "0101", ""])
    def test_eigenvector_gates_reject_what_direct_preparation_rejects(self, z):
        a = LayeredAnsatz.random(3, 1, BlockKind.G_CNOT_G, 3)
        with pytest.raises(ValueError):
            prepare_eigenvector(a, z)
        with pytest.raises(ValueError):
            eigenvector_preparation_gates(a, z)

    def test_single_layer_uses_two_entanglers(self):
        a = LayeredAnsatz.random(3, 1, BlockKind.G_CNOT_G, 3)
        gates = eigenvector_preparation_gates(a, "000")
        assert sum(1 for g in gates if len(g.targets) == 2) == 2

    def test_noise_reduces_fidelity(self):
        noise = NoiseSpec(p_depol_1q=0.002, p_depol_2q=0.02)
        rho = run_circuit(3, w_preparation_gates(), noise)
        assert 0.90 < fidelity_pure(rho, w_state()) < 1.0

    def test_each_gate_damps_each_of_its_targets(self):
        # |11> from one X per qubit, then an identity on the pair: each qubit decays
        # after its X and again after the pair gate
        gamma = 0.1
        gates = [Gate(PAULI_X, (0,)), Gate(PAULI_X, (1,)), Gate(np.eye(4, dtype=complex), (0, 1))]
        rho = run_circuit(2, gates, NoiseSpec(gamma_ad=gamma))
        assert rho.diagonal()[3] == pytest.approx((1 - gamma) ** 4, abs=1e-14)

    def test_depolarizing_channel_follows_gate_arity(self):
        # on |00>: the 1-qubit channel after the 1-qubit gate leaves P(q0 = 0) = 1 - p1 / 2,
        # then the 2-qubit channel after the pair gate mixes in I/4 with weight p2
        p1, p2 = 0.1, 0.2
        gates = [Gate(PAULI_I, (0,)), Gate(np.eye(4, dtype=complex), (0, 1))]
        rho = run_circuit(2, gates, NoiseSpec(p_depol_1q=p1, p_depol_2q=p2))
        assert rho.diagonal()[0] == pytest.approx((1 - p2) * (1 - p1 / 2) + p2 / 4, abs=1e-14)

    def test_channels_built_once_per_noise_model(self, monkeypatch):
        import vqse.experiments

        built = []
        real = vqse.experiments.depolarizing_channel
        monkeypatch.setattr(vqse.experiments, "depolarizing_channel", lambda p, k: built.append(k) or real(p, k))
        noise = NoiseSpec(p_depol_1q=0.003, p_depol_2q=0.03, gamma_ad=0.01)
        first = run_circuit(3, w_preparation_gates(), noise)
        again = run_circuit(3, w_preparation_gates(), noise)
        assert sorted(built) == [1, 2]
        assert np.array_equal(first.data, again.data)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(p_depol_1q=1.5)


@st.composite
def repreparation_batches(draw, on):
    """1-4 circuits of n in [2, 4] qubits, one kind, 1-3 layers, each with a z; a pure psi; rates switched by `on`."""
    n, kind, layers = draw(st.integers(2, 4)), draw(st.sampled_from(list(BlockKind))), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 4))
    ansatze = [LayeredAnsatz.random(n, layers, kind, rng) for _ in range(count)]
    zs = [int(z) for z in rng.integers(0, 2**n, count)]
    amp = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    rates = [draw(st.floats(0.001, 1.0)) if is_on else 0.0 for is_on in on]
    return ansatze, zs, NoiseSpec(*rates), PureState(amp / np.linalg.norm(amp))


class TestFusedRepreparation:
    """`_reprepared_fidelities`: every circuit's noisy V^dag |z> in one walk of 16 x 16 block superoperators."""

    @pytest.mark.parametrize("on", list(itertools.product([False, True], repeat=3)))
    @settings(max_examples=12)
    @given(data=st.data())
    def test_matches_the_gate_list_and_the_batch_does_not_show(self, on, data):
        # on: whether p_depol_1q, p_depol_2q and gamma_ad are nonzero
        ansatze, zs, noise, psi = data.draw(repreparation_batches(on))
        got = experiments._reprepared_fidelities(ansatze, zs, noise, psi)
        assert len(got) == len(ansatze)
        for a, z, value in zip(ansatze, zs, got):
            gates = eigenvector_preparation_gates(a, qmath.index_to_bitstring(z, a.n))
            assert abs(value - fidelity_pure(run_circuit(a.n, gates, noise), psi)) <= 1e-12
            assert experiments._reprepared_fidelities([a], [z], noise, psi) == [value]

    def test_one_contraction_per_block(self, monkeypatch):
        ansatze = [LayeredAnsatz.random(4, 3, BlockKind.G_CNOT_G, seed) for seed in (1, 2, 3)]
        calls = []
        real = qmath._apply_left
        monkeypatch.setattr(qmath, "_apply_left", lambda *args: calls.append(args) or real(*args))
        experiments._reprepared_fidelities(ansatze, [0, 5, 15], SHIPPED_NOISE, PureState(np.full(16, 0.25)))
        assert len(calls) == ansatze[0].n_blocks
        assert all(op.shape == (3, 16, 16) for _, op, _, _ in calls)

    def test_nan_angles_are_refused(self):
        a = LayeredAnsatz(3, 1, BlockKind.RY_CZ, [np.nan] + [0.0] * 7)
        with pytest.raises(ValueError, match="not unitary"):
            experiments._reprepared_fidelities([a], [0], SHIPPED_NOISE, w_state())

    def test_entangler_superoperator_built_once_per_noise_model_and_kind(self, monkeypatch):
        # S(E) = D_2 kron(E, E*) is the one 16 x 16 interleaving per kind, both built on first use;
        # the 2-qubit noise is the other
        interleaved = []
        real = experiments._interleaved
        monkeypatch.setattr(experiments, "_interleaved", lambda sup, k: interleaved.append(sup.shape) or real(sup, k))
        noise = NoiseSpec(p_depol_1q=0.003, p_depol_2q=0.02, gamma_ad=0.004)
        for kind in BlockKind:
            w_state_mitigation_runs(noise, LoopConfig(layers=1, kind=kind, n_max=6, s=3), runs=2, seed=5)
            ansatze = [LayeredAnsatz.random(3, 1, kind, seed) for seed in (1, 2)]
            experiments._reprepared_fidelities(ansatze, [0, 3], noise, w_state())
        assert interleaved.count((16, 16)) == 1 + len(BlockKind)
        ent = noise.entanglers[BlockKind.G_CNOT_G]
        assert ent is noise.entanglers[BlockKind.G_CNOT_G] and not ent.flags.writeable
        want = noise.superoperators[2] @ real(np.kron(CNOT, CNOT.conj()), 2)
        assert np.array_equal(ent, want)

    def test_one_baseline_circuit_per_chunk_and_one_walk_per_update_interval(self, monkeypatch):
        # the chunks of jobs = 2 run in process here, so the calls can be counted
        monkeypatch.setattr(experiments, "_parallel_map", lambda fn, tasks, jobs: [fn(*task) for task in tasks])
        circuits, walks = [], []
        run, walk = experiments.run_circuit, experiments._reprepared_fidelities
        monkeypatch.setattr(experiments, "run_circuit", lambda *args: circuits.append(args) or run(*args))
        monkeypatch.setattr(experiments, "_reprepared_fidelities",
                            lambda ansatze, *rest: walks.append(len(ansatze)) or walk(ansatze, *rest))
        loop = LoopConfig(layers=1, kind=BlockKind.G_CNOT_G, n_max=6, s=3)
        results = w_state_mitigation_runs(SHIPPED_NOISE, loop, runs=3, seed=4, jobs=2)
        assert len(circuits) == 2  # the baseline preparation, once in each chunk of runs [0, 1] and [2]
        # per chunk: row 0, then rows 1-3 and 4-6 (k % s == 0 at 3 and 6), each over the chunk's runs
        assert walks == [2, 6, 6, 1, 3, 3]
        assert [[row.iteration for row in r.rows] for r in results] == [list(range(7))] * 3

    @pytest.mark.parametrize("kind", list(BlockKind))
    @pytest.mark.parametrize("s", [1, 6])
    def test_rows_match_one_walk_per_run_and_row(self, monkeypatch, kind, s):
        # the interval walk's fidelities are bitwise those of re-preparing each run's row
        # alone, from that row's theta and top bitstring
        seen, train = {}, experiments.optimize_runs

        def spy(rho, ansatze, cost, schedule, optimizer, rngs, callback):
            def hook(run, k, t, current, cost_value, transformed):
                z = int(read_estimate(transformed, 1).bitstrings[0], 2)
                seen[run, k] = (current, z)
                callback(run, k, t, current, cost_value, transformed)
            return train(rho, ansatze, cost, schedule, optimizer, rngs, hook)

        monkeypatch.setattr(experiments, "optimize_runs", spy)
        loop = LoopConfig(layers=2, kind=kind, n_max=6, s=s)
        results = w_state_mitigation_runs(SHIPPED_NOISE, loop, runs=3, seed=8)
        assert len(seen) == 3 * 7
        for i, res in enumerate(results):
            assert [row.iteration for row in res.rows] == list(range(7))
            for row in res.rows:
                a, z = seen[i, row.iteration]
                assert experiments._reprepared_fidelities([a], [z], SHIPPED_NOISE, w_state()) == [row.fidelity_sigma]


class TestWStateMitigation:
    def test_noiseless_baseline_is_one(self):
        loop = LoopConfig(layers=1, kind=BlockKind.G_CNOT_G, n_max=20, s=10)
        res = w_state_mitigation_runs(NoiseSpec(), loop, runs=1, seed=0)[0]
        assert res.baseline_fidelity == pytest.approx(1.0)
        assert res.rows[-1].fidelity_sigma <= 1.0 + 1e-12

    def test_noiseless_training_converges_to_w(self):
        # best of 10: the two-layer circuit can prepare the state exactly,
        # so the cost reaches the lowest level and the fidelity approaches 1
        loop = LoopConfig(layers=2, kind=BlockKind.G_CNOT_G, n_max=150, s=30)
        results = w_state_mitigation_runs(NoiseSpec(), loop, runs=10, seed=0, jobs=2)
        best = max(r.rows[-1].fidelity_sigma for r in results)
        assert best > 0.99
        e1 = min(loop.cost_config(3, 1).local.energies())
        best_cost = min(r.rows[-1].cost for r in results)
        assert abs(best_cost - e1) < 0.01

    def test_single_layer_cannot_prepare_w(self):
        # one layer is two one-CNOT blocks, on (0,1) then (1,2): qubit 0 is
        # final after the first, so the second block must map a qubit onto
        # span{|00>, |01>+|10>}, which holds one product state where a
        # one-CNOT block always gives two; training stops at the 0.8727 cap
        loop = LoopConfig(layers=1, kind=BlockKind.G_CNOT_G, n_max=150, s=30)
        results = w_state_mitigation_runs(NoiseSpec(), loop, runs=10, seed=0, jobs=2)
        finals = [r.rows[-1].fidelity_sigma for r in results]
        assert max(finals) <= 0.8728
        assert max(finals) >= 0.872

    def test_cost_trace_recorded_each_iteration(self):
        loop = LoopConfig(layers=1, kind=BlockKind.G_CNOT_G, n_max=15, s=5)
        res = w_state_mitigation_runs(NoiseSpec(p_depol_2q=0.02), loop, runs=1, seed=1)[0]
        assert [r.iteration for r in res.rows] == list(range(16))
        assert 0 < res.baseline_fidelity < 1

    def test_eigenvector_fidelity_scores_final_estimate(self):
        # |<W|V^dag|z_1>|^2 from theta_opt and the top bitstring of the noisy state
        noise = NoiseSpec(p_depol_2q=0.02)
        loop = LoopConfig(layers=2, kind=BlockKind.G_CNOT_G, n_max=10, s=5)
        res = w_state_mitigation_runs(noise, loop, runs=1, seed=2)[0]
        a = LayeredAnsatz(3, loop.layers, loop.kind, res.theta_opt)
        z1 = readout(run_circuit(3, w_preparation_gates(), noise), a, 1).bitstrings[0]
        expected = abs(np.vdot(w_state().amplitudes, prepare_eigenvector(a, z1).amplitudes)) ** 2
        assert res.eigenvector_fidelity == pytest.approx(expected, abs=1e-12)


class TestPcaExperiment:
    def test_partial_sum_majorization(self):
        res = pca_experiment(3, 3, FAST_LOOP, runs=2, seed=5, n_ancilla=2)
        lam = res.exact_lambdas
        for r in res.runs:
            for k in range(1, 4):
                assert r.result.estimate.lambdas[:k].sum() <= lam[:k].sum() + 1e-10

    def test_deterministic_and_jobs_independent(self):
        a = pca_experiment(3, 2, FAST_LOOP, runs=2, seed=9, n_ancilla=1, jobs=1)
        b = pca_experiment(3, 2, FAST_LOOP, runs=2, seed=9, n_ancilla=1, jobs=2)
        assert [r.report.eps_lambda for r in a.runs] == [r.report.eps_lambda for r in b.runs]
        assert np.array_equal(a.runs[0].result.ansatz.theta, b.runs[0].result.ansatz.theta)

    def test_reports_satisfy_bounds(self):
        from vqse.metrics import bound_checks

        res = pca_experiment(3, 3, FAST_LOOP, runs=3, seed=2, n_ancilla=2)
        for r in res.runs:
            rep = r.report
            assert all(c.holds for c in bound_checks(rep.eps_lambda, rep.eps_v, rep.bound_cost, rep.bound_purity))

    def test_converges_on_easy_low_rank_instance(self):
        # rank-2 state with an expressive circuit: near-exact recovery
        loop = LoopConfig(layers=3, kind=BlockKind.RY_CZ, n_max=300, s=30)
        res = pca_experiment(3, 2, loop, runs=4, seed=7, n_ancilla=1, jobs=2)
        assert min(r.report.eps_lambda for r in res.runs) < 1e-8
        rho = random_low_rank_state(3, 1, 7)
        w, v = exact_eigs(rho)
        best = res.best_run
        prep = prepare_eigenvector(best.result.ansatz, best.result.estimate.bitstrings[0])
        assert abs(np.vdot(v[:, 0], prep.amplitudes)) ** 2 >= 0.99

    def test_rps_table_monotone(self):
        res = pca_experiment(3, 2, FAST_LOOP, runs=3, seed=3, n_ancilla=1)
        # tightening the target can only increase runs-per-success
        finite = [x for x in res.rps_final if np.isfinite(x)]
        assert all(b >= a for a, b in zip(finite, finite[1:]))

    def test_two_layer_full_rank_comes_within_twice_the_direct_floor(self):
        # direct minimization of eps_lambda over this circuit's 24 angles bottoms out
        # at 2.1e-3 (tests/test_acceptance.py); the trainer ends near 3e-3, so a best
        # run above twice the floor is the trainer's regression, not the circuit's limit
        loop = LoopConfig(layers=2, kind=BlockKind.RY_CZ, n_max=300, s=30)
        res = pca_experiment(4, 6, loop, runs=10, seed=1234, n_ancilla=4, jobs=2)
        assert res.best_run.report.eps_lambda <= 2 * 2.1e-3


class TestJobsIndependence:
    """Workers train contiguous chunks of the runs in lockstep; the chunking must not show."""

    @settings(max_examples=4)
    @given(n=st.integers(2, 4), runs=st.integers(2, 5), kind=st.sampled_from(list(BlockKind)),
           seed=st.integers(0, 2**32 - 1))
    def test_eigensolver_experiment(self, n, runs, kind, seed):
        rho = random_low_rank_state(n, 1, seed)
        loop = LoopConfig(layers=1, kind=kind, n_max=6, s=3)
        one, two = (eigensolver_experiment(rho, 2, loop, runs, seed, jobs=jobs) for jobs in (1, 2))
        assert [r.run_index for r in two.runs] == list(range(runs))
        for a, b in zip(one.runs, two.runs):
            assert np.array_equal(a.result.ansatz.theta, b.result.ansatz.theta)
            assert a.result.trace == b.result.trace
            assert a.report == b.report and a.result.estimate.bitstrings == b.result.estimate.bitstrings
            assert np.array_equal(a.result.estimate.lambdas, b.result.estimate.lambdas)
        assert one.rps_final == two.rps_final

    @settings(max_examples=4)
    @given(runs=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_w_state_mitigation_runs(self, runs, seed):
        loop = LoopConfig(layers=1, kind=BlockKind.G_CNOT_G, n_max=4, s=2)
        noise = NoiseSpec(p_depol_2q=0.02, gamma_ad=0.01)
        one, two = (w_state_mitigation_runs(noise, loop, runs, seed, jobs=jobs) for jobs in (1, 2))
        for a, b in zip(one, two, strict=True):
            assert np.array_equal(a.theta_opt, b.theta_opt)
            assert a.rows == b.rows
            assert (a.rows[-1].fidelity_sigma, a.eigenvector_fidelity) == (b.rows[-1].fidelity_sigma, b.eigenvector_fidelity)


# the sweep of the start-method tests: an N = 6 antiferromagnet, two fields, two runs per field
SWEEP_RING = SpinChainSpec(N=6, J_x=-1.0, J_y=-0.5, gamma=np.pi / 3, keep=3)
SWEEP_ARGS = dict(h_grid=[0.6, 0.8], m=3, loop=FAST_LOOP, runs=2, seed=3)

SPAWNED_SWEEP = """
import multiprocessing

import numpy as np

from vqse.ansatz import BlockKind
from vqse.experiments import LoopConfig, SpinChainSpec, xy_spectroscopy_sweep

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    ring = SpinChainSpec(N=6, J_x=-1.0, J_y=-0.5, gamma=np.pi / 3, keep=3)
    loop = LoopConfig(layers=2, kind=BlockKind.RY_CZ, n_max=40, s=10)
    points = xy_spectroscopy_sweep(ring, [0.6, 0.8], m=3, loop=loop, runs=2, seed=3, jobs=2)
    print(multiprocessing.get_start_method())
    print(repr([tuple(p) for p in points]))
"""


class TestXYSweep:
    def test_sweep_rows_are_consistent(self):
        points = xy_spectroscopy_sweep(SWEEP_RING, **SWEEP_ARGS)
        assert [p.h for p in points] == [0.6, 0.8]
        for p in points:
            assert len(p.exact_lambdas) == 3 and len(p.est_lambdas) == 3
            assert p.eps_abs >= 0 and p.eps_rel >= 0

    def test_point_determinism(self):
        reduced, _ = xy_ground_reduced(SWEEP_RING, 0.7)
        p1 = xy_sweep_point(0.7, reduced, 3, FAST_LOOP, runs=2, seed=11)
        p2 = xy_sweep_point(0.7, reduced, 3, FAST_LOOP, runs=2, seed=11)
        assert p1 == p2

    def test_points_do_not_depend_on_jobs(self):
        one = xy_spectroscopy_sweep(dataclasses.replace(SWEEP_RING), **SWEEP_ARGS, jobs=1)
        two = xy_spectroscopy_sweep(dataclasses.replace(SWEEP_RING), **SWEEP_ARGS, jobs=2)
        assert one == two

    def test_spawned_workers_give_the_same_points(self, tmp_path):
        # a spawned worker inherits nothing: it trains on the reduced state it is handed
        script = tmp_path / "spawned_sweep.py"
        script.write_text(SPAWNED_SWEEP)
        src = str(Path(experiments.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        method, points = run.stdout.splitlines()
        assert method == "spawn"
        want = xy_spectroscopy_sweep(dataclasses.replace(SWEEP_RING), **SWEEP_ARGS, jobs=1)
        assert points == repr([tuple(p) for p in want])
