"""The three desk-scale applications, as seeded, reproducible experiments.

* Principal component analysis of random low-rank states: train against the
  chosen cost variant and report eigenvalue errors plus runs-per-success.
* Entanglement spectroscopy of an XY spin chain: sweep the field magnitude,
  estimate the top eigenvalues of a reduced ground state at each point, and
  locate the factorizing field where the ground state becomes a product
  state (largest reduced eigenvalue exactly one).
* Error mitigation of a noisy W-state preparation: train on the noisy output
  and re-prepare the top eigenvector under the same noise at every row, in one
  exact fused walk per Hamiltonian-update interval.  The brick circuit that
  can prepare W (two layers, 4 CNOTs) is deeper than the 3-CNOT preparation.

All randomness flows from explicit seeds; per-run generators are derived via
numpy SeedSequence spawning so results are independent of execution order.
The runs of an experiment train in lockstep (`solver.optimize_runs`), every
field point's runs of an XY sweep in one batch, each run on its own point's
reduced state; with jobs > 1 each worker takes a contiguous chunk of the runs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .ansatz import CNOT, BlockKind, LayeredAnsatz, _kron, prepare_eigenvector, rotation_y
from .hamiltonians import _bit_table, default_local_weights, lowest_levels
from .metrics import (
    ErrorReport,
    build_error_report,
    default_m_hat,
    eigen_errors,
    runs_per_success,
)
from . import qmath
from .qmath import (
    DensityMatrix,
    PureState,
    amplitude_damping_channel,
    depolarizing_channel,
    fidelity_pure,
    purity,
    PAULI_X,
    _check_gate,
    _check_unitary,
)
from .solver import (
    CostConfig,
    OptimizeResult,
    OptimizerConfig,
    StepwiseSchedule,
    optimize_runs,
    read_estimate,
)


class FactorizationNotFound(RuntimeError):
    """No field in the scanned range produced a product ground state."""


@dataclass(frozen=True)
class SpinChainSpec:
    """Cyclic XY chain: couplings, field angle and the kept block; the field magnitude h is an argument.

    The field components are (h_z, h_x) = h (cos gamma, sin gamma); spin
    operators are S = sigma / 2 and site N-1 couples back to site 0.
    """

    N: int
    J_x: float
    J_y: float
    gamma: float
    keep: int

    def __post_init__(self):
        if not 2 <= self.N <= 12:
            raise ValueError("N must lie in [2, 12] (the 2^N x N table of translates and the sector solves)")
        if not 1 <= self.keep < self.N:
            raise ValueError("keep must be a strict sub-block of the chain")
        for name in ("J_x", "J_y", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @functools.cached_property
    def _line(self) -> _FieldLine:
        """The chain's `_FieldLine`, built once: its sectors and every field it has solved."""
        return _FieldLine(self)


def _interleaved(sup: np.ndarray, k: int) -> np.ndarray:
    """A k-qubit superoperator (or a stack of them) in qubit-interleaved bit order.

    `kron(K, K*)` orders its bits as the k row bits, then the k column bits;
    interleaved order is r_0 c_0 r_1 c_1 ..., so each qubit's two bits are
    adjacent and a per-qubit channel on several qubits is a plain kron.
    """
    axes = np.arange(2 * k).reshape(2, k).T.reshape(-1)  # 0, k, 1, k + 1, ...
    p = np.arange(4**k).reshape((2,) * 2 * k).transpose(axes).reshape(-1)
    return sup[..., p[:, None], p]


@dataclass(frozen=True)
class NoiseSpec:
    """Per-gate noise on 1- and 2-qubit gates: depolarizing, then damping on each target."""

    p_depol_1q: float = 0.0
    p_depol_2q: float = 0.0
    gamma_ad: float = 0.0

    def __post_init__(self):
        for name in ("p_depol_1q", "p_depol_2q", "gamma_ad"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")

    @functools.cached_property
    def superoperators(self) -> dict[int, np.ndarray]:
        """The noise after a k-qubit gate, k = 1 or 2, as one superoperator on qubit-interleaved vec(rho).

        Depolarizing on the targets at rate p_depol_kq, then damping on each target: a kron of
        per-qubit superoperators, as interleaved order keeps each qubit's row and column bits
        adjacent.  A zero rate gives an exact identity.  Built once, read-only.
        """
        damping = amplitude_damping_channel(self.gamma_ad).superoperator
        sups = {}
        for k, p in ((1, self.p_depol_1q), (2, self.p_depol_2q)):
            depol = _interleaved(depolarizing_channel(p, k).superoperator, k)
            sups[k] = functools.reduce(np.kron, [damping] * k) @ depol
            sups[k].flags.writeable = False
        return sups


_NOISELESS = NoiseSpec()


@dataclass(frozen=True)
class LoopConfig:
    """Ansatz shape and training-loop settings shared by the experiments."""

    layers: int
    kind: BlockKind
    n_max: int
    s: int
    optimizer: OptimizerConfig = OptimizerConfig()
    shots: int = 0
    cost_variant: str = "adaptive"
    r1: float | None = None
    delta: float | None = None

    def schedule(self) -> StepwiseSchedule:
        return StepwiseSchedule(self.n_max, self.s)

    def train(self, m: int, runs: Sequence[tuple[DensityMatrix, object]], callback=None) -> list[OptimizeResult]:
        """One run per (state, seed) pair, from random angles drawn from the seed's generator, trained in lockstep."""
        states, seeds = zip(*runs)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        ansatze = [LayeredAnsatz.random(states[0].n, self.layers, self.kind, rng) for rng in rngs]
        cost = self.cost_config(states[0].n, m)
        return optimize_runs(states, ansatze, cost, self.schedule(), self.optimizer, rngs, callback)

    def cost_config(self, n: int, m: int) -> CostConfig:
        local = default_local_weights(n, m, r1=self.r1, delta=self.delta)
        return CostConfig(variant=self.cost_variant, local=local, m=m, shots=self.shots)


def random_low_rank_state(n: int, n_ancilla: int, seed) -> DensityMatrix:
    """Rank <= 2^n_ancilla random real state on n qubits.

    A Haar-random real orthogonal matrix acts on |0...0> of n + n_ancilla
    qubits and the ancillas are traced out.  Only the matrix's first column
    is needed: for the sign-fixed QR of a Gaussian matrix g that column is
    g[:, 0] / |g[:, 0]|: g is drawn row by row (the same seeded stream) and
    each row's first entry kept, in O(d) memory.  Entries are real and
    generically non-sparse; the state is held as the factor t, rho = t t^T.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n_ancilla < 0:
        raise ValueError(f"n_ancilla must be non-negative, got {n_ancilla}")
    if n + n_ancilla > 12:
        raise ValueError("n + n_ancilla must not exceed 12")
    rng = np.random.default_rng(seed)
    d = 2 ** (n + n_ancilla)
    g0 = np.array([rng.standard_normal(d)[0] for _ in range(d)])
    psi = g0 / np.linalg.norm(g0)
    return DensityMatrix(factor=psi.reshape(2**n, 2**n_ancilla), validate=False)


# ---------------------------------------------------------------------------
# XY chain: ground state, reduced spectra, factorization detection
# ---------------------------------------------------------------------------

GROUND_DEGENERACY_TOL = 1e-9


def xy_hamiltonian(spec: SpinChainSpec, h: float) -> np.ndarray:
    """Dense real-symmetric chain Hamiltonian at field h (the SySy product is real), from the line's nonzeros.

    The experiments never build it; it is the dense reference for callers and tests.
    """
    ham = np.zeros((2**spec.N,) * 2)
    np.add.at(ham.reshape(-1), spec._line.index, spec._line.values[0] + h * spec._line.values[1])
    return ham


def _product_seeking_vector(ground: np.ndarray, keep: int, gamma: float) -> np.ndarray:
    """One vector of a real ground space (orthonormal columns), chosen by a stated rule.

    A simple level's vector is returned as it is.  In a degenerate level the rule seeks
    the combination whose reduced state has the largest top eigenvalue lambda_1; at a
    factorizing field that is a product ground state which a generic eigensolver basis
    hides inside the level.  For each pair of columns, the Gram matrix of
    cos(phi) v_i + sin(phi) v_j on the smaller side of the keep / rest cut is a pencil
    S0 + cos(2 phi) S1 + sin(2 phi) S2, built once; lambda_1 is its top eigvalsh,
    scanned over 361 angles in one stacked call, and every local maximum of the scan is
    golden-refined, the refined vector's lambda_1 then read off its SVD.  Of the refined
    vectors within 1e-12 of the best lambda_1, the one whose site 0 points furthest
    along the field wins: the largest <n.sigma_0>, n = (sin gamma, cos gamma) in (x, z).
    Refinement fixes a vector only to about 1e-8 in angle, so values within 1e-6 of that
    largest one tie, and the largest <sigma^x_0> among them wins.  In a two-dimensional
    space the pick does not depend on the basis.
    """
    if ground.shape[1] == 1:
        return ground[:, 0]

    phis = np.linspace(0.0, np.pi, 361, endpoint=False)
    peaks = []  # (lambda_1, <n.sigma_0>, <sigma^x_0>, vector) of each refined local maximum
    for i, j in itertools.combinations(range(ground.shape[1]), 2):
        vi, vj = ground[:, i], ground[:, j]
        # each vector as a matrix whose rows are the smaller side of the keep / rest cut
        mi, mj = (v.reshape(2**keep, -1) if 4**keep <= v.size else v.reshape(2**keep, -1).T for v in (vi, vj))
        gi, gj, cross = mi @ mi.T, mj @ mj.T, mi @ mj.T
        s0, s1, s2 = 0.5 * (gi + gj), 0.5 * (gi - gj), 0.5 * (cross + cross.T)
        def lam1(q):  # of the pencil at one angle, or at a stack of them, shaped (angles, 1, 1)
            return np.linalg.eigvalsh(s0 + np.cos(2 * q) * s1 + np.sin(2 * q) * s2)[..., -1]
        scan = lam1(phis[:, None, None])
        # the scan is periodic: the vector at pi is minus the one at 0
        for k in np.flatnonzero((scan >= np.roll(scan, 1)) & (scan >= np.roll(scan, -1))):
            lo, hi = phis[k] - np.pi / 360, phis[k] + np.pi / 360
            p = _golden_min(lambda q: -lam1(q), lo, hi)
            cand = np.cos(p) * vi + np.sin(p) * vj
            up, down = cand.reshape(2, -1)  # amplitudes with site 0 (the top bit) up, down
            x, z = 2.0 * up @ down, up @ up - down @ down  # <sigma^x_0>, <sigma^z_0>
            top = np.linalg.svd(cand.reshape(2**keep, -1), compute_uv=False)[0] ** 2
            peaks.append((top, math.sin(gamma) * x + math.cos(gamma) * z, x, cand))
    best = max(peak[0] for peak in peaks)
    near = [peak for peak in peaks if peak[0] >= best - 1e-12]
    along = max(peak[1] for peak in near)
    return max((peak for peak in near if peak[1] >= along - 1e-6), key=lambda peak: peak[2])[3]


def _check_fields(spec: SpinChainSpec, fields: np.ndarray) -> None:
    """Raise ValueError unless every field is finite and H(h) != 0 between the smallest and largest.

    H = 0 when J_x = J_y = 0 and h = 0: its ground space would be the whole
    space, 2^N-fold degenerate, and `_product_seeking_vector` would scan all
    of its pairs.
    """
    if not np.isfinite(fields).all():
        raise ValueError("field values must be finite")
    if spec.J_x == spec.J_y == 0 and fields.min() <= 0 <= fields.max():
        raise ValueError("the field must not reach 0 when J_x = J_y = 0 (H = 0 there)")


def xy_ground_reduced(spec: SpinChainSpec, h: float) -> tuple[DensityMatrix, float]:
    """Reduced ground state on the first `keep` sites at field h, plus the ground energy."""
    _check_fields(spec, np.array([h], dtype=float))
    u, s, e0, _ = spec._line.ground(h)
    return DensityMatrix(factor=u * s, validate=False), e0


def factorization_residual(spec: SpinChainSpec, h: float) -> float:
    """1 - lambda_1 of the reduced ground state at field magnitude h, never below 0.

    lambda_1 = S_0^2 of a normalized vector can round to just above 1.
    """
    _check_fields(spec, np.array([h], dtype=float))
    s = spec._line.ground(h)[1]
    return max(0.0, float(1.0 - s[0] ** 2))


class _Sector(NamedTuple):
    coupling: np.ndarray  # C_m on the sector's orbit representatives (complex for a conjugate pair)
    field: np.ndarray  # F_m, of the same dtype
    column: np.ndarray  # each basis state's representative's row (dim outside the sector)
    amplitude: np.ndarray  # its weight e^(-iks)/sqrt(p) in sector m's momentum state


class _FieldLine:
    """H(h) = H_J + h H_f from their nonzeros, in symmetry sectors.

    H_J = -sum_j (J_x Sx_j Sx_{j+1} + J_y Sy_j Sy_{j+1}) on the ring, one double-flip
    entry per bond per column; H_f is the diagonal -cos(gamma) sum Sz plus one
    single-flip entry per site per column.  `sectors` holds H's blocks C + h F,
    about 2^N/N rows each, built on first use: one per momentum m = 0..N/2 of the
    translation T, or per (m, parity) at gamma = 0, where H also commutes with
    the parity prod sigma^z; a conjugate pair m, N - m is held as sector m's
    complex block.  Every level and ground vector the experiments read
    comes from these blocks; only `xy_hamiltonian` builds the 2^N x 2^N matrix.
    Each chain holds one line (`SpinChainSpec._line`); `ground` solves each
    field once and `lowest` each (sector, field) once.
    """

    def __init__(self, spec: SpinChainSpec):
        N, d, sin = spec.N, 2**spec.N, math.sin(spec.gamma)
        self.N, self.gamma, self.keep = N, spec.gamma, spec.keep
        idx, bits = np.arange(d), _bit_table(N)  # bits column j: site j
        ones = bits.sum(axis=1)
        site, nxt = np.arange(N), (np.arange(N) + 1) % N
        flips = idx ^ (1 << (N - 1 - site))[:, None] ^ (1 << (N - 1 - nxt))[:, None]
        # <i'|Sy Sy|i> = -(-1)^(b_j + b_k) / 4
        y_signs = ((1 - 2 * bits[:, site]) * (1 - 2 * bits[:, nxt])).T
        # flat (row, column) positions: a double flip per bond, the diagonal, a single flip per site
        rows = np.concatenate([flips.ravel(), idx] + [idx ^ (1 << j) for j in range(N)])
        self.index = rows * d + np.tile(idx, 2 * N + 1)
        self.values = np.zeros((2, self.index.size))  # the coupling's, the unit field's
        self.values[0, : N * d] = (-spec.J_x * 0.25 + spec.J_y * 0.25 * y_signs).ravel()
        self.values[1, N * d :] = -0.5 * np.concatenate([math.cos(spec.gamma) * (N - 2 * ones), np.full(N * d, sin)])
        self.parity = ones % 2 if sin == 0.0 else np.zeros_like(ones)  # conserved with no x field
        self._grounds: dict[float, tuple[np.ndarray, np.ndarray, float, int]] = {}
        self._lowest: dict[tuple[int, float], float] = {}  # (sector, field): lowest level

    @functools.cached_property
    def sectors(self) -> list[_Sector]:
        """Blocks for T's eigenvalues e^(ik), k = 2 pi m / N, from orbit representatives.

        A basis state x = T^l r (r the orbit's smallest member, period p_r) lies in
        sector m's momentum state (1/sqrt p_r) sum_s e^(-iks) T^s r when m p_r is a
        multiple of N.  An entry c of H in column r and row x adds c e^(ikl)
        sqrt(p_r / p_x) to the block at (representative of x, r).  Sectors m = 0
        and N/2 are real.  Sector N - m is the complex conjugate of sector m, with
        the same levels, so for 0 < m < N/2 the conjugate pair is held as sector
        m's complex Hermitian block alone.  At gamma = 0 each block is split by the
        parity of its representatives, which is constant on an orbit; an empty
        block (a parity with no representative in sector m) is not held.
        """
        N, d = self.N, 2**self.N
        idx = np.arange(d)
        turns = np.stack([((idx << s) | (idx >> (N - s))) & (d - 1) for s in range(N)])
        rep_of = turns.min(axis=0)
        shift = -turns.argmin(axis=0) % N  # x = T^shift rep_of[x]
        period = (np.roll(turns, -1, axis=0) == idx).argmax(axis=0) + 1
        rows, cols = np.divmod(self.index, d)
        on_rep = rep_of[cols] == cols
        col, row, turn = cols[on_rep], rep_of[rows[on_rep]], shift[rows[on_rep]]
        values = self.values[:, on_rep] * np.sqrt(period[col] / period[row])
        sectors = []
        for m in range(N // 2 + 1):
            for parity in range(self.parity.max() + 1):
                member = (rep_of == idx) & (m * period % N == 0) & (self.parity == parity)
                dim = int(member.sum())
                if dim == 0:
                    continue
                column = np.where(member, np.cumsum(member) - 1, dim)
                both = member[row] & member[col]
                phase = np.exp(2j * np.pi * m * turn[both] / N)
                amplitude = np.exp(-2j * np.pi * m * shift / N) / np.sqrt(period[rep_of])
                if 2 * m % N == 0:  # e^(ikl) = +-1
                    phase, amplitude = phase.real, amplitude.real
                blocks = np.zeros((2, dim, dim), dtype=phase.dtype)
                np.add.at(blocks, (slice(None), column[row[both]], column[col[both]]), values[:, both] * phase)
                sectors.append(_Sector(*blocks, column[rep_of], amplitude))
        return sectors

    def lowest(self, i: int, h: float) -> float:
        """The lowest level of sector i at h, solved once per (sector, field) and kept."""
        if (i, h) not in self._lowest:
            sector = self.sectors[i]
            self._lowest[i, h] = float(np.linalg.eigvalsh(sector.coupling + h * sector.field)[0])
        return self._lowest[i, h]

    def _levels(self, h: float) -> list[tuple[float, int]]:
        """(lowest level, sector) of every sector at h, lowest first."""
        return sorted((self.lowest(i, h), i) for i in range(len(self.sectors)))

    def ground_space(self, h: float) -> tuple[np.ndarray, float, int]:
        """Orthonormal real basis (columns) of the ground level at h, its level E0 and its sector.

        Every sector whose lowest level lies within GROUND_DEGENERACY_TOL of E0
        gives the vectors c of its block's levels there, from one eigh, each
        expanded by one formula: each basis state takes its representative's
        entry of c (0 outside the sector) times its amplitude, giving the momentum
        state psi.  A real sector's psi is a ground vector.  A conjugate pair's psi
        and psi* span the pair's part of the level, and as psi is orthogonal to
        psi*, sqrt(2) Re psi and sqrt(2) Im psi are an orthonormal real basis of
        it.  Vectors of different sectors are orthogonal.  The sector returned is
        the lowest level's.
        """
        levels = self._levels(h)
        e0, i0 = levels[0]
        space = []
        for i in sorted(i for e, i in levels if e - e0 <= GROUND_DEGENERACY_TOL):
            sector = self.sectors[i]
            w, c = np.linalg.eigh(sector.coupling + h * sector.field)
            c = c[:, w - e0 <= GROUND_DEGENERACY_TOL]
            psi = np.append(c, np.zeros((1, c.shape[1])), axis=0)[sector.column] * sector.amplitude[:, None]
            space += [np.sqrt(2) * psi.real, np.sqrt(2) * psi.imag] if np.iscomplexobj(psi) else [psi]
        return np.hstack(space), e0, i0

    def ground(self, h: float) -> tuple[np.ndarray, np.ndarray, float, int]:
        """Schmidt U, S of the ground vector at h, its level E0 and its sector.

        The ground vector as a (kept sites x rest) matrix is M = U S W^T, so the
        reduced state is (U S)(U S)^T and lambda_1 = S[0]^2.  It is the
        `_product_seeking_vector` of `ground_space(h)`: a simple level's one
        vector, a degenerate level's pick by the stated rule.  Each field is
        solved once and kept; U and S are read-only.
        """
        h = float(h)
        if h not in self._grounds:
            space, e0, i = self.ground_space(h)
            vec = _product_seeking_vector(space, self.keep, self.gamma)
            u, s, _ = np.linalg.svd((vec / np.linalg.norm(vec)).reshape(2**self.keep, -1), full_matrices=False)
            u.flags.writeable = s.flags.writeable = False
            self._grounds[h] = (u, s, e0, i)
        return self._grounds[h]


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, rounds: int = 59) -> float:
    """Golden-section minimum of f on [lo, hi] in rounds + 2 evaluations of f.

    59 rounds shrink the bracket by 0.618^59 < (2/3)^70, about 5e-13.
    """
    a, b = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(rounds):
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - _INV_PHI * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + _INV_PHI * (hi - lo)
            fb = f(b)
    return 0.5 * (lo + hi)


def _bisect_sign_change(f, lo: float, hi: float) -> float:
    """Where f turns from f(lo) <= 0 to f(hi) >= 0, to adjacent floats: Illinois regula falsi, then bisection.

    The secant point x of the ends (Dowell & Jarratt, BIT 11, 168 (1971)) becomes the upper end if f(x) > 0,
    else the lower, and an end kept twice in a row has its value halved.  An x that rounds onto an end (as
    when its value is 0) moves inside by one ulp, twice as far each further time.
    """
    flo, fhi, kept, step = f(lo), f(hi), 0, 0.0  # kept: +1 / -1 if the upper / lower end moved last
    while flo < fhi:
        x = lo - flo * (hi - lo) / (fhi - flo)
        step = 0.0 if lo < x < hi else 2.0 * step or math.ulp(x)
        if step and not lo < (x := hi - step if x >= hi else lo + step) < hi:
            break
        if (fx := f(x)) > 0:
            hi, fhi, flo, kept = x, fx, flo * (0.5 if kept > 0 else 1.0), 1
        else:
            lo, flo, fhi, kept = x, fx, fhi * (0.5 if kept < 0 else 1.0), -1
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return mid


FIELD_HALVINGS = 4  # times the search may halve every grid cell before it gives up


def locate_factorization(spec: SpinChainSpec, h_grid: Sequence[float], tolerance: float = 1e-8) -> float:
    """Field magnitude where the ground state factorizes (1 - lambda_1 < tol).

    At finite size a factorizing point is normally an exact level crossing,
    whose degenerate ground space holds the product states (1 - lambda_1 jumps
    there), else a minimum of 1 - lambda_1 (a unique product ground state).
    Each round scans the grid, then takes candidates in this order:

    * where grid neighbours' ground levels lie in different sectors a and b
      (`_FieldLine.sectors`), the sign change of E_a - E_b, the two sectors'
      lowest levels, found to adjacent floats: one rule at every angle.
      The crossing with the smallest residual wins if it meets `tolerance`.
    * Only if none does, the minimum of 1 - lambda_1 golden-searched around
      the best grid point; the smallest residual of it and the crossings
      wins, the minimum on a tie.

    If that misses `tolerance`, every grid cell is halved and the grid scanned
    again, up to `FIELD_HALVINGS` times; a crossing is missed only if it shares
    a cell with another on the finest grid.  H(h) and its sectors are built
    once per chain (`SpinChainSpec._line`), shared with `factorization_residual`
    and the sweep, and each field is solved once.

    Cost: 3 + crossings ground solves when a crossing suffices on a 3-point
    grid (one per grid point and crossing), 61 more per golden search.  A
    ground solve is one eigvalsh per sector (a conjugate pair as sector m's
    complex block) and one sector eigh, one more per further sector holding a
    degenerate level; a crossing takes 4-26 evaluations of E_a - E_b on the
    pinned chains (48-53 by bisection alone), each one eigvalsh of each of its
    two sectors but at the two ends, whose levels the grid scan solved.  No
    level or vector comes from the full 2^N x 2^N matrix.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    hs = np.asarray(sorted(float(h) for h in h_grid))
    if hs.size < 3:
        raise ValueError("need a grid of at least 3 field values")
    _check_fields(spec, hs)
    line = spec._line

    def scan(h):  # 1 - lambda_1 and the ground level's sector at h
        _, s, _, i = line.ground(h)
        return float(1.0 - s[0] ** 2), i

    def split(a, b):
        return lambda h: line.lowest(a, h) - line.lowest(b, h)

    def best(candidates):  # (residual, field) of the smallest residual, the first one on a tie
        pairs = ((scan(h)[0], float(h)) for h in candidates)
        return min(pairs, key=lambda c: c[0], default=(math.inf, math.nan))

    for _ in range(FIELD_HALVINGS + 1):
        residuals, sectors = zip(*map(scan, hs))
        crossings = [
            _bisect_sign_change(split(a, b), h0, h1)
            for h0, h1, a, b in zip(hs, hs[1:], sectors, sectors[1:])
            if a != b
        ]
        best_r, best_h = best(crossings)
        if not best_r < tolerance:  # no crossing suffices: add the minimum around the best grid point
            k = int(np.argmin(residuals))
            lo, hi = hs[max(k - 1, 0)], hs[min(k + 1, hs.size - 1)]
            best_r, best_h = best([_golden_min(lambda h: scan(h)[0], lo, hi), *crossings])
        if best_r < tolerance:
            return best_h
        hs = np.sort(np.concatenate([hs, 0.5 * (hs[:-1] + hs[1:])]))
    raise FactorizationNotFound(
        f"no factorizing field in [{hs[0]}, {hs[-1]}]: best residual {best_r:.3e}"
    )


# ---------------------------------------------------------------------------
# PCA of random low-rank states
# ---------------------------------------------------------------------------


@dataclass
class PcaRun:
    run_index: int
    result: OptimizeResult
    report: ErrorReport
    eps_min_trace: float
    wide_lambdas: np.ndarray
    final_levels: tuple[float, ...]


@dataclass
class PcaResult:
    n: int
    m: int
    exact_lambdas: np.ndarray
    purity: float
    runs: list[PcaRun]
    rps_targets: np.ndarray
    rps_final: list[float]
    rps_min_trace: list[float]

    @property
    def best_run(self) -> PcaRun:
        return min(self.runs, key=lambda r: r.report.eps_lambda)

    @property
    def best_eps_min_trace(self) -> float:
        return min(r.eps_min_trace for r in self.runs)


def _eigensolver_runs(rho: DensityMatrix, m: int, loop: LoopConfig, pur: float, indexed_seeds) -> list[PcaRun]:
    """Training runs on rho (of purity `pur`) in lockstep, one per (run index, seed) pair, with their reports."""
    results = loop.train(m, [(rho, child) for _, child in indexed_seeds])
    runs = []
    for (i, _), res in zip(indexed_seeds, results):
        levels = tuple(e for e, _ in lowest_levels(res.final_hamiltonian, m + 1))
        est_wide = read_estimate(res.transformed, default_m_hat(m, rho.n))
        report = build_error_report(rho, res.transformed, res.estimate, res.trace[-1].cost, levels, pur, est_wide)
        runs.append(PcaRun(
            run_index=i,
            result=res,
            report=report,
            eps_min_trace=min(p.eps_abs for p in res.trace),
            wide_lambdas=est_wide.lambdas,
            final_levels=levels,
        ))
    return runs


def eigensolver_experiment(
    rho: DensityMatrix,
    m: int,
    loop: LoopConfig,
    runs: int,
    seed: int,
    jobs: int = 1,
) -> PcaResult:
    """K seeded training runs on one fixed state, trained in lockstep, with error reports.

    Per-run generators are spawned children of the master seed, so results
    are independent of `jobs` (each worker trains a contiguous chunk of the
    runs; parallelism only changes wall time) and two experiments with the
    same seed share initial angles run by run.
    """
    exact = rho.eigenvalues()  # cached on rho, so the runs (and workers) reuse it
    pur = purity(rho)
    children = list(enumerate(np.random.SeedSequence(seed).spawn(runs)))
    out_runs = _in_chunks(_eigensolver_runs, (rho, m, loop, pur), children, jobs)

    targets = np.logspace(0, -12, 13)
    finals = [r.report.eps_lambda for r in out_runs]
    mins = [r.eps_min_trace for r in out_runs]
    return PcaResult(
        n=rho.n,
        m=m,
        exact_lambdas=exact,
        purity=pur,
        runs=out_runs,
        rps_targets=targets,
        rps_final=[runs_per_success(finals, t) for t in targets],
        rps_min_trace=[runs_per_success(mins, t) for t in targets],
    )


def pca_experiment(
    n: int,
    m: int,
    loop: LoopConfig,
    runs: int,
    seed: int,
    n_ancilla: int = 4,
    jobs: int = 1,
) -> PcaResult:
    """The principal-component benchmark: a seeded random low-rank state."""
    rho = random_low_rank_state(n, n_ancilla, seed)
    return eigensolver_experiment(rho, m, loop, runs, seed, jobs)


# ---------------------------------------------------------------------------
# XY entanglement spectroscopy sweep
# ---------------------------------------------------------------------------


class SweepPoint(NamedTuple):
    h: float
    exact_lambdas: tuple[float, ...]
    est_lambdas: tuple[float, ...]
    eps_abs: float
    eps_rel: float
    best_cost: float


def xy_sweep_point(h: float, reduced: DensityMatrix, m: int, loop: LoopConfig, runs: int, seed: int) -> SweepPoint:
    """Best-of-`runs` estimate of the top-m spectrum of the reduced state at field h, runs trained in lockstep."""
    pairs = [(reduced, child) for child in np.random.SeedSequence(seed).spawn(runs)]
    return _best_of_runs(h, reduced, m, loop.train(m, pairs))


def _best_of_runs(h: float, reduced: DensityMatrix, m: int, results: Sequence[OptimizeResult]) -> SweepPoint:
    """The sweep point of field h from its runs: the one of lowest final cost (the first of equals)."""
    exact, best = reduced.eigenvalues(), min(results, key=lambda res: res.trace[-1].cost)
    errs = eigen_errors(exact, best.estimate.lambdas, m)
    return SweepPoint(h, tuple(float(x) for x in exact[:m]), tuple(float(x) for x in best.estimate.lambdas),
                      float(errs.eps_lambda), float(errs.eps_rel), best.trace[-1].cost)


def xy_spectroscopy_sweep(
    spec: SpinChainSpec,
    h_grid: Sequence[float],
    m: int,
    loop: LoopConfig,
    runs: int,
    seed: int,
    jobs: int = 1,
) -> list[SweepPoint]:
    """The field sweep: each field's `xy_sweep_point`, all (field, run) pairs trained in one lockstep batch.

    Point j's runs take the seeds `xy_sweep_point` spawns from (seed, j); the reduced states are
    solved here, and `jobs` workers train contiguous chunks of the pairs, so points do not depend on it.
    """
    reduced, pairs = [xy_ground_reduced(spec, h)[0] for h in h_grid], []
    for j, state in enumerate(reduced):
        point_seed = int(np.random.SeedSequence((seed, j)).generate_state(1)[0])
        pairs += [(state, child) for child in np.random.SeedSequence(point_seed).spawn(runs)]
    results = _in_chunks(loop.train, (m,), pairs, jobs)
    return [_best_of_runs(float(h), state, m, results[j * runs : (j + 1) * runs])
            for j, (h, state) in enumerate(zip(h_grid, reduced))]


# ---------------------------------------------------------------------------
# W-state error mitigation
# ---------------------------------------------------------------------------


class Gate(NamedTuple):
    matrix: np.ndarray
    targets: tuple[int, ...]


def w_state() -> PureState:
    """(|001> + |010> + |100>) / sqrt(3)."""
    amp = np.zeros(8, dtype=complex)
    amp[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    return PureState(amp, validate=False)


def w_preparation_gates() -> list[Gate]:
    """Three-CNOT W-state preparation (exact up to numerical precision).

    X on qubit 0, a y-rotation splitting the amplitude 1/3 vs 2/3, one
    CNOT-conjugated rotation pair acting as a controlled mixer, then a CNOT
    cascade rotating the excitation across the register.
    """
    theta_w = -2.0 * np.arccos(1.0 / np.sqrt(3.0))
    return [
        Gate(PAULI_X, (0,)),
        Gate(rotation_y(theta_w), (1,)),
        Gate(rotation_y(-np.pi / 4), (2,)),
        Gate(CNOT, (1, 2)),
        Gate(rotation_y(np.pi / 4), (2,)),
        Gate(CNOT, (1, 0)),
        Gate(CNOT, (2, 1)),
    ]


def run_circuit(n: int, gates: Sequence[Gate], noise: NoiseSpec | None = None) -> DensityMatrix:
    """Run a gate list from |0...0>, with noise after each gate.

    Each gate is followed by depolarizing on its targets (the 1-qubit channel
    after a 1-qubit gate, the 2-qubit one otherwise), then amplitude damping
    on each target.  The gate and its noise are fused into one superoperator
    S = D_k kron(u, u*) (`NoiseSpec.superoperators`), which keeps that order.
    vec(rho) is held in qubit-interleaved bit order r_0 c_0 r_1 c_1 ..., where
    a gate on qubits q..q+k-1 acts on the one run of bits 2q..2q+2k-1, so each
    gate is one `_apply_left` matmul; a gate with unsorted targets is first
    given sorted ones by permuting its qubit axes, which the noise commutes
    with.  One loop over the list checks each gate's targets, shape, arity
    (1 or 2) and unitarity and builds its superoperator, before any gate runs.
    """
    noise = noise or _NOISELESS
    walk = []
    for g in gates:
        u, targets = _check_gate(g.matrix, g.targets, n)
        k = len(targets)
        if not 1 <= k <= 2:
            raise ValueError(f"gate on targets {targets}: the noise model covers 1- and 2-qubit gates only")
        _check_unitary(u)
        if list(targets) != sorted(targets):
            order = np.argsort(targets)
            u = u.reshape((2,) * 2 * k).transpose([*order, *(order + k)]).reshape(u.shape)
            targets = tuple(sorted(targets))
        bits = tuple(b for t in targets for b in (2 * t, 2 * t + 1))
        walk.append((noise.superoperators[k] @ _interleaved(_kron(u, u.conj()), k), bits))
    vec = np.zeros((4**n, 1), dtype=complex)
    vec[0] = 1.0
    for s, bits in walk:
        vec = qmath._apply_left(vec, s, bits, 2 * n)
    rows_then_columns = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return DensityMatrix(vec.reshape((2,) * 2 * n).transpose(rows_then_columns).reshape(2**n, 2**n), validate=False)


def _reprepared_fidelities(ansatze: Sequence[LayeredAnsatz], zs, noise: NoiseSpec, psi: PureState) -> list[float]:
    """<psi| sigma_i |psi>, sigma_i the `run_circuit` of circuit i's noisy V^dag |z_i> (z_i = basis index zs[i]).

    Exact algebra: gates on different wires commute, so a block dagger's native gates post0^dag,
    post1^dag, E, pre0^dag, pre1^dag, each with its noise, are one 16 x 16 superoperator
    kron(S(pre0^dag), S(pre1^dag)) S(E) kron(S(post0^dag), S(post1^dag)) on the pair's interleaved
    bits (S(u) = D_k kron(u, u*)), and the noisy X gates of z_i a product start.  One stacked build of the
    rotations' superoperators, one of S(E); each block's 16 x 16 stack is built just before its one
    `_apply_left` for all circuits; one dot per circuit: no value depends on the batch.
    """
    a, n, e = ansatze[0], ansatze[0].n, ansatze[0].kind.entangler
    daggers = a.kind.rotations(a.kind._factors([b.block_angles for b in ansatze])).conj().swapaxes(-1, -2)
    _check_unitary(daggers)
    s1 = noise.superoperators[1] @ _kron(daggers, daggers.conj())  # (circuits, blocks, wire rotation, 4, 4)
    entangler = noise.superoperators[2] @ _interleaved(_kron(e, e.conj()), 2)
    # each qubit starts in |0><0| or, after its noisy X, in D_1 |1><1| (interleaved index 3)
    per_qubit = np.stack([np.eye(4)[0], noise.superoperators[1][:, 3]])[_bit_table(n)[list(zs)]].swapaxes(0, 1)
    vec = functools.reduce(lambda v, w: (v[:, :, None] * w[:, None, :]).reshape(len(zs), -1), per_qubit)[..., None]
    for b, (q, _) in reversed(list(enumerate(a.block_pairs))):
        block = _kron(s1[:, b, 0], s1[:, b, 1]) @ entangler @ _kron(s1[:, b, 2], s1[:, b, 3])
        vec = qmath._apply_left(vec, block, tuple(range(2 * q, 2 * q + 4)), 2 * n)
    outer = np.outer(psi.amplitudes.conj(), psi.amplitudes).reshape((2,) * 2 * n)
    weights = outer.transpose(np.arange(2 * n).reshape(2, n).T.reshape(-1)).reshape(-1)  # interleaved
    return [float(np.dot(weights, v[:, 0]).real) for v in vec]


class WStateRow(NamedTuple):
    iteration: int
    cost: float
    fidelity_sigma: float


@dataclass
class WStateResult:
    baseline_fidelity: float
    rows: list[WStateRow]  # the last row's fidelity_sigma: the final noisy re-preparation of V^dag |z_1>
    eigenvector_fidelity: float  # |<W| V^dag |z_1>|^2 of the learned eigenvector
    theta_opt: np.ndarray


def _w_state_runs(noise: NoiseSpec, loop: LoopConfig, seeds) -> list[WStateResult]:
    """Mitigation runs on one noisy preparation, one per seed, in lockstep.

    Every run's rows are held until the last run's row at an update iteration (k % s == 0, row 0
    too) and re-prepared in one walk: 1 + n_max / s walks, the last at the final row (s divides n_max).
    """
    psi = w_state()
    rho = run_circuit(3, w_preparation_gates(), noise)
    baseline = fidelity_pure(rho, psi)

    rows: list[list[WStateRow]] = [[] for _ in seeds]
    held: list[tuple] = []  # (run, k, cost, ansatz, z_1 index) of each row since the last walk

    def on_iteration(run: int, k: int, t: float, current: LayeredAnsatz, cost_value: float, transformed):
        held.append((run, k, cost_value, current, int(np.argmax(transformed.diagonal()))))  # read_estimate's z_1
        if run == len(seeds) - 1 and k % loop.s == 0:  # the callback fires in run order: the interval is complete
            runs, ks, costs, ansatze, zs = zip(*held)
            for i, *values in zip(runs, ks, costs, _reprepared_fidelities(ansatze, zs, noise, psi)):
                rows[i].append(WStateRow(*values))
            held.clear()

    out = []
    for res, run_rows in zip(loop.train(1, [(rho, seed) for seed in seeds], on_iteration), rows):
        learned = prepare_eigenvector(res.ansatz, res.estimate.bitstrings[0])
        out.append(WStateResult(
            baseline_fidelity=baseline,
            rows=run_rows,
            eigenvector_fidelity=float(abs(np.vdot(psi.amplitudes, learned.amplitudes)) ** 2),
            theta_opt=res.ansatz.theta,
        ))
    return out


def w_state_mitigation_runs(
    noise: NoiseSpec, loop: LoopConfig, runs: int, seed: int, jobs: int = 1
) -> list[WStateResult]:
    """Independent seeded mitigation runs (the averaged protocol), trained in lockstep.

    Each run is a noisy preparation, training and a noisy re-preparation.  The
    training loop acts on the fixed noisy state; at every iteration the current
    top bitstring's V^dag |z_1> is re-prepared under the same noise model and its
    fidelity with the ideal state recorded: every run's rows of one
    Hamiltonian-update interval at once, in an exact walk of fused block
    superoperators (`_reprepared_fidelities`).
    The learned eigenvector is scored once, noise-free, from the final
    parameters and the final estimate's top bitstring.
    """
    return _in_chunks(_w_state_runs, (noise, loop), np.random.SeedSequence(seed).spawn(runs), jobs)


def _in_chunks(fn, args: tuple, items: list, jobs: int) -> list:
    """fn(*args, chunk) on `jobs` contiguous chunks of `items`, the results joined in order."""
    size = max(1, -(-len(items) // max(1, jobs)))
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    return [out for part in _parallel_map(fn, [args + (chunk,) for chunk in chunks], jobs) for out in part]


def _parallel_map(fn, tasks, jobs: int):
    """fn(*task) for each task, in order; `jobs` worker processes when above 1."""
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    import concurrent.futures as cf

    with cf.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, *zip(*tasks)))
