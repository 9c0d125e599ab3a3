"""Optimization engine: parameter-shift gradients, Adam/GD steppers, the
adaptive training loop, eigenvalue readout and its errors, and the shot planner.

The training loop follows a fixed iteration budget n_max.  With the adaptive
cost, every s iterations (s divides n_max) the transformed state is measured
in the standard basis, the m most likely bitstrings become the marked states
of the global part, and the Hamiltonian is rebuilt as
(1 - t) H_L + t H_G(t) with t = k / n_max.  Between updates the Hamiltonian
is frozen, which makes the effective schedule f(t) stepwise-constant with
f(0) = 0 and f(1) = 1.  For the fixed local / global costs the loop reduces
to plain gradient descent on a constant Hamiltonian.

Gradients are dC/dtheta_nu = [C(theta_nu + pi/2) - C(theta_nu - pi/2)] / 2,
the parameter-shift identity under half-angle rotation generators.  With
shots > 0 this is how they are measured.  Both paths act only on a
purification factor rho = A A^dag and read its 2^n x r forward states
psi_b = B_{b-1} ... B_0 A off one walk of the circuit; the training loop
walks once per step, and that walk also records the step's row.  The
sampled gradient builds every shifted block in one stacked call and walks
all shifted circuits together as column groups of one wide array: at block
b the copies in flight get B_b in one contraction, and the copies of psi_b
shifted at block b join them.  Each finished copy is then sampled, as a
measurement of its shifted circuit would be.  With exact costs the same
derivative is computed in adjoint form (Jones & Gacon, arXiv:2009.02823): a
backward state lam = (B_{b+1} ... )^dag H psi_B is swept from the end, each
block's 4x4 environment Tr_rest[psi_b lam^dag] is one matmul into a stack,
and all angles are read off that stack in one einsum against the stack of
block derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ansatz import LayeredAnsatz, _forward_states, apply_ansatz
from .hamiltonians import (
    AdaptiveHamiltonian,
    GlobalPart,
    Hamiltonian,
    LocalWeights,
    sample_counts,
)
from .qmath import DensityMatrix, _apply_left, index_to_bitstring

ZERO_EIGENVALUE_TOL = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class StepwiseSchedule:
    """Iteration budget n_max with a Hamiltonian update every s iterations."""

    n_max: int
    s: int

    def __post_init__(self):
        if self.n_max < 1 or self.s < 1:
            raise ValueError("n_max and s must be positive")
        if self.n_max % self.s != 0:
            raise ValueError(f"s={self.s} must divide n_max={self.n_max}")

    def t(self, k: int) -> float:
        """Loop time of iteration k (1-based), t in (0, 1]."""
        return k / self.n_max

    def is_update(self, k: int) -> bool:
        return k % self.s == 0

    def __call__(self, t: float) -> float:
        """Stepwise f(t): the loop time of the most recent update."""
        return math.floor(t * self.n_max / self.s) * self.s / self.n_max


@dataclass(frozen=True)
class EigenEstimate:
    """Ordered eigenvalue estimates and the bitstrings they were read from.

    shots_used == 0 means the estimates are exact diagonal entries of the
    transformed state; otherwise they are empirical frequencies.  `padded`
    flags estimates filled with zeros because fewer than m distinct
    bitstrings were observed.
    """

    lambdas: np.ndarray
    bitstrings: tuple[str, ...]
    shots_used: int = 0
    padded: bool = False

    def __post_init__(self):
        lam = np.array(self.lambdas, dtype=float).reshape(-1)
        lam.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "bitstrings", tuple(self.bitstrings))
        if lam.size != len(self.bitstrings):
            raise ValueError("one bitstring per estimate required")
        if not np.all(np.isfinite(lam)):
            raise ValueError("estimates must be finite")
        if len(set(self.bitstrings)) != len(self.bitstrings):
            raise ValueError("bitstrings must be distinct")
        if np.any(lam < -1e-12) or np.any(lam > 1 + 1e-12):
            raise ValueError("estimates must lie in [0, 1]")
        if np.any(np.diff(lam) > 1e-12):
            raise ValueError("estimates must be sorted descending")
        if lam.sum() > 1.0 + 1e-9:
            raise ValueError(f"estimates sum to {lam.sum()} > 1")

    @property
    def m(self) -> int:
        return self.lambdas.size


class EigenErrors(NamedTuple):
    eps_lambda: float
    eps_rel: float
    n_excluded: int  # relative-error terms dropped because lambda_i ~ 0


def eigen_errors(exact: np.ndarray, est: EigenEstimate, m: int) -> EigenErrors:
    """Absolute and relative eigenvalue errors over the top m estimates.

    Relative-error terms with an exact eigenvalue at numerical zero are
    excluded from the sum and counted in n_excluded.
    """
    exact = np.asarray(exact, dtype=float)
    if est.m < m or exact.size < m:
        raise ValueError(f"need at least m={m} exact values and estimates")
    d = exact[:m] - est.lambdas[:m]
    nz = exact[:m] > ZERO_EIGENVALUE_TOL
    eps_rel = float(((d[nz] / exact[:m][nz]) ** 2).sum())
    return EigenErrors(float((d**2).sum()), eps_rel, int(m - nz.sum()))


@dataclass(frozen=True)
class ShotPlan:
    """Measurement budget meeting a relative-error / failure-probability target.

    n_runs >= ln(1/delta) / (2 c^2 lambda_min^2) guarantees that every
    eigenvalue of interest (>= lambda_min) has relative error below c except
    with probability delta, by Hoeffding's inequality.
    """

    c: float
    delta: float
    lambda_min: float
    n_runs: int


def plan_shots(c: float, delta: float, lambda_min: float) -> ShotPlan:
    if c <= 0 or lambda_min <= 0:
        raise ValueError("c and lambda_min must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    n = math.ceil(math.log(1.0 / delta) / (2.0 * c**2 * lambda_min**2))
    return ShotPlan(c, delta, lambda_min, max(n, 1))


def readout(rho: DensityMatrix, a: LayeredAnsatz, m: int, shots: int = 0, rng=None) -> EigenEstimate:
    """Top-m standard-basis probabilities of V rho V^dag, largest first."""
    return read_estimate(apply_ansatz(rho, a), m, shots, rng)


def read_estimate(rho_t: DensityMatrix, m: int, shots: int = 0, rng=None) -> EigenEstimate:
    """Top-m standard-basis probabilities of an already transformed state.

    shots == 0 reads the exact diagonal; shots > 0 uses sampled frequencies.
    Ties are broken by bitstring order.  If fewer than m distinct bitstrings
    were observed, missing entries are zero-padded and flagged.
    """
    if not 1 <= m <= 2**rho_t.n:
        raise ValueError(f"m={m} out of range")
    if shots == 0:
        p = rho_t.diagonal()
        shots_used = 0
    else:
        p = sample_counts(rho_t, shots, rng) / shots
        shots_used = shots
    order = np.argsort(-p, kind="stable")[:m]
    lambdas = np.clip(p[order], 0.0, 1.0)
    padded = bool(shots_used and np.any(lambdas == 0.0))
    return EigenEstimate(
        lambdas=lambdas,
        bitstrings=tuple(index_to_bitstring(int(i), rho_t.n) for i in order),
        shots_used=shots_used,
        padded=padded,
    )


def param_shift_gradient(
    rho: DensityMatrix, a: LayeredAnsatz, h: Hamiltonian, shots: int = 0, rng=None
) -> np.ndarray:
    """dC/dtheta_nu for every parameter: [C(theta_nu + pi/2) - C(theta_nu - pi/2)] / 2.

    With shots > 0 each shifted circuit's C is estimated from `shots` fresh
    samples, drawn in parameter order, + before -.  With shots == 0 the same
    derivative is computed in adjoint form (see `_adjoint_gradient`).  This is
    one walk of the factor A of rho = A A^dag, then `_gradient` on that walk.
    """
    energies = h.energies()
    if energies.size != rho.dim:
        raise ValueError("Hamiltonian and state disagree on qubit count")
    mats = a.block_matrices()
    return _gradient(_forward_states(rho.factor(), a, mats), a, mats, energies, shots, rng)


def _gradient(states, a: LayeredAnsatz, mats, energies: np.ndarray, shots: int, rng) -> np.ndarray:
    """dC/dtheta from one walk: its forward states psi_b and the block matrices `mats`.

    With shots > 0 the shifted circuits are column groups of one wide array,
    in angle order with + before -: at block b the copies in flight get B_b in
    one contraction, then the 2w copies of psi_b shifted at block b join them.
    """
    if shots == 0:
        return _adjoint_gradient(states, a, mats, energies)
    pairs, n, w, rng = a.block_pairs, a.n, a.kind.angles_per_block, np.random.default_rng(rng)
    # shifted[b, j, 0 / 1]: block b with angle j moved by +pi/2 / -pi/2
    angles = np.tile(a.block_angles[:, None, None, :], (1, w, 2, 1))
    angles[:, np.arange(w), :, np.arange(w)] += [np.pi / 2, -np.pi / 2]
    shifted = a.kind.unitaries(angles)
    rank = states[0].shape[1]
    wide = np.empty((2**n, 0), dtype=complex)
    for b, (state, pair) in enumerate(zip(states[:-1], pairs)):
        if b:
            wide = _apply_left(wide, mats[b], pair, n)
        fresh = [_apply_left(state, block, pair, n) for block in shifted[b].reshape(2 * w, 4, 4)]
        wide = np.concatenate([wide] + fresh, axis=1)
    copies = (DensityMatrix(factor=wide[:, s : s + rank], validate=False) for s in range(0, wide.shape[1], rank))
    val = np.array([float(energies @ sample_counts(copy, shots, rng)) for copy in copies]) / shots
    return 0.5 * (val[0::2] - val[1::2])


def _adjoint_gradient(states, a: LayeredAnsatz, mats, energies: np.ndarray) -> np.ndarray:
    """Exact dC/dtheta of C = Tr(V A A^dag V^dag H) from the forward states psi_b.

    One backward sweep from lam = H psi_B stacks every block's 4x4 environment
    G_b = Tr_rest[psi_b lam^dag], then sets lam <- B_b^dag lam.  For the pair
    (q, q+1), G_b is one matmul of the two factors with the pair's two row
    bits moved to the front, (4, rest) @ (rest, 4).  All angles'
    2 Re Tr(dB_j G_b) then come from one einsum against the stack of block
    derivatives.
    """
    pairs, n = a.block_pairs, a.n
    lam = energies[:, None] * states[-1]
    env = np.empty((a.n_blocks, 4, 4), dtype=complex)
    for b in range(a.n_blocks - 1, -1, -1):
        psi, lam_t = (m.reshape(2 ** pairs[b][0], 4, -1).swapaxes(0, 1).reshape(4, -1) for m in (states[b], lam))
        env[b] = psi @ lam_t.conj().T
        if b:
            lam = _apply_left(lam, mats[b].conj().T, pairs[b], n)
    traces = np.einsum("bjik,bki->bj", a.kind.derivatives(a.block_angles), env)  # Tr(dB_j G_b)
    return 2.0 * traces.real.reshape(-1)


@dataclass(frozen=True)
class OptimizerConfig:
    """Gradient stepper settings; kind is 'adam' or 'gd'."""

    kind: str = "adam"
    lr: float = 0.05

    def __post_init__(self):
        if self.kind not in ("adam", "gd"):
            raise ValueError(f"unknown optimizer {self.kind!r}")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")


class _Stepper:
    def __init__(self, cfg: OptimizerConfig, size: int):
        self.cfg = cfg
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.k = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        if cfg.kind == "gd":
            return theta - cfg.lr * grad
        self.k += 1
        self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * grad**2
        mh = self.m / (1 - ADAM_BETA1**self.k)
        vh = self.v / (1 - ADAM_BETA2**self.k)
        return theta - cfg.lr * mh / (np.sqrt(vh) + ADAM_EPSILON)


@dataclass(frozen=True)
class CostConfig:
    """Which cost drives the loop: 'local', 'global' or 'adaptive'."""

    variant: str
    local: LocalWeights
    global_part: GlobalPart
    m: int
    shots: int = 0

    def __post_init__(self):
        if self.variant not in ("local", "global", "adaptive"):
            raise ValueError(f"unknown cost variant {self.variant!r}")
        if self.global_part.m != self.m:
            raise ValueError("global part must mark exactly m bitstrings")


class TracePoint(NamedTuple):
    iteration: int
    t: float
    cost: float
    eps_abs: float
    eps_rel: float


@dataclass
class OptimizeResult:
    theta_opt: np.ndarray
    trace: list[TracePoint]
    final_hamiltonian: Hamiltonian
    ansatz: LayeredAnsatz
    transformed: DensityMatrix  # V rho V^dag at theta_opt
    estimate: EigenEstimate | None = None


def optimize(
    rho: DensityMatrix,
    a: LayeredAnsatz,
    cost: CostConfig,
    schedule: StepwiseSchedule,
    optimizer: OptimizerConfig,
    rng=None,
    callback=None,
) -> OptimizeResult:
    """Run the training loop and return the final parameters plus the trace.

    Trace rows hold the cost after each step under the Hamiltonian in force,
    plus the oracle eigenvalue errors eps_abs / eps_rel of the current top-m
    diagonal against the exact spectrum `rho.eigenvalues()`.  Row 0 records
    the starting point.  A NaN cost aborts the run.

    Each row builds the block matrices and walks the factor once; the walk
    yields the row's transformed state V A (so V rho V^dag), which serves the
    adaptive update, and the next step's gradient at the same theta.  The
    last one gives the final estimate and is returned as `transformed`.
    `callback(k, t, ansatz, cost_value, transformed)` fires after every row.
    """
    rng = np.random.default_rng(rng)
    lam_exact = rho.eigenvalues()[: cost.m]
    # f(0) = 0: the adaptive loop starts from the local Hamiltonian
    h: Hamiltonian = cost.global_part if cost.variant == "global" else cost.local
    energies = h.energies()  # re-read only when h changes
    stepper = _Stepper(optimizer, a.theta.size)
    trace = []

    def record(k: int, t: float, current: LayeredAnsatz):
        mats = current.block_matrices()
        states = _forward_states(rho.factor(), current, mats)
        rho_t = DensityMatrix(factor=states[-1], validate=False)
        c = float(energies @ rho_t.diagonal())
        if np.isnan(c):
            raise FloatingPointError(f"cost became NaN at iteration {k}")
        errs = eigen_errors(lam_exact, read_estimate(rho_t, cost.m), cost.m)
        trace.append(TracePoint(k, t, c, errs.eps_lambda, errs.eps_rel))
        if callback is not None:
            callback(k, t, current, c, rho_t)
        return rho_t, states, mats

    rho_t, states, mats = record(0, 0.0, a)
    for k in range(1, schedule.n_max + 1):
        t = schedule.t(k)
        if cost.variant == "adaptive" and schedule.is_update(k):
            measured = read_estimate(rho_t, cost.m, cost.shots, rng)
            h = AdaptiveHamiltonian(
                local=cost.local,
                global_part=cost.global_part.with_bitstrings(measured.bitstrings),
                f_of_t=schedule,
                t=t,
            )
            energies = h.energies()
        grad = _gradient(states, a, mats, energies, cost.shots, rng)
        a = LayeredAnsatz(a.n, a.layers, a.kind, stepper.step(a.theta, grad))
        rho_t, states, mats = record(k, t, a)

    return OptimizeResult(
        theta_opt=a.theta, trace=trace, final_hamiltonian=h, ansatz=a, transformed=rho_t,
        estimate=read_estimate(rho_t, cost.m, cost.shots, rng),
    )
