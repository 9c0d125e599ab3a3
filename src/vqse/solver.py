"""Optimization engine: parameter-shift gradients, Adam/GD steppers, the
adaptive training loop, eigenvalue readout and its errors, and the shot planner.

The training loop follows a fixed iteration budget n_max.  With the adaptive
cost, every s iterations (s divides n_max) the transformed state is measured
in the standard basis, the m most likely bitstrings become the marked states
of the global part, and the Hamiltonian is rebuilt as
(1 - t) H_L + t H_G(t) with t = k / n_max.  Between updates the Hamiltonian
is frozen, which makes the effective schedule f(t) stepwise-constant with
f(0) = 0 and f(1) = 1.  For the fixed local / global costs the loop reduces
to plain gradient descent on a constant Hamiltonian.  The loop trains R
independent runs (restarts from different angles) in lockstep: every array
of a step carries a leading run axis, and each run keeps its own
Hamiltonian and generator, so its results are those of training it alone.

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
measurement of its shifted circuit would be, all of a run's copies in one
multinomial draw.  With exact costs the same
derivative is computed in adjoint form (Jones & Gacon, arXiv:2009.02823): a
backward state lam = (B_{b+1} ... )^dag H psi_B is swept from the end, each
block's 4x4 environment Tr_rest[psi_b lam^dag] is one matmul into a stack,
and all angles are read off that stack in one einsum against the stack of
block derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
        """Stepwise f(t): the loop time of the most recent update.

        Exact at every loop time t = k / n_max: t * n_max can round to just
        below k, so an iteration whose float time is t counts as k itself.
        """
        k = round(t * self.n_max)
        if k / self.n_max != t:  # between iterations
            k = math.floor(t * self.n_max)
        return k // self.s * self.s / self.n_max


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
    angles = a.block_angles[None]
    mats = a.kind.unitaries(angles)
    states = _forward_states(rho.factor(), a, mats)
    return _gradient(states, a, angles, mats, energies[None], shots, [np.random.default_rng(rng)])[0]


def _gradient(states, a: LayeredAnsatz, angles, mats, energies: np.ndarray, shots: int, rngs) -> np.ndarray:
    """dC/dtheta of R runs in lockstep, (R, P), from one walk of all of them.

    `a` gives the circuit's shape; run i has block angles angles[i] (B, w),
    block matrices mats[i], forward states psi_b[i] (psi_0 = A is shared),
    energies[i] and, with shots > 0, the generator rngs[i].  Then each run's
    shifted circuits are column groups of one wide array, in angle order with
    + before -: at block b the copies in flight get B_b in one contraction,
    and the 2w copies of psi_b shifted at block b join them.  Each finished
    copy's outcome distribution is its squared row norms summed over the
    rank, clipped and normalized like `sample_counts`; one multinomial draw
    per run samples all its copies, in the same stream order as one
    `sample_counts` call per copy.
    """
    if shots == 0:
        return _adjoint_gradient(states, a, angles, mats, energies)
    pairs, n, w = a.block_pairs, a.n, a.kind.angles_per_block
    runs, rank = mats.shape[0], states[0].shape[-1]
    # shifted[i, b, j, 0 / 1]: run i's block b with angle j moved by +pi/2 / -pi/2
    shifted = np.tile(angles[..., None, None, :], (1, 1, w, 2, 1))
    shifted[..., np.arange(w), :, np.arange(w)] += [np.pi / 2, -np.pi / 2]
    shifted = a.kind.unitaries(shifted)
    wide = np.empty((runs, 2**n, 0), dtype=complex)
    for b, (state, pair) in enumerate(zip(states[:-1], pairs)):
        if b:
            wide = _apply_left(wide, mats[:, b], pair, n)
        blocks = shifted[:, b].reshape(runs, 2 * w, 4, 4).swapaxes(0, 1)  # copy by copy, all runs each
        fresh = [_apply_left(state, block, pair, n) for block in blocks]
        wide = np.concatenate([wide] + fresh, axis=-1)
    # (runs, copies, 2^n) outcome probabilities, each copy's row contiguous
    p = (wide.real**2 + wide.imag**2).reshape(runs, 2**n, -1, rank).sum(axis=-1).swapaxes(1, 2).copy()
    p = np.clip(p, 0.0, None)
    counts = np.stack([rng.multinomial(shots, q / q.sum(axis=-1, keepdims=True)) for rng, q in zip(rngs, p)])
    # (1, 2^n) @ (2^n, 1) per copy is the dot of `energies @ counts`; a matrix-vector product rounds differently
    val = (counts[:, :, None, :] @ energies[:, None, :, None]).reshape(runs, -1) / shots
    return 0.5 * (val[:, 0::2] - val[:, 1::2])


def _adjoint_gradient(states, a: LayeredAnsatz, angles, mats, energies: np.ndarray) -> np.ndarray:
    """Exact dC/dtheta of C = Tr(V A A^dag V^dag H) for R runs from their forward states.

    One backward sweep from lam = H psi_B stacks every run's and block's 4x4
    environment G_b = Tr_rest[psi_b lam^dag], then sets lam <- B_b^dag lam.
    For the pair (q, q+1), G_b is one matmul of the two factors with the
    pair's two row bits moved to the front, (R, 4, rest) @ (R, rest, 4).  All
    angles' 2 Re Tr(dB_j G_b) then come from one einsum against the stack of
    block derivatives.
    """
    pairs, n = a.block_pairs, a.n
    runs, blocks = mats.shape[:2]
    lam = energies[..., None] * states[-1]
    daggers = mats.conj().swapaxes(-1, -2)
    env = np.empty((runs, blocks, 4, 4), dtype=complex)
    for b in range(blocks - 1, -1, -1):
        psi, lam_t = (
            m.reshape(m.shape[:-2] + (2 ** pairs[b][0], 4, -1)).swapaxes(-3, -2).reshape(m.shape[:-2] + (4, -1))
            for m in (states[b], lam)
        )
        env[:, b] = psi @ lam_t.conj().swapaxes(-1, -2)
        if b:
            lam = _apply_left(lam, daggers[:, b], pairs[b], n)
    derivs = a.kind.derivatives(angles)
    if blocks == 1:  # einsum sums in another order over a batch axis of length 1 than over a longer one
        traces = np.stack([np.einsum("bjik,bki->bj", d, g) for d, g in zip(derivs, env)])
    else:  # Tr(dB_j G_b)
        traces = np.einsum("bjik,bki->bj", derivs.reshape((runs * blocks,) + derivs.shape[2:]), env.reshape(-1, 4, 4))
    return 2.0 * traces.real.reshape(runs, -1)


@dataclass(frozen=True)
class OptimizerConfig:
    """Gradient stepper settings; kind is 'adam' or 'gd'."""

    kind: str = "adam"
    lr: float = 0.05

    def __post_init__(self):
        if self.kind not in ("adam", "gd"):
            raise ValueError(f"unknown optimizer {self.kind!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be finite and positive, got {self.lr}")


class _Stepper:
    """Adam or gradient-descent steps on theta of any shape, elementwise ((R, P) for R runs)."""

    def __init__(self, cfg: OptimizerConfig, shape):
        self.cfg = cfg
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
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
    """One training run: `optimize_runs` with R = 1.

    `callback(k, t, ansatz, cost_value, transformed)` fires after every row.
    """
    hook = None if callback is None else (lambda run, *row: callback(*row))
    return optimize_runs(rho, [a], cost, schedule, optimizer, [rng], hook)[0]


def optimize_runs(
    rho: DensityMatrix,
    ansatze: Sequence[LayeredAnsatz],
    cost: CostConfig,
    schedule: StepwiseSchedule,
    optimizer: OptimizerConfig,
    rngs: Sequence,
    callback=None,
) -> list[OptimizeResult]:
    """Train R runs on one state in lockstep; return each run's parameters and trace.

    The runs share the circuit's shape and differ in their starting angles
    (ansatze[i].theta) and generators (rngs[i], a seed or a Generator, drawn
    from with shots > 0 in the same order as a run of its own).  Each run's
    results are those of training it alone; only the numpy calls are shared.

    Trace rows hold the cost after each step under the run's Hamiltonian in
    force, plus the oracle eigenvalue errors eps_abs / eps_rel of the current
    top-m diagonal against the exact spectrum `rho.eigenvalues()`.  Row 0
    records the starting point.  A NaN cost aborts the training.

    Each step builds every run's block matrices in one (R, B, 4, 4) stack and
    walks the factor once for all runs; the walk yields each run's
    transformed state V A (so V rho V^dag), which serves its trace row, its
    adaptive update, and the next step's gradient at the same theta.  The
    last one gives each run's final estimate and is returned as `transformed`.
    `callback(run, k, t, ansatz, cost_value, transformed)` fires after every
    row, once per run, in run order.
    """
    rngs = [np.random.default_rng(r) for r in rngs]
    if not ansatze or len(rngs) != len(ansatze) or len({(b.n, b.layers, b.kind) for b in ansatze}) > 1:
        raise ValueError("lockstep runs need one generator each and circuits of one shape")
    a, runs, m = ansatze[0], len(ansatze), cost.m
    factor, lam_exact = rho.factor(), rho.eigenvalues()[:m]
    nonzero = lam_exact > ZERO_EIGENVALUE_TOL
    # f(0) = 0: the adaptive loop starts from the local Hamiltonian
    hams: list[Hamiltonian] = [cost.global_part if cost.variant == "global" else cost.local] * runs
    energies = np.tile(hams[0].energies(), (runs, 1))  # row i re-read only when run i's H changes
    theta = np.stack([b.theta for b in ansatze])
    stepper = _Stepper(optimizer, theta.shape)
    traces: list[list[TracePoint]] = [[] for _ in range(runs)]

    def record(k: int, t: float, theta: np.ndarray):
        angles = theta.reshape(runs, a.n_blocks, -1)
        mats = a.kind.unitaries(angles)
        states = _forward_states(factor, a, mats)
        psi = states[-1]
        diag = (psi.real**2 + psi.imag**2).sum(axis=-1)
        costs = (energies[:, None, :] @ diag[:, :, None]).reshape(runs)  # one dot per run, as in `_gradient`
        if np.isnan(costs).any():
            raise FloatingPointError(f"cost became NaN at iteration {k}")
        # the arithmetic of eigen_errors on read_estimate's top m, for every run at once
        top = np.take_along_axis(diag, np.argsort(-diag, axis=-1, kind="stable")[:, :m], axis=-1)
        d = lam_exact - np.clip(top, 0.0, 1.0)
        eps_abs, eps_rel = (d**2).sum(axis=-1), ((d[:, nonzero] / lam_exact[nonzero]) ** 2).sum(axis=-1)
        for i in range(runs):
            traces[i].append(TracePoint(k, t, float(costs[i]), float(eps_abs[i]), float(eps_rel[i])))
            if callback is not None:
                current = LayeredAnsatz(a.n, a.layers, a.kind, theta[i])
                callback(i, k, t, current, float(costs[i]), DensityMatrix(factor=psi[i], validate=False))
        return angles, mats, states

    angles, mats, states = record(0, 0.0, theta)
    for k in range(1, schedule.n_max + 1):
        t = schedule.t(k)
        if cost.variant == "adaptive" and schedule.is_update(k):
            for i in range(runs):
                measured = read_estimate(DensityMatrix(factor=states[-1][i], validate=False), m, cost.shots, rngs[i])
                marked = cost.global_part.with_bitstrings(measured.bitstrings)
                hams[i] = AdaptiveHamiltonian(local=cost.local, global_part=marked, f_of_t=schedule, t=t)
                energies[i] = hams[i].energies()
        grad = _gradient(states, a, angles, mats, energies, cost.shots, rngs)
        theta = stepper.step(theta, grad)
        angles, mats, states = record(k, t, theta)

    results = []
    for i in range(runs):
        final = LayeredAnsatz(a.n, a.layers, a.kind, theta[i])
        rho_t = DensityMatrix(factor=states[-1][i], validate=False)
        results.append(OptimizeResult(
            theta_opt=final.theta, trace=traces[i], final_hamiltonian=hams[i], ansatz=final, transformed=rho_t,
            estimate=read_estimate(rho_t, m, cost.shots, rngs[i]),
        ))
    return results
