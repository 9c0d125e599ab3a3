"""Eigenvalue estimates, their error functionals and the two verification bounds.

For exact eigenvalues lambda_i and estimates lambda~_i (top-m diagonal
entries of the transformed state):

* eps_lambda = sum_{i<=m} (lambda_i - lambda~_i)^2      (absolute error)
* eps_rel    = sum_{i<=m} (lambda_i - lambda~_i)^2 / lambda_i^2
* eps_v      = sum_{i<=m} <delta_i|delta_i>, with
  |delta_i> = rho |v_i> - lambda~_i |v_i> for the prepared eigenvector |v_i> = V^dag |z_i>,
  equal (V unitary) to || rho~ |z_i> - lambda~_i |z_i> ||^2 on rho~ = V rho V^dag.

Two computable upper bounds hold for both eps_lambda and eps_v:

* cost bound:    Tr[rho^2] - (E_{m+1} - C)^2 / sum_{i<=m} (E_{m+1} - E_i)^2,
  from the final cost C and the m+1 smallest energies of the cost
  Hamiltonian (degenerates to Tr[rho^2] when E_{m+1} <= C);
* purity bound:  Tr[rho^2] - (sum_{i<=m^} lambda~_i^2
                  + (1 - sum lambda~_i)^2 / (2^n - m^)),
  from the readout alone, for any m <= m^ < 2^n.  The purity bound is always
  at least as tight as the cost bound and improves as m^ grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .qmath import DensityMatrix, _bitstring_index, abs2

ZERO_EIGENVALUE_TOL = 1e-12
BOUND_SLACK = 1e-9


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
    eps_lambda: np.ndarray  # the estimates' leading shape: one value per row
    eps_rel: np.ndarray
    n_excluded: int  # relative-error terms dropped because lambda_i ~ 0


def eigen_errors(exact: np.ndarray, lambdas: np.ndarray, m: int) -> EigenErrors:
    """Absolute and relative eigenvalue errors over the top m estimates.

    `lambdas` is (..., m' >= m), one row per run, and the errors take its leading
    shape.  Relative-error terms with an exact eigenvalue at numerical zero are
    excluded from the sum and counted in n_excluded.
    """
    exact, lambdas = np.asarray(exact, dtype=float), np.asarray(lambdas, dtype=float)
    if lambdas.shape[-1] < m or exact.size < m:
        raise ValueError(f"need at least m={m} exact values and estimates")
    d = exact[:m] - lambdas[..., :m]
    nz = exact[:m] > ZERO_EIGENVALUE_TOL
    eps_rel = ((d[..., nz] / exact[:m][nz]) ** 2).sum(axis=-1)
    return EigenErrors((d**2).sum(axis=-1), eps_rel, int(m - nz.sum()))


def eigenvector_error(rho_t: DensityMatrix, est: EigenEstimate) -> float:
    """sum_i || rho~ |z_i> - lambda~_i |z_i> ||^2, column z_i of rho~ = psi psi^dag being psi psi[z_i]^dag."""
    psi = rho_t.factor()
    idx = [_bitstring_index(z, rho_t.n) for z in est.bitstrings]
    delta = psi @ psi[idx].conj().T
    delta[idx, np.arange(est.m)] -= est.lambdas
    return float(abs2(delta).sum())


class CostBound(NamedTuple):
    value: float
    degenerate: bool  # True when E_{m+1} <= C and the bound collapses to the purity


def bound_from_cost(cost: float, energies: Sequence[float], purity: float) -> CostBound:
    """Eigenvalue/eigenvector error bound from the final cost value.

    `energies` are the m+1 smallest eigenenergies of the cost Hamiltonian in
    ascending order.  When the cost exceeds E_{m+1} the bound degenerates to
    the purity itself and is flagged.
    """
    e = np.asarray(energies, dtype=float)
    if e.size < 2:
        raise ValueError("need at least the two smallest energies")
    if np.any(np.diff(e) < 0):
        raise ValueError("energies must be ascending")
    top = e[-1]
    denom = float(((top - e[:-1]) ** 2).sum())
    if denom <= 0:
        raise ValueError("degenerate energy list: all levels equal E_{m+1}")
    if top <= cost:
        return CostBound(float(purity), True)
    return CostBound(float(purity - (top - cost) ** 2 / denom), False)


def bound_from_purity(purity: float, est_lambdas: Sequence[float], n: int, m_hat: int) -> float:
    """Eigenvalue/eigenvector error bound from the readout alone (m^ entries)."""
    lam = np.asarray(est_lambdas, dtype=float)
    if m_hat != lam.size:
        raise ValueError("m_hat must equal the number of estimates supplied")
    if not 1 <= m_hat < 2**n:
        raise ValueError(f"m_hat={m_hat} must lie in [1, 2^n)")
    if np.any(np.diff(lam) > 1e-12):
        raise ValueError("estimates must be sorted descending")
    tail = (1.0 - lam.sum()) ** 2 / (2**n - m_hat)
    return float(purity - ((lam**2).sum() + tail))


def default_m_hat(m: int, n: int) -> int:
    """Default readout width for the purity bound: min(2m, 2^n - 1)."""
    return min(2 * m, 2**n - 1)


def runs_per_success(errors: Sequence[float], target: float) -> float:
    """Total runs divided by runs with eps_lambda below target; inf if none."""
    errors = list(errors)
    if not errors:
        raise ValueError("need at least one run")
    if target <= 0:
        raise ValueError("target must be positive")
    good = sum(1 for e in errors if e < target)
    return math.inf if good == 0 else len(errors) / good


@dataclass(frozen=True)
class ErrorReport:
    """All error functionals and bounds for one completed run."""

    eps_lambda: float
    eps_rel: float
    eps_v: float
    bound_cost: float
    bound_purity: float
    m_hat: int
    bound_cost_degenerate: bool = False


def build_error_report(
    rho: DensityMatrix,
    rho_t: DensityMatrix,
    est: EigenEstimate,
    cost: float,
    lowest_energies: Sequence[float],
    purity: float,
    est_wide: EigenEstimate,
) -> ErrorReport:
    """Assemble the report against rho's exact spectrum and rho_t = V rho V^dag; `est_wide` is the m^ >= m readout."""
    errs = eigen_errors(rho.eigenvalues(), est.lambdas, est.m)
    cb = bound_from_cost(cost, lowest_energies, purity)
    return ErrorReport(
        eps_lambda=float(errs.eps_lambda),
        eps_rel=float(errs.eps_rel),
        eps_v=eigenvector_error(rho_t, est),
        bound_cost=cb.value,
        bound_purity=bound_from_purity(purity, est_wide.lambdas, rho.n, est_wide.m),
        m_hat=est_wide.m,
        bound_cost_degenerate=cb.degenerate,
    )


class BoundCheck(NamedTuple):
    """One inequality lhs <= rhs and its margin rhs - lhs."""

    lhs: str
    rhs: str
    margin: float

    @property
    def holds(self) -> bool:
        """Margin at least -BOUND_SLACK; a NaN margin never holds."""
        return self.margin >= -BOUND_SLACK


def bound_checks(
    eps_lambda: float, eps_v: float, bound_cost: float, bound_purity: float
) -> list[BoundCheck]:
    """The five bound inequalities of one run: each error under each bound, then the order."""
    errors = (("eps_lambda", eps_lambda), ("eps_v", eps_v))
    bounds = (("bound_cost", bound_cost), ("bound_purity", bound_purity))
    checks = [BoundCheck(e, b, bv - ev) for e, ev in errors for b, bv in bounds]
    return checks + [BoundCheck("bound_purity", "bound_cost", bound_cost - bound_purity)]

