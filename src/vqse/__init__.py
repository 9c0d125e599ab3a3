"""Variational quantum state eigensolver: a classical, desk-scale toolkit.

Estimates the m largest eigenvalues and eigenvectors of a density matrix by
training a layered two-qubit-block circuit to minimize the expectation value
of a diagonal cost Hamiltonian, then reading the eigenvalues off the
standard-basis outcome probabilities of the transformed state.
"""

from .qmath import (
    DensityMatrix,
    KrausChannel,
    PureState,
    apply_channel,
    apply_unitary,
    exact_eigs,
    fidelity_pure,
    partial_trace,
    purity,
)
from .ansatz import (
    BlockKind,
    LayeredAnsatz,
    apply_ansatz,
    prepare_eigenvector,
)
from .hamiltonians import (
    AdaptiveHamiltonian,
    GlobalPart,
    LocalWeights,
    default_local_weights,
    global_from_local,
    lowest_levels,
)
from .solver import (
    CostConfig,
    OptimizerConfig,
    ShotPlan,
    StepwiseSchedule,
    optimize,
    optimize_runs,
    param_shift_gradient,
    plan_shots,
    readout,
)
from .metrics import (
    EigenEstimate,
    ErrorReport,
    bound_from_cost,
    bound_from_purity,
    eigen_errors,
    eigenvector_error,
    runs_per_success,
)

__version__ = "0.1.0"
