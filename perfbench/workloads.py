"""The four benchmark workloads: generated `vqse run` configs and their checks.

Each workload fixes one experiment shape and takes only its seed from the
command line; the seed goes into ``[run] seed``, which seeds the input state
(PCA), the training initialisations and the shot noise.  Run lengths are
chosen so that one `vqse run` takes a few seconds on a 2-core host, which
leaves room for several timed repetitions inside one benchmark run.

Why each workload exists (the layer it stresses):

* ``pca_small``: the C3 shape (n=4, full rank, m=6, L=2, rycz).  16x16
  matrices, so numpy per-call overhead dominates: block-unitary construction
  and the exact parameter-shift gradient.
* ``pca_large``: n=8, rank 4.  The 256x256 density matrix makes the 4^n
  contraction work dominate; the case a factor-based (rank-r) state targets.
* ``xy_afm_shots``: the antiferromagnetic ring with the factorizing-field
  search (dense 256x256 ``eigh`` plus golden searches) and sampled training
  (shots > 0), which must stay on the parameter-shift path.  The bypass
  workload for any exact-gradient change.
* ``wstate_noisy``: the only user of the Kraus-channel path and of 12-angle
  (gcnotg) blocks; the noisy eigenvector re-preparation runs every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

# Shapes are fixed by the benchmark definition; changing any of them changes
# the workload and needs re-recorded references.
_PCA_SMALL = """\
[run]
seed = {seed}
verbosity = 0

[pca]
n = 4
n_ancilla = 4
m = 6
cost = adaptive
layers = 2
block = rycz
n_max = 100
s = 10
runs = 2
"""

_PCA_LARGE = """\
[run]
seed = {seed}
verbosity = 0

[pca]
n = 8
n_ancilla = 2
m = 4
cost = adaptive
layers = 2
block = rycz
n_max = 8
s = 4
runs = 1
"""

# Antiferromagnetic ring at gamma = pi/3; its product point is h = 1, which
# the three-point grid brackets.
_XY_AFM_SHOTS = """\
[run]
seed = {seed}
verbosity = 0

[xy]
N = 8
keep = 4
Jx = -1.0
Jy = -0.5
gamma = 1.0471975511965976
h_grid = 0.9,1.0,1.1
locate = true
runs = 1
m = 3
layers = 2
n_max = 10
s = 5
shots = 2000
"""

# The shipped configs/wstate.cfg noise model, with fewer runs.
_WSTATE_NOISY = """\
[run]
seed = {seed}
verbosity = 0

[wstate]
runs = 2
iters = 50
update_every = 10
p_depol_2q = 0.02
p_depol_1q = 0.002
layers = 1
block = gcnotg
"""


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str  # the config section, which names the artifacts
    template: str
    ops: int  # training runs, XY field points or W-state runs per `vqse run`
    probe: tuple[str, ...]  # the kinds of work it spends its time on (probe.py)

    def config_text(self, seed: int) -> str:
        return self.template.format(seed=config_seed(seed))


def config_seed(seed: int) -> int:
    """The benchmark seed as the unsigned 64-bit `[run] seed` vqse accepts."""
    return int(seed) % 2**64


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pca_small", "pca", _PCA_SMALL, ops=2, probe=("python", "numpy")),
        Workload("pca_large", "pca", _PCA_LARGE, ops=1, probe=("numpy", "blas")),
        Workload("xy_afm_shots", "xy", _XY_AFM_SHOTS, ops=3, probe=("python", "numpy", "blas")),
        Workload("wstate_noisy", "wstate", _WSTATE_NOISY, ops=2, probe=("python", "numpy")),
    )
}
