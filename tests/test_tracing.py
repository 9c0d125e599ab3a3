"""The benchmark tracer (perfbench/tracing.py) must install on the package.

The tracer wraps layer functions by module and attribute name; a renamed or
re-shaped function makes it raise at install or count nothing.  This test
runs one tiny [pca], one tiny [wstate] and one tiny sampled [xy] config
under it.
"""

import importlib.util
from pathlib import Path

from vqse.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

PCA_CFG = """\
[run]
seed = 3
verbosity = 0

[pca]
n = 3
m = 2
cost = adaptive
layers = 1
n_max = 4
s = 2
runs = 1
n_ancilla = 1
"""

WSTATE_CFG = """\
[run]
seed = 3
verbosity = 0

[wstate]
runs = 1
iters = 4
update_every = 2
p_depol_2q = 0.02
layers = 1
"""

XY_CFG = """\
[run]
seed = 3
verbosity = 0

[xy]
N = 4
keep = 2
Jx = 1.0
Jy = 0.5
gamma = 0.0
h_grid = 0.6,0.7,0.8
runs = 1
m = 2
layers = 1
n_max = 4
s = 2
shots = 64
locate = true
"""


def _tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_counts_forwards_on_pca_and_wstate(tmp_path):
    tracer = _tracer_class()()
    configs = {"pca": PCA_CFG, "wstate": WSTATE_CFG, "xy": XY_CFG}
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    tracer.install()
    try:
        for name in configs:
            argv = ["run", "--config", str(tmp_path / f"{name}.cfg"), "--out", str(tmp_path / name)]
            assert main(argv) == 0, name
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["solver.iterations"] == 8 + 3 * 4  # [xy]: n_max iterations per field
    # one walk per step, plus the starting point of each run: 25 walks over 20 steps
    assert 0 < metrics["ansatz.forwards_per_iter"] <= 1.25
    assert metrics["qmath.exact_eigs.calls"] == 0
    assert metrics["hamiltonians.sample_counts.calls"] > 0
