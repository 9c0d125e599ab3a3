"""The benchmark's workloads still reproduce its recorded reference outputs.

perfbench/check.py fails a benchmark run as `outputs_incorrect` when a key
output (best eps_lambda, the located field h* and its residual, the median
sampled-training error, the W-state fidelities) drifts from
perfbench/references.json.  This test runs each workload's generated config
in-process, as perfbench/child.py does, and applies check.py's own comparison,
so such drift fails here first.  It only reads perfbench/.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from vqse.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up there
    spec.loader.exec_module(module)
    return module


check, workloads = _load("check"), _load("workloads")


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_references(tmp_path, name, seed):
    workload = workloads.WORKLOADS[name]
    config = tmp_path / "workload.cfg"
    config.write_text(workload.config_text(seed))
    artifacts = tmp_path / "artifacts"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config), "--out", str(artifacts), "--jobs", "1"]) == 0
    references = check.load_references()
    for key in check.key_outputs(workload.experiment, artifacts):  # no key may skip its comparison
        want = references[name][key]
        assert (want.get(str(seed)) if isinstance(want, dict) else want) is not None, key
    assert check._against_references(workload, seed, artifacts, references) == []
