"""One workload process: import vqse, write the config, run it once.

Started by ``run.py`` from the root of a checkout.  It prints ``READY`` as
soon as its inputs are ready (the parent times set-up up to that line), then
runs ``vqse run`` in-process with ``--jobs 1``, runs ``vqse verify`` on a PCA
summary, and writes ``result.json`` into its output directory.  With
``--trace`` it installs the tracer for the run and writes the spans next to
the result.

    python3 perfbench/child.py --workload pca_small --seed 1 --out DIR [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import vqse.cli  # noqa: E402  (importing vqse is part of the timed set-up)
from probe import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    config = out / "workload.cfg"
    config.write_text(workload.config_text(args.seed))
    artifacts = out / "artifacts"
    print("READY", flush=True)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    argv = ["run", "--config", str(config), "--out", str(artifacts), "--jobs", "1"]
    with SpeedProbe(workload.probe) as probe, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = vqse.cli.main(argv)
        run_s = time.perf_counter() - start
    result = {"rc": rc, "run_s": run_s - probe.inside_s(), "pass_s": probe.pass_s()}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(out / "spans.csv")
        result["layers"] = tracer.layer_metrics()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = blas_threads()

    if workload.experiment == "pca":  # `vqse verify` re-checks the stored error bounds
        with contextlib.redirect_stdout(io.StringIO()):
            result["verify_rc"] = vqse.cli.main(["verify", str(artifacts / "pca_summary.txt")])
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
