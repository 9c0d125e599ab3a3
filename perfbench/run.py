"""The vqse benchmark: time `vqse run` on one generated workload.

Run from the root of a vqse checkout:

    python3 perfbench/run.py --workload pca_small --seed 1 --seconds 20 --trace 0

Each repetition starts a fresh interpreter (``child.py``) that imports vqse,
writes the workload's config and runs ``vqse run --jobs 1`` in-process; the
repetitions go on until the next one would overrun ``--seconds`` (at least
three are made).  Every repetition's outputs go through the correctness gate
in ``check.py``.  The benchmark and its workload processes run on one CPU
with one BLAS thread, so that the dense ``eigh`` and 256x256 work neither
oversubscribes a small shared host nor drifts between runs.

``--trace 0`` reports the end-to-end metrics, medians over repetitions:

* ``run_rel``: wall time of the `vqse run` call, artifact writing included,
  over the mean pass time of fixed loops that ``probe.py`` times every 50 ms
  during the call (see README.md for why not raw seconds);
* ``peak_rss_mb``: peak resident memory of the workload process;
* ``setup_s``: fresh interpreter to inputs ready (import vqse, write config).

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracing.py`` (medians over the traced repetitions)
plus ``trace.overhead_frac`` (traced over untraced ``run_rel``, minus one)
and ``cli.artifact_bytes``.

Both modes print readable lines, including the raw ``run_s``,
``failed_frac`` (failed operations over attempted) and the environment, and
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Outputs of the last repetition
stay in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import failed_ops, load_references
from tracing import unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")
BLAS_THREADS = 1
MIN_REPETITIONS = 3
CHILD_TIMEOUT_S = 120  # a hung child still leaves the run inside 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def environment(cpus: list[int], blas_threads_seen) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(cpus),
        "pinned_cpu": cpus[-1],
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_seen": blas_threads_seen,
    }


def run_child(workload, seed: int, traced: bool, references: dict) -> dict:
    """One workload process: its timings, its layer metrics and its verdict."""
    out = OUT / workload.name
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
           "--seed", str(seed), "--out", str(out)] + (["--trace"] if traced else [])
    with open(out / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                env=child_env())
        # a child that hangs before READY must not block the parent past its deadline
        ready = (bool(select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0])
                 and proc.stdout.readline().strip() == "READY")
        setup_s = time.perf_counter() - start
        try:
            proc.communicate(timeout=max(CHILD_TIMEOUT_S - setup_s, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    failed, problems = failed_ops(workload, seed, out, references)
    sample = {"traced": traced, "setup_s": setup_s if ready else None, "failed": len(failed),
              "problems": problems}
    result_path = out / "result.json"
    if result_path.is_file():
        result = json.loads(result_path.read_text())
        sample.update(run_s=result["run_s"], pass_s=result["pass_s"],
                      peak_rss_mb=result["peak_rss_mb"],
                      blas_threads=result["blas_threads"], layers=result.get("layers"))
        artifacts = out / "artifacts"
        if artifacts.is_dir():
            sample["artifact_bytes"] = sum(p.stat().st_size for p in artifacts.iterdir())
    return sample


def median_of(samples: list[dict], key: str) -> float:
    values = [s[key] for s in samples if s.get(key) is not None]
    return statistics.median(values) if values else 0.0


def relative_run_time(samples: list[dict]) -> float:
    """Median over repetitions of `vqse run` time in probe passes timed during it."""
    ratios = [s["run_s"] / s["pass_s"] for s in samples if s.get("pass_s")]
    return statistics.median(ratios) if ratios else 0.0


def describe(samples: list[dict], key: str) -> str:
    values = [s[key] for s in samples if s.get(key) is not None]
    if len(values) < 2:
        return f"{len(values)} sample(s)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q1:.4f} .. {q3:.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path("src") / "vqse" / "cli.py").is_file():
        print("error: run from the root of a vqse checkout (no src/vqse/cli.py here)",
              file=sys.stderr)
        return 2

    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})  # inherited by every workload process
    workload = WORKLOADS[args.workload]
    references = load_references()
    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        samples.append(run_child(workload, args.seed, traced, references))
        elapsed = time.perf_counter() - start
        if (len(samples) >= MIN_REPETITIONS
                and elapsed + elapsed / len(samples) > args.seconds):
            break

    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    attempted = workload.ops * len(samples)
    failed = sum(s["failed"] for s in samples)
    seen = sorted({s.get("blas_threads") for s in samples}, key=str)
    print("env " + json.dumps(environment(cpus, seen[0] if len(seen) == 1 else seen)))
    print(f"workload {workload.name}, seed {args.seed}: {len(samples)} workload processes "
          f"({len(traced)} traced), {attempted} operations")
    end_to_end = {
        "run_rel": (relative_run_time(plain), "pass"),
        "peak_rss_mb": (median_of(plain, "peak_rss_mb"), "MiB"),
        "setup_s": (median_of(samples, "setup_s"), "s"),
    }
    print(f"  {'setup_s':<12} {end_to_end['setup_s'][0]:10.4f} s    {describe(samples, 'setup_s')}")
    print(f"  {'run_s':<12} {median_of(plain, 'run_s'):10.4f} s    {describe(plain, 'run_s')}")
    print(f"  {'run_rel':<12} {end_to_end['run_rel'][0]:10.4f} pass median of run_s over the mean "
          f"probe pass timed during the run (median pass {median_of(plain, 'pass_s') * 1e3:.3f} ms)")
    print(f"  {'peak_rss_mb':<12} {end_to_end['peak_rss_mb'][0]:10.4f} MiB  "
          f"{describe(plain, 'peak_rss_mb')}")
    print(f"  {'failed_frac':<12} {failed / attempted:10.4f}      "
          f"{failed} of {attempted} operations failed")
    recorded = references.get(workload.name, {}).values()
    if not any(isinstance(v, dict) and str(args.seed) in v for v in recorded):
        print(f"  note: no reference recorded for seed {args.seed}; "
              "seed-independent checks only")
    for problem in sorted({p for s in samples for p in s["problems"]}):
        print(f"  FAIL {problem}")

    metrics = layer_metrics(plain, traced) if args.trace else end_to_end
    if args.trace:
        for name, (value, unit) in sorted(metrics.items()):
            print(f"  {name:<44} {value:12.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    runs = [s["layers"] for s in traced if s.get("layers")]
    names = sorted({k for layers in runs for k in layers})
    metrics = {k: (statistics.median(layers[k] for layers in runs), unit_of(k)) for k in names}
    metrics["trace.overhead_frac"] = (relative_run_time(traced) / relative_run_time(plain) - 1.0,
                                      "ratio")
    metrics["cli.artifact_bytes"] = (median_of(traced, "artifact_bytes"), "B")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
