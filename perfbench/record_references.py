"""Record the reference outputs the correctness gate compares against.

Runs every workload once per seed, untimed, keeps only runs that pass the
seed-independent checks, and writes ``references.json`` next to this file.
Run it from the root of a checkout of the commit whose outputs are trusted:

    python3 perfbench/record_references.py --seeds 0-63 --source "$(git rev-parse HEAD)"
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from check import FIELD_TOL, REFERENCES, RESIDUAL_TOL, key_outputs
from run import OUT, run_child
from workloads import WORKLOADS

# Outputs that do not depend on the workload seed: one value per workload.
SEED_INDEPENDENT = {
    "factorizing_field": FIELD_TOL,
    "factorization_residual": RESIDUAL_TOL,
    "baseline_fidelity": 1e-12,
}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-63")
    parser.add_argument("--source", required=True, help="what was run, e.g. a commit id")
    args = parser.parse_args()

    references: dict = {"source": args.source}
    for name, workload in WORKLOADS.items():
        entry: dict = {}
        for seed in args.seeds:
            sample = run_child(workload, seed, False, {})
            if sample["failed"]:
                print(f"{name} seed {seed}: {sample['problems']}", file=sys.stderr)
                return 1
            for key, value in key_outputs(workload.experiment, OUT / name / "artifacts").items():
                if key not in SEED_INDEPENDENT:
                    entry.setdefault(key, {})[str(seed)] = value
                elif key not in entry:
                    entry[key] = value
                elif abs(entry[key] - value) > SEED_INDEPENDENT[key]:
                    print(f"{name} seed {seed}: {key} = {value!r} differs from "
                          f"{entry[key]!r}", file=sys.stderr)
                    return 1
            print(f"{name} seed {seed}: recorded", flush=True)
        references[name] = entry
    Path(REFERENCES).write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
