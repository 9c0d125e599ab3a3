"""Spans around the layer entry points of `vqse`, installed from outside.

The tracer replaces each traced function at every module attribute that is
bound to it (callers hold their own names: ``solver`` imports
``block_unitary``, ``apply_ansatz`` and ``_conjugate`` by name, ``cli``
imports ``exact_eigs``), and the ``energies`` method on the three
Hamiltonian classes.  Nothing in ``src/`` changes.  Leaf helpers called many
times per block (rotation builders, bit conversions) are left unwrapped, so
their time shows as the self time of the layer that calls them.

A span is ``(id, parent_id, name, start, end, self_s)``; self time is the
span's duration minus the durations of its direct child spans.  Spans are
kept in memory and written out once, after the run.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter
from pathlib import Path

CONTRACT = "qmath.contract"

# layer name -> (module, attribute); `Class.method` names a method.
SPANNED = {
    "cli.run": ("cli", "run_command"),
    "cli.write": [("cli", "write_csv"), ("cli", "write_manifest")],
    "experiments.locate_factorization": ("experiments", "locate_factorization"),
    "experiments.xy_ground_reduced": ("experiments", "xy_ground_reduced"),
    "experiments.xy_hamiltonian": ("experiments", "xy_hamiltonian"),
    "experiments.random_low_rank_state": ("experiments", "random_low_rank_state"),
    "experiments.run_circuit": ("experiments", "run_circuit"),
    "solver.optimize": ("solver", "optimize"),
    "solver.param_shift_gradient": ("solver", "param_shift_gradient"),
    "solver.readout": ("solver", "readout"),
    "metrics.build_error_report": ("metrics", "build_error_report"),
    "metrics.eigenvector_error": ("metrics", "eigenvector_error"),
    "ansatz.apply_ansatz": ("ansatz", "apply_ansatz"),
    "ansatz.block_unitary": ("ansatz", "block_unitary"),
    "hamiltonians.sample_counts": ("hamiltonians", "sample_counts"),
    "hamiltonians.energies": [
        ("hamiltonians", "LocalWeights.energies"),
        ("hamiltonians", "GlobalPart.energies"),
        ("hamiltonians", "AdaptiveHamiltonian.energies"),
    ],
    "qmath.exact_eigs": ("qmath", "exact_eigs"),
    "qmath.partial_trace": ("qmath", "partial_trace"),
    "qmath.apply_unitary": ("qmath", "apply_unitary"),
    "qmath.apply_channel": ("qmath", "apply_channel"),
}

# Counted, not spanned: one call each is one dense forward pass or one step.
COUNTED = {
    "forward_states": ("solver", "_forward_states"),
    "steps": ("solver", "_Stepper.step"),
}

# The layers reported with calls, self time and share of the run.
LAYERS = [name for name in SPANNED if name != "cli.run"] + [CONTRACT]

MODULES = ("qmath", "ansatz", "hamiltonians", "solver", "metrics", "experiments", "cli")


class Tracer:
    """Records spans and counters while installed; `uninstall` restores vqse."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.flops = 0
        self.bytes = 0
        self.h_values: list[float] = []
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_s = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (span_id, -1 if parent is None else parent[0], name, start, end, duration - child_s)
        )

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    def _contract(self, fn, counts_work: bool):
        """`_apply_left` does the tensordot; `_conjugate` calls it twice.

        Both belong to one layer: only the outermost entry opens a span, and
        every `_apply_left` adds its work to the flop and byte counters.
        """

        def wrapper(mat, op, targets, n):
            if counts_work:
                self._count_contraction(mat, op)
            if self._stack and self._stack[-1][1] == CONTRACT:
                return fn(mat, op, targets, n)
            frame = self._enter(CONTRACT)
            try:
                return fn(mat, op, targets, n)
            finally:
                self._exit(frame)

        return wrapper

    def _count_contraction(self, mat, op) -> None:
        # (op on k targets) @ mat, mat of shape (2^n, cols): every output
        # element is a length-2^k dot product; one complex multiply-add is
        # 8 real flops.  Bytes: read mat and op once, write the output once.
        elems = mat.size
        width = op.shape[0]
        complex_ = mat.dtype.kind == "c" or op.dtype.kind == "c"
        self.flops += (8 if complex_ else 2) * elems * width
        self.bytes += mat.itemsize * 2 * elems + op.itemsize * op.size

    def _counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _xy_hamiltonian(self, fn):
        spanned = self._spanned("experiments.xy_hamiltonian", fn)

        def wrapper(spec):
            self.h_values.append(spec.h)
            return spanned(spec)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("vqse")]
        modules += [importlib.import_module(f"vqse.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}

        def targets(spec):
            return spec if isinstance(spec, list) else [spec]

        for layer, spec in SPANNED.items():
            for module, attr in targets(spec):
                if layer == "experiments.xy_hamiltonian":
                    make = self._xy_hamiltonian
                else:
                    make = lambda fn, layer=layer: self._spanned(layer, fn)
                self._replace(modules, by_name[module], attr, make)
        for key, (module, attr) in COUNTED.items():
            self._replace(modules, by_name[module], attr, lambda fn, key=key: self._counted(key, fn))
        qmath = by_name["qmath"]
        self._replace(modules, qmath, "_apply_left", lambda fn: self._contract(fn, True))
        self._replace(modules, qmath, "_conjugate", lambda fn: self._contract(fn, False))

    def _replace(self, modules, home, attr: str, make) -> None:
        if "." in attr:  # a method: replace it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(original))
            self._restore.append((cls, meth, original))
            return
        original = getattr(home, attr)
        wrapper = make(original)
        bound = 0
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._restore.append((module, name, original))
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"{home.__name__}.{attr} is bound nowhere")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        lines = ["id,parent,name,start_s,end_s,self_s"]
        t0 = min((s[3] for s in self.spans), default=0.0)
        lines += [
            f"{i},{p},{name},{start - t0:.9f},{end - t0:.9f},{self_s:.9f}"
            for i, p, name, start, end, self_s in self.spans
        ]
        path.write_text("\n".join(lines) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and share of the run, plus ratios."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        inclusive: Counter = Counter()
        by_id = {s[0]: s for s in self.spans}
        gradient_ms = []
        for span_id, parent, name, start, end, own in self.spans:
            calls[name] += 1
            self_s[name] += own
            if not _nested_in_same(by_id, parent, name):
                inclusive[name] += end - start
            if name == "solver.param_shift_gradient":
                gradient_ms.append((end - start) * 1e3)
        total = inclusive["cli.run"]
        out: dict[str, float] = {"cli.run.self_s": self_s["cli.run"]}  # glue outside the layers
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.share"] = inclusive[layer] / total if total > 0 else 0.0
        out[f"{CONTRACT}.flops_computed"] = self.flops
        out[f"{CONTRACT}.bytes_computed"] = self.bytes
        out["solver.param_shift_gradient.p50_ms"] = _quantile(gradient_ms, 0.50)
        out["solver.param_shift_gradient.p99_ms"] = _quantile(gradient_ms, 0.99)
        steps = self.counts["steps"]
        runs = calls["solver.optimize"]
        forwards = calls["ansatz.apply_ansatz"] + self.counts["forward_states"]
        out["solver.iterations"] = steps
        out["ansatz.forwards_per_iter"] = forwards / steps if steps else 0.0
        out["qmath.exact_eigs.calls_per_run"] = calls["qmath.exact_eigs"] / runs if runs else 0.0
        n_h = len(self.h_values)
        out["experiments.xy_hamiltonian.distinct_frac"] = len(set(self.h_values)) / n_h if n_h else 0.0
        out["solver.optimize.ms_per_iter"] = inclusive["solver.optimize"] / steps * 1e3 if steps else 0.0
        return out


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    units = {"calls": "count", "self_s": "s", "share": "ratio", "flops_computed": "flop",
             "bytes_computed": "B", "p50_ms": "ms", "p99_ms": "ms", "iterations": "count",
             "forwards_per_iter": "1/iter", "calls_per_run": "1/run", "distinct_frac": "ratio",
             "ms_per_iter": "ms"}
    return units[metric.rsplit(".", 1)[-1]]


def _nested_in_same(by_id: dict, parent: int, name: str) -> bool:
    while parent != -1:
        span = by_id[parent]
        if span[2] == name:
            return True
        parent = span[1]
    return False


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
