"""Command-line entry point: parse a config file, dispatch an experiment,
write CSV traces plus a summary and a manifest, and verify stored runs.

Config format: flat ``key = value`` lines under ``[section]`` headers, with
``#`` comments.  Exactly one experiment section ([pca], [xy], [wstate] or
[custom]) selects the experiment; an optional [run] section holds
out/seed/jobs/verbosity, and `vqse sweep` reads a [sweep] section.  Any
other section, and any key a section's schema does not name, is rejected
with its line number.

There is one path from the text to a run.  The command-line flags, and for
`vqse sweep` each swept value, are written into the parsed sections as raw
values; `load_config` then converts that one dict, checks each key against
its schema rule and the keys that depend on each other together, and the
replay config is written from it.

Exit codes: 0 success, 1 runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import BlockKind
from .experiments import (
    FactorizationNotFound,
    LoopConfig,
    NoiseSpec,
    PcaResult,
    SpinChainSpec,
    eigensolver_experiment,
    factorization_residual,
    locate_factorization,
    pca_experiment,
    w_state_mitigation_runs,
    xy_spectroscopy_sweep,
)
from .metrics import bound_checks, bound_from_cost, bound_from_purity
from .qmath import DensityMatrix
from .solver import OptimizerConfig

EXPERIMENT_SECTIONS = ("pca", "xy", "wstate", "custom")


class ConfigError(Exception):
    """Malformed or invalid configuration; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message)

    def render(self, path) -> str:
        where = f"{path}:{self.line}: " if self.line is not None else f"{path}: "
        return where + str(self)


def parse_config_text(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Sections of key -> (raw value, line number)."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if not current:
                raise ConfigError("empty section name", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _convert(kind: str, raw: str, key: str, line: int):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "floats":
            return [float(x) for x in raw.split(",") if x.strip() != ""]
        if kind == "block":
            return BlockKind.parse(raw)
        return raw
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind}", line) from None


def _validate_section(name: str, got: dict, schema: dict) -> dict:
    """schema: key -> (type, required, default, rule).  Rejects unknown keys.

    A rule, (predicate, what it demands), is checked on each given value (each item of a list).
    """
    out = {}
    for key, (raw, line) in got.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in [{name}]", line)
        kind, _, _, rule = schema[key]
        value = out[key] = _convert(kind, raw, key, line)
        if rule is not None and not all(map(rule[0], value if isinstance(value, list) else [value])):
            raise ConfigError(f"key {key!r} {rule[1]}, got {value}", line)
    for key, (_, required, default, _) in schema.items():
        if key not in out:
            if required:
                raise ConfigError(f"missing required key {key!r} in [{name}]")
            out[key] = default
    return out


def _at_least(low):
    return (lambda v: v >= low), f"must be at least {low}"


def _within(low, high):
    return (lambda v: low <= v <= high), f"must lie in [{low}, {high}]"


def _one_of(*names):
    return (lambda v: v in names), f"must be one of {', '.join(names)}"


_COUNT = _at_least(1)
_RATE = _within(0, 1)
_FINITE = (math.isfinite, "must be finite")
_POSITIVE = ((lambda v: math.isfinite(v) and v > 0), "must be finite and positive")
_COSTS = _one_of("local", "global", "adaptive")

RUN_SCHEMA = {
    "out": ("str", False, "runs", None),
    "seed": ("int", False, 1234, _within(0, 2**64 - 1)),
    "jobs": ("int", False, 1, _COUNT),
    "verbosity": ("int", False, 1, None),
}

_LOOP_KEYS = {
    "layers": ("int", True, None, _COUNT),
    "block": ("block", False, BlockKind.RY_CZ, None),
    "n_max": ("int", True, None, _COUNT),
    "s": ("int", True, None, _COUNT),
    "shots": ("int", False, 0, _at_least(0)),
    "optimizer": ("str", False, "adam", _one_of("adam", "gd")),
    "lr": ("float", False, 0.05, _POSITIVE),
    "r1": ("float", False, None, _FINITE),
    "delta": ("float", False, None, _FINITE),
}

PCA_SCHEMA = {
    "n": ("int", True, None, _at_least(2)),
    "m": ("int", True, None, _COUNT),
    "cost": ("str", True, None, _COSTS),
    "runs": ("int", True, None, _COUNT),
    "n_ancilla": ("int", False, 4, _at_least(0)),
    **_LOOP_KEYS,
}

XY_SCHEMA = {
    "N": ("int", True, None, _within(2, 12)),
    "keep": ("int", True, None, _at_least(2)),
    "Jx": ("float", True, None, _FINITE),
    "Jy": ("float", True, None, _FINITE),
    "gamma": ("float", True, None, _FINITE),
    "h_grid": ("floats", True, None, _FINITE),
    "runs": ("int", True, None, _COUNT),
    "m": ("int", False, 3, _COUNT),
    "cost": ("str", False, "adaptive", _COSTS),
    "locate": ("bool", False, True, None),
    "tolerance": ("float", False, 1e-8, _POSITIVE),
    **_LOOP_KEYS,
}

WSTATE_SCHEMA = {
    "runs": ("int", True, None, _COUNT),
    "iters": ("int", True, None, _COUNT),
    "update_every": ("int", True, None, _COUNT),
    "p_depol_1q": ("float", False, 0.0, _RATE),
    "p_depol_2q": ("float", False, 0.0, _RATE),
    "gamma_ad": ("float", False, 0.0, _RATE),
    "layers": ("int", False, 2, _COUNT),
    "block": ("block", False, BlockKind.G_CNOT_G, None),
    "optimizer": _LOOP_KEYS["optimizer"],
    "lr": _LOOP_KEYS["lr"],
}

CUSTOM_SCHEMA = {
    "state": ("str", True, None, None),
    "m": ("int", True, None, _COUNT),
    "cost": ("str", True, None, _COSTS),
    "runs": ("int", True, None, _COUNT),
    **_LOOP_KEYS,
}

SWEEP_SCHEMA = {
    "key": ("str", True, None, None),
    "values": ("str", True, None, None),
}

SCHEMAS = {"run": RUN_SCHEMA, "pca": PCA_SCHEMA, "xy": XY_SCHEMA, "wstate": WSTATE_SCHEMA, "custom": CUSTOM_SCHEMA}


def _loop_from(cfg: dict, n_max_key="n_max", s_key="s") -> LoopConfig:
    return LoopConfig(
        layers=cfg["layers"],
        kind=cfg["block"],
        n_max=cfg[n_max_key],
        s=cfg[s_key],
        optimizer=OptimizerConfig(kind=cfg["optimizer"], lr=cfg["lr"]),
        shots=cfg.get("shots", 0),
        cost_variant=cfg.get("cost", "adaptive"),
        r1=cfg.get("r1"),
        delta=cfg.get("delta"),
    )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    """A real scalar (Python or numpy) as repr(float(x)), which float() reads back;
    a sequence as its items joined by commas; None as `none`."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if x is None:
        return "none"
    if isinstance(x, (list, tuple, np.ndarray)):
        return ",".join(_fmt(item) for item in x)
    return str(x)


def _ini_text(sections: dict[str, dict]) -> str:
    """`[section]` headers, each followed by its `key = value` lines."""
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {_fmt(value)}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def _median(values) -> float:
    """np.median's float without the numpy.ma import of its NaN check: the mean of
    v[k] and v[-1 - k], k = len // 2, of the sorted values; NaN if any value is."""
    v = sorted(values)
    if any(math.isnan(x) for x in v):
        return math.nan
    k = len(v) // 2
    return (v[k] + v[-1 - k]) / 2


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out: Path, experiment: str, seed: int, config_text: str, artifacts: list[str]) -> None:
    replica = out / "config.replay.cfg"
    replica.write_text(config_text)
    manifest = {
        "version": __version__,
        "experiment": experiment,
        "master_seed": seed,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "config_replica": replica.name,
    }
    hashes = {name: _sha256(out / name) for name in artifacts + [replica.name]}
    (out / "manifest.txt").write_text(_ini_text({"manifest": manifest, "artifacts": hashes}))


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _run_pca_like(experiment: str, cfg: dict, out: Path, seed: int, jobs: int, say) -> list[str]:
    loop = _loop_from(cfg)
    if experiment == "pca":
        result = pca_experiment(
            n=cfg["n"], m=cfg["m"], loop=loop, runs=cfg["runs"], seed=seed,
            n_ancilla=cfg["n_ancilla"], jobs=jobs,
        )
    else:
        result = eigensolver_experiment(cfg["state"], cfg["m"], loop, cfg["runs"], seed, jobs=jobs)
    say(f"{experiment}: n={result.n} m={cfg['m']} cost={loop.cost_variant} runs={cfg['runs']}")

    trace_rows = []
    for r in result.runs:
        for p in r.result.trace:
            trace_rows.append((r.run_index, p.iteration, p.t, p.cost, p.eps_abs, p.eps_rel))
    write_csv(out / f"{experiment}_trace.csv",
              ["run", "iter", "t", "cost", "eps_abs", "eps_rel"], trace_rows)
    write_csv(out / f"{experiment}_rps.csv",
              ["target", "rps_final", "rps_min_trace"],
              zip(result.rps_targets, result.rps_final, result.rps_min_trace))
    _write_pca_summary(out / f"{experiment}_summary.txt", experiment, seed, loop.cost_variant, result)
    best = result.best_run
    say(f"best run {best.run_index}: eps_lambda={best.report.eps_lambda:.6e} "
        f"(min over trace {result.best_eps_min_trace:.6e})")
    return [f"{experiment}_trace.csv", f"{experiment}_rps.csv", f"{experiment}_summary.txt"]


def _write_pca_summary(path: Path, experiment: str, seed: int, cost: str, result: PcaResult) -> None:
    sections = {
        "summary": {
            "experiment": experiment,
            "n": result.n,
            "m": result.m,
            "cost": cost,
            "seed": seed,
            "runs": len(result.runs),
            "exact_lambdas": result.exact_lambdas[:result.m],
            "best_run": result.best_run.run_index,
            "best_eps_lambda_final": result.best_run.report.eps_lambda,
            "best_eps_lambda_min_trace": result.best_eps_min_trace,
        }
    }
    for r in result.runs:
        rep = r.report
        sections[f"run_{r.run_index}"] = {
            "n": result.n,
            "m": result.m,
            "final_cost": r.result.trace[-1].cost,
            "purity": result.purity,
            "energies": r.final_levels,
            "est_lambdas": r.result.estimate.lambdas,
            "est_bitstrings": r.result.estimate.bitstrings,
            "m_hat": rep.m_hat,
            "est_lambdas_wide": r.wide_lambdas,
            "eps_lambda": rep.eps_lambda,
            "eps_rel": rep.eps_rel,
            "eps_v": rep.eps_v,
            "bound_cost": rep.bound_cost,
            "bound_purity": rep.bound_purity,
            "bound_cost_degenerate": rep.bound_cost_degenerate,
            "theta_opt": r.result.ansatz.theta,
        }
    path.write_text(_ini_text(sections))


def _run_xy(cfg: dict, out: Path, seed: int, jobs: int, say) -> list[str]:
    spec = SpinChainSpec(N=cfg["N"], J_x=cfg["Jx"], J_y=cfg["Jy"], gamma=cfg["gamma"], keep=cfg["keep"])
    loop = _loop_from(cfg)
    m = cfg["m"]
    say(f"xy: N={spec.N} keep={spec.keep} Jx={spec.J_x} Jy={spec.J_y} "
        f"gamma={spec.gamma} points={len(cfg['h_grid'])}")

    h_star, residual = None, None
    if cfg["locate"]:
        try:
            h_star = locate_factorization(spec, cfg["h_grid"], cfg["tolerance"])
            residual = factorization_residual(spec, h_star)
            say(f"factorizing field h* = {h_star!r} (1 - lambda_1 = {residual:.3e})")
        except FactorizationNotFound as exc:
            say(f"factorization: {exc}")

    points = xy_spectroscopy_sweep(spec, cfg["h_grid"], m, loop, cfg["runs"], seed, jobs=jobs)
    header = (["h"] + [f"exact_lambda_{i+1}" for i in range(m)]
              + [f"est_lambda_{i+1}" for i in range(m)] + ["eps_abs", "eps_rel", "best_cost"])
    rows = [(p.h, *p.exact_lambdas, *p.est_lambdas, p.eps_abs, p.eps_rel, p.best_cost)
            for p in points]
    write_csv(out / "xy_sweep.csv", header, rows)

    summary = {
        "experiment": "xy",
        "seed": seed,
        "N": spec.N,
        "keep": spec.keep,
        "Jx": spec.J_x,
        "Jy": spec.J_y,
        "gamma": spec.gamma,
        "m": m,
        "runs_per_point": cfg["runs"],
        "factorizing_field": h_star,
        "factorization_residual": residual,
        "median_eps_rel": _median([p.eps_rel for p in points]),
    }
    (out / "xy_summary.txt").write_text(_ini_text({"summary": summary}))
    return ["xy_sweep.csv", "xy_summary.txt"]


def _run_wstate(cfg: dict, out: Path, seed: int, jobs: int, say) -> list[str]:
    noise = NoiseSpec(
        p_depol_1q=cfg["p_depol_1q"], p_depol_2q=cfg["p_depol_2q"], gamma_ad=cfg["gamma_ad"]
    )
    loop = _loop_from(cfg, "iters", "update_every")
    say(f"wstate: noise (p1={noise.p_depol_1q}, p2={noise.p_depol_2q}, "
        f"gamma={noise.gamma_ad}), layers={loop.layers}, runs={cfg['runs']}")
    results = w_state_mitigation_runs(noise, loop, cfg["runs"], seed, jobs=jobs)

    rows = []
    for i, r in enumerate(results):
        for row in r.rows:
            rows.append((i, row.iteration, row.cost, row.fidelity_sigma))
    write_csv(out / "wstate_trace.csv", ["run", "iter", "cost", "fidelity_sigma"], rows)

    finals = [r.rows[-1].fidelity_sigma for r in results]
    summary = {
        "experiment": "wstate",
        "seed": seed,
        "runs": len(results),
        "baseline_fidelity": results[0].baseline_fidelity,
        "mean_final_fidelity": np.mean(finals),
        "mean_eigenvector_fidelity": np.mean([r.eigenvector_fidelity for r in results]),
        "runs_with_decreasing_cost": sum(1 for r in results if r.rows[-1].cost < r.rows[0].cost),
    }
    (out / "wstate_summary.txt").write_text(_ini_text({"summary": summary}))
    say(f"baseline F = {results[0].baseline_fidelity:.4f}, "
        f"mean final F = {float(np.mean(finals)):.4f}")
    return ["wstate_trace.csv", "wstate_summary.txt"]


RUN_FLAGS = ("out", "seed", "jobs", "shots")


def load_config(sections: dict, flags: dict) -> tuple[str, dict, dict]:
    """Write the non-None command-line flags into `sections`, then validate them.

    Each flag becomes the raw value of its key: `shots` in the experiment
    section (only if the experiment has that key), the others in [run].
    Returns the experiment name, the [run] settings and the experiment's
    settings, with a [custom] `state` loaded and checked.
    """
    present = [s for s in EXPERIMENT_SECTIONS if s in sections]
    if len(present) != 1:
        raise ConfigError(
            f"config must contain exactly one experiment section, found {present or 'none'}"
        )
    experiment = present[0]
    for name, keys in sections.items():
        if name not in ("run", experiment, "sweep"):
            line = next((line for _, line in keys.values()), None)
            raise ConfigError(f"unknown section [{name}]", line)
    for key, value in flags.items():
        section = "run" if key in RUN_SCHEMA else experiment
        if value is not None and key in SCHEMAS[section]:
            sections.setdefault(section, {})[key] = (str(value), None)
    run_cfg = _validate_section("run", sections.get("run", {}), RUN_SCHEMA)
    cfg = _validate_section(experiment, sections[experiment], SCHEMAS[experiment])
    if experiment == "custom":
        cfg["state"] = _load_state(cfg["state"], sections["custom"]["state"][1])
    _check_ranges(sections[experiment], experiment, cfg)
    return experiment, run_cfg, cfg


def _load_state(path: str, line: int) -> DensityMatrix:
    """The [custom] state file as a validated density matrix on at least 2 qubits."""
    try:
        rho = DensityMatrix(np.load(path))
    except (OSError, EOFError, TypeError, ValueError) as exc:
        raise ConfigError(f"key 'state': cannot load a density matrix from {path!r}: {exc}", line) from None
    if rho.n < 2:
        raise ConfigError(f"key 'state' must hold at least 2 qubits for two-qubit blocks, got {rho.n}", line)
    return rho


def _check_ranges(section: dict, experiment: str, cfg: dict) -> None:
    """The rules that tie two or more keys together; each key's own rule is in its schema."""

    def fail(key: str, message: str):
        raise ConfigError(f"key {key!r} {message}", section[key][1] if key in section else None)

    if experiment == "pca" and cfg["n"] + cfg["n_ancilla"] > 12:
        fail("n_ancilla" if "n_ancilla" in section else "n",
             f"must keep n + n_ancilla at most 12, got {cfg['n']} + {cfg['n_ancilla']}")
    if experiment == "xy":
        if cfg["keep"] >= cfg["N"]:
            fail("keep", f"must be below N={cfg['N']} (a strict sub-block), got {cfg['keep']}")
        if len(cfg["h_grid"]) < (3 if cfg["locate"] else 1):
            fail("h_grid", f"needs at least 3 fields to locate (else 1), got {len(cfg['h_grid'])}")
        # H(0) = 0 when Jx = Jy = 0: its ground space is the whole space, and the
        # product-seeking choice would scan every pair of its 2^N vectors
        if cfg["Jx"] == cfg["Jy"] == 0 and min(cfg["h_grid"]) <= 0 <= max(cfg["h_grid"]):
            fail("h_grid", "must not reach 0 when Jx = Jy = 0 (H = 0 there)")
    total, period = ("iters", "update_every") if experiment == "wstate" else ("n_max", "s")
    if cfg[total] % cfg[period]:
        fail(period, f"must divide {total}={cfg[total]}, got {cfg[period]}")
    if experiment != "wstate":
        # the cost the run builds: weights invalid on their own (already at m = 1) are
        # r1's or delta's fault, weights that cannot certify m levels (or m > 2^n) are m's
        n = cfg["state"].n if experiment == "custom" else cfg["keep" if experiment == "xy" else "n"]
        for key, levels in (("r1" if "r1" in section else "delta", 1), ("m", cfg["m"])):
            try:
                _loop_from(cfg).cost_config(n, levels)
            except ValueError as exc:
                fail(key, f"gives cost weights the run cannot use: {exc}")


def _sweep_of(sections: dict) -> tuple[str, str, list[str], int]:
    """The swept section and key, its values and the line they are on."""
    if "sweep" not in sections:
        raise ConfigError("sweep requires a [sweep] section (key = section.key, values = ...)")
    sweep = _validate_section("sweep", sections["sweep"], SWEEP_SCHEMA)
    (_, key_line), (_, values_line) = sections["sweep"]["key"], sections["sweep"]["values"]
    section, dot, key = sweep["key"].partition(".")
    if not dot:
        raise ConfigError(f"sweep key must look like section.key, got {sweep['key']!r}", key_line)
    if section not in sections:
        raise ConfigError(f"sweep key references missing section [{section}]", key_line)
    values = [v.strip() for v in sweep["values"].split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep values list is empty", values_line)
    return section, key, values, values_line


def run_command(args) -> int:
    """`vqse run`, and `vqse sweep` as one such run per [sweep] value; the exit code.

    A sweep point writes its value into the parsed sections at the line of
    the values, and runs into `<out>/<key>=<value>/`.
    """
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    flags = {k: getattr(args, k) for k in RUN_FLAGS}
    try:
        sections = parse_config_text(text)
        if args.command == "run":
            return _run_config(sections, *load_config(sections, flags))
        section, key, values, line = _sweep_of(sections)
        base = Path(flags["out"] or sections.get("run", {}).get("out", ("runs", None))[0])
        for value in values:
            sections[section][key] = (value, line)
            flags["out"] = str(base / f"{key}={value}")
            print(f"=== sweep point {key} = {value}")
            status = _run_config(sections, *load_config(sections, flags))
            if status != 0:
                return status
        return 0
    except ConfigError as exc:
        print(f"error: {exc.render(path)}", file=sys.stderr)
        return 2


def _run_config(sections: dict, experiment: str, run_cfg: dict, cfg: dict) -> int:
    """Run a loaded config, write its artifacts and manifest; the exit code."""
    out = Path(run_cfg["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output dir: {exc}", file=sys.stderr)
        return 2

    def say(msg):
        if run_cfg["verbosity"] >= 1:
            print(msg)

    seed, jobs = run_cfg["seed"], run_cfg["jobs"]
    try:
        if experiment in ("pca", "custom"):
            artifacts = _run_pca_like(experiment, cfg, out, seed, jobs, say)
        elif experiment == "xy":
            artifacts = _run_xy(cfg, out, seed, jobs, say)
        else:
            artifacts = _run_wstate(cfg, out, seed, jobs, say)
        # the replay: the resolved seed, and the experiment's keys with every override
        replay = {
            "run": {"seed": seed, "verbosity": run_cfg["verbosity"]},
            experiment: {key: raw for key, (raw, _) in sections[experiment].items()},
        }
        write_manifest(out, experiment, seed, _ini_text(replay), artifacts)
    except (ValueError, FloatingPointError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    say(f"artifacts written to {out}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def verify_command(args) -> int:
    path = Path(args.summary)
    try:
        sections = parse_config_text(path.read_text())
    except OSError as exc:
        print(f"error: cannot read summary: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: corrupt summary: {exc.render(path)}", file=sys.stderr)
        return 2

    run_sections = {k: v for k, v in sections.items() if k.startswith("run_")}
    if not run_sections:
        print("error: summary contains no verifiable [run_*] sections", file=sys.stderr)
        return 2

    try:
        names = sorted(run_sections, key=lambda s: int(s.split("_")[1]))
    except ValueError:
        print(f"error: corrupt summary: {path}: expected [run_<index>] sections", file=sys.stderr)
        return 2
    all_ok = True
    for name in names:
        try:
            ok, messages = _verify_run_section(run_sections[name])
        except (KeyError, ValueError) as exc:
            print(f"{name}: FAIL corrupt section ({exc})")
            all_ok = False
            continue
        status = "PASS" if ok else "FAIL"
        print(f"{name}: {status}")
        for msg in messages:
            print(f"  {msg}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _verify_run_section(section: dict) -> tuple[bool, list[str]]:
    raw = {key: value for key, (value, _) in section.items()}
    n = int(raw["n"])
    cost = float(raw["final_cost"])
    pur = float(raw["purity"])
    energies = [float(x) for x in raw["energies"].split(",")]
    wide = [float(x) for x in raw["est_lambdas_wide"].split(",")]
    m_hat = int(raw["m_hat"])
    eps_lambda = float(raw["eps_lambda"])
    eps_v = float(raw["eps_v"])

    cb = bound_from_cost(cost, energies, pur)
    checks = bound_checks(eps_lambda, eps_v, cb.value, bound_from_purity(pur, wide, n, m_hat))
    messages = []
    if cb.degenerate:
        messages.append("bound_cost degenerate (E_{m+1} <= C); purity bound still checked")
    for c in checks:
        status = "" if c.holds else "VIOLATED: "
        messages.append(f"{status}{c.lhs} <= {c.rhs} (margin {c.margin:.3e})")
    return all(c.holds for c in checks), messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vqse",
        description="Variational quantum state eigensolver experiments (classical simulation).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "run the experiment described by a config file"),
        ("sweep", "run it once per value of one config key (a [sweep] section)"),
    ):
        p_cmd = sub.add_parser(name, help=help_text)
        p_cmd.add_argument("--config", required=True, help="path to the config file")
        p_cmd.add_argument("--out", default=None, help="output directory (sweep: one subdirectory per value)")
        p_cmd.add_argument("--seed", type=int, default=None, help="master seed (uint64)")
        p_cmd.add_argument("--jobs", type=int, default=None, help="parallel workers")
        p_cmd.add_argument("--shots", type=int, default=None, help="shots per estimate (0 = exact)")
        p_cmd.set_defaults(func=run_command)

    p_verify = sub.add_parser("verify", help="re-check the error bounds stored in a summary")
    p_verify.add_argument("summary", help="path to a *_summary.txt file")
    p_verify.set_defaults(func=verify_command)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 1


if __name__ == "__main__":
    sys.exit(main())
