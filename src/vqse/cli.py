"""Command-line entry point: parse a config file, dispatch an experiment,
write CSV traces plus a summary and a manifest, and verify stored runs.

Config format: flat ``key = value`` lines under ``[section]`` headers, with
``#`` comments.  Unknown keys are rejected with the offending line number.
Exactly one experiment section ([pca], [xy], [wstate] or [custom]) selects
the experiment; an optional [run] section holds out/seed/jobs/verbosity,
overridden by the command-line flags.

Exit codes: 0 success, 1 runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import hashlib
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
        return raw
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind}", line) from None


def _validate_section(name: str, got: dict, schema: dict) -> dict:
    """schema: key -> (type, required, default).  Rejects unknown keys."""
    out = {}
    for key, (raw, line) in got.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in [{name}]", line)
        out[key] = _convert(schema[key][0], raw, key, line)
    for key, (kind, required, default) in schema.items():
        if key not in out:
            if required:
                raise ConfigError(f"missing required key {key!r} in [{name}]")
            out[key] = default
    return out


RUN_SCHEMA = {
    "out": ("str", False, "runs"),
    "seed": ("int", False, 1234),
    "jobs": ("int", False, 1),
    "shots": ("int", False, None),
    "verbosity": ("int", False, 1),
}

_LOOP_KEYS = {
    "layers": ("int", True, None),
    "block": ("str", False, "rycz"),
    "n_max": ("int", True, None),
    "s": ("int", True, None),
    "shots": ("int", False, 0),
    "optimizer": ("str", False, "adam"),
    "lr": ("float", False, 0.05),
    "r1": ("float", False, None),
    "delta": ("float", False, None),
}

PCA_SCHEMA = {
    "n": ("int", True, None),
    "m": ("int", True, None),
    "cost": ("str", True, None),
    "runs": ("int", True, None),
    "n_ancilla": ("int", False, 4),
    **_LOOP_KEYS,
}

XY_SCHEMA = {
    "N": ("int", True, None),
    "keep": ("int", True, None),
    "Jx": ("float", True, None),
    "Jy": ("float", True, None),
    "gamma": ("float", True, None),
    "h_grid": ("floats", True, None),
    "runs": ("int", True, None),
    "m": ("int", False, 3),
    "cost": ("str", False, "adaptive"),
    "locate": ("bool", False, True),
    "tolerance": ("float", False, 1e-8),
    **{k: v for k, v in _LOOP_KEYS.items()},
}

WSTATE_SCHEMA = {
    "runs": ("int", True, None),
    "iters": ("int", True, None),
    "update_every": ("int", True, None),
    "p_depol_1q": ("float", False, 0.0),
    "p_depol_2q": ("float", False, 0.0),
    "gamma_ad": ("float", False, 0.0),
    "layers": ("int", False, 2),
    "block": ("str", False, "gcnotg"),
    "optimizer": ("str", False, "adam"),
    "lr": ("float", False, 0.05),
}

CUSTOM_SCHEMA = {
    "state": ("str", True, None),
    "m": ("int", True, None),
    "cost": ("str", True, None),
    "runs": ("int", True, None),
    **_LOOP_KEYS,
}

SCHEMAS = {"pca": PCA_SCHEMA, "xy": XY_SCHEMA, "wstate": WSTATE_SCHEMA, "custom": CUSTOM_SCHEMA}

SWEEP_SCHEMA = {
    "key": ("str", True, None),
    "values": ("str", True, None),
}


def _loop_from(cfg: dict, n_max_key="n_max", s_key="s") -> LoopConfig:
    return LoopConfig(
        layers=cfg["layers"],
        kind=BlockKind.parse(cfg["block"]),
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
    """A real scalar (Python or numpy) as repr(float(x)), which float() reads back."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out: Path, experiment: str, seed: int, config_text: str, artifacts: list[str]) -> None:
    replica = out / "config.replay.cfg"
    replica.write_text(config_text)
    lines = [
        "[manifest]",
        f"version = {__version__}",
        f"experiment = {experiment}",
        f"master_seed = {seed}",
        f"config_sha256 = {hashlib.sha256(config_text.encode()).hexdigest()}",
        "config_replica = config.replay.cfg",
        "[artifacts]",
    ]
    for name in artifacts + ["config.replay.cfg"]:
        lines.append(f"{name} = {_sha256(out / name)}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _resolved_config_text(sections, experiment: str, run_cfg: dict) -> str:
    """Config replica with the resolved seed/shots baked in for exact replay."""
    lines = [
        "[run]",
        f"seed = {run_cfg['seed']}",
        f"verbosity = {run_cfg['verbosity']}",
        f"[{experiment}]",
    ]
    for key, (raw, _) in sections[experiment].items():
        if key != "shots":
            lines.append(f"{key} = {raw}")
    if experiment != "wstate":  # the wstate loop has no shot-based estimators
        if run_cfg["shots"] is not None:
            lines.append(f"shots = {run_cfg['shots']}")
        elif "shots" in sections[experiment]:
            lines.append(f"shots = {sections[experiment]['shots'][0]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _run_pca_like(experiment: str, cfg: dict, rho, out: Path, seed: int, jobs: int, say) -> list[str]:
    loop = _loop_from(cfg)
    if experiment == "pca":
        result = pca_experiment(
            n=cfg["n"], m=cfg["m"], loop=loop, runs=cfg["runs"], seed=seed,
            n_ancilla=cfg["n_ancilla"], jobs=jobs,
        )
    else:
        result = eigensolver_experiment(rho, cfg["m"], loop, cfg["runs"], seed, jobs=jobs)
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
    _write_pca_summary(out / f"{experiment}_summary.txt", experiment, seed, result)
    best = result.best_run
    say(f"best run {best.run_index}: eps_lambda={best.eps_final:.6e} "
        f"(min over trace {result.best_eps_min_trace:.6e})")
    return [f"{experiment}_trace.csv", f"{experiment}_rps.csv", f"{experiment}_summary.txt"]


def _write_pca_summary(path: Path, experiment: str, seed: int, result: PcaResult) -> None:
    lines = [
        "[summary]",
        f"experiment = {experiment}",
        f"n = {result.n}",
        f"m = {result.m}",
        f"cost = {result.variant}",
        f"seed = {seed}",
        f"runs = {len(result.runs)}",
        f"exact_lambdas = {','.join(repr(float(x)) for x in result.exact_lambdas[:result.m])}",
        f"best_run = {result.best_run.run_index}",
        f"best_eps_lambda_final = {result.best_run.eps_final!r}",
        f"best_eps_lambda_min_trace = {result.best_eps_min_trace!r}",
    ]
    for r in result.runs:
        rep = r.report
        lines += [
            f"[run_{r.run_index}]",
            f"n = {result.n}",
            f"m = {result.m}",
            f"final_cost = {r.result.trace[-1].cost!r}",
            f"purity = {r.purity!r}",
            f"energies = {','.join(repr(float(e)) for e in r.final_levels)}",
            f"est_lambdas = {','.join(repr(float(x)) for x in r.estimate.lambdas)}",
            f"est_bitstrings = {','.join(r.estimate.bitstrings)}",
            f"m_hat = {rep.m_hat}",
            f"est_lambdas_wide = {','.join(repr(float(x)) for x in r.wide_lambdas)}",
            f"eps_lambda = {rep.eps_lambda!r}",
            f"eps_rel = {rep.eps_rel!r}",
            f"eps_v = {rep.eps_v!r}",
            f"bound_cost = {rep.bound_cost!r}",
            f"bound_purity = {rep.bound_purity!r}",
            f"bound_cost_degenerate = {rep.bound_cost_degenerate}",
            f"theta_opt = {','.join(repr(float(x)) for x in r.result.theta_opt)}",
        ]
    path.write_text("\n".join(lines) + "\n")


def _run_xy(cfg: dict, out: Path, seed: int, jobs: int, say) -> list[str]:
    spec = SpinChainSpec(
        N=cfg["N"], J_x=cfg["Jx"], J_y=cfg["Jy"],
        h=cfg["h_grid"][0], gamma=cfg["gamma"], keep=cfg["keep"],
    )
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

    lines = [
        "[summary]",
        "experiment = xy",
        f"seed = {seed}",
        f"N = {spec.N}",
        f"keep = {spec.keep}",
        f"Jx = {spec.J_x!r}",
        f"Jy = {spec.J_y!r}",
        f"gamma = {spec.gamma!r}",
        f"m = {m}",
        f"runs_per_point = {cfg['runs']}",
        f"factorizing_field = {'none' if h_star is None else repr(h_star)}",
        f"factorization_residual = {'none' if residual is None else repr(residual)}",
        f"median_eps_rel = {repr(float(np.median([p.eps_rel for p in points])))}",
    ]
    (out / "xy_summary.txt").write_text("\n".join(lines) + "\n")
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

    finals = [r.final_fidelity for r in results]
    eigenvectors = [r.eigenvector_fidelity for r in results]
    dec = sum(1 for r in results if r.rows[-1].cost < r.rows[0].cost)
    lines = [
        "[summary]",
        "experiment = wstate",
        f"seed = {seed}",
        f"runs = {len(results)}",
        f"baseline_fidelity = {results[0].baseline_fidelity!r}",
        f"mean_final_fidelity = {repr(float(np.mean(finals)))}",
        f"mean_eigenvector_fidelity = {repr(float(np.mean(eigenvectors)))}",
        f"runs_with_decreasing_cost = {dec}",
    ]
    (out / "wstate_summary.txt").write_text("\n".join(lines) + "\n")
    say(f"baseline F = {results[0].baseline_fidelity:.4f}, "
        f"mean final F = {float(np.mean(finals)):.4f}")
    return ["wstate_trace.csv", "wstate_summary.txt"]


RUN_FLAGS = ("out", "seed", "jobs", "shots")
COUNT_KEYS = ("runs", "layers", "n_max", "s", "iters", "update_every")


def load_config(sections: dict, flags: dict) -> tuple[str, dict, dict]:
    """Validate parsed sections and apply the non-None command-line flags.

    Returns the experiment name, the [run] settings and the experiment's settings.
    """
    present = [s for s in EXPERIMENT_SECTIONS if s in sections]
    if len(present) != 1:
        raise ConfigError(
            f"config must contain exactly one experiment section, found {present or 'none'}"
        )
    experiment = present[0]
    run_cfg = _validate_section("run", sections.get("run", {}), RUN_SCHEMA)
    cfg = _validate_section(experiment, sections[experiment], SCHEMAS[experiment])
    for key in COUNT_KEYS:
        if key in sections[experiment] and cfg[key] < 1:
            line = sections[experiment][key][1]
            raise ConfigError(f"key {key!r} must be at least 1, got {cfg[key]}", line)
    _check_ranges(sections[experiment], experiment, cfg)
    run_cfg.update({k: v for k, v in flags.items() if v is not None})
    if run_cfg["jobs"] < 1:
        from_file = flags.get("jobs") is None and "jobs" in sections.get("run", {})
        line = sections["run"]["jobs"][1] if from_file else None
        raise ConfigError(f"key 'jobs' must be at least 1, got {run_cfg['jobs']}", line)
    if run_cfg["shots"] is not None and "shots" in cfg:
        cfg["shots"] = run_cfg["shots"]
    if not 0 <= run_cfg["seed"] < 2**64:
        raise ConfigError("seed must be an unsigned 64-bit integer")
    return experiment, run_cfg, cfg


def _check_ranges(section: dict, experiment: str, cfg: dict) -> None:
    """Qubit count, m, the update period and the [xy] chain, checked against each other."""

    def fail(key: str, message: str):
        raise ConfigError(f"key {key!r} {message}", section[key][1] if key in section else None)

    qubits = {"pca": "n", "xy": "keep"}.get(experiment)  # [custom] learns n from its state
    if qubits is not None and cfg[qubits] < 2:
        fail(qubits, f"must be at least 2 for two-qubit blocks, got {cfg[qubits]}")
    if "m" in cfg:
        top = 2 ** cfg[qubits] if qubits else None
        if cfg["m"] < 1 or (top is not None and cfg["m"] > top):
            fail("m", f"must lie in [1, {top or '2^n'}], got {cfg['m']}")
    if experiment == "xy":
        if not 2 <= cfg["N"] <= 12:
            fail("N", f"must lie in [2, 12] (dense diagonalization), got {cfg['N']}")
        if cfg["keep"] >= cfg["N"]:
            fail("keep", f"must be below N={cfg['N']} (a strict sub-block), got {cfg['keep']}")
        if len(cfg["h_grid"]) < (3 if cfg["locate"] else 1):
            fail("h_grid", f"needs at least 3 fields to locate (else 1), got {len(cfg['h_grid'])}")
        for key in ("Jx", "Jy", "gamma"):
            if not np.isfinite(cfg[key]):
                fail(key, f"must be finite, got {cfg[key]}")
        if not np.isfinite(cfg["h_grid"]).all():
            fail("h_grid", f"must hold finite fields, got {cfg['h_grid']}")
        if not (np.isfinite(cfg["tolerance"]) and cfg["tolerance"] > 0):
            fail("tolerance", f"must be finite and positive, got {cfg['tolerance']}")
        # H(0) = 0 when Jx = Jy = 0: its ground space is the whole space, and the
        # product-seeking choice would scan every pair of its 2^N vectors
        if cfg["Jx"] == cfg["Jy"] == 0 and min(cfg["h_grid"]) <= 0 <= max(cfg["h_grid"]):
            fail("h_grid", "must not reach 0 when Jx = Jy = 0 (H = 0 there)")
    total, period = ("iters", "update_every") if experiment == "wstate" else ("n_max", "s")
    if cfg[total] % cfg[period]:
        fail(period, f"must divide {total}={cfg[total]}, got {cfg[period]}")


def run_command(args) -> int:
    config_path = Path(args.config)
    try:
        sections = parse_config_text(config_path.read_text())
        experiment, run_cfg, cfg = load_config(sections, {k: getattr(args, k) for k in RUN_FLAGS})
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc.render(config_path)}", file=sys.stderr)
        return 2
    return run_sections(sections, experiment, run_cfg, cfg)


def run_sections(sections: dict, experiment: str, run_cfg: dict, cfg: dict) -> int:
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
        if experiment == "pca":
            artifacts = _run_pca_like("pca", cfg, None, out, seed, jobs, say)
        elif experiment == "custom":
            rho = DensityMatrix(np.load(cfg["state"]))
            artifacts = _run_pca_like("custom", cfg, rho, out, seed, jobs, say)
        elif experiment == "xy":
            artifacts = _run_xy(cfg, out, seed, jobs, say)
        else:
            artifacts = _run_wstate(cfg, out, seed, jobs, say)
        replay = _resolved_config_text(sections, experiment, run_cfg)
        write_manifest(out, experiment, seed, replay, artifacts)
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


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_command(args) -> int:
    config_path = Path(args.config)
    try:
        sections = parse_config_text(config_path.read_text())
        if "sweep" not in sections:
            raise ConfigError("sweep requires a [sweep] section (key = section.key, values = ...)")
        sweep_cfg = _validate_section("sweep", sections["sweep"], SWEEP_SCHEMA)
        target = sweep_cfg["key"]
        if "." not in target:
            raise ConfigError(f"sweep key must look like section.key, got {target!r}")
        section, key = target.split(".", 1)
        if section not in sections:
            raise ConfigError(f"sweep key references missing section [{section}]")
        values = [v.strip() for v in sweep_cfg["values"].split(",") if v.strip()]
        if not values:
            raise ConfigError("sweep values list is empty")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc.render(config_path)}", file=sys.stderr)
        return 2

    base_out = Path(args.out) if args.out is not None else Path("runs")
    values_line = sections["sweep"]["values"][1]
    flags = {k: getattr(args, k) for k in RUN_FLAGS}
    for value in values:
        sections[section][key] = (value, values_line)
        flags["out"] = str(base_out / f"{key}={value}")
        print(f"=== sweep point {key} = {value}")
        try:
            loaded = load_config(sections, flags)
        except ConfigError as exc:
            print(f"error: {exc.render(config_path)}", file=sys.stderr)
            return 2
        status = run_sections(sections, *loaded)
        if status != 0:
            return status
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vqse",
        description="Variational quantum state eigensolver experiments (classical simulation).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment described by a config file")
    p_run.add_argument("--config", required=True, help="path to the config file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="master seed (uint64)")
    p_run.add_argument("--jobs", type=int, default=None, help="parallel workers")
    p_run.add_argument("--shots", type=int, default=None, help="shots per estimate (0 = exact)")
    p_run.set_defaults(func=run_command)

    p_verify = sub.add_parser("verify", help="re-check the error bounds stored in a summary")
    p_verify.add_argument("summary", help="path to a *_summary.txt file")
    p_verify.set_defaults(func=verify_command)

    p_sweep = sub.add_parser("sweep", help="run an experiment over a grid of one config key")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--jobs", type=int, default=None)
    p_sweep.add_argument("--shots", type=int, default=None)
    p_sweep.set_defaults(func=sweep_command)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 1


if __name__ == "__main__":
    sys.exit(main())
