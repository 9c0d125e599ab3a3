"""Tests for config parsing, the command-line entry point and artifacts."""

import numpy as np
import pytest

from vqse.cli import ConfigError, _median, main, parse_config_text
from vqse.experiments import random_low_rank_state
from vqse.qmath import DensityMatrix

PCA_CFG = """\
[run]
seed = 77
verbosity = 0

[pca]
n = 3
m = 2
cost = adaptive
layers = 2
block = rycz
n_max = 30
s = 10
runs = 2
n_ancilla = 1
"""

WSTATE_CFG = """\
[wstate]
runs = 2
iters = 10
update_every = 5
p_depol_2q = 0.02
p_depol_1q = 0.002
"""

XY_CFG = """\
[xy]
N = 4
keep = 2
Jx = 1.0
Jy = 0.5
gamma = 0.0
h_grid = 0.5,0.65,0.7071,0.75,0.9
runs = 2
m = 2
layers = 1
n_max = 20
s = 5
"""

SWEEP_SECTION = """
[sweep]
key = pca.n_max
values = 10,20
"""

CUSTOM_CFG = """\
[custom]
state = {state}
m = 2
cost = local
layers = 2
n_max = 20
s = 5
runs = 1
"""


class TestConfigParsing:
    def test_sections_and_comments(self):
        text = "# top comment\n[a]\nx = 1  # inline\n\n[b]\ny = hello\n"
        sections = parse_config_text(text)
        assert sections["a"]["x"] == ("1", 3)
        assert sections["b"]["y"] == ("hello", 6)

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("[a]\nx = 1\nx = 2\n")
        assert err.value.line == 3

    def test_key_outside_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("x = 1\n")
        assert err.value.line == 1

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("[a]\njust words\n")


class TestRunCommand:
    def test_pca_smoke_artifacts(self, tmp_path):
        cfg = tmp_path / "pca.cfg"
        cfg.write_text(PCA_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("pca_trace.csv", "pca_rps.csv", "pca_summary.txt",
                     "manifest.txt", "config.replay.cfg"):
            assert (out / name).exists(), name
        header = (out / "pca_trace.csv").read_text().splitlines()[0]
        assert header == "run,iter,t,cost,eps_abs,eps_rel"
        assert (out / "pca_rps.csv").read_text().splitlines()[0] == "target,rps_final,rps_min_trace"

    def test_pca_run_builds_no_dense_matrix(self, tmp_path, monkeypatch):
        # every state on the PCA path is a factor; none may have its 2^n x 2^n A A^dag built
        built, dense = [], DensityMatrix.data

        def counted(rho):
            if rho._data is None:  # given as a factor, not yet built
                built.append(rho.n)
            return dense.fget(rho)

        monkeypatch.setattr(DensityMatrix, "data", property(counted))
        cfg = tmp_path / "pca.cfg"
        cfg.write_text(PCA_CFG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert built == []

    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(PCA_CFG.replace("m = 2\n", ""))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "'m'" in capsys.readouterr().err

    def test_unknown_key_exits_2_with_line(self, tmp_path, capsys):
        cfg = tmp_path / "unknown.cfg"
        cfg.write_text(PCA_CFG + "bogus = 3\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "unknown" in err

    def test_bad_value_type_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "badval.cfg"
        cfg.write_text(PCA_CFG.replace("n_max = 30", "n_max = many"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "n_max" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("pca", "runs", "0"),
        ("pca", "n_max", "0"),
        ("pca", "layers", "0"),
        ("pca", "s", "-1"),
        ("wstate", "runs", "0"),
        ("wstate", "iters", "0"),
        ("wstate", "update_every", "0"),
        ("xy", "runs", "0"),
    ])
    def test_non_positive_count_exits_2_with_line(self, tmp_path, capsys, section, key, value):
        text = {"pca": PCA_CFG, "wstate": WSTATE_CFG, "xy": XY_CFG}[section]
        lines = text.splitlines()
        line = next(i for i, ln in enumerate(lines) if ln.split(" = ")[0] == key)
        lines[line] = f"{key} = {value}"
        cfg = tmp_path / "count.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:{line + 1}:" in err and repr(key) in err

    @pytest.mark.parametrize("section,key,value", [
        ("pca", "m", "0"),
        ("pca", "m", "9"),  # 2^n = 8
        ("pca", "n", "1"),
        ("pca", "s", "7"),  # n_max = 30
        ("xy", "m", "5"),  # the reduced state has keep = 2 qubits
        ("xy", "keep", "1"),
        ("xy", "keep", "4"),  # N = 4
        ("xy", "N", "13"),
        ("xy", "N", "1"),
        ("xy", "h_grid", "0.5,0.9"),  # locate needs three fields
        ("xy", "s", "3"),
        ("xy", "Jx", "nan"),
        ("xy", "Jy", "inf"),
        ("xy", "gamma", "nan"),
        ("xy", "h_grid", "0.5,nan,0.9"),
        ("xy", "tolerance", "nan"),
        ("xy", "tolerance", "0"),
        ("custom", "m", "0"),
        ("custom", "s", "3"),
        ("wstate", "update_every", "3"),  # iters = 10
        ("run", "jobs", "0"),
        ("run", "jobs", "-3"),
        ("run", "seed", "-1"),
        ("run", "seed", str(2**64)),
        ("pca", "cost", "bogus"),
        ("xy", "cost", "bogus"),
        ("pca", "block", "bogus"),
        ("pca", "optimizer", "sgd"),
        ("wstate", "optimizer", "sgd"),
        ("pca", "shots", "-5"),
        ("pca", "lr", "nan"),
        ("pca", "lr", "0"),
        ("wstate", "lr", "inf"),
        ("wstate", "p_depol_1q", "2"),
        ("wstate", "p_depol_2q", "nan"),
        ("wstate", "gamma_ad", "-0.1"),
        ("pca", "n_ancilla", "10"),  # n = 3: n + n_ancilla = 13
        ("custom", "m", "100"),  # the state has n = 3
        # the run's cost weights: at most 2^(n-1) levels lie below 1 (4 at n = 3, 2 at keep = 2)
        ("pca", "m", "5"),
        ("pca", "m", "8"),
        ("xy", "m", "3"),  # keep = 2
        ("custom", "m", "5"),
        ("pca", "r1", "0.9"),  # three weights summing to 3.15
        ("pca", "delta", "-0.5"),  # negative weights
        ("pca delta = 0", "m", "3"),  # equal weights: levels 2 and 3 coincide
    ])
    def test_out_of_range_value_exits_2_with_line(self, tmp_path, capsys, section, key, value):
        state = tmp_path / "state.npy"
        np.save(state, random_low_rank_state(3, 1, seed=5).data)
        text = {
            "pca": PCA_CFG,
            "pca delta = 0": PCA_CFG + "delta = 0\n",
            "run": PCA_CFG.replace("verbosity = 0\n", "verbosity = 0\njobs = 1\n"),
            "xy": XY_CFG,
            "custom": CUSTOM_CFG.format(state=state),
            "wstate": WSTATE_CFG,
        }[section]
        lines = text.splitlines()
        line = next((i for i, ln in enumerate(lines) if ln.split(" = ")[0] == key), len(lines))
        lines[line:line + 1] = [f"{key} = {value}"]  # appended if the config does not set it
        cfg = tmp_path / "range.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:{line + 1}:" in err and repr(key) in err

    def test_two_field_grid_runs_without_locate(self, tmp_path):
        cfg = tmp_path / "xy.cfg"
        cfg.write_text(XY_CFG.replace("h_grid = 0.5,0.65,0.7071,0.75,0.9", "h_grid = 0.5,0.9\nlocate = false"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert "factorizing_field = none" in (out / "xy_summary.txt").read_text()

    @pytest.mark.parametrize("h_grid", ["0.0,0.5,0.9", "-0.5,0.5,0.9"])
    def test_zero_hamiltonian_exits_2_with_line(self, tmp_path, capsys, h_grid):
        # Jx = Jy = 0 and h = 0 (a grid point, or a crossing the search could bisect to) is H = 0
        text = XY_CFG.replace("Jx = 1.0", "Jx = 0.0").replace("Jy = 0.5", "Jy = 0.0")
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(text.replace("h_grid = 0.5,0.65,0.7071,0.75,0.9", f"h_grid = {h_grid}"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{cfg}:7:" in capsys.readouterr().err

    def test_empty_grid_exits_2_without_locate(self, tmp_path, capsys):
        cfg = tmp_path / "xy.cfg"
        cfg.write_text(XY_CFG.replace("h_grid = 0.5,0.65,0.7071,0.75,0.9", "h_grid = ,\nlocate = false"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{cfg}:7:" in capsys.readouterr().err

    def test_jobs_flag_below_one_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "pca.cfg"
        cfg.write_text(PCA_CFG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "0"]) == 2
        assert "'jobs'" in capsys.readouterr().err

    def test_replay_is_bitwise_identical(self, tmp_path):
        cfg = tmp_path / "pca.cfg"
        cfg.write_text(PCA_CFG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(out1 / "config.replay.cfg"), "--out", str(out2)]) == 0
        for name in ("pca_trace.csv", "pca_rps.csv", "pca_summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "pca.cfg"
        cfg.write_text(PCA_CFG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "78"])
        assert (out1 / "pca_trace.csv").read_bytes() != (out2 / "pca_trace.csv").read_bytes()

    def test_wstate_smoke(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(WSTATE_CFG)
        out = tmp_path / "w_out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header = (out / "wstate_trace.csv").read_text().splitlines()[0]
        assert header == "run,iter,cost,fidelity_sigma"
        summary = (out / "wstate_summary.txt").read_text()
        assert "baseline_fidelity" in summary
        eigenvector = float(summary.split("mean_eigenvector_fidelity = ")[1].split()[0])
        assert 0.0 <= eigenvector <= 1.0 + 1e-12

    def test_xy_smoke_locates_factorization(self, tmp_path):
        cfg = tmp_path / "xy.cfg"
        cfg.write_text(XY_CFG)
        out = tmp_path / "xy_out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = dict(
            line.split(" = ") for line in
            (out / "xy_summary.txt").read_text().splitlines() if " = " in line
        )
        assert abs(float(summary["factorizing_field"]) - np.sqrt(0.5)) < 1e-3
        header = (out / "xy_sweep.csv").read_text().splitlines()[0]
        assert header.startswith("h,exact_lambda_1") and header.endswith("eps_abs,eps_rel,best_cost")

    @pytest.mark.parametrize("text, experiment", [(PCA_CFG, "pca"), (XY_CFG, "xy"), (WSTATE_CFG, "wstate")],
                             ids=["pca", "xy", "wstate"])
    def test_every_number_reads_back_with_float(self, tmp_path, text, experiment):
        # a numpy scalar written by repr reads `np.float64(1.0)`, which float() rejects
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        cells = [(csv.name, cell) for csv in out.glob("*.csv")
                 for row in csv.read_text().splitlines()[1:] for cell in row.split(",")]
        text_keys = {"experiment", "cost", "est_bitstrings", "bound_cost_degenerate"}
        for line in (out / f"{experiment}_summary.txt").read_text().splitlines():
            key, sep, value = line.partition(" = ")
            if sep and key not in text_keys:
                cells += [(key, x) for x in value.split(",")]
        assert cells
        for where, cell in cells:
            try:
                float(cell)
            except ValueError:
                pytest.fail(f"{where}: {cell!r} is not a number")

    def test_custom_experiment_from_npy(self, tmp_path):
        rho = random_low_rank_state(3, 1, seed=5)
        state_path = tmp_path / "state.npy"
        np.save(state_path, rho.data)
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(
            f"[custom]\nstate = {state_path}\nm = 2\ncost = local\n"
            "layers = 2\nn_max = 20\ns = 5\nruns = 1\n"
        )
        out = tmp_path / "c_out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
        assert (out / "custom_trace.csv").exists()
        assert (out / "custom_summary.txt").exists()

    def test_two_experiment_sections_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "both.cfg"
        cfg.write_text(PCA_CFG + "\n" + WSTATE_CFG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "exactly one experiment" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/x.cfg"]) == 2

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unknown_section_exits_2_with_line(self, tmp_path, capsys, command):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("[rnu]\nseed = 5\n\n" + PCA_CFG + SWEEP_SECTION)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2:" in err and "[rnu]" in err
        assert not (tmp_path / "o").exists()

    def test_run_section_has_no_shots_key(self, tmp_path, capsys):
        cfg = tmp_path / "shots.cfg"
        cfg.write_text(PCA_CFG.replace("verbosity = 0\n", "verbosity = 0\nshots = 7\n"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:4:" in err and "unknown key 'shots' in [run]" in err

    @pytest.mark.parametrize("name", ["missing", "not_npy", "non_square", "nan", "trace_two", "one_qubit"])
    def test_bad_custom_state_exits_2_with_line(self, tmp_path, capsys, name):
        state = tmp_path / "state.npy"
        if name == "not_npy":
            state.write_text("0.5 0\n0 0.5\n")
        elif name != "missing":
            data = {"non_square": np.full((4, 2), 0.125), "nan": np.full((4, 4), np.nan),
                    "trace_two": np.eye(4) / 2, "one_qubit": np.eye(2) / 2}[name]
            np.save(state, data)
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(CUSTOM_CFG.format(state=state))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2:" in err and "'state'" in err
        assert not (tmp_path / "o").exists()


def _point_dirs(command: str, out):
    """The artifact directories of one `vqse run` or `vqse sweep` (over SWEEP_SECTION)."""
    return [out] if command == "run" else [out / "n_max=10", out / "n_max=20"]


@pytest.mark.parametrize("command", ["run", "sweep"])
class TestFlags:
    """`vqse run` and `vqse sweep` take the same flags, written over the config's values."""

    @pytest.mark.parametrize("flag, value", [("--seed", "78"), ("--jobs", "2"), ("--shots", "40")])
    def test_flag_takes_effect_and_replays(self, tmp_path, monkeypatch, command, flag, value):
        import vqse.cli as cli

        jobs, pca_experiment = [], cli.pca_experiment
        monkeypatch.setattr(cli, "pca_experiment", lambda **kw: jobs.append(kw["jobs"]) or pca_experiment(**kw))
        cfg = tmp_path / "pca.cfg"
        cfg.write_text(PCA_CFG + SWEEP_SECTION)
        out, plain = tmp_path / "flag", tmp_path / "plain"
        assert main([command, "--config", str(cfg), "--out", str(out), flag, value]) == 0
        assert main([command, "--config", str(cfg), "--out", str(plain)]) == 0
        points = len(_point_dirs(command, out))
        assert jobs == ([2] * points if flag == "--jobs" else [1] * points) + [1] * points
        for point, plain_point in zip(_point_dirs(command, out), _point_dirs(command, plain)):
            manifest = (point / "manifest.txt").read_text()
            replay = (point / "config.replay.cfg").read_text()
            assert ("master_seed = 78" in manifest) == (flag == "--seed")
            assert ("shots = 40" in replay) == (flag == "--shots")
            changed = (point / "pca_trace.csv").read_bytes() != (plain_point / "pca_trace.csv").read_bytes()
            assert changed == (flag != "--jobs")
            again = tmp_path / "again" / point.name
            assert main(["run", "--config", str(point / "config.replay.cfg"), "--out", str(again)]) == 0
            for csv in point.glob("*.csv"):
                assert (again / csv.name).read_bytes() == csv.read_bytes(), csv.name

    def test_out_flag_overrides_run_out(self, tmp_path, command):
        cfg = tmp_path / "pca.cfg"
        from_cfg = tmp_path / "from_cfg"
        cfg.write_text(PCA_CFG.replace("[run]\n", f"[run]\nout = {from_cfg}\n") + SWEEP_SECTION)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "flag")]) == 0
        assert not from_cfg.exists()
        assert main([command, "--config", str(cfg)]) == 0
        for out in (tmp_path / "flag", from_cfg):
            for point in _point_dirs(command, out):
                assert (point / "pca_trace.csv").exists() and (point / "manifest.txt").exists()

    @pytest.mark.parametrize("flag, value, key", [("--jobs", "0", "jobs"), ("--shots", "-1", "shots"),
                                                  ("--seed", "-1", "seed")])
    def test_bad_flag_exits_2_naming_key(self, tmp_path, capsys, command, flag, value, key):
        cfg = tmp_path / "pca.cfg"
        cfg.write_text(PCA_CFG + SWEEP_SECTION)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), flag, value]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: key {key!r}" in err  # a flag has no line number

    def test_shots_flag_ignored_by_wstate(self, tmp_path, command):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(WSTATE_CFG.replace("iters = 10", "iters = 20") + SWEEP_SECTION.replace("pca.n_max", "wstate.iters"))
        plain, shots = tmp_path / "plain", tmp_path / "shots"
        assert main([command, "--config", str(cfg), "--out", str(plain)]) == 0
        assert main([command, "--config", str(cfg), "--out", str(shots), "--shots", "5"]) == 0
        dirs = [plain] if command == "run" else [plain / "iters=10", plain / "iters=20"]
        for point in dirs:
            twin = shots / point.relative_to(plain)
            assert "shots" not in (twin / "config.replay.cfg").read_text()
            for name in ("wstate_trace.csv", "wstate_summary.txt", "config.replay.cfg"):
                assert (twin / name).read_bytes() == (point / name).read_bytes(), name

    def test_help_lists_the_same_flags(self, capsys, command):
        import re

        def flags(name):
            with pytest.raises(SystemExit):
                main([name, "--help"])
            return set(re.findall(r"--\w+", capsys.readouterr().out))

        assert flags(command) == flags("run") == {"--help", "--config", "--out", "--seed", "--jobs", "--shots"}


class TestShippedConfigs:
    def test_all_parse_and_validate(self):
        from pathlib import Path

        from vqse.cli import load_config

        config_dir = Path(__file__).resolve().parent.parent / "configs"
        paths = sorted(config_dir.glob("*.cfg"))
        assert len(paths) >= 4
        for path in paths:
            load_config(parse_config_text(path.read_text()), {})


class TestVerifyCommand:
    def _run_pca(self, tmp_path):
        cfg = tmp_path / "pca.cfg"
        cfg.write_text(PCA_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        return out / "pca_summary.txt"

    def test_clean_summary_passes(self, tmp_path, capsys):
        summary = self._run_pca(tmp_path)
        assert main(["verify", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "run_0: PASS" in out and "margin" in out

    def test_tampered_summary_fails_naming_inequality(self, tmp_path, capsys):
        summary = self._run_pca(tmp_path)
        text = summary.read_text()
        import re

        # a NaN error or cost makes every comparison false: it must not pass
        for value in ("0.9", "nan"):
            tampered = re.sub(r"eps_lambda = \S+", f"eps_lambda = {value}", text)
            if value == "nan":
                tampered = re.sub(r"final_cost = \S+", "final_cost = nan", tampered)
            summary.write_text(tampered)
            capsys.readouterr()
            assert main(["verify", str(summary)]) == 1, value
            out = capsys.readouterr().out
            assert "VIOLATED" in out and "eps_lambda <= bound" in out

    def test_degenerate_cost_bound_flagged(self, tmp_path, capsys):
        # hand-written section with E_{m+1} <= C: the cost bound collapses to
        # the purity but the purity bound is still checked
        summary = tmp_path / "s.txt"
        summary.write_text(
            "[run_0]\n"
            "n = 2\nm = 1\n"
            "final_cost = 1.5\n"
            "purity = 0.8\n"
            "energies = 0.5,0.9\n"
            "est_lambdas = 0.7\n"
            "est_bitstrings = 00\n"
            "m_hat = 2\n"
            "est_lambdas_wide = 0.7,0.2\n"
            "eps_lambda = 0.01\n"
            "eps_rel = 0.01\n"
            "eps_v = 0.01\n"
            "bound_cost = 0.8\n"
            "bound_purity = 0.2\n"
            "bound_cost_degenerate = True\n"
        )
        assert main(["verify", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "degenerate" in out

    def test_non_numeric_run_section_is_corrupt(self, tmp_path, capsys):
        bad = tmp_path / "run_a.txt"
        bad.write_text("[run_a]\nn = 2\n")
        assert main(["verify", str(bad)]) == 2
        assert "corrupt summary" in capsys.readouterr().err

    def test_summary_without_runs_rejected(self, tmp_path, capsys):
        bad = tmp_path / "empty.txt"
        bad.write_text("[summary]\nexperiment = xy\n")
        assert main(["verify", str(bad)]) == 2


class TestSweepCommand:
    def test_sweep_over_key(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(PCA_CFG + "\n[sweep]\nkey = pca.n_max\nvalues = 10,20\n")
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        for v in ("10", "20"):
            point = out / f"n_max={v}"
            assert (point / "pca_trace.csv").exists()
            assert (point / "manifest.txt").exists()
            assert not (point / "point.cfg").exists()
        t10 = (out / "n_max=10" / "pca_trace.csv").read_text().splitlines()
        t20 = (out / "n_max=20" / "pca_trace.csv").read_text().splitlines()
        assert len(t20) > len(t10)

    def test_sweep_requires_section(self, tmp_path, capsys):
        cfg = tmp_path / "nosweep.cfg"
        cfg.write_text(PCA_CFG)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "sweep" in capsys.readouterr().err


class TestMedian:
    @pytest.mark.parametrize("values", [
        [0.3],
        [0.5, 0.1, 0.2],
        [0.4, 0.1, 0.3, 0.2],
        [0.1, 0.1, 0.7, 0.7],
        [1e-300, 3e-16, 0.1 + 0.2, 1e300],
        [0.1, np.nan, 0.2],
        [np.nan, 0.1, 0.2, 0.3],
        [np.nan],
    ], ids=["one", "odd", "even", "ties", "even-wide", "odd-nan", "even-nan", "nan"])
    def test_same_float_as_numpy(self, values):
        for vals in (values, [np.float64(v) for v in values]):
            got, want = _median(vals), np.median(vals)
            assert got == want or (np.isnan(got) and np.isnan(want))

    def test_same_float_as_numpy_on_random_lists(self):
        rng = np.random.default_rng(7)
        for size in range(1, 16):
            for _ in range(20):
                vals = list(rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size))
                if rng.random() < 0.2:
                    vals[rng.integers(size)] = np.nan
                got, want = _median(vals), np.median(vals)
                assert got == want or (np.isnan(got) and np.isnan(want))
