"""End-to-end tests for the command-line interface.

Each subcommand is driven through cli.run() with a tmp_path output
directory; file contents, manifest stamping, reproducibility, and exit
codes are all checked on small, fast parameter sets.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paritysim import __version__, cavity, cli, model, sme
from paritysim.pulse import default_pulse

HEX16 = set("0123456789abcdef")


def manifest_of(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def csv_lines(path):
    return path.read_text().splitlines()


def write_config(path, config=None, pulse=None):
    data = (config or model.default_config()).to_dict()
    if pulse is not None:
        data["pulse"] = pulse.to_dict()
    path.write_text(json.dumps(data))
    return path


class TestUsage:

    def test_no_subcommand_is_usage_error(self, capsys):
        assert cli.run([]) == cli.EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.run(["design", "--bogus"]) == cli.EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_bad_filter_choice_is_usage_error(self, capsys):
        assert cli.run(["trajectory", "--filter", "boxcar"]) == cli.EXIT_USAGE
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert cli.run(["--version"]) == cli.EXIT_OK
        assert capsys.readouterr().out.strip() == __version__

    @pytest.mark.parametrize("module", ["paritysim", "paritysim.cli"])
    def test_runs_as_module_from_a_checkout(self, module):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", module, "--version"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == cli.EXIT_OK, done.stderr
        assert done.stdout.strip() == __version__


class TestDesign:

    def test_default_rates(self, capsys):
        assert cli.run(["design"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "delta_0 = 1.7320508" in out
        assert "delta_1 = -1.7320508" in out
        assert "kappa_star = 2.0000000" in out

    def test_asymmetric_rates(self, capsys):
        rc = cli.run(["design", "--kappa0", "6.0", "--kappa1", "2.0"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "delta_0 = 3.0000000" in out
        assert "delta_1 = -1.0000000" in out

    @pytest.mark.parametrize("option,value", [
        ("--kappa0", "nan"), ("--kappa1", "inf"), ("--chi", "-inf"),
        ("--kappa0", "0")])
    def test_rate_not_finite_and_positive_is_invalid_input(self, capsys,
                                                           option, value):
        assert cli.run(["design", f"{option}={value}"]) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {option[2:]} must be finite")

    @pytest.mark.parametrize("argv, name", [
        (["--kappa0", "1e300", "--kappa1", "1e-300"], "delta_0"),
        # delta_0 underflows to 0 before delta_1 overflows
        (["--kappa0", "1e-300", "--kappa1", "1e300"], "delta_0"),
        (["--kappa0", "1e-160", "--kappa1", "1e160"], "|delta_1|"),
        (["--chi", "1e308"], "kappa_star")])
    def test_result_not_finite_and_nonzero_is_invalid_input(self, capsys,
                                                            argv, name):
        assert cli.run(["design", *argv]) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {name} must be finite")


class TestValidate:

    def test_valid_config_passes(self, tmp_path, capsys):
        path = write_config(tmp_path / "config.json", pulse=default_pulse())
        assert cli.run(["validate", "--config", str(path)]) == cli.EXIT_OK
        config = model.default_config()
        assert f"ok: {config.n_qubits} qubits, {config.n_modes} modes" \
            in capsys.readouterr().out

    def test_violations_reported_on_stderr(self, tmp_path, capsys):
        data = model.default_config().to_dict()
        data["eta"] = 2.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli.run(["validate", "--config", str(path)]) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert "violation: eta" in err

    def test_missing_file_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert cli.run(["validate", "--config", str(path)]) == cli.EXIT_INVALID
        assert "error" in capsys.readouterr().err

    def test_config_and_pulse_problems_reported_together(self, tmp_path,
                                                         capsys):
        data = model.default_config().to_dict()
        data["eta"] = 2.0
        data["pulse"] = {**default_pulse().to_dict(), "width": 1.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli.run(["validate", "--config", str(path)]) == cli.EXIT_INVALID
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("violation: eta") for line in err)
        assert any(line.startswith("violation: pulse: ") and "width" in line
                   for line in err)

    def test_every_pulse_problem_on_its_own_line(self, tmp_path, capsys):
        data = model.default_config().to_dict()
        pulse = {**default_pulse().to_dict(), "width": 1.0, "sigma": -1.0}
        del pulse["tau"]
        data["pulse"] = pulse
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli.run(["validate", "--config", str(path)]) == cli.EXIT_INVALID
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("violation: pulse: ")]
        assert len(lines) == 3
        for line, part in zip(lines, ("width", "'tau'", "sigma")):
            assert part in line

    def test_malformed_json_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.run(["validate", "--config", str(path)]) == cli.EXIT_INVALID
        capsys.readouterr()


#: subcommands that read --config, with arguments that keep a run short
CONFIG_COMMANDS = {
    "pulse-preview": ["--steps", "10"],
    "respond": ["--steps", "10"],
    "trajectory": ["--steps", "10"],
    "ensemble": ["--trajectories", "2", "--steps", "10"],
    "witness": ["--steps", "10"],
    "validate": [],
}

BAD_FIELDS = {
    "eta-null": lambda data: data.update(eta=None),
    "n_qubits-null": lambda data: data.update(n_qubits=None),
    "chi-object": lambda data: data.update(chi={}),
    "sigma-null": lambda data: data["pulse"].update(sigma=None),
    "pulse-not-object": lambda data: data.update(pulse=[]),
    # JSON booleans are not numbers; each file below is otherwise valid
    "n_qubits-true": lambda data: data.update(n_qubits=True, chi=1.0,
                                              gamma_z=0.0),
    "eta-true": lambda data: data.update(eta=True),
    "kappa-element-true": lambda data: data.update(
        kappa=[True, *data["kappa"][1:]]),
    "eps_ss-true": lambda data: data["pulse"].update(eps_ss=True),
}


@pytest.mark.parametrize("bad", sorted(BAD_FIELDS))
@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
def test_null_or_non_numeric_field_is_invalid_input(tmp_path, capsys,
                                                    command, bad):
    data = model.default_config().to_dict()
    data["pulse"] = default_pulse().to_dict()
    BAD_FIELDS[bad](data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    argv = [command, "--config", str(path), *CONFIG_COMMANDS[command]]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.run(argv) == cli.EXIT_INVALID
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith(("error:", "violation:")) for line in err)


@pytest.mark.parametrize("n_qubits", [model.MAX_QUBITS + 1, 40])
def test_register_above_cap_is_invalid_input(tmp_path, capsys, n_qubits):
    data = {**model.default_config().to_dict(), "n_qubits": n_qubits,
            "chi": 1.0, "gamma_z": 0.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert cli.run(["validate", "--config", str(path)]) == cli.EXIT_INVALID
    assert "violation: n_qubits: must be at most" in capsys.readouterr().err
    assert cli.run(["respond", "--config", str(path), "--steps", "10",
                    "--out", str(tmp_path / "out")]) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: n_qubits") and "Traceback" not in err


@pytest.mark.parametrize("n_modes", [model.MAX_MODES + 1, 10 ** 12])
def test_mode_count_above_cap_is_invalid_input(tmp_path, capsys, n_modes):
    data = {**model.default_config().to_dict(), "n_modes": n_modes,
            "chi": 1.0, "kappa": 2.0, "delta": 0.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert cli.run(["validate", "--config", str(path)]) == cli.EXIT_INVALID
    assert "violation: n_modes: must be at most" in capsys.readouterr().err
    assert cli.run(["respond", "--config", str(path), "--steps", "10",
                    "--out", str(tmp_path / "out")]) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: n_modes") and "Traceback" not in err


#: every subcommand that takes --steps, with its other short-run arguments
STEPS_COMMANDS = {
    "pulse-preview": [],
    "respond": [],
    "trajectory": [],
    "witness": [],
    "ensemble": ["--trajectories", "2"],
}


@pytest.mark.parametrize("steps", ["0", "-1"])
@pytest.mark.parametrize("command", sorted(STEPS_COMMANDS))
def test_step_count_below_one_is_invalid_input(tmp_path, capsys, command,
                                               steps):
    argv = [command, *STEPS_COMMANDS[command], "--steps", steps,
            "--out", str(tmp_path / "out")]
    assert cli.run(argv) == cli.EXIT_INVALID
    err = capsys.readouterr().err.splitlines()
    assert "error: n_steps must be >= 1" in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("argv, option", [
    (["trajectory", "--seed", "-1"], "seed"),
    (["trajectory", "--index", "-1"], "index"),
    (["ensemble", "--trajectories", "2", "--seed", "-1"], "seed"),
])
def test_negative_seed_or_index_is_invalid_input(tmp_path, capsys, argv,
                                                 option):
    argv = [*argv, "--steps", "10", "--out", str(tmp_path / "out")]
    assert cli.run(argv) == cli.EXIT_INVALID
    assert f"error: {option} must be >= 0" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


class TestGateModel:

    def test_table_line_count(self, capsys):
        assert cli.run(["gate-model", "--points", "5"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        p0, f0 = lines[0].split()
        assert float(p0) == 0.0 and float(f0) == 1.0

    def test_fidelity_inversion_reported(self, capsys):
        rc = cli.run(["gate-model", "--points", "2", "--fidelity", "0.94"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "error rate for fidelity 0.94" in out
        p = float(out.strip().rsplit("p = ", 1)[1])
        assert 0.014 <= p <= 0.015

    def test_out_writes_csv_with_manifest(self, tmp_path, capsys):
        rc = cli.run(["gate-model", "--points", "7", "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        capsys.readouterr()
        lines = csv_lines(tmp_path / "gate_model.csv")
        assert lines[1] == "p,fidelity"
        assert len(lines) == 2 + 7
        manifest = manifest_of(tmp_path)
        assert lines[0] == f"# manifest: {manifest['hash']}"
        assert manifest["outputs"] == ["gate_model.csv"]

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one_is_invalid_input(self, tmp_path, capsys,
                                               points):
        argv = ["gate-model", "--points", points, "--out", str(tmp_path)]
        assert cli.run(argv) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: points must be >= 1"]
        assert captured.out == ""
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("fidelity", ["1.5", "nan", "0.5"])
    def test_unattainable_fidelity_is_invalid_input(self, tmp_path, capsys,
                                                    fidelity):
        argv = ["gate-model", "--fidelity", fidelity, "--out", str(tmp_path)]
        assert cli.run(argv) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error: target fidelity must lie in")
        assert captured.out == ""
        assert not list(tmp_path.rglob("*.csv"))


class TestPulsePreview:

    def test_csv_contents(self, tmp_path, capsys):
        rc = cli.run(["pulse-preview", "--steps", "100",
                      "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        assert "wrote pulse.csv" in capsys.readouterr().out
        lines = csv_lines(tmp_path / "pulse.csv")
        assert lines[0].startswith("# manifest: ")
        stamp = lines[0].split(": ")[1]
        assert len(stamp) == 16 and set(stamp) <= HEX16
        assert lines[1] == "t,eps"
        assert len(lines) == 2 + 101
        t0, e0 = lines[2].split(",")
        assert float(t0) == 0.0 and float(e0) == 0.0

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert cli.run(["pulse-preview", "--steps", "64",
                            "--out", str(d)]) == cli.EXIT_OK
        capsys.readouterr()
        assert (a / "pulse.csv").read_bytes() == (b / "pulse.csv").read_bytes()
        assert manifest_of(a)["hash"] == manifest_of(b)["hash"]

    def test_no_temp_files_left_behind(self, tmp_path, capsys):
        cli.run(["pulse-preview", "--steps", "16", "--out", str(tmp_path)])
        capsys.readouterr()
        assert list(tmp_path.glob("*.tmp")) == []


class TestRespond:

    def test_outputs_and_summary(self, tmp_path, capsys):
        rc = cli.run(["respond", "--steps", "200", "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        capsys.readouterr()
        lines = csv_lines(tmp_path / "response.csv")
        header = lines[1].split(",")
        config = model.default_config()
        assert header[0] == "t"
        assert header[1] == "re_out_000" and header[2] == "im_out_000"
        assert len(header) == 1 + 2 * config.dim
        assert len(lines) == 2 + 201

        summary = json.loads((tmp_path / "response_summary.json").read_text())
        eps = default_pulse().eps_ss
        assert summary["steady_even"] == pytest.approx([-eps, -eps], abs=1e-12)
        assert summary["steady_odd"] == pytest.approx([eps, -eps], abs=1e-12)
        assert summary["parity_degeneracy"] < 1e-10
        assert summary["manifest_hash"] == manifest_of(tmp_path)["hash"]
        assert sorted(manifest_of(tmp_path)["outputs"]) == \
            ["response.csv", "response_summary.json"]

    def test_config_file_overrides_defaults(self, tmp_path, capsys):
        config = model.ReadoutConfig(n_qubits=2, n_modes=1, chi=[[1.0, 1.0]],
                                     delta=[0.5], kappa=[2.0],
                                     gamma_z=[0.0, 0.0], eta=1.0)
        path = write_config(tmp_path / "config.json", config=config)
        rc = cli.run(["respond", "--steps", "100", "--config", str(path),
                      "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        capsys.readouterr()
        header = csv_lines(tmp_path / "response.csv")[1].split(",")
        assert len(header) == 1 + 2 * 4
        assert header[1] == "re_out_00"

    def test_damped_zero_detuning_is_answered(self, tmp_path, capsys):
        # basis state 1 has pulled detuning 0 on a damped mode: finite
        config = model.ReadoutConfig.from_dict(
            {"n_qubits": 1, "n_modes": 1, "chi": 1.0, "kappa": 2.0,
             "delta": 1.0})
        path = write_config(tmp_path / "config.json", config=config)
        rc = cli.run(["respond", "--steps", "100", "--config", str(path),
                      "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        capsys.readouterr()
        summary = json.loads((tmp_path / "response_summary.json").read_text())
        eps = default_pulse().eps_ss
        for key, j in (("steady_even", 0), ("steady_odd", 1)):
            A, B, C, _ = cavity.state_space(config, j)
            dense = C @ np.linalg.solve(A, -B * eps)
            assert abs(complex(*summary[key]) - dense) < 1e-12

    def test_singular_design_writes_nothing(self, tmp_path, capsys):
        # basis state 1 puts an undamped mode at zero pulled detuning
        config = model.ReadoutConfig.from_dict(
            {"n_qubits": 1, "n_modes": 2, "chi": 1.0, "kappa": [2.0, 0.0],
             "delta": [0.3, 1.0]})
        path = write_config(tmp_path / "config.json", config=config)
        rc = cli.run(["respond", "--steps", "100", "--config", str(path),
                      "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: ")
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]


class TestTrajectory:

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        rc = cli.run(["trajectory", "--steps", "1500", "--seed", "0",
                      "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("assigned ")
        lines = csv_lines(tmp_path / "trajectory.csv")
        assert lines[1] == "t,photocurrent"
        assert len(lines) == 2 + 1500
        summary = json.loads(
            (tmp_path / "trajectory_summary.json").read_text())
        assert summary["assigned_parity"] in ("even", "odd")
        assert 0.0 <= summary["fidelity_even"] <= 1.0
        assert 0.0 <= summary["fidelity_odd"] <= 1.0
        assert summary["diagnostics"]["trace_dev"] < 1e-10

    def test_diagnostics_breach_exits_two_but_writes_outputs(
            self, tmp_path, capsys, monkeypatch):
        # a floor above every eigenvalue of a density matrix forces the
        # breach; outputs must still land on disk for post-mortems
        monkeypatch.setitem(sme.DIAGNOSTIC_THRESHOLDS, "min_eig", 1.0)
        rc = cli.run(["trajectory", "--steps", "2000", "--seed", "0",
                      "--out", str(tmp_path)])
        assert rc == cli.EXIT_NUMERICAL
        assert "diagnostics breached: min_eig" in capsys.readouterr().err
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "trajectory_summary.json").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            cli.run(["trajectory", "--steps", "1200", "--seed", "7",
                     "--index", "2", "--out", str(d)])
        capsys.readouterr()
        assert (a / "trajectory.csv").read_bytes() \
            == (b / "trajectory.csv").read_bytes()
        assert (a / "trajectory_summary.json").read_bytes() \
            == (b / "trajectory_summary.json").read_bytes()

    def test_seed_changes_the_record(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.run(["trajectory", "--steps", "1200", "--seed", "1",
                 "--out", str(a)])
        cli.run(["trajectory", "--steps", "1200", "--seed", "2",
                 "--out", str(b)])
        capsys.readouterr()
        assert (a / "trajectory.csv").read_bytes() \
            != (b / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("argv", [["trajectory", "--steps", "2000"],
                                  ["witness", "--steps", "200"]],
                         ids=["trajectory", "witness"])
def test_rerun_writes_identical_bytes_manifest_included(tmp_path, capsys,
                                                         argv):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert cli.run(argv + ["--out", str(d)]) == cli.EXIT_OK
    capsys.readouterr()
    names = sorted(p.name for p in a.iterdir())
    assert "manifest.json" in names
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["trajectory", "witness"])
def test_overflowing_drive_is_numerical_failure(tmp_path, capsys, command):
    # the config validates, but |alpha|^2 overflows in the drift
    # coefficient and a linear-algebra routine then fails to converge;
    # numpy's LinAlgError is a ValueError, yet it is no invalid input
    path = write_config(tmp_path / "config.json",
                        pulse=default_pulse().replace(eps_ss=1e160))
    rc = cli.run([command, "--steps", "200", "--config", str(path),
                  "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_NUMERICAL
    assert "numerical failure: " in capsys.readouterr().err


class TestEnsemble:

    def test_outputs_and_summary(self, tmp_path, capsys):
        rc = cli.run(["ensemble", "--trajectories", "8", "--steps", "1500",
                      "--seed", "11", "--filter", "uniform",
                      "--out", str(tmp_path)])
        assert rc in (cli.EXIT_OK, cli.EXIT_NUMERICAL)
        capsys.readouterr()
        for name in ("signal_histogram.csv", "fidelity_histogram.csv",
                     "ensemble_summary.json", "manifest.json"):
            assert (tmp_path / name).exists()
        summary = json.loads(
            (tmp_path / "ensemble_summary.json").read_text())
        assert summary["trajectories"] == 8
        assert summary["steps"] == 1500
        assert summary["filter"] == "uniform"
        assert 0.0 <= summary["odd_fraction"] <= 1.0
        counts = [int(line.split(",")[2]) for line
                  in csv_lines(tmp_path / "signal_histogram.csv")[2:]]
        assert sum(counts) == 8

    def test_tiny_run_reports_undefined_statistics_as_null(
            self, tmp_path, capsys):
        # three trajectories cannot fill both classes with two members,
        # so separation is undefined; the run must still complete. Seed 5
        # fills both classes; seed 7 puts every record in the even class,
        # so the odd-class fidelity is undefined too
        for seed in ("5", "7"):
            out = tmp_path / seed
            rc = cli.run(["ensemble", "--trajectories", "3", "--steps",
                          "1000", "--seed", seed, "--out", str(out)])
            assert rc in (cli.EXIT_OK, cli.EXIT_NUMERICAL)
            printed = capsys.readouterr().out
            for name in ("signal_histogram.csv", "fidelity_histogram.csv",
                         "ensemble_summary.json", "manifest.json"):
                assert (out / name).exists()
            summary = json.loads((out / "ensemble_summary.json").read_text())
            assert summary["separation"] is None
        assert summary["rms_fidelity_odd"] is None
        assert summary["odd_fraction"] == 0.0
        assert rc == cli.EXIT_OK
        assert printed == "odd fraction 0.000, rms fidelity (odd) n/a\n"


class TestWitness:

    def test_scan_outputs(self, tmp_path, capsys):
        rc = cli.run(["witness", "--steps", "400", "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        assert "max trace-distance rise" in capsys.readouterr().out
        lines = csv_lines(tmp_path / "witness.csv")
        assert lines[1] == "t,trace_distance"
        assert len(lines) == 2 + 401
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0, abs=1e-9)
        summary = json.loads((tmp_path / "witness_summary.json").read_text())
        assert summary["window"] == [7.0, 13.5]
        assert summary["max_rise_in_window"] >= 0.0
        assert isinstance(summary["intervals"], list)
