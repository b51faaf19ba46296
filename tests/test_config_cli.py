import os

import numpy as np
import pytest

from aalab import cli
from aalab import config as cfgmod
from aalab.solver import load_trajectory


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_text():
    values = cfgmod.parse_config_text(
        "# comment\nbasis.K = 8\nsolver.T = 2.0  # trailing\n\nforcing.temporal = none\n")
    assert values["basis.K"] == "8"
    assert values["solver.T"] == "2.0"


def test_parse_rejects_malformed():
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.parse_config_text("just a line\n")
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.parse_config_text("nodots = 3\n")


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("basis.Q = 3\n")
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.load_scenario(str(path))


def test_env_override(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("basis.K = 8\nbasis.N = 32\n")
    scenario = cfgmod.load_scenario(str(path), environ={"AALAB_SOLVER__T": "2.5"})
    assert scenario["solver.T"] == "2.5"
    assert scenario.solver_config().horizon == 2.5


def test_builtin_configs_load():
    for name in ("decay", "reference", "blowup"):
        scenario = cfgmod.load_scenario(cfgmod.builtin_config_path(name))
        scenario.basis()
        scenario.solver_config()
        scenario.nonlinearity()
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.builtin_config_path("missing")


def test_scenario_builders(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("basis.K = 8\nbasis.N = 32\nforcing.temporal = reference\n"
                    "forcing.nmax = 2\ndiagnostics.ladder = 1.5,3.0\n")
    scenario = cfgmod.load_scenario(str(path))
    basis = scenario.basis()
    forcing = scenario.forcing(basis)
    assert not forcing.is_zero
    assert list(scenario.shift_ladder()) == [1.5, 3.0]
    assert scenario.eps_ladder() == [0.2, 0.1, 0.05]


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def test_signal_eval(capsys):
    code, out, _ = run_cli(["signal", "eval", "a", "--t", "27", "--nmax", "4"], capsys)
    assert code == 0
    assert out.splitlines() == ["t,value", "27,3"]


def test_signal_norm_constant(capsys):
    code, out, _ = run_cli(["signal", "norm", "const:2", "--p", "1",
                            "--tmax", "3"], capsys)
    assert code == 0
    assert out.splitlines()[1].endswith(",2")


def test_signal_aa_test(capsys):
    code, out, _ = run_cli(["signal", "aa-test", "a", "--nmax", "4",
                            "--ladder", "pow3", "--ladder-size", "3",
                            "--p", "1", "--windows", "0.0,2.5",
                            "--threshold", "0.5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,m,shift_n,shift_m,distance"
    assert lines[-1].startswith("verdict recurrence-consistent")


def test_unknown_signal_errors(capsys):
    code, _, err = run_cli(["signal", "eval", "nope", "--t", "0"], capsys)
    assert code == 1
    assert "nope" in err


def test_simulate_decay_and_diagnostics(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AALAB_SOLVER__T", "0.5")
    out_u = str(tmp_path / "u")
    code, out, _ = run_cli(["simulate", "--config", "decay", "--out", out_u], capsys)
    assert code == 0
    assert "OK" in out
    monkeypatch.delenv("AALAB_SOLVER__T")

    traj = load_trajectory(out_u)
    lam1 = traj.basis.lambda1
    exact = np.exp(-lam1 * traj.stamps)
    assert np.max(np.abs(traj.sup_trace - exact)) < 1e-8

    # manifest echoes the effective configuration
    manifest = (tmp_path / "u" / "manifest.txt").read_text()
    assert "solver.T = 0.5" in manifest
    assert "blown_up = False" in manifest

    code, out, _ = run_cli(["diagnose", "energy", out_u, out_u], capsys)
    assert code == 0
    assert "PASS" in out

    code, out, _ = run_cli(["diagnose", "uc-modulus", out_u,
                            "--deltas", "2e-2,5e-2"], capsys)
    assert code == 0
    assert "PASS" in out

    code, out, _ = run_cli(["diagnose", "compactness", out_u,
                            "--eps", "0.4,0.2,0.1"], capsys)
    assert code == 0
    assert "PASS" in out

    code, out, _ = run_cli(["diagnose", "subvariant", out_u, "--functional",
                            "sup-norm"], capsys)
    assert code == 0
    assert "argmin 0" in out


def test_simulate_reference_scenario_smoke(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AALAB_SOLVER__T", "0.2")
    out_dir = str(tmp_path / "ref")
    code, out, _ = run_cli(["simulate", "--config", "reference",
                            "--out", out_dir], capsys)
    assert code == 0
    assert "OK" in out
    traj = load_trajectory(out_dir)
    assert traj.basis.modes == 64
    assert not traj.blown_up


def test_simulate_manifest_counts_spiky_steps(tmp_path, capsys, monkeypatch):
    # T = 2.6 reaches into the level-1 bump on [2.5, 3.5]
    monkeypatch.setenv("AALAB_SOLVER__T", "2.6")
    out_dir = tmp_path / "ref"
    code, _, _ = run_cli(["simulate", "--config", "reference", "--out", str(out_dir)], capsys)
    assert code == 0
    scenario = cfgmod.load_scenario(cfgmod.builtin_config_path("reference"))
    forcing = scenario.forcing(scenario.basis())
    dt = scenario.solver_config().dt
    expected = sum(forcing.breakpoints(t, t + dt).size > 0 for t in dt * np.arange(2600))
    assert 0 < expected < 2600
    manifest = (out_dir / "manifest.txt").read_text().splitlines()
    assert f"spiky_steps = {expected}" in manifest


def test_simulate_blowup_exit_code(tmp_path, capsys):
    out_dir = str(tmp_path / "blow")
    code, out, _ = run_cli(["simulate", "--config", "blowup", "--out", out_dir], capsys)
    assert code == 2
    assert "BLOWUP" in out
    manifest = (tmp_path / "blow" / "manifest.txt").read_text()
    assert "blown_up = True" in manifest
    assert "blowup_time" in manifest


def test_simulate_missing_config_exit_one(capsys):
    code, _, err = run_cli(["simulate", "--config", "does-not-exist"], capsys)
    assert code == 1
    assert "config" in err


@pytest.mark.parametrize("key, value", [("PICARD_MAX_ITER", "0"), ("FORCING_NODES", "0")])
def test_simulate_rejects_empty_solver_budget(tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.setenv(f"AALAB_SOLVER__{key}", value)
    code, _, err = run_cli(["simulate", "--config", "decay", "--out", str(tmp_path / "d")],
                           capsys)
    assert code == 1
    assert "error" in err


def test_outputs_byte_identical_across_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AALAB_SOLVER__T", "0.25")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_cli(["simulate", "--config", "decay", "--out", str(out_a)], capsys)
    run_cli(["simulate", "--config", "decay", "--out", str(out_b)], capsys)
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "snapshots.csv").read_bytes() == (out_b / "snapshots.csv").read_bytes()
    for name in sorted(os.listdir(out_a / "snapshots")):
        assert (out_a / "snapshots" / name).read_bytes() == \
            (out_b / "snapshots" / name).read_bytes()
