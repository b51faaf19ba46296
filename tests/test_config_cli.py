import dataclasses
import gc
import os
import sys
import warnings

import numpy as np
import pytest

from aalab import cli
from aalab import config as cfgmod
from aalab.compactness import range_compactness_report
from aalab.solver import load_trajectory, save_trajectory, solve


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


def test_unknown_env_override_exits_one(tmp_path, capsys, monkeypatch):
    """A misspelt override is rejected, not run on the defaults: the key is
    ``solver.forcing_nodes``."""
    monkeypatch.setenv("AALAB_FORCING__NODES", "0")
    out_dir = tmp_path / "d"
    code, out, err = run_cli(["simulate", "--config", "decay", "--out", str(out_dir)], capsys)
    assert code == 1 and out == ""
    assert err == "config error: environment variable AALAB_FORCING__NODES names no config key\n"
    assert not out_dir.exists()


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
                    "forcing.nmax = 2\n")
    scenario = cfgmod.load_scenario(str(path))
    basis = scenario.basis()
    forcing = scenario.forcing(basis)
    assert not forcing.is_zero


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def test_signal_eval(capsys):
    code, out, _ = run_cli(["signal", "eval", "a", "--t", "27", "--nmax", "4"], capsys)
    assert code == 0
    assert out.splitlines() == ["t,value", "27,3"]


def test_signal_out_writes_through_symlink(tmp_path, capsys):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    os.symlink(target, link)
    code, out, _ = run_cli(["signal", "eval", "a", "--t", "27,0", "--nmax", "4",
                            "--out", str(link)], capsys)
    assert code == 0 and out == ""
    assert link.is_symlink()
    assert target.read_text().splitlines() == ["t,value", "27,3", "0,0"]


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


def test_simulate_horizon_below_half_a_step_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AALAB_SOLVER__T", "0.0004")  # decay steps dt = 1e-3
    code, _, err = run_cli(["simulate", "--config", "decay", "--out", str(tmp_path / "d")],
                           capsys)
    assert code == 1
    assert err.startswith("error:") and "half a step" in err


@pytest.mark.parametrize("key, what", [("AALAB_BASIS__L", "interval length"),
                                       ("AALAB_INITIAL__AMPLITUDE", "initial amplitude")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_rejects_a_non_finite_length_or_amplitude(tmp_path, capsys, monkeypatch,
                                                           key, what, value):
    monkeypatch.setenv("AALAB_SOLVER__T", "0.01")
    monkeypatch.setenv(key, value)
    code, _, err = run_cli(["simulate", "--config", "decay", "--out", str(tmp_path / "d")],
                           capsys)
    assert code == 1
    assert err.startswith("error:") and f"{what} must be" in err and f"got {value}" in err
    assert not (tmp_path / "d").exists()


def test_simulate_manifest_records_save_clock(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AALAB_SOLVER__T", "0.05")
    out_dir = tmp_path / "d"
    assert run_cli(["simulate", "--config", "decay", "--out", str(out_dir)], capsys)[0] == 0
    lines = (out_dir / "manifest.txt").read_text().splitlines()
    saves = [line for line in lines if line.startswith("save_clock_s = ")]
    assert len(saves) == 1
    assert float(saves[0].split(" = ")[1]) >= 0.0
    assert lines.index(saves[0]) == lines.index(next(
        line for line in lines if line.startswith("wall_clock_s = "))) + 1


def test_simulate_manifest_counts_spiky_steps(tmp_path, capsys, monkeypatch):
    # T = 2.6 reaches into the level-1 bump on [2.5, 3.5]; at dt = 7e-4, off
    # the spike lattice, its left edge falls inside a step
    monkeypatch.setenv("AALAB_SOLVER__T", "2.6")
    monkeypatch.setenv("AALAB_SOLVER__DT", "7e-4")
    out_dir = tmp_path / "ref"
    code, _, _ = run_cli(["simulate", "--config", "reference", "--out", str(out_dir)], capsys)
    assert code == 0
    scenario = cfgmod.load_scenario(cfgmod.builtin_config_path("reference"))
    forcing = scenario.forcing(scenario.basis())
    cfg = scenario.solver_config()
    n = round(cfg.horizon / cfg.dt)

    def inside(t, t_next):
        bps = forcing.breakpoints(t, t_next)
        return np.any((bps > t) & (bps < t_next))

    stamps = cfg.dt * np.arange(n + 1)
    expected = sum(inside(t, t_next) for t, t_next in zip(stamps[:-1], stamps[1:]))
    assert 0 < expected < n
    manifest = (out_dir / "manifest.txt").read_text().splitlines()
    assert f"spiky_steps = {expected}" in manifest


@pytest.mark.parametrize("config, code", [("reference", 0), ("blowup", 2), ("decay", 0)])
def test_simulate_manifest_picard_summary(tmp_path, capsys, monkeypatch, config, code):
    """picard_max and linear_steps agree with the counts saved in
    trajectory.npz, and picard_sweeps is the number of steps' grid vectors
    (N + 1 points each) g was applied to, recorded by wrapping the
    scenario's nonlinearity.  Stepped one at a time (blowup), that is the
    refinements plus one frozen application per step, none for a linear
    step (counted -1); the decay scenario (g = 0) takes only linear steps,
    and g is evaluated once, at zero, for their bound.  The reference
    scenario is forced, so its steps are solved in blocks, whose sweeps
    apply g to all their steps at once and whose frozen application is one
    per block: fewer than the sweeps per step summed."""
    monkeypatch.setenv("AALAB_SOLVER__T", "0.3")
    shapes = []
    build = cfgmod.Scenario.nonlinearity

    def recorded(self):
        g = build(self)
        return dataclasses.replace(g, fn=lambda r: shapes.append(np.shape(r)) or g.fn(r))

    monkeypatch.setattr(cfgmod.Scenario, "nonlinearity", recorded)
    out_dir = tmp_path / config
    assert run_cli(["simulate", "--config", config, "--out", str(out_dir)], capsys)[0] == code
    with np.load(out_dir / "trajectory.npz") as z:
        counts = z["picard_counts"]
        grid = int(z["basis"][2])
    assert counts.size > 0
    manifest = (out_dir / "manifest.txt").read_text().splitlines()
    assert f"picard_max = {max(int(counts.max()), 0)}" in manifest
    vectors = sum(int(np.prod(shape)) for shape in shapes) // (grid + 1)
    assert f"picard_sweeps = {vectors}" in manifest
    sweeps = int(np.sum(counts + 1))  # each step's own sweeps, 0 for a linear step
    if config == "reference":
        assert 0 < vectors < sweeps
    else:
        assert vectors == sweeps + (config == "decay")
    linear = int(np.count_nonzero(counts == -1))
    assert f"linear_steps = {linear}" in manifest
    assert (linear == counts.size) == (config == "decay")


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


@pytest.mark.parametrize("args", [
    ["simulate"],                                                  # missing --config
    ["simulate", "--config", "does-not-exist", "--threads", "2"],  # removed option
    ["diagnose", "compactness"],                                   # missing trajdir
    ["signal", "eval", "a", "--t", "0", "--nodes", "8"],           # eval has no quadrature
])
def test_usage_errors_exit_one(capsys, args):
    code, _, err = run_cli(args, capsys)
    assert code == 1  # 2 is reserved for blow-up
    assert "usage" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(["simulate", "--help"], capsys)
    assert code == 0
    assert "--config" in out


def test_diagnose_compactness_rejects_nan_eps(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AALAB_SOLVER__T", "0.05")
    out_dir = str(tmp_path / "d")
    assert run_cli(["simulate", "--config", "decay", "--out", out_dir], capsys)[0] == 0
    code, _, err = run_cli(["diagnose", "compactness", out_dir, "--eps", "0.2,nan"], capsys)
    assert code == 1
    assert "eps" in err


@pytest.mark.parametrize("key, value", [("PICARD_MAX_ITER", "0"), ("FORCING_NODES", "0")])
def test_simulate_rejects_empty_solver_budget(tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.setenv(f"AALAB_SOLVER__{key}", value)
    code, _, err = run_cli(["simulate", "--config", "decay", "--out", str(tmp_path / "d")],
                           capsys)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("key, value, message", [
    ("T", "inf", "positive and finite"), ("DT", "nan", "positive and finite"),
    ("DT", "inf", "positive and finite"), ("PICARD_TOL", "nan", "positive and finite"),
    ("PICARD_TOL", "inf", "positive and finite"), ("CAP", "nan", "blow-up cap")])
def test_simulate_rejects_nonfinite_solver_settings(tmp_path, capsys, monkeypatch, key, value,
                                                    message):
    """A non-finite step, horizon or tolerance, or a NaN cap, is a usage
    error before any step: T = inf would overflow the step count, a NaN
    tolerance no sweep meets, an infinite one every sweep, and a NaN cap
    no sup exceeds."""
    monkeypatch.setenv(f"AALAB_SOLVER__{key}", value)
    out_dir = tmp_path / "d"
    code, _, err = run_cli(["simulate", "--config", "decay", "--out", str(out_dir)], capsys)
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("env, message", [
    ({"NONLINEARITY__ID": "cubic-unstable", "INITIAL__AMPLITUDE": "20"}, "reduce dt"),
    ({"NONLINEARITY__ID": "cubic", "SOLVER__PICARD_MAX_ITER": "1",
      "SOLVER__PICARD_TOL": "1e-300"}, "no convergence in 1 refinements at t = 0")])
def test_simulate_reports_solver_errors(tmp_path, capsys, monkeypatch, env, message):
    """A contraction factor at 1/2 (the growth cubic from 20 * mode 1) and
    a Picard budget run out are usage errors: one line, exit 1."""
    for key, value in env.items():
        monkeypatch.setenv(f"AALAB_{key}", value)
    code, _, err = run_cli(["simulate", "--config", "decay", "--out", str(tmp_path / "d")],
                           capsys)
    assert code == 1
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_outputs_byte_identical_across_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AALAB_SOLVER__T", "0.25")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_cli(["simulate", "--config", "decay", "--out", str(out_a)], capsys)
    run_cli(["simulate", "--config", "decay", "--out", str(out_b)], capsys)
    assert (out_a / "trajectory.npz").read_bytes() == (out_b / "trajectory.npz").read_bytes()
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "snapshots.csv").read_bytes() == (out_b / "snapshots.csv").read_bytes()
    for name in sorted(os.listdir(out_a / "snapshots")):
        assert (out_a / "snapshots" / name).read_bytes() == \
            (out_b / "snapshots" / name).read_bytes()


def test_readme_signal_lines_print_their_values(capsys):
    """Each README ``aalab signal`` line whose comment ends in a value prints
    that value as the last field of its last line."""
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = [line for line in fh if line.startswith("aalab signal ")]
    values = []
    for line in lines:
        command, comment = line.split("#", 1)
        value = comment.rsplit(":", 1)[-1].strip()
        if not value.replace(".", "", 1).isdigit():
            continue
        code, out, err = run_cli(command.split()[1:], capsys)
        assert code == 0, (command, err)
        assert out.splitlines()[-1].split(",")[-1] == value, (command, out)
        values.append(value)
    assert values == ["3", "2", "0.955680337487423"]


def test_readme_cli_sequence_on_reference(tmp_path, capsys, monkeypatch):
    """The README's simulate/diagnose sequence on a shortened reference run:
    every step exits 0, and diagnose works on the solved states themselves."""
    monkeypatch.setenv("AALAB_SOLVER__T", "3")
    out_u, out_v = str(tmp_path / "u"), str(tmp_path / "v")
    assert run_cli(["simulate", "--config", "reference", "--out", out_u], capsys)[0] == 0
    monkeypatch.setenv("AALAB_INITIAL__AMPLITUDE", "0.4")
    assert run_cli(["simulate", "--config", "reference", "--out", out_v], capsys)[0] == 0
    monkeypatch.delenv("AALAB_INITIAL__AMPLITUDE")

    code, out, err = run_cli(["diagnose", "compactness", out_u], capsys)
    assert code == 0, err
    assert out.splitlines()[-1].startswith("PASS")
    rows = [line.split(",") for line in out.splitlines()[1:-1]]
    scenario = cfgmod.load_scenario(cfgmod.builtin_config_path("reference"),
                                    environ={"AALAB_SOLVER__T": "3"})
    basis = scenario.basis()
    traj = solve(scenario.initial_field(basis), scenario.solver_config(),
                 scenario.nonlinearity(), scenario.forcing(basis))
    report = range_compactness_report(traj, [float(r[1]) for r in rows[:3]], strides=(2, 1))
    assert [int(r[2]) for r in rows] == report.counts.ravel().tolist()

    for args in (["energy", out_u, out_v], ["subvariant", out_u, out_v],
                 ["uc-modulus", out_u]):
        code, out, err = run_cli(["diagnose", *args], capsys)
        assert code == 0, (args, err)
        assert "PASS" in out


def test_diagnose_fail_verdict_exits_three(tmp_path, capsys, monkeypatch):
    """A 100-step unforced cubic run whose cover counts change with density."""
    for key, value in (("BASIS__K", "8"), ("BASIS__N", "32"), ("SOLVER__DT", "1e-2"),
                       ("SOLVER__T", "1.0"), ("NONLINEARITY__ID", "cubic"),
                       ("INITIAL__AMPLITUDE", "0.5")):
        monkeypatch.setenv(f"AALAB_{key}", value)
    out_dir = str(tmp_path / "run")
    assert run_cli(["simulate", "--config", "decay", "--out", out_dir], capsys)[0] == 0
    assert len(load_trajectory(out_dir).stamps) == 101
    code, out, _ = run_cli(["diagnose", "compactness", out_dir, "--out", str(tmp_path / "d")],
                           capsys)
    assert code == 3
    assert out.splitlines()[-1] == "FAIL cover counts changed across densities: 5,6,10;5,8,15"
    assert "verdict = FAIL" in (tmp_path / "d" / "manifest.txt").read_text()


def test_diagnose_without_trajectory_npz_exits_one(tmp_path, capsys):
    (tmp_path / "trace.csv").write_text("t,sup_norm\n0,1\n")
    code, _, err = run_cli(["diagnose", "compactness", str(tmp_path)], capsys)
    assert code == 1
    assert "trajectory.npz" in err


def damaged_archive_dir(tmp_path, damage):
    """A directory whose trajectory.npz is the first 1 000 bytes of a saved
    decay run (``truncated``) or a CSV file (``not-zip``)."""
    saved = tmp_path / "saved"
    scenario = cfgmod.load_scenario(cfgmod.builtin_config_path("decay"))
    basis = scenario.basis()
    save_trajectory(solve(scenario.initial_field(basis), scenario.solver_config(),
                          scenario.nonlinearity(), scenario.forcing(basis)), str(saved))
    archive = (saved / "trajectory.npz").read_bytes()
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "trajectory.npz").write_bytes(archive[:1000] if damage == "truncated"
                                         else b"t,sup_norm\n0,1\n")
    return bad


@pytest.mark.parametrize("damage", ["truncated", "not-zip"])
def test_diagnose_on_unreadable_archive_exits_one(tmp_path, capsys, damage):
    bad = damaged_archive_dir(tmp_path, damage)
    code, _, err = run_cli(["diagnose", "compactness", str(bad)], capsys)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(bad / "trajectory.npz") in lines[0]
    assert "not a readable trajectory archive" in lines[0]


@pytest.mark.parametrize("damage", ["truncated", "not-zip"])
def test_load_trajectory_closes_a_damaged_archive(tmp_path, monkeypatch, damage):
    """No file is left open for the garbage collector: a ResourceWarning it
    raises there would reach ``sys.unraisablehook``."""
    bad = damaged_archive_dir(tmp_path, damage)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(ValueError, match="not a readable trajectory archive"):
            load_trajectory(str(bad))
        gc.collect()
    assert [str(u.exc_value) for u in unraisable] == []
