"""Each output check passes on the program's output and fails on a
deliberately corrupted copy; tracing reports missing targets instead of
failing.  Run with ``python -m pytest bench`` from the repository root."""

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tracing
import workloads


@pytest.fixture(scope="module")
def ref_march(tmp_path_factory):
    w = workloads.RefMarch(3, str(tmp_path_factory.mktemp("work")), horizon=0.3)
    inp = w.setup()
    return w, inp, w.run(inp)


@pytest.fixture(scope="module")
def companion(tmp_path_factory):
    w = workloads.CompanionDecay(3, str(tmp_path_factory.mktemp("work")), horizons=(0.3, 0.2))
    inp = w.setup()
    return w, inp, w.run(inp)


@pytest.fixture(scope="module")
def diagnose(tmp_path_factory):
    w = workloads.Diagnose(3, str(tmp_path_factory.mktemp("work")), orbit_states=401)
    inp = w.setup()
    return w, inp, w.run(inp)


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edit(text))


def _scale_peak_row(text):
    """Scale the largest grid value of a field CSV by 1 %."""
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    peak = max(rows, key=lambda i: abs(float(lines[i].split(",")[1])))
    xi, value = lines[peak].split(",")
    lines[peak] = f"{xi},{float(value) * 1.01!r}"
    return "\n".join(lines) + "\n"


def test_ref_march_output_passes(ref_march):
    w, inp, out = ref_march
    assert w.check(inp, out) == []


@pytest.mark.parametrize("corrupt", ["exit", "manifest", "trace", "snapshot"])
def test_ref_march_corruption_fails(ref_march, tmp_path, corrupt):
    w, inp, out = ref_march
    bad = dict(out, dir=str(tmp_path / "out"))
    shutil.copytree(out["dir"], bad["dir"])
    if corrupt == "exit":
        bad["rc"] = 1
    elif corrupt == "manifest":
        _rewrite(os.path.join(bad["dir"], "manifest.txt"),
                 lambda t: t.replace("blown_up = False", "blown_up = True"))
    elif corrupt == "trace":
        trace = np.loadtxt(os.path.join(bad["dir"], "trace.csv"), delimiter=",", skiprows=1)
        trace[1:, 1] *= 1.01
        np.savetxt(os.path.join(bad["dir"], "trace.csv"), trace, delimiter=",",
                   header="t,sup_norm", comments="", fmt="%.15g")
    else:
        snaps = os.path.join(bad["dir"], "snapshots")
        _rewrite(os.path.join(snaps, sorted(os.listdir(snaps))[0]), _scale_peak_row)
    assert w.check(inp, bad) != []


def test_companion_output_passes(companion):
    w, inp, out = companion
    assert w.check(inp, out) == []


@pytest.mark.parametrize("corrupt", ["scale", "grow", "nan", "stamps"])
def test_companion_corruption_fails(companion, corrupt):
    w, inp, out = companion
    tr = out[0]
    if corrupt == "scale":
        bad = dataclasses.replace(tr, coeffs=tr.coeffs * 1.01, sup_trace=tr.sup_trace * 1.01)
    elif corrupt == "grow":  # the tail rises instead of decaying
        growth = np.exp(np.linspace(0.0, 1.0, len(tr.stamps)))[:, None]
        coeffs = tr.coeffs * growth
        bad = dataclasses.replace(tr, coeffs=coeffs,
                                  sup_trace=np.max(np.abs(coeffs @ inp.basis.eigenfunctions),
                                                   axis=1))
    elif corrupt == "nan":
        coeffs = tr.coeffs.copy()
        coeffs[-1, 0] = np.nan
        bad = dataclasses.replace(tr, coeffs=coeffs)
    else:
        bad = dataclasses.replace(tr, stamps=tr.stamps * 1.001)
    assert w.check(inp, [bad, out[1]]) != []


def test_diagnose_output_passes(diagnose):
    w, inp, out = diagnose
    assert w.check(inp, out) == []


def _corrupt_diagnose(out, key):
    bad = dict(out)
    if key == "loaded":
        loaded = out["loaded"]
        bad[key] = dataclasses.replace(loaded, coeffs=loaded.coeffs + 1e-9)
    elif key == "cover":
        counts = out["cover"].counts.copy()
        counts[-1, -1] -= 1
        bad[key] = dataclasses.replace(out["cover"], counts=counts)
    elif key == "uc":
        table = out["uc"].copy()
        table[1, 1] *= 1.0 + 1e-9
        bad[key] = table
    elif key == "energy":
        bad[key] = dataclasses.replace(out["energy"], values=out["energy"].values * (1 + 1e-9))
    elif key == "minimal":
        bad[key] = dataclasses.replace(out["minimal"],
                                       parallelogram_gap=out["minimal"].parallelogram_gap * 1.01)
    elif key == "stepanov":
        bad[key] = out["stepanov"] * (1 + 1e-7)
    elif key == "aa_a":
        d = out["aa_a"].distances * (1 + 1e-4)
        bad[key] = dataclasses.replace(out["aa_a"], distances=d)
    else:  # aa_b: a distance above the bound 2 sup|b|
        d = out["aa_b"].distances.copy()
        d[0, 1] = 2.5
        bad[key] = dataclasses.replace(out["aa_b"], distances=d)
    return bad


@pytest.mark.parametrize("key", ["loaded", "cover", "uc", "energy", "minimal", "stepanov",
                                 "aa_a", "aa_b"])
def test_diagnose_corruption_fails(diagnose, key):
    w, inp, out = diagnose
    assert w.check(inp, _corrupt_diagnose(out, key)) != []


def test_traced_companion_reports_zero_forcing_layers(companion):
    w, inp, _ = companion
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        inp = w.setup()
        setup = tracer.take()
        w.run(inp)
        passes = [tracer.take()]
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(passes, setup, overhead=0.0)
    names = [m[0] for m in tracing.PER_LAYER + tracing.SETUP_LAYER] + [tracing.OVERHEAD[0]]
    assert sorted(metrics) == sorted(names)
    assert tracer.missing == []
    assert metrics["solver.step.count"]["value"] == 300 + 200
    for name in ("solver.forcing.calls", "solver.forcing.s", "quadrature.calls",
                 "compactness.cover.s", "solver.spiky_step_frac"):
        assert metrics[name]["value"] == 0.0, name
    assert metrics["solver.g.calls"]["value"] > 0


def test_missing_target_is_reported_not_raised():
    tracer = tracing.Tracer()
    tracer.patch("gone", "aalab.solver", "Stepper.no_such_method")
    tracer.patch("gone", "aalab.solver", "no_such_function")
    assert tracer.missing == ["aalab.solver.Stepper.no_such_method",
                              "aalab.solver.no_such_function"]
    assert "gone" not in tracer.names


def test_run_fails_without_sources(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "diagnose",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
