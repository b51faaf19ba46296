"""The blocked forcing precompute against the per-step forcing integral.

The oracle below integrates each step's forcing on its own: look up the
step's breakpoints, lay out its quadrature, evaluate H at its nodes and
contract.  Blocking changes no arithmetic, so every check is exact equality,
not a tolerance.
"""

import tracemalloc

import numpy as np
import pytest

from aalab import solver as sv
from aalab import spectral as sp
from aalab.quadrature import gauss_nodes, quadrature_nodes
from aalab.signals import SpikeTrainSpec


def oracle_forcing_step(stepper, t, dt):
    """(spiky, term, layout) of the step [t, t + dt], integrated on its own."""
    forcing, cfg = stepper.forcing, stepper.config
    bps = forcing.breakpoints(t, t + dt)
    if bps.size == 0 and dt == cfg.dt:
        x, w = gauss_nodes(cfg.forcing_nodes)
        rel, wts = 0.5 * cfg.dt * (x + 1.0), 0.5 * cfg.dt * w
    else:
        pts, wts = quadrature_nodes(t, t + dt, bps, cfg.forcing_nodes)
        rel = pts - t
    D = np.exp(-np.outer(stepper.lam, dt - rel))
    term = 0.0 if forcing.is_zero else (D * forcing.mode_values(t + rel)) @ wts
    return bps.size > 0, term, (rel, wts, D, D @ wts)


def oracle_step_map(basis, g, order2, base, layout, dt, vx, vy):
    """``base`` plus the nonlinear half of the step integral, written from the
    basis alone: g on the iterate profile, projected and cut to the lowest
    2K/3 modes (dealiasing), integrated on the step's layout."""
    rel, wts, D, S = layout
    k_active = max(1, (2 * basis.modes) // 3)
    if order2:
        profile = vx[None, :] + (rel / dt)[:, None] * (vy - vx)[None, :]
        G = basis.project(g.fn(profile).T)
        G[k_active:] = 0.0
        return base + (D * G) @ wts
    G = basis.project(g.fn(vy))
    G[k_active:] = 0.0
    return base + S * G


def oracle_solve(x0, config, nonlinearity, forcing, t0=0.0):
    """The march of ``solve`` with every forcing term from the oracle."""
    stepper = sv.Stepper(x0.basis, nonlinearity, forcing, config)
    n_steps = int(round(config.horizon / config.dt))
    stamps = t0 + config.dt * np.arange(n_steps + 1)
    coeffs, sup, counts, spiky = [x0.coeffs], [x0.sup_norm()], [], []
    for j in range(n_steps):
        prepared = oracle_forcing_step(stepper, stamps[j], config.dt)
        c, k, _ = stepper.step(coeffs[-1], stamps[j], prepared=prepared)
        coeffs.append(c)
        sup.append(float(np.max(np.abs(c @ stepper.E))))
        counts.append(k)
        spiky.append(prepared[0])
        if sup[-1] > config.blowup_cap:
            break
    return np.array(coeffs), np.array(sup), np.array(counts, dtype=int), np.array(spiky)


def assert_same_march(traj, oracle):
    coeffs, sup, counts, spiky = oracle
    assert np.array_equal(traj.coeffs, coeffs)
    assert np.array_equal(traj.sup_trace, sup)
    assert np.array_equal(traj.picard_counts, counts)
    assert np.array_equal(traj.spiky, spiky)


@pytest.fixture(scope="module")
def forcings(ref_basis):
    h0 = sp.field_from_function(ref_basis, lambda x: np.sin(np.pi * x))
    return {mode: sv.ForcingSpec.reference(ref_basis, h0, SpikeTrainSpec(n_max=4),
                                           boundary_mode=mode)
            for mode in ("profiled", "literal")}


# Each window holds a spike centre of the given top level (levels 1..4 share
# the centre 81) and the right edge of its level-1 bump, so it mixes
# subdivided, in-support and smooth steps.  650 steps: not a block multiple.
@pytest.mark.parametrize("center", [3.0, 9.0, 27.0, 81.0])
@pytest.mark.parametrize("mode", ["profiled", "literal"])
@pytest.mark.parametrize("order2", [False, True])
def test_march_bit_identical_to_per_step_forcing(ref_basis, forcings, center, mode, order2):
    assert 650 % sv.FORCING_BLOCK != 0
    cfg = sv.SolverConfig(dt=1e-3, horizon=0.65, order2=order2)
    x0 = sv.reference_initial_field(ref_basis, "mode1", 0.5)
    cubic = sv.make_nonlinearity("cubic")
    t0 = center - 0.1
    traj = sv.solve(x0, cfg, cubic, forcings[mode], t0=t0)
    assert 0 < traj.spiky_steps < len(traj.picard_counts)
    assert_same_march(traj, oracle_solve(x0, cfg, cubic, forcings[mode], t0=t0))


def test_blowup_mid_block_bit_identical(ref_basis, forcings):
    # the level-1 spike at 3 lifts the sup trace over the cap inside a block
    cfg = sv.SolverConfig(dt=1e-3, horizon=1.0, blowup_cap=0.1)
    x0 = sv.reference_initial_field(ref_basis, "zero")
    cubic = sv.make_nonlinearity("cubic")
    traj = sv.solve(x0, cfg, cubic, forcings["profiled"], t0=2.3)
    assert traj.blown_up
    assert len(traj.picard_counts) % sv.FORCING_BLOCK != 0
    assert 0 < traj.spiky_steps < len(traj.picard_counts)
    assert_same_march(traj, oracle_solve(x0, cfg, cubic, forcings["profiled"], t0=2.3))


def test_unforced_march_bit_identical(ref_basis):
    cfg = sv.SolverConfig(dt=1e-3, horizon=0.3)
    x0 = sv.reference_initial_field(ref_basis, "mode2", 0.4)
    cubic = sv.make_nonlinearity("cubic")
    traj = sv.solve(x0, cfg, cubic, sv.ForcingSpec.none(ref_basis))
    assert traj.spiky_steps == 0
    assert_same_march(traj, oracle_solve(x0, cfg, cubic, sv.ForcingSpec.none(ref_basis)))


@pytest.mark.parametrize("order2", [False, True])
def test_mild_residual_bit_identical(ref_basis, forcings, order2):
    """The residual over stamps whose gaps differ from dt in the last bit."""
    forcing = forcings["literal"]
    cfg = sv.SolverConfig(dt=1e-3, horizon=0.3, order2=order2)
    cubic = sv.make_nonlinearity("cubic")
    traj = sv.solve(sv.reference_initial_field(ref_basis, "mode1", 0.5), cfg, cubic,
                    forcing, t0=3.35)
    gaps = np.diff(traj.stamps)
    assert np.any(gaps != cfg.dt)
    stepper = sv.Stepper(ref_basis, cubic, forcing, cfg)
    E = ref_basis.eigenfunctions
    c = traj.coeffs[0].copy()
    for j, dt in enumerate(gaps):
        _, term, layout = oracle_forcing_step(stepper, traj.stamps[j], dt)
        base = np.exp(-ref_basis.eigenvalues * dt) * c + term
        c = oracle_step_map(ref_basis, cubic, order2, base, layout, dt,
                            traj.coeffs[j] @ E, traj.coeffs[j + 1] @ E)
    expected = float(np.max(np.abs((c - traj.coeffs[-1]) @ E)))
    assert sv.mild_residual(traj, 0, len(traj) - 1, cubic, forcing, cfg) == expected


def check_single_steps(basis, forcing, t, order2):
    """step_exponential, step_frozen and step against the test-local oracles."""
    cubic = sv.make_nonlinearity("cubic")
    cfg = sv.SolverConfig(dt=1e-3, order2=order2)
    x = sv.reference_initial_field(basis, "mode1", 0.5)
    y = sv.reference_initial_field(basis, "mode2", 0.2)
    stepper = sv.Stepper(basis, cubic, forcing, cfg)
    _, term, layout = oracle_forcing_step(stepper, t, 1e-3)
    base = np.exp(-basis.eigenvalues * 1e-3) * x.coeffs + term
    expected = oracle_step_map(basis, cubic, order2, base, layout, 1e-3, x.values, x.values)
    assert np.array_equal(sv.step_exponential(x, t, 1e-3, cubic, forcing, cfg).coeffs, expected)
    expected = oracle_step_map(basis, cubic, order2, base, layout, 1e-3, x.values, y.values)
    assert np.array_equal(
        sv.step_exponential(x, t, 1e-3, cubic, forcing, cfg, iterate=y).coeffs, expected)
    v = x.coeffs @ basis.eigenfunctions
    frozen = oracle_step_map(basis, cubic, order2, base, layout, 1e-3, v, v)
    assert np.array_equal(stepper.step_frozen(x.coeffs, t), frozen)
    oracle = stepper.step(x.coeffs, t, prepared=oracle_forcing_step(stepper, t, 1e-3))
    out = stepper.step(x.coeffs, t)
    assert np.array_equal(out[0], oracle[0]) and out[1] == oracle[1]


@pytest.mark.parametrize("t", [0.25, 2.5, 3.0, 80.9999])
def test_single_steps_bit_identical(ref_basis, forcings, t):
    check_single_steps(ref_basis, forcings["profiled"], t, order2=False)


@pytest.mark.parametrize("t", [0.25, 2.5, 3.0, 80.9999])
def test_single_steps_order2_bit_identical(ref_basis, forcings, t):
    check_single_steps(ref_basis, forcings["profiled"], t, order2=True)


def test_spiky_steps_match_per_step_breakpoints(run_main, ref_parts):
    """The block classification marks exactly the steps whose own breakpoint
    query is nonempty, over the whole T = 50 reference run."""
    traj, _ = run_main
    forcing, dt = ref_parts["forcing"], 1e-3
    per_step = np.array([forcing.breakpoints(t, t + dt).size > 0 for t in traj.stamps[:-1]])
    assert np.array_equal(traj.spiky, per_step)
    assert traj.spiky[:12000].sum() == 2004
    assert traj.spiky[:6000].sum() == 1002


def test_zero_forcing_queries_and_evaluates_nothing(ref_basis, monkeypatch):
    forcing = sv.ForcingSpec.none(ref_basis)

    def forbidden(*args, **kwargs):
        raise AssertionError("zero forcing was queried")

    for name in ("breakpoints", "has_breakpoints", "mode_values"):
        monkeypatch.setattr(forcing, name, forbidden)
    traj = sv.solve(sv.reference_initial_field(ref_basis, "mode1", 0.5),
                    sv.SolverConfig(dt=1e-3, horizon=0.2), sv.make_nonlinearity("cubic"),
                    forcing)
    assert len(traj.picard_counts) == 200


def test_forcing_evaluated_once_per_block(ref_parts, monkeypatch):
    forcing = ref_parts["forcing"]
    calls = {"mode_values": 0, "breakpoints": 0}
    for name in calls:
        original = getattr(forcing, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(forcing, name, counted)
    stepper = sv.Stepper(ref_parts["basis"], ref_parts["nonlinearity"], forcing,
                         sv.SolverConfig(dt=1e-3))
    n = 3 * sv.FORCING_BLOCK + 7
    stamps = 2.2 + 1e-3 * np.arange(n)
    assert sum(1 for _ in stepper.forcing_steps(stamps, 1e-3)) == n
    assert calls["mode_values"] == 4
    # only the last two blocks meet the level-1 bump on [2.5, 3.5]
    assert calls["breakpoints"] == 2


def _peak_solve_bytes(x0, cfg, nonlinearity, forcing):
    tracemalloc.start()
    try:
        traj = sv.solve(x0, cfg, nonlinearity, forcing)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, traj


def test_solve_memory_grows_only_with_outputs(ref_parts):
    """Peak allocation in solve grows with the returned arrays, not with the
    forcing precompute: T = 8 over T = 2 on the reference forcing."""
    x0 = sv.reference_initial_field(ref_parts["basis"], "mode1", 0.5)
    args = (ref_parts["nonlinearity"], ref_parts["forcing"])
    peak_short, short = _peak_solve_bytes(x0, sv.SolverConfig(dt=1e-3, horizon=2.0), *args)
    peak_long, long_ = _peak_solve_bytes(x0, sv.SolverConfig(dt=1e-3, horizon=8.0), *args)

    def output_bytes(traj):
        return sum(a.nbytes for a in (traj.stamps, traj.coeffs, traj.sup_trace,
                                      traj.picard_counts, traj.spiky))

    # a block of 128 steps: its node values, products and quadrature factors,
    # 4 arrays of 128 x 8 x K doubles (2 MB); a literal, so that a larger
    # FORCING_BLOCK must pass this bound too
    block_slack = 4 * 128 * 8 * ref_parts["basis"].modes * 8
    assert peak_long - peak_short <= output_bytes(long_) - output_bytes(short) + block_slack
