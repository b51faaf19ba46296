import numpy as np
import pytest

from aalab import solver as sv
from aalab import spectral as sp
from aalab.signals import SpikeTrainSpec, constant_signal


@pytest.fixture(scope="module")
def basis():
    return sp.SpectralBasis(1.0, 16, 64)


@pytest.fixture(scope="module")
def reference_forcing(basis):
    h0 = sp.field_from_function(basis, lambda x: np.sin(np.pi * x))
    return sv.ForcingSpec.reference(basis, h0, SpikeTrainSpec(n_max=3))


@pytest.fixture(scope="module")
def cubic():
    return sv.make_nonlinearity("cubic")


# ---------------------------------------------------------------------------
# nonlinearity registry
# ---------------------------------------------------------------------------

def test_nonlinearity_registry_flags():
    g = sv.make_nonlinearity("cubic")
    assert g.fn(0.0) == 0.0
    assert g.lipschitz(2.0) == pytest.approx(12.0)
    zero = sv.make_nonlinearity("zero")
    assert zero.lipschitz(100.0) == 0.0
    logi = sv.make_nonlinearity("logistic:0.5")
    assert logi.fn(1.0) == 0.0
    with pytest.raises(KeyError):
        sv.make_nonlinearity("unknown")


def test_growth_margin_below_lambda1(basis):
    # the damping cubic satisfies the sublinear-growth condition trivially
    assert sv.make_nonlinearity("cubic").growth_margin() < basis.lambda1
    # the growth-sign cubic violates it
    assert sv.make_nonlinearity("cubic-unstable").growth_margin() > basis.lambda1


# ---------------------------------------------------------------------------
# stepping against closed forms
# ---------------------------------------------------------------------------

def test_pure_semigroup_step(basis, cubic):
    x = sp.mode_field(basis, 1)
    out = sv.step_exponential(x, 0.0, 1e-3, sv.make_nonlinearity("zero"))
    exact = np.exp(-basis.lambda1 * 1e-3)
    assert out.coeffs[0] == pytest.approx(exact, rel=1e-13)
    assert np.max(np.abs(out.coeffs[1:])) < 1e-15


def test_constant_forcing_one_step_closed_form(basis):
    c = 2.0
    forcing = sv.ForcingSpec.modulated(basis, constant_signal(c), sp.mode_field(basis, 1))
    zero_field = sp.Field(basis, coeffs=np.zeros(basis.modes))
    out = sv.step_exponential(zero_field, 0.0, 1e-3, sv.make_nonlinearity("zero"), forcing)
    lam1 = basis.lambda1
    expected = (c / lam1) * (1.0 - np.exp(-lam1 * 1e-3))
    assert out.coeffs[0] == pytest.approx(expected, rel=1e-12)


def test_decay_run_matches_closed_form(basis):
    traj = sv.solve(sp.mode_field(basis, 1), sv.SolverConfig(dt=1e-3, horizon=1.0),
                    sv.make_nonlinearity("zero"))
    exact = np.exp(-basis.lambda1 * traj.stamps)
    rel = np.max(np.abs(traj.coeffs[:, 0] - exact) / exact)
    assert rel < 1e-8


def test_solver_matches_semigroup_per_mode(basis):
    rng = np.random.default_rng(3)
    x0 = sp.Field(basis, coeffs=rng.standard_normal(basis.modes))
    traj = sv.solve(x0, sv.SolverConfig(dt=1e-2, horizon=0.1),
                    sv.make_nonlinearity("zero"))
    exact = sp.apply_semigroup(x0, 0.1).coeffs
    assert np.max(np.abs(traj.coeffs[-1] - exact)) < 1e-12


def test_constant_forcing_steady_state(basis):
    c = 2.0
    forcing = sv.ForcingSpec.modulated(basis, constant_signal(c), sp.mode_field(basis, 1))
    traj = sv.solve(sp.Field(basis, coeffs=np.zeros(basis.modes)),
                    sv.SolverConfig(dt=1e-3, horizon=3.0),
                    sv.make_nonlinearity("zero"), forcing)
    assert traj.coeffs[-1, 0] == pytest.approx(c / basis.lambda1, abs=1e-6)


def _endpoint_error(basis, cubic, forcing, dt, horizon, order2, ref):
    traj = sv.solve(sv.reference_initial_field(basis, "mode1", 0.5),
                    sv.SolverConfig(dt=dt, horizon=horizon, order2=order2),
                    cubic, forcing)
    diff = (traj.coeffs[-1] - ref.coeffs[-1]) @ basis.eigenfunctions
    return float(np.max(np.abs(diff)))


def test_richardson_order_one_default(basis, cubic, reference_forcing):
    ref = sv.solve(sv.reference_initial_field(basis, "mode1", 0.5),
                   sv.SolverConfig(dt=1e-3 / 16, horizon=0.5), cubic, reference_forcing)
    errs = [_endpoint_error(basis, cubic, reference_forcing, dt, 0.5, False, ref)
            for dt in (4e-3, 2e-3, 1e-3)]
    assert 1.5 < errs[0] / errs[1] < 2.7
    assert 1.5 < errs[1] / errs[2] < 2.7


def test_richardson_order_two_with_refinement(basis, cubic, reference_forcing):
    ref = sv.solve(sv.reference_initial_field(basis, "mode1", 0.5),
                   sv.SolverConfig(dt=1e-3 / 16, horizon=0.5, order2=True),
                   cubic, reference_forcing)
    errs = [_endpoint_error(basis, cubic, reference_forcing, dt, 0.5, True, ref)
            for dt in (4e-3, 2e-3, 1e-3)]
    assert 3.2 < errs[0] / errs[1] < 5.0
    assert 3.2 < errs[1] / errs[2] < 5.0


# ---------------------------------------------------------------------------
# Picard behavior
# ---------------------------------------------------------------------------

def test_picard_zero_nonlinearity_single_iteration(basis, reference_forcing):
    x = sp.mode_field(basis, 1)
    frozen = sv.step_exponential(x, 0.0, 1e-3, sv.make_nonlinearity("zero"),
                                 reference_forcing)
    refined, iterations = sv.step_picard(x, 0.0, 1e-3, sv.make_nonlinearity("zero"),
                                         reference_forcing)
    assert iterations == 1
    assert np.max(np.abs(refined.coeffs - frozen.coeffs)) == 0.0


def test_picard_iteration_budget_and_geometric_decay(basis, cubic, reference_forcing):
    x = sv.reference_initial_field(basis, "mode1", 0.5)
    out, iterations, dists = sv.step_picard(x, 0.0, 1e-3, cubic, reference_forcing,
                                            collect_distances=True)
    assert iterations <= 5
    radius = max(x.sup_norm(), out.sup_norm())
    factor = cubic.lipschitz(radius) * 1e-3
    for d_prev, d_next in zip(dists, dists[1:]):
        if d_prev > 1e-14:
            assert d_next / d_prev <= factor


@pytest.mark.parametrize("bad", [{"picard_max_iter": -1}, {"picard_max_iter": 0},
                                 {"forcing_nodes": 0}])
def test_solver_config_rejects_empty_budgets(bad):
    with pytest.raises(ValueError):
        sv.SolverConfig(**bad)


def test_non_contraction_signalled(basis):
    x = sv.reference_initial_field(basis, "mode1", 50.0)
    with pytest.raises(sv.NonContractionError):
        sv.step_picard(x, 0.0, 1e-3, sv.make_nonlinearity("cubic"))


def test_blowup_flag(basis):
    x = sv.reference_initial_field(basis, "mode1", 5.0)
    cfg = sv.SolverConfig(dt=1e-4, horizon=1.0, blowup_cap=10.0)
    traj = sv.solve(x, cfg, sv.make_nonlinearity("cubic-unstable"))
    assert traj.blown_up
    assert traj.blowup_time is not None and traj.blowup_time < 0.1
    assert traj.sup_trace[-1] > cfg.blowup_cap
    assert traj.stamps[-1] == pytest.approx(traj.blowup_time)


def test_reference_scenario_stays_bounded(basis, cubic, reference_forcing):
    traj = sv.solve(sv.reference_initial_field(basis, "mode1", 0.5),
                    sv.SolverConfig(dt=1e-3, horizon=5.0), cubic, reference_forcing)
    assert not traj.blown_up
    assert np.max(traj.sup_trace) < 1.0


# ---------------------------------------------------------------------------
# forcing assembly
# ---------------------------------------------------------------------------

def test_profiled_forcing_respects_boundary(basis, reference_forcing):
    vals = reference_forcing.grid_values(np.array([3.0]))[0]
    assert vals[0] == 0.0 and vals[-1] == 0.0
    # at a level-one spike center the temporal factor is b(3) + 1
    peak = np.max(np.abs(vals))
    from aalab.signals import reciprocal_sine_value
    assert peak == pytest.approx(abs(reciprocal_sine_value(3.0) + 1.0), rel=1e-12)


def test_literal_boundary_mode_projects_constant(basis):
    h0 = sp.field_from_function(basis, lambda x: np.sin(np.pi * x))
    literal = sv.ForcingSpec.reference(basis, h0, SpikeTrainSpec(n_max=3),
                                       boundary_mode="literal")
    # the flat component only loads odd modes: c_k = 2 sqrt(2)/(k pi) for odd k
    flat = literal.flat_coeffs
    assert flat[0] == pytest.approx(2 * np.sqrt(2) / np.pi, rel=1e-3)
    assert abs(flat[1]) < 1e-12
    vals = literal.grid_values(np.array([3.0]))[0]
    assert vals[0] == 0.0 and vals[-1] == 0.0  # representation stays Dirichlet
    sig = literal.sup_signal()
    ts = np.array([0.4, 3.0])
    assert np.allclose(sig.eval(ts),
                       np.max(np.abs(literal.grid_values(ts)), axis=1), atol=1e-12)


def test_forcing_sup_signal_matches_grid(basis, reference_forcing):
    sig = reference_forcing.sup_signal()
    ts = np.array([0.3, 3.0, 9.0])
    direct = np.max(np.abs(reference_forcing.grid_values(ts)), axis=1)
    assert np.allclose(sig.eval(ts), direct, atol=1e-12)


# ---------------------------------------------------------------------------
# bounds, identity residual, extension
# ---------------------------------------------------------------------------

def test_global_bound_zero_forcing_is_companion_sup(basis, cubic):
    companion = sv.solve(sv.reference_initial_field(basis, "mode1", 0.5),
                         sv.SolverConfig(dt=1e-3, horizon=1.0), cubic)
    bound = sv.global_bound_estimate(sv.ForcingSpec.none(basis), companion)
    assert bound == pytest.approx(np.max(companion.sup_trace))


def test_global_bound_constant_forcing_formula(basis, cubic):
    c = 0.75
    profile = sp.field_from_function(basis, lambda x: np.sin(np.pi * x))
    forcing = sv.ForcingSpec.modulated(basis, constant_signal(c), profile)
    companion = sv.solve(sv.reference_initial_field(basis, "mode1", 0.5),
                         sv.SolverConfig(dt=1e-3, horizon=1.0), cubic)
    bound = sv.global_bound_estimate(forcing, companion, scan=(0.0, 4.0))
    lam1 = basis.lambda1
    expected = (np.max(companion.sup_trace)
                + np.exp(3 * lam1) / (np.exp(lam1) - 1.0) * c * 1.0)
    assert bound == pytest.approx(expected, rel=1e-9)


def test_global_bound_dominates_reference_run(basis, cubic, reference_forcing):
    x0 = sv.reference_initial_field(basis, "mode1", 0.5)
    cfg = sv.SolverConfig(dt=1e-3, horizon=5.0)
    traj = sv.solve(x0, cfg, cubic, reference_forcing)
    companion = sv.solve(x0, cfg, cubic)
    bound = sv.global_bound_estimate(reference_forcing, companion)
    assert np.all(traj.sup_trace <= bound)


def test_mild_residual_small_on_solved_path(basis, cubic, reference_forcing):
    cfg = sv.SolverConfig(dt=1e-3, horizon=1.0)
    traj = sv.solve(sv.reference_initial_field(basis, "mode1", 0.5), cfg,
                    cubic, reference_forcing)
    rng = np.random.default_rng(8)
    budget = 5.0 * cfg.picard_tol * (1.0 + 1.0 / (basis.lambda1 * cfg.dt))
    for _ in range(5):
        i = int(rng.integers(0, len(traj) - 2))
        j = int(rng.integers(i + 1, len(traj)))
        res = sv.mild_residual(traj, i, j, cubic, reference_forcing, cfg)
        assert res <= budget


@pytest.mark.parametrize("i_from, i_to", [(5, 5), (10, 3), (0, -1), (-2, 4), (0, 11)])
def test_mild_residual_rejects_bad_indices(basis, cubic, i_from, i_to):
    traj = sv.solve(sv.reference_initial_field(basis, "mode1", 0.5),
                    sv.SolverConfig(dt=1e-3, horizon=0.01), cubic)
    assert len(traj) == 11
    with pytest.raises(ValueError):
        sv.mild_residual(traj, i_from, i_to, cubic)


def test_translation_extension_decaying_run(basis):
    traj = sv.solve(sp.mode_field(basis, 1), sv.SolverConfig(dt=1e-3, horizon=6.0),
                    sv.make_nonlinearity("zero"))
    candidate, report = sv.translation_extension(traj, [1.0, 2.5, 4.5], 0.5)
    assert np.all(np.diff(report.successive) < 0)  # decay: defects shrink
    assert report.cauchy_defect < 1e-8
    assert candidate.stamps[0] == pytest.approx(-0.5)
    assert candidate.stamps[-1] == pytest.approx(0.5)


def test_translation_extension_periodic_forcing(basis):
    forcing = sv.ForcingSpec.modulated(
        basis, __import__("aalab.signals", fromlist=["sine_signal"]).sine_signal(),
        sp.field_from_function(basis, lambda x: np.sin(np.pi * x)))
    traj = sv.solve(sp.Field(basis, coeffs=np.zeros(basis.modes)),
                    sv.SolverConfig(dt=1e-3, horizon=8.0),
                    sv.make_nonlinearity("zero"), forcing)
    candidate, report = sv.translation_extension(traj, [3.0, 4.0, 5.0, 6.0, 7.0], 1.0)
    # after the transient the response is 1-periodic: defects near machine level
    assert np.all(report.successive < 1e-6)
    assert report.successive[-1] < 1e-9


def test_literal_boundary_mode_solves(basis, cubic):
    h0 = sp.field_from_function(basis, lambda x: np.sin(np.pi * x))
    literal = sv.ForcingSpec.reference(basis, h0, SpikeTrainSpec(n_max=3),
                                       boundary_mode="literal")
    traj = sv.solve(sv.reference_initial_field(basis, "mode1", 0.5),
                    sv.SolverConfig(dt=1e-3, horizon=4.0), cubic, literal)
    assert not traj.blown_up
    assert np.max(traj.sup_trace) < 2.0
    # boundary values stay exactly zero even with the flat component active
    assert np.all(traj.grid_values()[:, [0, -1]] == 0.0)


def test_translation_extension_spike_ladder_defects_shrink(basis, cubic, reference_forcing):
    # windowed translates along shifts 2 * 3^m: deeper shifts see smaller
    # forcing mismatch, so successive defects shrink
    traj = sv.solve(sv.reference_initial_field(basis, "mode1", 0.5),
                    sv.SolverConfig(dt=2e-3, horizon=58.0), cubic, reference_forcing)
    _, report = sv.translation_extension(traj, [6.0, 18.0, 54.0], 3.5)
    assert report.successive[1] < report.successive[0]


def test_translation_extension_span_guard(basis):
    traj = sv.solve(sp.mode_field(basis, 1), sv.SolverConfig(dt=1e-3, horizon=1.0),
                    sv.make_nonlinearity("zero"))
    with pytest.raises(ValueError):
        sv.translation_extension(traj, [0.9], 0.5)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_trajectory_save_load_round_trip(tmp_path, basis, cubic, reference_forcing):
    traj = sv.solve(sv.reference_initial_field(basis, "mode1", 0.5),
                    sv.SolverConfig(dt=1e-3, horizon=0.5), cubic, reference_forcing)
    outdir = tmp_path / "run"
    sv.save_trajectory(traj, str(outdir), snapshot_stride=50)
    loaded = sv.load_trajectory(str(outdir))
    assert loaded.basis.compatible(basis)
    assert not loaded.blown_up
    for i, stamp in enumerate(loaded.stamps):
        j = traj.index_at(stamp)
        assert np.max(np.abs(loaded.coeffs[i] - traj.coeffs[j])) < 1e-12


def test_restrict_and_index(basis):
    traj = sv.solve(sp.mode_field(basis, 1), sv.SolverConfig(dt=1e-2, horizon=1.0),
                    sv.make_nonlinearity("zero"))
    part = traj.restrict(0.25, 0.75)
    assert part.stamps[0] == pytest.approx(0.25)
    assert part.stamps[-1] == pytest.approx(0.75)
    assert traj.index_at(0.5) == 50
