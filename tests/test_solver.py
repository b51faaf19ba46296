import os
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from aalab import solver as sv
from aalab import spectral as sp
from aalab.signals import SpikeTrainSignal, SpikeTrainSpec, constant_signal, sine_signal


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


def _cube_samples():
    """Magnitudes from subnormal through overflow-free, with their negatives."""
    rng = np.random.default_rng(11)
    r = 10.0 ** rng.uniform(-110.0, 100.0, 20000) * rng.uniform(1.0, 10.0, 20000)
    r = np.concatenate([r, [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-103,
                            1e-105, 1.0, 3.0, 5.6e102]])
    return np.concatenate([r, -r])


@pytest.mark.parametrize("ident, sign", [("cubic", -1.0), ("cubic-unstable", 1.0)])
def test_cube_odd_and_within_one_ulp(ident, sign):
    g = sv.make_nonlinearity(ident)
    r = _cube_samples()
    out = g.fn(r)
    assert np.array_equal(g.fn(-r), -out)
    ref = sign * r ** 3
    assert np.all(np.abs(out - ref) <= np.spacing(np.abs(ref)))
    # outputs in the subnormal range are among the samples
    assert np.any((out != 0.0) & (np.abs(out) < np.finfo(float).tiny))


@pytest.mark.parametrize("ident, sign", [("cubic", -1.0), ("cubic-unstable", 1.0)])
def test_cube_overflow_gives_signed_inf(ident, sign):
    g = sv.make_nonlinearity(ident)
    with np.errstate(over="ignore"):
        out = g.fn(np.array([1e103, -1e103, 1e200, -np.inf, np.inf]))
    assert np.array_equal(out, sign * np.array([np.inf, -np.inf, np.inf, -np.inf, np.inf]))


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
    out = sv.Stepper(basis, sv.make_nonlinearity("zero")).step_frozen(x.coeffs, 0.0)
    exact = np.exp(-basis.lambda1 * 1e-3)
    assert out[0] == pytest.approx(exact, rel=1e-13)
    assert np.max(np.abs(out[1:])) < 1e-15


def test_single_steps_take_the_configured_step_length(basis):
    """With g = 0 both single-step entries damp mode 1 by exactly
    exp(-lambda_1 dt) at a dt other than the default, and leave the other
    modes at 0.  The factor is taken from the eigenvalue array, as the
    stepper takes it, so that the same exp loop rounds it."""
    zero = sv.make_nonlinearity("zero")
    cfg = sv.SolverConfig(dt=5e-4)
    x = sp.mode_field(basis, 1)
    exact = np.exp(-basis.eigenvalues * 5e-4)[0]
    frozen = sv.Stepper(basis, zero, None, cfg).step_frozen(x.coeffs, 0.0)
    refined, iterations, distances = sv.step_picard(x, 0.0, zero, config=cfg)
    assert (iterations, distances) == (-1, [])
    for out in (frozen, refined.coeffs):
        assert out[0] == exact
        assert not np.any(out[1:])


def test_constant_forcing_one_step_closed_form(basis):
    c = 2.0
    forcing = sv.ForcingSpec.modulated(basis, constant_signal(c), sp.mode_field(basis, 1))
    zero_field = sp.Field(basis, coeffs=np.zeros(basis.modes))
    stepper = sv.Stepper(basis, sv.make_nonlinearity("zero"), forcing)
    out = stepper.step_frozen(zero_field.coeffs, 0.0)
    lam1 = basis.lambda1
    expected = (c / lam1) * (1.0 - np.exp(-lam1 * 1e-3))
    assert out[0] == pytest.approx(expected, rel=1e-12)


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


def test_sup_trace_starts_at_the_stored_state(basis):
    """sup_trace[0] is the sup of the state the trajectory stores, the
    projection of the initial data, not of the data's own grid values: a
    box profile overshoots 1 there (Gibbs)."""
    x0 = sp.field_from_function(basis, lambda x: (np.abs(x - 0.5) < 0.1).astype(float))
    traj = sv.solve(x0, sv.SolverConfig(dt=1e-3, horizon=2e-3), sv.make_nonlinearity("cubic"))
    assert x0.sup_norm() == 1.0
    assert traj.sup_trace[0] == float(np.max(np.abs(traj.coeffs[0] @ basis.eigenfunctions)))
    assert traj.sup_trace[0] > 1.05


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
# closed-form step weights and the work per sweep
# ---------------------------------------------------------------------------

def _quad_weights(lam, dt):
    """w1 and w2 of every eigenvalue by adaptive quadrature of their integrals."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        w1 = [quad(lambda s, l=l: np.exp(-l * (dt - s)), 0.0, dt,
                   epsabs=0.0, epsrel=2e-14, limit=200)[0] for l in lam]
        w2 = [quad(lambda s, l=l: np.exp(-l * (dt - s)) * s / dt, 0.0, dt,
                   epsabs=0.0, epsrel=2e-14, limit=200)[0] for l in lam]
    return np.array(w1), np.array(w2)


def _rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


@pytest.mark.parametrize("dt", [1e-3 / 16, 1e-3, 4e-3])
def test_etd_weights_match_quadrature(ref_basis, dt):
    lam = ref_basis.eigenvalues
    q1, q2 = _quad_weights(lam, dt)
    w1, w2 = sv.etd_weights(lam, dt)
    assert _rel_err(w1, q1) < 1e-13 and _rel_err(w2, q2) < 1e-13
    # the weights of a stepper, dealiasing folded in
    active = max(1, (2 * ref_basis.modes) // 3)
    for order2 in (False, True):
        stepper = sv.Stepper(ref_basis, sv.make_nonlinearity("cubic"),
                             config=sv.SolverConfig(dt=dt, order2=order2))
        wx, wy = stepper.wx, stepper.wy
        assert not np.any(wy[active:])
        if order2:
            assert not np.any(wx[active:])
            assert _rel_err(wx[:active], (q1 - q2)[:active]) < 1e-13
            assert _rel_err(wy[:active], q2[:active]) < 1e-13
        else:
            assert wx is None
            assert _rel_err(wy[:active], q1[:active]) < 1e-13


@pytest.mark.parametrize("gap", [7.3e-4, 1e-3 * (1.0 - 2.0 ** -40)])
def test_weights_for_a_shorter_gap(ref_basis, gap):
    q1, q2 = _quad_weights(ref_basis.eigenvalues, gap)
    active = max(1, (2 * ref_basis.modes) // 3)
    stepper = sv.Stepper(ref_basis, sv.make_nonlinearity("cubic"),
                         config=sv.SolverConfig(dt=gap, order2=True))
    wx, wy = stepper.wx, stepper.wy
    assert _rel_err(wx[:active], (q1 - q2)[:active]) < 1e-13
    assert _rel_err(wy[:active], q2[:active]) < 1e-13


def _counting_cubic(shapes):
    cubic = sv.make_nonlinearity("cubic")

    def fn(r):
        shapes.append(np.shape(r))
        return cubic.fn(r)

    return sv.NonlinearitySpec("cubic", fn, cubic.lipschitz)


@pytest.mark.parametrize("order2", [False, True])
def test_solve_evaluates_g_once_per_sweep_on_grid_vectors(basis, reference_forcing, order2,
                                                          monkeypatch):
    """g is evaluated once per Picard sweep, on grid values only.  At order
    2 every ``Stepper.step`` call takes one row: g sees (N + 1)-vectors,
    count + 1 of them per step, the frozen application reusing g(x(t)) that
    the base holds.  At order 1 this forced march takes blocks: g sees x(t)
    once per call and each refinement's (b, N + 1) iterates, so N + 1 points
    per block plus b (N + 1) per refinement (no block halves here), and the
    blocks, with their refinements written for each of their steps, tile
    ``picard_counts``."""
    shapes, blocks = [], []
    step = sv.Stepper.step

    def recorded(self, coeffs, t, *args):
        out = step(self, coeffs, t, *args)
        blocks.append((len(out[0]), out[1]))
        return out

    monkeypatch.setattr(sv.Stepper, "step", recorded)
    traj = sv.solve(sv.reference_initial_field(basis, "mode1", 0.5),
                    sv.SolverConfig(dt=1e-3, horizon=0.3, order2=order2),
                    _counting_cubic(shapes), reference_forcing)
    counts = traj.picard_counts
    if order2:
        assert {b for b, _ in blocks} == {1} and len(blocks) == len(counts)
        assert set(shapes) == {(basis.grid + 1,)}
        assert len(shapes) == int(np.sum(counts)) + len(counts)  # frozen ones count
        return
    # 300 steps: blocks of 16, and 12 at the end of the third forcing block
    assert set(shapes) == {(basis.grid + 1,)} | {(b, basis.grid + 1) for b, k in blocks if k}
    assert {b for b, _ in blocks} == {sv.PICARD_BLOCK, 12}
    assert sum(b for b, _ in blocks) == len(counts) and min(counts) >= 1
    assert np.array_equal(np.repeat([k for _, k in blocks], [b for b, _ in blocks]), counts)
    points = sum(int(np.prod(shape)) for shape in shapes)
    assert points == (basis.grid + 1) * sum(1 + b * k for b, k in blocks)


# ---------------------------------------------------------------------------
# Picard behavior
# ---------------------------------------------------------------------------

def test_picard_zero_nonlinearity_single_iteration(basis, reference_forcing):
    x = sp.mode_field(basis, 1)
    zero = sv.make_nonlinearity("zero")
    frozen = sv.Stepper(basis, zero, reference_forcing).step_frozen(x.coeffs, 0.0)
    refined, iterations, _ = sv.step_picard(x, 0.0, zero, reference_forcing)
    # g = 0 gives a contraction factor of 0 and no nonlinear term: the linear
    # step is the fixed point and is accepted without evaluating g
    assert iterations == -1
    assert np.array_equal(refined.coeffs, frozen)


def test_linear_steps_evaluate_g_once_at_zero(basis):
    """A march that takes only linear steps calls g once, at the zero grid
    vector, for the bound gain |g(0)| on the nonlinear term; a march that
    never tries one does not call it there at all (see
    ``test_solve_evaluates_g_once_per_sweep_on_grid_vectors``)."""
    shapes = []
    traj = sv.solve(sv.reference_initial_field(basis, "mode1", 1e-9),
                    sv.SolverConfig(dt=1e-3, horizon=0.2), _counting_cubic(shapes))
    assert np.all(traj.picard_counts == -1)
    assert shapes == [(basis.grid + 1,)]


@pytest.mark.parametrize("g0, linear", [(1e-12, True), (1e-6, False)])
def test_linear_step_bounds_the_nonlinear_term_by_g_at_zero(basis, g0, linear):
    """With g constant at g0 and L_R = 0 the step's nonlinear term is gain
    g0, about 1e-15 or 1e-9: the linear step is taken only where that is
    within picard_tol, otherwise the frozen application is the fixed point."""
    g = sv.NonlinearitySpec("constant", lambda r: np.full(np.shape(r), g0), lambda R: 0.0)
    x = sv.reference_initial_field(basis, "mode1", 1e-9)
    out, iterations, _ = sv.step_picard(x, 0.0, g)
    assert iterations == (-1 if linear else 0)
    exact = sv.Stepper(basis, g).step_frozen(x.coeffs, 0.0)
    assert np.max(np.abs((out.coeffs - exact) @ basis.eigenfunctions)) <= 1e-10


def test_decayed_order1_march_flushes_subnormal_coefficients(ref_basis):
    """An unforced order-1 cubic march from 0.5 * mode 1 decays into the
    subnormal range past t = 22.  Low modes decay by more than 1/2 per step,
    so a subnormal coefficient there would round back to itself and stay;
    the linear steps flush them, and the final state holds none."""
    traj = sv.solve(sv.reference_initial_field(ref_basis, "mode1", 0.5),
                    sv.SolverConfig(dt=1e-3, horizon=40.0), sv.make_nonlinearity("cubic"))
    tiny = np.finfo(float).tiny
    subnormal = np.count_nonzero((traj.coeffs != 0.0) & (np.abs(traj.coeffs) < tiny), axis=1)
    assert np.max(subnormal) > 0  # the march does pass through subnormal states
    assert subnormal[-1] == 0
    assert np.count_nonzero(traj.picard_counts == -1) > 35000


def test_picard_iteration_budget_and_geometric_decay(basis, cubic, reference_forcing):
    x = sv.reference_initial_field(basis, "mode1", 0.5)
    out, iterations, dists = sv.step_picard(x, 0.0, cubic, reference_forcing)
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
        sv.step_picard(x, 0.0, sv.make_nonlinearity("cubic"))


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


def test_one_part_sup_signal_uses_that_parts_coefficients(basis):
    """A spike-only literal forcing is one part, on the projection of 1, and
    ``modulated`` one part on its profile: their sup signals, |h(t)| times
    the part's grid peak, against the grid maximum.  The projection of 1
    peaks 17 % above the sine profile on 16 modes (Gibbs), so the peak of the wrong
    coefficients would show."""
    h0 = sp.field_from_function(basis, lambda x: np.sin(np.pi * x))
    spike_only = sv.ForcingSpec(basis, profile=h0, boundary_mode="literal",
                                spiky=SpikeTrainSignal(SpikeTrainSpec(n_max=3)))
    modulated = sv.ForcingSpec.modulated(basis, sine_signal(), h0)
    assert [c is spike_only.flat_coeffs for _, c in spike_only.parts] == [True]
    assert [c is modulated.profile_coeffs for _, c in modulated.parts] == [True]
    ts = np.array([0.3, 1.0 / 6.0, 3.0, 9.0, 9.02])
    for forcing in (spike_only, modulated):
        direct = np.max(np.abs(forcing.grid_values(ts)), axis=1)
        assert np.max(direct) > 0.5
        assert np.allclose(forcing.sup_signal().eval(ts), direct, rtol=1e-13, atol=0.0)


def test_no_forcing_is_no_parts(basis):
    forcing = sv.ForcingSpec(basis)
    assert forcing.parts == [] and forcing.is_zero
    ts = np.array([0.0, 3.0, 27.5])
    assert np.array_equal(forcing.mode_values(ts), np.zeros((basis.modes, 3)))
    assert forcing.breakpoints(0.0, 100.0).size == 0
    assert np.array_equal(forcing.sup_signal().eval(ts), np.zeros(3))


# ---------------------------------------------------------------------------
# bounds, identity residual, extension
# ---------------------------------------------------------------------------

def test_global_bound_zero_forcing_is_companion_sup(basis, cubic):
    companion = sv.solve(sv.reference_initial_field(basis, "mode1", 0.5),
                         sv.SolverConfig(dt=1e-3, horizon=1.0), cubic)
    bound = sv.global_bound_estimate(sv.ForcingSpec(basis), companion)
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


@pytest.mark.parametrize("horizon, stamps", [(4e-4, None), (5e-4, None), (6e-4, 2),
                                             (1.04e-2, 11), (1.06e-2, 12)])
def test_solve_rounds_the_horizon_to_whole_steps(basis, cubic, horizon, stamps):
    """A horizon below dt/2 rounds to no step and raises; 5e-4 / 1e-3 rounds
    half to even, to 0.  Any other rounds to the nearest whole step."""
    x0 = sv.reference_initial_field(basis, "mode1", 0.5)
    cfg = sv.SolverConfig(dt=1e-3, horizon=horizon)
    if stamps is None:
        with pytest.raises(ValueError, match="less than half a step"):
            sv.solve(x0, cfg, cubic)
    else:
        assert len(sv.solve(x0, cfg, cubic)) == stamps


@pytest.mark.parametrize("horizon, steps, need", [(0.01, r"1e\+298", r"1\.53e\+300"),
                                                 (1e10, "inf", "inf")])
def test_solve_names_the_step_count_its_outputs_cannot_hold(basis, cubic, horizon, steps,
                                                            need):
    """dt = 1e-300 over 0.01 asks for 1e298 rows, which numpy refuses before
    allocating anything, and over 1e10 for more steps than a float holds: the
    error names the step count and the bytes, 8 (K + 2) per stamp and 9 per
    step on 16 modes."""
    x0 = sv.reference_initial_field(basis, "mode1", 0.5)
    with pytest.raises(ValueError, match=f"^n_steps = {steps} at dt = 1e-300 needs {need} "
                                         "bytes of output arrays$"):
        sv.solve(x0, sv.SolverConfig(dt=1e-300, horizon=horizon), cubic)


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

def assert_same_trajectory(loaded, traj):
    assert loaded.basis.compatible(traj.basis)
    for name in ("stamps", "coeffs", "sup_trace", "picard_counts", "spiky"):
        assert np.array_equal(getattr(loaded, name), getattr(traj, name)), name
    assert loaded.blown_up == traj.blown_up
    assert loaded.blowup_time == traj.blowup_time


def _forced_order2_run(basis, cubic, forcing):
    # t0 = 2.4 runs into the level-1 spike support on [2.5, 3.5]; at dt = 7e-4
    # its left edge falls inside a step
    return sv.solve(sv.reference_initial_field(basis, "mode1", 0.5),
                    sv.SolverConfig(dt=7e-4, horizon=0.2, order2=True), cubic,
                    forcing, t0=2.4)


def _blowup_run(basis):
    return sv.solve(sv.reference_initial_field(basis, "mode1", 5.0),
                    sv.SolverConfig(dt=1e-4, horizon=1.0, blowup_cap=10.0),
                    sv.make_nonlinearity("cubic-unstable"))


SPECIAL_VALUES = [-0.0, 5e-324, 1e-300, 1e300, np.inf, np.nan, 0.1, 1.0 / 3.0]


def _hand_made_trajectory(basis, n=8195, seed=0):
    """Stamps off any dt lattice and special values in every text column."""
    rng = np.random.default_rng(seed)
    stamps = np.concatenate([[-0.0, 5e-324, 1e-300], 0.1 + np.cumsum(rng.uniform(1e-3, 1.0, n - 3))])
    coeffs = rng.standard_normal((n, basis.modes)) * 10.0 ** rng.integers(-300, 300, (n, 1))
    coeffs[:, :4] = np.resize(SPECIAL_VALUES[:4], (n, 4))
    return sv.Trajectory(basis, stamps, coeffs, np.resize(SPECIAL_VALUES, n),
                         np.ones(n - 1, dtype=int), blown_up=True, blowup_time=1e-300,
                         spiky=np.zeros(n - 1, dtype=bool))


def test_trajectory_save_load_round_trip(tmp_path, basis, cubic, reference_forcing):
    forced = _forced_order2_run(basis, cubic, reference_forcing)
    assert forced.spiky_steps > 0
    sv.save_trajectory(forced, str(tmp_path / "forced"))
    assert_same_trajectory(sv.load_trajectory(str(tmp_path / "forced")), forced)

    blowup = _blowup_run(basis)
    assert blowup.blown_up
    sv.save_trajectory(blowup, str(tmp_path / "blowup"))
    assert_same_trajectory(sv.load_trajectory(str(tmp_path / "blowup")), blowup)


def _fmt15(x):
    return format(float(x), ".15g")


def _save_text_per_value(traj, outdir):
    """Reference writer: the text artifacts of save_trajectory written with one
    format call per value and one write per row."""
    b = traj.basis
    os.makedirs(os.path.join(outdir, "snapshots"))
    n = len(traj.stamps)
    idx = list(range(0, n, max(1, (n - 1) // 400)))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    with open(os.path.join(outdir, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("t,sup_norm\n")
        for t, s in zip(traj.stamps, traj.sup_trace):
            fh.write(f"{_fmt15(t)},{_fmt15(s)}\n")
    with open(os.path.join(outdir, "snapshots.csv"), "w", encoding="utf-8") as fh:
        fh.write("index,t,file\n")
        for i in idx:
            fname = f"snap_{i:08d}.csv"
            with open(os.path.join(outdir, "snapshots", fname), "w", encoding="utf-8") as snap:
                snap.write(f"# basis L={b.length!r} K={b.modes} N={b.grid}\n")
                snap.write("xi,value\n")
                for x, v in zip(b.xi, traj.field(i).values):
                    snap.write(f"{_fmt15(x)},{_fmt15(v)}\n")
            fh.write(f"{i},{_fmt15(traj.stamps[i])},snapshots/{fname}\n")
    with open(os.path.join(outdir, "trajectory.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"basis.L = {_fmt15(b.length)}\n")
        fh.write(f"basis.K = {b.modes}\n")
        fh.write(f"basis.N = {b.grid}\n")
        fh.write(f"stamps = {n}\n")
        fh.write(f"dt = {_fmt15(traj.dt)}\n")
        fh.write(f"blown_up = {traj.blown_up}\n")
        if traj.blowup_time is not None:
            fh.write(f"blowup_time = {_fmt15(traj.blowup_time)}\n")


def _text_files(outdir):
    return {os.path.relpath(os.path.join(root, f), outdir): os.path.join(root, f)
            for root, _, files in os.walk(outdir) for f in files if f != "trajectory.npz"}


@pytest.mark.parametrize("case", ["forced-order2", "blowup", "hand-made"])
def test_saved_text_equals_per_value_writer(tmp_path, basis, cubic, reference_forcing, case):
    traj = {"forced-order2": lambda: _forced_order2_run(basis, cubic, reference_forcing),
            "blowup": lambda: _blowup_run(basis),
            "hand-made": lambda: _hand_made_trajectory(basis)}[case]()
    sv.save_trajectory(traj, str(tmp_path / "new"))
    _save_text_per_value(traj, str(tmp_path / "old"))
    new, old = _text_files(str(tmp_path / "new")), _text_files(str(tmp_path / "old"))
    assert sorted(new) == sorted(old)
    for name in old:
        with open(new[name], "rb") as a, open(old[name], "rb") as b:
            assert a.read() == b.read(), name
    text = (tmp_path / "new" / "trajectory.txt").read_text()
    assert ("blowup_time = " in text) == (case != "forced-order2")


def test_resave_creates_files_new(tmp_path, basis):
    out = tmp_path / "run"
    sv.save_trajectory(_hand_made_trajectory(basis, n=50, seed=1), str(out))
    os.link(out / "trace.csv", tmp_path / "old_trace.csv")
    old = (out / "trace.csv").read_bytes()
    sv.save_trajectory(_hand_made_trajectory(basis, n=50, seed=2), str(out))
    assert (tmp_path / "old_trace.csv").read_bytes() == old
    assert (out / "trace.csv").read_bytes() != old


def test_resave_leaves_only_listed_snapshots(tmp_path, basis):
    out = tmp_path / "run"
    sv.save_trajectory(_hand_made_trajectory(basis, n=3001), str(out))
    user_files = [out / "notes.txt", out / "snapshots" / "notes.txt",
                  out / "snapshots" / "snap_1.csv"]
    for path in user_files:
        path.write_text("kept\n")
    sv.save_trajectory(_hand_made_trajectory(basis, n=2001), str(out))
    listed = [line.split(",")[2] for line in (out / "snapshots.csv").read_text().splitlines()[1:]]
    assert len(listed) == 401
    assert sorted(f"snapshots/{f}" for f in os.listdir(out / "snapshots")) == sorted(
        listed + ["snapshots/notes.txt", "snapshots/snap_1.csv"])
    assert all(path.read_text() == "kept\n" for path in user_files)


def test_resave_writes_through_symlinks(tmp_path, basis):
    out, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
    (elsewhere / "snapshots").mkdir(parents=True)
    (elsewhere / "trace.csv").write_text("old\n")
    out.mkdir()
    os.symlink(elsewhere / "snapshots", out / "snapshots")
    os.symlink(elsewhere / "trace.csv", out / "trace.csv")
    traj = _hand_made_trajectory(basis, n=50)
    sv.save_trajectory(traj, str(out))
    assert (out / "snapshots").is_symlink() and (out / "trace.csv").is_symlink()
    assert (elsewhere / "trace.csv").read_text().startswith("t,sup_norm\n")
    assert len(os.listdir(elsewhere / "snapshots")) == 50
    np.testing.assert_array_equal(sv.load_trajectory(str(out)).sup_trace, traj.sup_trace)


def test_restrict_and_index(basis):
    traj = sv.solve(sp.mode_field(basis, 1), sv.SolverConfig(dt=1e-2, horizon=1.0),
                    sv.make_nonlinearity("zero"))
    part = traj.restrict(0.25, 0.75)
    assert part.stamps[0] == pytest.approx(0.25)
    assert part.stamps[-1] == pytest.approx(0.75)
    assert traj.index_at(0.5) == 50


def test_index_at_outside_the_span_names_it(basis):
    traj = sv.solve(sp.mode_field(basis, 1), sv.SolverConfig(dt=1e-2, horizon=1.0),
                    sv.make_nonlinearity("zero"))
    assert traj.index_at(1.0 + 1e-13) == 100 and traj.index_at(-1e-13) == 0
    for t in (1.01, -0.01, 5.0):
        with pytest.raises(ValueError, match=rf"t = {t:g} lies outside .* span \[0, 1\]"):
            traj.index_at(t)


def test_restrict_to_a_window_without_stamps_names_it(basis):
    traj = sv.solve(sp.mode_field(basis, 1), sv.SolverConfig(dt=1e-3, horizon=0.01),
                    sv.make_nonlinearity("zero"))
    with pytest.raises(ValueError, match=r"window \[5, 6\] holds no stamp .* span \[0, 0.01\]"):
        traj.restrict(5.0, 6.0)


def test_dt_of_a_one_stamp_trajectory_needs_two_stamps(basis):
    traj = sv.solve(sp.mode_field(basis, 1), sv.SolverConfig(dt=1e-3, horizon=0.01),
                    sv.make_nonlinearity("zero"))
    part = traj.restrict(0.005, 0.005)
    assert len(part) == 1
    with pytest.raises(ValueError, match="dt needs two stamps; the trajectory has 1"):
        part.dt
