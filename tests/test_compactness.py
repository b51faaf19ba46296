import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aalab import compactness as cp
from aalab import solver as sv
from aalab import spectral as sp
from aalab.signals import SpikeTrainSpec, StepanovConfig, constant_signal


@pytest.fixture(scope="module")
def basis():
    return sp.SpectralBasis(1.0, 16, 64)


@pytest.fixture(scope="module")
def decay_pair(basis):
    """Two zero-forcing runs from distinct initial data on shared stamps."""
    cfg = sv.SolverConfig(dt=1e-3, horizon=1.0)
    zero = sv.make_nonlinearity("zero")
    u = sv.solve(sp.mode_field(basis, 1, 1.0), cfg, zero)
    v = sv.solve(sp.mode_field(basis, 2, 0.5), cfg, zero)
    return u, v


# ---------------------------------------------------------------------------
# greedy covers
# ---------------------------------------------------------------------------

def test_singleton_cloud():
    centers, _ = cp.greedy_cover(cp.PointCloud(np.array([3.0])), 0.01)
    assert len(centers) == 1


def test_two_points_need_two_balls():
    cloud = cp.PointCloud(np.array([0.0, 1.0]))
    assert len(cp.greedy_cover(cloud, 0.5)[0]) == 2


def test_colinear_grid_greedy_vs_optimal_oracle():
    pts = np.linspace(0.0, 1.0, 101)
    greedy = len(cp.greedy_cover(cp.PointCloud(pts), 0.25)[0])
    optimal = cp.optimal_interval_cover(pts, 0.25)
    assert optimal == 4  # brute-force sweep is optimal on the line
    assert greedy == 5   # the deterministic greedy rule lands one above
    assert greedy <= 2 * optimal


def test_cover_counts_nonincreasing_in_eps():
    rng = np.random.default_rng(0)
    cloud = cp.PointCloud(rng.uniform(0, 1, size=(200, 3)))
    report = cp.cover_ladder(cloud, [0.05, 0.1, 0.2, 0.4, 0.8])
    assert np.all(np.diff(report.counts) >= 0)  # epsilons stored descending
    assert np.all(report.counts <= len(cloud))


def test_single_ball_at_twice_diameter():
    rng = np.random.default_rng(1)
    cloud = cp.PointCloud(rng.standard_normal((50, 2)))
    diam = cloud.diameter()
    centers, _ = cp.greedy_cover(cloud, 2.0 * diam + 1e-12)
    assert len(centers) == 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), eps=st.floats(0.05, 2.0))
def test_cover_radius_honoured(seed, eps):
    rng = np.random.default_rng(seed)
    cloud = cp.PointCloud(rng.uniform(-1, 1, size=(40, 2)))
    centers, radius = cp.greedy_cover(cloud, eps)
    assert radius <= eps / 2.0
    assert len(set(centers)) == len(centers)


def test_greedy_deterministic():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((100, 4))
    first = cp.greedy_cover(cp.PointCloud(pts), 0.5)
    second = cp.greedy_cover(cp.PointCloud(pts.copy()), 0.5)
    assert first[0] == second[0]


def test_constant_trajectory_single_ball(basis):
    coeffs = np.tile(sp.mode_field(basis, 1).coeffs, (20, 1))
    traj = sv.Trajectory(basis, np.arange(20.0), coeffs, np.ones(20))
    report = cp.range_compactness_report(traj, [0.5, 0.1, 0.01], strides=(2, 1))
    assert np.all(report.counts == 1)
    assert report.verdict == "compactness-consistent"


def test_decaying_trajectory_counts_stabilize(basis):
    # sampling must outresolve the fastest drift (~ lambda1 * sup at t = 0)
    traj = sv.solve(sp.mode_field(basis, 1), sv.SolverConfig(dt=2e-4, horizon=2.0),
                    sv.make_nonlinearity("zero"))
    report = cp.range_compactness_report(traj, [0.2, 0.1, 0.05], strides=(4, 2, 1))
    assert report.stable
    # the range is a decaying arc of length sqrt(2): roughly 2 length/eps balls
    assert report.counts[-1][0] <= 2 * np.sqrt(2.0) / 0.2 + 2


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_zero_and_mode(basis):
    assert cp.energy(sp.Field(basis, coeffs=np.zeros(basis.modes))) == 0.0
    f = sp.field_from_function(basis, lambda x: np.sin(np.pi * x))
    assert cp.energy(f) == pytest.approx(0.25, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(-3.0, 3.0))
def test_energy_quadratic_homogeneity(seed, scale):
    basis = sp.SpectralBasis(1.0, 8, 32)
    rng = np.random.default_rng(seed)
    f = sp.Field(basis, coeffs=rng.standard_normal(8))
    assert cp.energy(scale * f) == pytest.approx(scale ** 2 * cp.energy(f), rel=1e-12)


def test_energy_monotonicity_zero_reaction_closed_form(basis, decay_pair):
    u, v = decay_pair
    trace = cp.energy_monotonicity_check(u, v, 1e-8)
    assert trace.passed
    diff0 = u.coeffs[0] - v.coeffs[0]
    lam = basis.eigenvalues
    expected = 0.5 * np.sum(
        (diff0[None, :] * np.exp(-lam[None, :] * u.stamps[:, None])) ** 2, axis=1)
    assert np.max(np.abs(trace.values - expected)) < 1e-8
    assert np.all(np.diff(trace.values) < 0)  # strictly decreasing


def test_energy_identical_runs(decay_pair):
    u, _ = decay_pair
    trace = cp.energy_monotonicity_check(u, u, 1e-12)
    assert np.all(trace.values == 0.0)
    assert trace.passed


def test_energy_requires_shared_stamps(basis, decay_pair):
    u, _ = decay_pair
    with pytest.raises(ValueError):
        cp.energy_monotonicity_check(u, u.restrict(0.0, 0.5), 1e-8)


def test_constant_offset_identical_runs(basis, decay_pair):
    u, _ = decay_pair
    w0, deviation, residual = cp.constant_energy_offset_check(
        u, u, sv.make_nonlinearity("cubic"))
    assert w0.sup_norm() == 0.0
    assert deviation == 0.0
    assert residual == 0.0


def test_constant_offset_synthetic_pair(basis):
    # build v = u + fixed field on matching stamps; the checker must recover it
    cfg = sv.SolverConfig(dt=1e-2, horizon=0.2)
    u = sv.solve(sp.mode_field(basis, 1), cfg, sv.make_nonlinearity("zero"))
    shift = sp.mode_field(basis, 3, 0.125)
    v = sv.Trajectory(basis, u.stamps.copy(), u.coeffs + shift.coeffs,
                      np.max(np.abs((u.coeffs + shift.coeffs) @ basis.eigenfunctions), axis=1))
    w0, deviation, _ = cp.constant_energy_offset_check(
        u, v, sv.make_nonlinearity("zero"), tolerance=np.inf)
    assert deviation < 1e-12
    assert np.max(np.abs(w0.coeffs + shift.coeffs)) < 1e-12


def test_constant_offset_rejects_varying_energy(basis, decay_pair):
    u, v = decay_pair
    with pytest.raises(ValueError):
        cp.constant_energy_offset_check(u, v, sv.make_nonlinearity("zero"),
                                        tolerance=1e-12)


# ---------------------------------------------------------------------------
# subvariant functionals
# ---------------------------------------------------------------------------

def test_subvariant_zero_trajectory(basis):
    coeffs = np.zeros((5, basis.modes))
    traj = sv.Trajectory(basis, np.arange(5.0), coeffs, np.zeros(5))
    assert cp.subvariant_eval(traj, "sup-norm") == 0.0


def test_subvariant_decaying_mode(basis):
    traj = sv.solve(sp.field_from_function(basis, lambda x: np.sin(np.pi * x)),
                    sv.SolverConfig(dt=1e-3, horizon=1.0), sv.make_nonlinearity("zero"))
    assert cp.subvariant_eval(traj, "sup-norm") == pytest.approx(1.0, abs=1e-12)


def test_subvariant_translation_invariance(basis, decay_pair):
    u, _ = decay_pair
    part = u.restrict(0.2, 1.0)
    translated = sv.Trajectory(basis, part.stamps - 0.2, part.coeffs, part.sup_trace)
    for functional in ("sup-norm", "energy-sup"):
        assert cp.subvariant_eval(part, functional) == \
            cp.subvariant_eval(translated, functional)


def test_minimal_selection_single(basis, decay_pair):
    u, _ = decay_pair
    report = cp.minimal_solution_select([u])
    assert report.argmin == 0
    assert report.parallelogram_gap is None
    assert report.verdict == "single-candidate"


def test_minimal_selection_tie_on_translates(basis, decay_pair):
    u, _ = decay_pair
    part = u.restrict(0.2, 1.0)
    translated = sv.Trajectory(basis, part.stamps - 0.2, part.coeffs, part.sup_trace)
    report = cp.minimal_solution_select([part, translated], "sup-norm")
    assert report.argmin == 0  # tie broken to lowest index
    assert report.tied


def test_minimal_selection_deterministic(basis, decay_pair):
    u, v = decay_pair
    first = cp.minimal_solution_select([u, v], "energy-sup")
    second = cp.minimal_solution_select([u, v], "energy-sup")
    assert first.argmin == second.argmin
    assert first.parallelogram_gap == second.parallelogram_gap


def test_parallelogram_gap_matches_difference_energy(basis, decay_pair):
    u, v = decay_pair
    report = cp.minimal_solution_select([u, v], "energy-sup")
    diff = u.coeffs - v.coeffs
    direct = np.min(0.5 * np.sum(diff * diff, axis=1))
    assert report.parallelogram_gap == pytest.approx(direct, abs=1e-12)


def test_minimal_selection_empty():
    with pytest.raises(ValueError):
        cp.minimal_solution_select([])


# ---------------------------------------------------------------------------
# uniform windowed bound over a cloud
# ---------------------------------------------------------------------------

def test_kp_identity_rhs_is_max_cloud_norm(basis):
    from aalab.signals import FunctionSignal
    rng = np.random.default_rng(6)
    cloud = cp.PointCloud(rng.standard_normal((5, basis.grid + 1)))

    def rhs(values):
        peak = float(np.max(np.abs(values)))
        return FunctionSignal(lambda t, peak=peak: np.full_like(t, peak))

    cfg = StepanovConfig(p=1.0, t_min=0.0, t_max=2.0)
    kp = cp.uniform_stepanov_bound(rhs, cloud, 1.0, cfg)
    expected = max(float(np.max(np.abs(p))) for p in cloud.points)
    assert kp == pytest.approx(expected, rel=1e-12)


def test_kp_bounded_modulation_envelope(basis):
    from aalab.signals import FunctionSignal, reciprocal_sine_value
    rng = np.random.default_rng(7)
    cloud = cp.PointCloud(rng.standard_normal((4, basis.grid + 1)))

    def rhs(values):
        peak = float(np.max(np.abs(values)))
        return FunctionSignal(lambda t, peak=peak: np.abs(reciprocal_sine_value(t)) * peak)

    cfg = StepanovConfig(p=1.0, t_min=0.0, t_max=3.0)
    kp = cp.uniform_stepanov_bound(rhs, cloud, 1.0, cfg)
    expected = max(float(np.max(np.abs(p))) for p in cloud.points)
    assert kp <= expected  # |modulation| <= 1


def test_kp_reference_composition_finite(basis):
    h0 = sp.field_from_function(basis, lambda x: np.sin(np.pi * x))
    forcing = sv.ForcingSpec.reference(basis, h0, SpikeTrainSpec(n_max=3))
    g = sv.make_nonlinearity("cubic")
    traj = sv.solve(sv.reference_initial_field(basis, "mode1", 0.5),
                    sv.SolverConfig(dt=1e-3, horizon=2.0), g, forcing)
    cloud = cp.PointCloud.from_trajectory(traj, stride=200)
    kp = cp.uniform_stepanov_bound(cp.evolution_rhs_signal(g, forcing), cloud, 1.0,
                                   StepanovConfig(p=1.0, t_min=0.0, t_max=3.0))
    assert np.isfinite(kp)
    assert kp > 0.0
