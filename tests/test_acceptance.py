"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with the measured quantities (run with -s to see them all)."""

import time

import numpy as np
import pytest

from aalab import compactness as cp
from aalab import solver as sv
from aalab import spectral as sp
from aalab import signals as sg


I_H = 0.6034501612189382


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_spectrum_and_decay():
    start = time.perf_counter()
    lam1 = sp.SpectralBasis(1.0, 1, 16).lambda1
    spectrum_ok = abs(lam1 - np.pi ** 2) / np.pi ** 2 <= 1e-12

    basis = sp.SpectralBasis(1.0, 16, 128)
    rng = np.random.default_rng(0)
    times = np.linspace(0.0, 2.0, 41)
    worst = 0.0
    for _ in range(100):
        f = sp.Field(basis, coeffs=rng.standard_normal(basis.modes))
        worst = max(worst, sp.decay_bound_check(f, times).max_ratio)
    wall = time.perf_counter() - start
    ok = spectrum_ok and worst <= 1.0 + 1e-10 and wall < 1.0
    report(1, ok, f"lambda1 rel err {abs(lam1 - np.pi**2)/np.pi**2:.2e}, "
                  f"worst decay ratio {worst:.12f}, wall {wall:.2f}s")


def test_criterion_02_solver_oracle_equivalence():
    start = time.perf_counter()
    basis = sp.SpectralBasis(1.0, 16, 64)
    zero = sv.make_nonlinearity("zero")

    traj = sv.solve(sp.mode_field(basis, 1), sv.SolverConfig(dt=1e-3, horizon=1.0), zero)
    exact = np.exp(-basis.lambda1 * traj.stamps)
    decay_err = float(np.max(np.abs(traj.coeffs[:, 0] - exact) / exact))

    c = 2.0
    forcing = sv.ForcingSpec.modulated(basis, sg.constant_signal(c),
                                       sp.mode_field(basis, 1))
    steady = sv.solve(sp.Field(basis, coeffs=np.zeros(basis.modes)),
                      sv.SolverConfig(dt=1e-3, horizon=3.0), zero, forcing)
    steady_err = abs(steady.coeffs[-1, 0] - c / basis.lambda1)
    wall = time.perf_counter() - start
    ok = decay_err < 1e-8 and steady_err < 1e-6 and wall < 10.0
    report(2, ok, f"decay rel err {decay_err:.2e}, steady-state err {steady_err:.2e}, "
                  f"wall {wall:.2f}s")


def test_criterion_03_contraction_fidelity(ref_parts):
    start = time.perf_counter()
    basis = ref_parts["basis"]
    g = ref_parts["nonlinearity"]
    forcing = ref_parts["forcing"]
    x0 = sv.reference_initial_field(basis, "mode1", 0.5)

    cfg = sv.SolverConfig(dt=1e-3, horizon=4.0)
    traj = sv.solve(x0, cfg, g, forcing)
    stepper = sv.Stepper(basis, g, forcing, cfg)
    ratios_checked = 0
    worst_ratio_margin = 0.0
    for j in range(0, len(traj) - 1, 13):
        coeffs, t = traj.coeffs[j], traj.stamps[j]
        dists = []
        [out], _, _, _ = stepper.step(coeffs, t, distances=dists)
        radius = max(np.max(np.abs(coeffs @ basis.eigenfunctions)),
                     np.max(np.abs(out @ basis.eigenfunctions)))
        factor = g.lipschitz(radius) * cfg.dt
        for d_prev, d_next in zip(dists, dists[1:]):
            if d_prev > 1e-14:
                ratios_checked += 1
                worst_ratio_margin = max(worst_ratio_margin, (d_next / d_prev) / factor)
    geometric_ok = ratios_checked > 0 and worst_ratio_margin <= 1.0

    coarse = sv.solve(x0, sv.SolverConfig(dt=1e-3, horizon=2.0), g, forcing)
    fine = sv.solve(x0, sv.SolverConfig(dt=5e-4, horizon=2.0), g, forcing)
    counts_ok = (fine.picard_counts.max() <= coarse.picard_counts.max()
                 and fine.picard_counts.mean() <= coarse.picard_counts.mean() + 1e-12)
    wall = time.perf_counter() - start
    ok = geometric_ok and counts_ok and wall < 30.0
    report(3, ok, f"{ratios_checked} iterate ratios, worst ratio/factor "
                  f"{worst_ratio_margin:.3f}, halving counts "
                  f"{coarse.picard_counts.max()}->{fine.picard_counts.max()} max, "
                  f"wall {wall:.1f}s")


def test_criterion_04_global_boundedness(ref_parts, run_main, run_companion):
    traj, wall_main = run_main
    companion, wall_comp = run_companion
    bound = sv.global_bound_estimate(ref_parts["forcing"], companion,
                                     p=1.0, scan=(0.0, 12.0))
    bounded = bool(np.all(traj.sup_trace <= bound))
    ok = (not traj.blown_up) and bounded and wall_main < 300.0
    report(4, ok, f"sup trace max {np.max(traj.sup_trace):.4f} <= bound {bound:.4g} "
                  f"at all {len(traj)} stamps, run wall {wall_main:.1f}s "
                  f"(companion {wall_comp:.1f}s)")


def test_criterion_05_unbounded_but_stepanov_bounded():
    spec = sg.SpikeTrainSpec(n_max=5)
    a = sg.SpikeTrainSignal(spec)

    def brute(t):
        total = 0.0
        for level in range(1, spec.n_max + 1):
            for center in sg.level_centers(level, t - 1.0, t + 1.0):
                total += sg.bump_value(level * level * (t - center))
        return total

    growth_ok = True
    peaks = []
    for k in range(1, 5):
        centers = np.concatenate([sg.level_centers(lv, 0.0, 3.0 ** k)
                                  for lv in range(1, spec.n_max + 1)])
        lazy = sg.spike_train_value(spec, centers)
        oracle = np.array([brute(t) for t in centers])
        peak = float(np.max(lazy))
        peaks.append(peak)
        growth_ok = growth_ok and np.array_equal(lazy, oracle) and peak >= k

    cfg = sg.StepanovConfig(p=1.0, t_min=0.0, t_max=100.0)
    norm = sg.stepanov_norm(a, cfg)
    norm_bound = (np.pi ** 2 / 6.0) * I_H + 1e-6
    ok = growth_ok and norm <= norm_bound
    report(5, ok, f"span peaks {['%.0f' % p for p in peaks]} vs k=1..4 (oracle exact), "
                  f"windowed norm {norm:.6f} <= {norm_bound:.6f}")


def test_criterion_06_spike_train_recurrence():
    spec = sg.SpikeTrainSpec(n_max=5)
    a = sg.SpikeTrainSignal(spec)
    windows = [0.0, 2.5, 8.5, 14.5, 26.5, 44.5, 80.5, 160.5]
    details = []
    ok = True
    for m in range(1, 5):
        shift = 2.0 * 3.0 ** m
        tail = np.pi ** 2 / 6.0 - sum(1.0 / n ** 2 for n in range(1, m + 1))
        bound = 2.0 * I_H * tail + 1e-6
        worst = max(sg.sp_translation_distance(a, a, shift, t, 1.0) for t in windows)
        details.append(f"m={m}: {worst:.6f}<={bound:.6f}")
        ok = ok and worst <= bound
    report(6, ok, "; ".join(details))


def test_criterion_07_energy_law(ref_parts, run_main, run_alt):
    u = run_main[0].restrict(0.0, 20.0)
    v = run_alt[0]
    trace = cp.energy_monotonicity_check(u, v, tolerance=1e-8)

    basis = sp.SpectralBasis(1.0, 16, 64)
    zero = sv.make_nonlinearity("zero")
    cfg = sv.SolverConfig(dt=1e-3, horizon=1.0)
    cu = sv.solve(sp.mode_field(basis, 1, 1.0), cfg, zero)
    cv = sv.solve(sp.mode_field(basis, 2, 0.5), cfg, zero)
    control = cp.energy_monotonicity_check(cu, cv, tolerance=1e-8)
    diff0 = cu.coeffs[0] - cv.coeffs[0]
    closed = 0.5 * np.sum(
        (diff0[None, :] * np.exp(-basis.eigenvalues[None, :] * cu.stamps[:, None])) ** 2,
        axis=1)
    control_err = float(np.max(np.abs(control.values - closed)))
    ok = trace.passed and control.passed and control_err <= 1e-8
    report(7, ok, f"max forward jump {trace.max_forward_jump:.2e} <= 1e-8 over [0,20], "
                  f"zero-reaction control vs closed form err {control_err:.2e}")


def test_criterion_08_uniform_continuity(ref_parts, run_fine):
    traj, _ = run_fine
    basis = ref_parts["basis"]
    deltas = [1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1]
    table = sg.uniform_continuity_modulus(traj.as_signal(), deltas)
    nondecreasing = bool(np.all(np.diff(table[:, 1]) >= -1e-15))
    omega_small = table[0, 1] < 1e-2

    cloud = cp.PointCloud.from_trajectory(traj, stride=200)
    rhs = cp.evolution_rhs_signal(ref_parts["nonlinearity"], ref_parts["forcing"])
    k2 = cp.uniform_stepanov_bound(rhs, cloud, 2.0,
                                   sg.StepanovConfig(p=2.0, t_min=0.0, t_max=11.0))
    dominated = True
    for delta, omega in table:
        gap = sv.semigroup_gap(traj.coeffs[::100], basis, delta)
        bound = sv.holder_increment_bound(delta, k2, basis.lambda1, 2.0, gap)
        dominated = dominated and omega <= bound
    ok = nondecreasing and omega_small and dominated
    report(8, ok, f"omega(1e-3) = {table[0, 1]:.4f} < 1e-2, table nondecreasing, "
                  f"k_2 = {k2:.3f} envelope dominates all {len(table)} increments")


def test_criterion_09_range_compactness(run_main):
    traj, _ = run_main
    rep = cp.range_compactness_report(traj, [0.2, 0.1, 0.05], strides=(2, 1))
    ok = rep.stable
    eps = ",".join(f"{e:g}" for e in rep.epsilons)
    half = ",".join(str(int(c)) for c in rep.counts[0])
    full = ",".join(str(int(c)) for c in rep.counts[1])
    report(9, ok, f"cover counts at eps [{eps}]: half-density [{half}] == "
                  f"full-density [{full}]")


def test_criterion_10_minimality_structure(ref_parts, run_main, run_alt):
    u_full = run_main[0]
    basis = ref_parts["basis"]
    part = u_full.restrict(5.0, 45.0)
    translated = sv.Trajectory(basis, part.stamps - 5.0, part.coeffs, part.sup_trace)
    translate_gap = abs(cp.subvariant_eval(part, "sup-norm")
                        - cp.subvariant_eval(translated, "sup-norm"))

    u = u_full.restrict(0.0, 20.0)
    v = run_alt[0]
    selection = cp.minimal_solution_select([u, v], "energy-sup")
    i_final = u.index_at(10.0)
    forgetting = float(np.max(np.abs(
        (u.coeffs[i_final:] - v.coeffs[i_final:]) @ basis.eigenfunctions)))
    ok = (translate_gap <= 1e-9 and selection.parallelogram_gap <= 1e-6
          and forgetting <= 1e-3)
    report(10, ok, f"translate agreement {translate_gap:.1e} <= 1e-9, "
                   f"parallelogram gap {selection.parallelogram_gap:.2e} <= 1e-6, "
                   f"sup|u-v| over final 10 units {forgetting:.2e} <= 1e-3")


def test_criterion_11_bochner_identity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for sig in (sg.resolve_signal("sin"), sg.resolve_signal("b"),
                sg.resolve_signal("a", n_max=4)):
        for _ in range(1000):
            t = rng.uniform(0.0, 80.0)
            s = rng.uniform(0.0, 1.0)
            tau = rng.uniform(s - 1.0, s)
            worst = max(worst, sg.bochner_identity_residual(sig, t, s, tau))
    ok = worst <= 1e-9
    report(11, ok, f"worst identity residual {worst:.2e} <= 1e-9 "
                   f"over 3 x 1000 random triples")
