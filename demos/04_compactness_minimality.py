"""Range compactness, energy dissipation, uniform continuity, and the
minimal-solution diagnostics on the reference scenario.

Run:  python3 demos/04_compactness_minimality.py   (about a minute)
"""

import numpy as np

from aalab.compactness import (PointCloud, energy_monotonicity_check,
                               evolution_rhs_signal, minimal_solution_select,
                               range_compactness_report, subvariant_eval,
                               uniform_stepanov_bound)
from aalab.signals import SpikeTrainSpec, StepanovConfig, uniform_continuity_modulus
from aalab.solver import (ForcingSpec, SolverConfig, Trajectory,
                          holder_increment_bound, make_nonlinearity,
                          reference_initial_field, semigroup_gap, solve,
                          translation_extension)
from aalab.spectral import SpectralBasis, field_from_function

basis = SpectralBasis(length=1.0, modes=32, grid=128)
h0 = field_from_function(basis, lambda x: np.sin(np.pi * x))
forcing = ForcingSpec.reference(basis, h0, SpikeTrainSpec(n_max=4))
cubic = make_nonlinearity("cubic")

print("running two reference trajectories (distinct initial data) ...")
u = solve(reference_initial_field(basis, "mode1", 0.5),
          SolverConfig(dt=5e-4, horizon=20.0), cubic, forcing)
v = solve(reference_initial_field(basis, "mode2", 0.3),
          SolverConfig(dt=5e-4, horizon=20.0), cubic, forcing)

print("\n== range compactness ==")
rep = range_compactness_report(u, [0.2, 0.1, 0.05], strides=(2, 1))
print("greedy cover counts (rows: half then full sampling density):")
for row, stride in zip(rep.counts, rep.strides):
    print(f"  stride {stride}: "
          + ", ".join(f"eps {e:g}: {int(c)} balls" for e, c in zip(rep.epsilons, row)))
print(f"verdict: {rep.verdict}")

print("\n== energy dissipation of the difference ==")
trace = energy_monotonicity_check(u, v, tolerance=1e-8)
idx = [u.index_at(t) for t in (0.0, 1.0, 2.0, 5.0)]
print("E(u - v) at t = 0, 1, 2, 5: "
      + ", ".join(f"{trace.values[i]:.3e}" for i in idx))
print(f"worst forward jump {trace.max_forward_jump:.2e}; verdict {trace.verdict}")
print("the dynamics forget initial data; both runs fall into one orbit.")

print("\n== uniform continuity of the orbit ==")
table = uniform_continuity_modulus(u.as_signal(), [1e-3, 1e-2, 1e-1])
for delta, omega in table:
    print(f"  omega({delta:g}) = {omega:.5f}")
cloud = PointCloud.from_trajectory(u, stride=400)
k2 = uniform_stepanov_bound(evolution_rhs_signal(cubic, forcing), cloud, 2.0,
                            StepanovConfig(p=2.0, t_min=0.0, t_max=19.0))
print(f"uniform windowed bound of the right-hand side: k_2 = {k2:.3f}")
for delta in (1e-3, 1e-2, 1e-1):
    gap = semigroup_gap(u.coeffs[::200], basis, delta)
    print(f"  increment envelope at delta = {delta:g}: "
          f"{holder_increment_bound(delta, k2, basis.lambda1, 2.0, gap):.4f}")

print("\n== subvariant functionals and the minimal solution ==")
part = u.restrict(2.0, 20.0)
translated = Trajectory(basis, part.stamps - 2.0, part.coeffs, part.sup_trace)
print(f"translation invariance: {subvariant_eval(part, 'sup-norm'):.8f} "
      f"== {subvariant_eval(translated, 'sup-norm'):.8f}")
sel = minimal_solution_select([u, v], "energy-sup")
print(f"energy-sup values: " + ", ".join(f"{x:.6f}" for x in sel.values))
print(f"argmin {sel.argmin}; parallelogram gap {sel.parallelogram_gap:.2e} "
      f"-> {sel.verdict}")

print("\n== towards a two-sided orbit ==")
candidate, ext = translation_extension(u, [6.0, 18.0], 1.5)
print(f"windowed translates along shifts 2*3^m: successive sup distances "
      + ", ".join(f"{d:.4f}" for d in ext.successive))
print("(finitely many ladder rungs give evidence, never a proof)")
