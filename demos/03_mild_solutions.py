"""Variation-of-constants stepping: closed-form checks, convergence order,
the bounded reference scenario, and the blow-up detector.

Run:  python3 demos/03_mild_solutions.py
"""

import numpy as np

from aalab.signals import SpikeTrainSpec, constant_signal
from aalab.spectral import Field, SpectralBasis, field_from_function, mode_field
from aalab.solver import (ForcingSpec, SolverConfig, Stepper, global_bound_estimate,
                          make_nonlinearity, reference_initial_field, solve,
                          step_picard)

basis = SpectralBasis(length=1.0, modes=16, grid=64)
zero = make_nonlinearity("zero")
cubic = make_nonlinearity("cubic")
lam1 = basis.lambda1

print("== exactness on the linear problem ==")
traj = solve(mode_field(basis, 1), SolverConfig(dt=1e-3, horizon=1.0), zero)
err = np.max(np.abs(traj.coeffs[:, 0] - np.exp(-lam1 * traj.stamps)))
print(f"pure decay vs exp(-lambda_1 t): max err {err:.2e}")

forcing_const = ForcingSpec.modulated(basis, constant_signal(2.0), mode_field(basis, 1))
steady = solve(Field(basis, coeffs=np.zeros(basis.modes)),
               SolverConfig(dt=1e-3, horizon=3.0), zero, forcing_const)
print(f"constant forcing settles to c/lambda_1: err "
      f"{abs(steady.coeffs[-1, 0] - 2.0 / lam1):.2e}")

print("\n== convergence order of the stepper ==")
h0 = field_from_function(basis, lambda x: np.sin(np.pi * x))
forcing = ForcingSpec.reference(basis, h0, SpikeTrainSpec(n_max=3))
x0 = reference_initial_field(basis, "mode1", 0.5)
for order2 in (False, True):
    ref = solve(x0, SolverConfig(dt=1e-3 / 16, horizon=0.5, order2=order2), cubic, forcing)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        tr = solve(x0, SolverConfig(dt=dt, horizon=0.5, order2=order2), cubic, forcing)
        diff = (tr.coeffs[-1] - ref.coeffs[-1]) @ basis.eigenfunctions
        errs.append(float(np.max(np.abs(diff))))
    label = "linear-in-time refinement" if order2 else "frozen profile (default)"
    print(f"{label}: errors at dt = 4h,2h,h: "
          + ", ".join(f"{e:.2e}" for e in errs)
          + f"; ratios {errs[0]/errs[1]:.2f}, {errs[1]/errs[2]:.2f}")

print("\n== per-step fixed point ==")
step_cfg = SolverConfig(dt=1e-3)
out, iterations, dists = step_picard(x0, 0.0, cubic, forcing, step_cfg)
print(f"refinement distances: " + ", ".join(f"{d:.2e}" for d in dists)
      + f" ({iterations} refinements)")
radius = max(x0.sup_norm(), out.sup_norm())
gain = Stepper(basis, cubic, forcing, step_cfg).gain
print(f"contraction factor L_R * gain = {cubic.lipschitz(radius) * gain:.2e} "
      f"(gain = {gain / 1e-3:.4f} dt on the grid)")

print("\n== the bounded reference scenario ==")
run = solve(x0, SolverConfig(dt=1e-3, horizon=12.0), cubic, forcing)
print(f"T = 12 run: sup-norm max {np.max(run.sup_trace):.4f}, "
      f"final {run.sup_trace[-1]:.4f}, blow-up: {run.blown_up}")
companion = solve(x0, SolverConfig(dt=1e-3, horizon=12.0), cubic)
bound = global_bound_estimate(forcing, companion, scan=(0.0, 12.0))
print(f"a-priori bound from the zero-forcing companion: {bound:.3e}")
print(f"trace stays below it at every stamp: {bool(np.all(run.sup_trace <= bound))}")

print("\n== the blow-up detector ==")
hot = solve(reference_initial_field(basis, "mode1", 5.0),
            SolverConfig(dt=1e-4, horizon=1.0, blowup_cap=10.0),
            make_nonlinearity("cubic-unstable"))
print(f"growth-sign cubic from amplitude 5 with cap 10: "
      f"blow-up at t = {hot.blowup_time:.4f} (trace {hot.sup_trace[-1]:.2f})")
