"""Tour of the signal layer: spike trains that are pointwise unbounded yet
bounded in every windowed sense, and a bounded oscillation that is not
uniformly continuous.

Run:  python3 demos/01_signals_tour.py
"""

import numpy as np

from aalab.signals import (SpikeTrainSpec, SpikeTrainSignal, StepanovConfig,
                           aa_translation_test, bochner_identity_residual,
                           bump_integral, bump_value, power_shift_ladder,
                           reciprocal_sine_signal, resolve_signal,
                           sine_signal, sp_translation_distance,
                           sqrt2_shift_ladder, stepanov_norm)

area = bump_integral()
print("== the smooth bump ==")
print(f"peak value at 0: {bump_value(0.0)}, support (-1/2, 1/2), area {area:.10f}")

spec = SpikeTrainSpec(n_max=5)
a = SpikeTrainSignal(spec)
print("\n== the spike train ==")
print("level n puts bumps of half-width 1/(2 n^2) on the odd multiples of 3^n;")
print("where lattices coincide the levels stack:")
for t in (3.0, 9.0, 27.0, 81.0, 243.0):
    print(f"  a({t:>5.0f}) = {a.eval(t):.0f}")
print("so sup over [0, 3^k] grows like k: pointwise unbounded.")

cfg = StepanovConfig(p=1.0, t_min=0.0, t_max=100.0)
norm = stepanov_norm(a, cfg)
budget = (np.pi ** 2 / 6.0) * area
print(f"\nyet the windowed L1 norm stays finite: {norm:.6f}")
print(f"(each unit window holds at most one level-n bump of area {area:.4f}/n^2;")
print(f" the full budget is (pi^2/6) * area = {budget:.6f})")

print("\n== recurrence under the shift ladder 2 * 3^m ==")
print("levels up to m are 2*3^m-periodic, so only the thin tail moves:")
for m in (1, 2, 3):
    shift = 2.0 * 3.0 ** m
    worst = max(sp_translation_distance(a, a, shift, t, 1.0)
                for t in (0.0, 2.5, 8.5, 26.5))
    tail = 2.0 * area * (np.pi ** 2 / 6 - sum(1.0 / n ** 2 for n in range(1, m + 1)))
    print(f"  shift {shift:>5.0f}: worst window distance {worst:.6f} <= tail bound {tail:.6f}")

report = aa_translation_test(a, power_shift_ladder(5), cfg, windows=[0.0, 2.5, 8.5])
print(f"ladder test verdict: {report.verdict}; tail maxima "
      + " -> ".join(f"{x:.4f}" for x in report.tail))

print("\n== the reciprocal-sine oscillation ==")
b = reciprocal_sine_signal()
print(f"b(0) = sin(1/4) = {b.eval(0.0):.7f}; values stay within [-1, 1].")
print("its near-periods come from simultaneous rational approximations of sqrt(2):")
rep_b = aa_translation_test(b, sqrt2_shift_ladder(6),
                            StepanovConfig(p=1.0, t_min=0.0, t_max=2.0, threshold=0.05),
                            windows=[0.0, 1.0])
print("tail maxima " + " -> ".join(f"{x:.4f}" for x in rep_b.tail)
      + f"; verdict: {rep_b.verdict}")
print("(but b is NOT uniformly continuous: near the near-zeros of its")
print(" denominator the local slope blows up; see the test suite oracle)")

print("\n== window transform consistency ==")
rng = np.random.default_rng(0)
worst = 0.0
for sig in (sine_signal(), b, resolve_signal("a", n_max=4)):
    for _ in range(200):
        t, s = rng.uniform(0, 50), rng.uniform(0, 1)
        tau = rng.uniform(s - 1, s)
        worst = max(worst, bochner_identity_residual(sig, t, s, tau))
print(f"phi(t + tau, s - tau) = phi(t, s) holds to {worst:.2e} on random triples")
