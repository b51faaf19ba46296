"""The Dirichlet sine basis and the heat semigroup's decay envelope.

Run:  python3 demos/02_heat_semigroup.py
"""

import numpy as np

from aalab.spectral import (Field, SpectralBasis, apply_semigroup,
                            decay_bound_check, field_from_function, mode_field,
                            spectral_tail_mass)

basis = SpectralBasis(length=1.0, modes=16, grid=128)
print("== spectrum ==")
print(f"lambda_1 = {basis.lambda1:.10f}  (pi^2 = {np.pi**2:.10f})")
print(f"lambda_k grows like (k pi / L)^2; lambda_16 = {basis.eigenvalues[-1]:.1f}")

print("\n== transform round trip ==")
f = field_from_function(basis, lambda x: np.sin(np.pi * x) + 0.5 * np.sin(2 * np.pi * x))
c = f.coeffs
print(f"coefficients of sin(pi x) + 0.5 sin(2 pi x): "
      f"({c[0]:.6f}, {c[1]:.6f}, ...) = (1, 0.5)/sqrt(2)")
print(f"boundary values after synthesis: {f.values[0]}, {f.values[-1]} (exact zeros)")

print("\n== semigroup action ==")
m1 = mode_field(basis, 1)
print(f"mode 1 damped over t = 0.1: {apply_semigroup(m1, 0.1).coeffs[0]:.6f} "
      f"= exp(-pi^2/10) = {np.exp(-np.pi**2 * 0.1):.6f}")
lhs = apply_semigroup(apply_semigroup(m1, 0.1), 0.2).coeffs[0]
rhs = apply_semigroup(m1, 0.3).coeffs[0]
print(f"semigroup law per mode: T(0.1)T(0.2) vs T(0.3) differ by {abs(lhs-rhs):.2e}")

print("\n== decay envelope ==")
rng = np.random.default_rng(0)
times = np.linspace(0.0, 2.0, 41)
worst = 0.0
for _ in range(100):
    x = Field(basis, coeffs=rng.standard_normal(basis.modes))
    worst = max(worst, decay_bound_check(x, times).max_ratio)
print(f"sup-norm of T(t)x against exp(-lambda_1 t) * sup-norm(x):")
print(f"worst ratio over 100 random band-limited fields and t in [0,2]: {worst:.6f}")

print("\n== smoothing: spectral tails collapse ==")
x = Field(basis, coeffs=rng.standard_normal(basis.modes))
total = float(np.sum(x.coeffs ** 2))
for t in (0.0, 0.05, 0.2):
    tail = spectral_tail_mass(apply_semigroup(x, t), basis.modes // 2 + 1)
    print(f"  t = {t:4.2f}: upper-half mode energy {tail:.3e} (of {total:.3f} total)")
print("this collapse is what makes bounded orbits relatively compact.")
