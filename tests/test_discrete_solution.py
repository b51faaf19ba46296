"""``solve`` against the discrete solution it approximates, whatever its
iteration strategy.

The march solves the implicit step equations

    y_{j+1} = T(dt) y_j + f_j + W P g(E^T y_{j+1})

up to the Picard stopping test, which puts each accepted step within
``picard_tol`` of its own fixed point in the grid sup norm.  Carried forward
by the semigroup, the error of the step to stamp j + 1 reaches stamp n as at
most ||E^T diag(exp(-lam (n - j - 1) dt)) P||_inf times that, so the march
lies within picard_tol * S of the discrete solution, with

    S = sum_{m < n} ||E^T diag(exp(-lam m dt)) P||_inf,

the nonlinear coupling aside (it contracts for the damped cubic; the
blow-up scenario's growth cubic is measured below the bound too).  A march
at picard_tol = 1e-15 gives the discrete solution to rounding and is the
oracle; the bound adds its own tolerance.  S is computed from the basis.
"""

from dataclasses import replace
import functools

import numpy as np
import pytest

from aalab import config as cfgmod
from aalab import solver as sv
from aalab.spectral import SpectralBasis

TIGHT = 1e-15


@functools.lru_cache(maxsize=None)
def semigroup_sum(length, modes, grid, dt, steps):
    """S = sum over m < steps of the grid-sup norm of E^T diag(exp(-lam m dt)) P
    on the basis, each operator formed from the modes whose factor has not
    underflowed to 0.  Cached: both orders of a scenario share it."""
    basis = SpectralBasis(length=length, modes=modes, grid=grid)
    E, P, lam = basis.eigenfunctions, basis._projection, basis.eigenvalues
    total = 0.0
    for m in range(steps):
        d = np.exp(-lam * m * dt)
        live = d > 0.0
        total += float(np.max(np.abs((E[live].T * d[live]) @ P[live]).sum(axis=1)))
    return total


# The bundled scenarios at T = 1.  decay: g = 0, every step linear, gap 0;
# blowup: the growth cubic, which crosses the cap at stamp 244 of dt = 1e-4
# at both tolerances, order one at 0.56 of the bound; reference: cubic
# damping with the spike-train forcing, order one at 0.38 (0.43 at T = 6).
# Order two, which stops on d <= picard_tol, reads at most 2.6e-3.
@pytest.mark.parametrize("order2", [False, True])
@pytest.mark.parametrize("name", ["decay", "blowup", "reference"])
def test_solve_is_within_tol_times_s_of_the_discrete_solution(name, order2):
    scenario = cfgmod.load_scenario(cfgmod.builtin_config_path(name))
    basis = scenario.basis()
    cfg = replace(scenario.solver_config(), horizon=1.0, order2=order2)
    args = (scenario.initial_field(basis), cfg, scenario.nonlinearity(), scenario.forcing(basis))
    traj = sv.solve(*args)
    tight = sv.solve(args[0], replace(cfg, picard_tol=TIGHT), *args[2:])
    assert (traj.blown_up, len(traj)) == (tight.blown_up, len(tight))
    gap = float(np.max(np.abs((traj.coeffs - tight.coeffs) @ basis.eigenfunctions)))
    S = semigroup_sum(basis.length, basis.modes, basis.grid, cfg.dt, len(traj) - 1)
    assert gap <= (cfg.picard_tol + TIGHT) * S
