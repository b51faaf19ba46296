import time

import numpy as np
import pytest

from aalab import solver as sv
from aalab import spectral as sp
from aalab.signals import SpikeTrainSpec


def timed_solve(x0, cfg, nonlinearity, forcing=None):
    start = time.perf_counter()
    traj = sv.solve(x0, cfg, nonlinearity, forcing)
    return traj, time.perf_counter() - start


@pytest.fixture(scope="session")
def ref_basis():
    return sp.SpectralBasis(length=1.0, modes=64, grid=256)


@pytest.fixture(scope="session")
def ref_parts(ref_basis):
    """The reference reaction-diffusion scenario: cubic damping, oscillation
    plus spike-train forcing through the mode-1 profile."""
    h0 = sp.field_from_function(ref_basis, lambda x: np.sin(np.pi * x))
    return {
        "basis": ref_basis,
        "h0": h0,
        "forcing": sv.ForcingSpec.reference(ref_basis, h0, SpikeTrainSpec(n_max=4)),
        "nonlinearity": sv.make_nonlinearity("cubic"),
    }


@pytest.fixture(scope="session")
def run_main(ref_parts):
    """T = 50 reference run at dt = 1e-3 from 0.5 * mode-1 data."""
    x0 = sv.reference_initial_field(ref_parts["basis"], "mode1", 0.5)
    return timed_solve(x0, sv.SolverConfig(dt=1e-3, horizon=50.0),
                       ref_parts["nonlinearity"], ref_parts["forcing"])


@pytest.fixture(scope="session")
def run_alt(ref_parts):
    """T = 20 reference run from distinct initial data (0.3 * mode-2)."""
    x0 = sv.reference_initial_field(ref_parts["basis"], "mode2", 0.3)
    return timed_solve(x0, sv.SolverConfig(dt=1e-3, horizon=20.0),
                       ref_parts["nonlinearity"], ref_parts["forcing"])


@pytest.fixture(scope="session")
def run_companion(ref_parts):
    """Zero-forcing companion of run_main (same initial data and horizon)."""
    x0 = sv.reference_initial_field(ref_parts["basis"], "mode1", 0.5)
    return timed_solve(x0, sv.SolverConfig(dt=1e-3, horizon=50.0),
                       ref_parts["nonlinearity"])


@pytest.fixture(scope="session")
def run_fine(ref_parts):
    """dt = 5e-4 reference run; fine enough to evaluate omega at 1e-3."""
    x0 = sv.reference_initial_field(ref_parts["basis"], "mode1", 0.5)
    return timed_solve(x0, sv.SolverConfig(dt=5e-4, horizon=12.0),
                       ref_parts["nonlinearity"], ref_parts["forcing"])
