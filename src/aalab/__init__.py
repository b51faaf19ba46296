"""aalab: a numerical laboratory for almost-automorphic signals and the
mild-solution dynamics of semilinear heat equations on an interval.

Subpackages
-----------
signals
    Spike trains, windowed Stepanov norms, Bochner windows, translation
    recurrence tests, uniform-continuity moduli.
spectral
    Dirichlet sine basis, fields, the heat semigroup and its decay envelope.
solver
    Exponential-Euler stepping with per-step Picard refinement, blow-up
    detection, global bounds, translation extension.
compactness
    Greedy epsilon-covers, energy dissipation, subvariant functionals and
    minimal-solution selection.
cli
    The ``aalab`` command: simulate / signal / diagnose.
"""

__version__ = "0.1.0"

from .signals import (SampledSignal, Signal, SpikeTrainSpec, StepanovConfig,
                      aa_translation_test, bochner_transform, bump_integral,
                      bump_value, resolve_signal, sp_translation_distance,
                      spike_level_value, spike_train_value, stepanov_norm,
                      uniform_continuity_modulus)
from .spectral import (Field, SpectralBasis, apply_semigroup, decay_bound_check,
                       field_from_function, mode_field)
from .solver import (ForcingSpec, NonContractionError, NonlinearitySpec,
                     SolverConfig, Trajectory, global_bound_estimate,
                     load_trajectory, make_nonlinearity, mild_residual,
                     reference_initial_field, save_trajectory, solve,
                     step_picard, translation_extension)
from .compactness import (CoverReport, PointCloud, cover_ladder, energy,
                          energy_monotonicity_check, greedy_cover,
                          minimal_solution_select, range_compactness_report,
                          subvariant_eval, uniform_stepanov_bound)
