"""Photon-recoil spectroscopy modelling toolkit.

Pipeline: driven two-level Bloch dynamics during short pulses -> per-pulse
momentum drift/diffusion coefficients -> analytic phase-space propagation of
the motional probe state -> overlap signals, recoil sensitivity, Fisher
information bounds, Doppler systematics and probe-state optimization.
"""

from .bloch import PulseParams, correlation_yy, solve_bloch, steady_state
from .doppler import ShiftResult, asymmetric_overlap, two_point_shift
from .errors import (ConfigError, ConvergenceError, FlatFlankError,
                     GridUnderflowError, NoCrossingError, OptimizerError,
                     PerturbativeRegimeError, RecoilSpecError,
                     UnsupportedDampingError)
from .metrology import (SensitivityResult, WorkingPoint, fisher_binary,
                        fisher_imperfect, find_working_point,
                        phase_mismatch_sensitivity, qfi_sensitivity_bound,
                        recoil_sensitivity, snr)
from .pdeoracle import GridSpec, overlap_pde, overlap_pde_batch
from .phasespace import (CatState, FockSuperposition, FPParams, GaussianState,
                         evolve_gaussian, overlap_after, overlap_gaussian,
                         overlap_slopes)
from .recoil import (DriftDiffusion, coefficients_with_slopes,
                     compute_coefficients, detuning_slopes)
from .stateopt import (OptimizationProblem, OptimizationResult,
                       SinglePhotonBudget, optimize_fock_superposition,
                       single_photon_budget, squeezing_db)

__version__ = "0.1.0"

__all__ = [
    "PulseParams", "correlation_yy", "solve_bloch", "steady_state",
    "ShiftResult", "asymmetric_overlap", "two_point_shift",
    "ConfigError", "ConvergenceError", "FlatFlankError", "GridUnderflowError",
    "NoCrossingError", "OptimizerError", "PerturbativeRegimeError",
    "RecoilSpecError", "UnsupportedDampingError",
    "SensitivityResult", "WorkingPoint", "fisher_binary", "fisher_imperfect",
    "find_working_point", "phase_mismatch_sensitivity",
    "qfi_sensitivity_bound", "recoil_sensitivity", "snr",
    "GridSpec", "overlap_pde", "overlap_pde_batch",
    "CatState", "FockSuperposition", "FPParams", "GaussianState",
    "evolve_gaussian", "overlap_after", "overlap_gaussian", "overlap_slopes",
    "DriftDiffusion", "coefficients_with_slopes", "compute_coefficients",
    "detuning_slopes",
    "OptimizationProblem", "OptimizationResult", "SinglePhotonBudget",
    "optimize_fock_superposition", "single_photon_budget", "squeezing_db",
]
