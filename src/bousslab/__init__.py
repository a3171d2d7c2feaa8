"""bousslab: a spectral decay-rate laboratory for a damped dispersive wave equation.

The package solves ``u_tt - Lap(u) + Lap^2(u) + alpha*Lap(u_t) + Lap^2(u_t)
= Lap(f(u) + beta*g(u_t))`` on periodic boxes by exponential time
differencing over exact per-mode propagators, evaluates the corresponding
continuum radial norms by adaptive quadrature, and verifies the predicted
decay rates, kernel envelope bounds, and solver consistency empirically.
"""

from .analysis import (BOUND_KINDS, BoundCertificate, DecaySeries, ProductCheck, RateFit,
                       certify_bound, decay_series, default_certify_grids,
                       fit_rate, gap_weight, initial_data_size,
                       product_estimate_check, radial_decay_series,
                       xnorm_proxy)
from .config import (AnalysisConfig, ConfigError, DataConfig,
                     DiscretizationConfig, ExperimentConfig, ModelConfig,
                     load_config)
from .experiments import RunReport, list_experiments, run_experiment
from .linear import (RadialData, gaussian_profile, gaussian_radial_data,
                     linear_norm_radial, linear_solution,
                     square_integrable_radial_data)
from .nonlinear import (BlowUpError, NonlinearitySpec,
                        ReferenceIntegrationError, Trajectory,
                        linear_trajectory, march, picard_iterate,
                        reference_solve, solve)
from .spectral import (Grid, PhysicalField, QuadratureError,
                       forward_transform, inverse_transform, l1_norm,
                       make_grid, neg_sobolev_norm, sobolev_norm)
from .symbols import (ModeEnergy, ModelParams, PropagatorSymbols,
                      characteristic_roots, damping_coefficient,
                      decay_envelope, mode_energy, phi_divided_difference,
                      profile_symbols, propagator, restoring_coefficient)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig", "BlowUpError", "BOUND_KINDS",
    "BoundCertificate", "ConfigError",
    "DataConfig", "DecaySeries", "DiscretizationConfig", "ExperimentConfig",
    "Grid", "ModeEnergy", "ModelConfig", "ModelParams", "NonlinearitySpec",
    "PhysicalField", "ProductCheck", "PropagatorSymbols",
    "QuadratureError", "RadialData", "RateFit", "ReferenceIntegrationError",
    "RunReport", "Trajectory", "certify_bound", "characteristic_roots",
    "damping_coefficient", "decay_envelope", "decay_series",
    "default_certify_grids", "fit_rate", "forward_transform", "gap_weight",
    "gaussian_profile", "gaussian_radial_data", "initial_data_size",
    "inverse_transform", "l1_norm", "linear_norm_radial",
    "linear_solution", "linear_trajectory", "list_experiments",
    "load_config", "make_grid", "march", "mode_energy", "neg_sobolev_norm",
    "phi_divided_difference", "picard_iterate", "product_estimate_check",
    "profile_symbols", "propagator", "radial_decay_series",
    "reference_solve", "restoring_coefficient", "run_experiment",
    "sobolev_norm", "solve", "square_integrable_radial_data", "xnorm_proxy",
]
