"""Spectral simulator and Monte Carlo harness for a semilinear stochastic
heat equation on (0, 1), centered on an explicit tamed exponential Euler
scheme with closed-form Gaussian oracles for everything linear."""

from .errors import (ConfigurationError, TamingBoundViolation,
                     TrajectoryOverflow)
from .spectral import (SpectralField, bump_profile, collocation_nodes,
                       eigenvalue, eigenvalues, multi_mode, unit_mode,
                       zero_field)
from .noise import (CovarianceSpec, NoiseRegularity, classify_regularity,
                    explicit_covariance, power_decay, white)
from .nonlinearity import (AuditReport, Nonlinearity, allen_cahn,
                           audit_assumptions, dissipative_cubic, linear,
                           polynomial, zero)
from .gaussian_oracle import (ModeGaussian, convolution_second_moment_exact,
                              convolution_weak_error_curve,
                              discrete_convolution_second_moment,
                              linear_invariant_variance, linear_scheme_law,
                              linear_stationary_variance)
from .integrators import Engine, PathBatch, SchemeConfig, evolve
from .estimators import (EXP_NEG_L2SQ, FUNCTIONALS, L2_SQUARED, BOUNDED_MODE1,
                         ContractionStudy, CostCurve, ErgodicStudy,
                         MCEstimate, ModeStatistics, MomentStudy, PathNorms,
                         RateFit, TamingReport, TestFunctional,
                         WeakOrderStudy, contraction_rate, cost_curve,
                         ergodic_average, estimate_moment,
                         final_mode_statistics, fit_rate, path_norms,
                         taming_headroom, weak_order_study)

__version__ = "0.1.0"
