"""Closed-form laws for the zero- and linear-drift cases.

Everything the scheme does to a linear model is an affine map of Gaussians,
so means and variances obey scalar per-mode recursions with closed-form
geometric sums.  These values are sampling-free: they are the ground truth
that Monte Carlo output gets compared against, and the analytic weak-error
curve for the discretized stochastic convolution comes straight from them.

All formulas use expm1 where cancellation threatens, and none of them draw
random numbers; repeated calls are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .noise import CovarianceSpec, discrete_convolution_variance
from .spectral import eigenvalues


@dataclass(frozen=True, eq=False)
class ModeGaussian:
    """Independent per-mode Gaussian law: mean and variance arrays, shape (J,)."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=np.float64)
        v = np.asarray(self.variance, dtype=np.float64)
        if m.shape != v.shape or m.ndim != 1:
            raise ConfigurationError(
                f"mean and variance must be matching 1-d arrays, "
                f"got {m.shape} and {v.shape}")
        if np.any(v < 0):
            raise ConfigurationError("variance must be >= 0")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "variance", v)

    @property
    def l2_second_moment(self) -> float:
        """E of the squared L2 norm: sum of mean^2 + variance over modes."""
        return float((self.mean * self.mean + self.variance).sum())


def convolution_second_moment_exact(cov: CovarianceSpec, t: float) -> float:
    """E of the squared L2 norm of the stochastic convolution at time t.

    Per mode the convolution is an Ornstein-Uhlenbeck integral with variance
    q (1 - exp(-2 lambda t)) / (2 lambda).
    """
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    lam = eigenvalues(cov.n_modes)
    return float((cov.mode_weights * (-np.expm1(-2.0 * lam * t)) / (2.0 * lam)).sum())


def discrete_convolution_second_moment(cov: CovarianceSpec, dt: float,
                                       n_steps: int) -> float:
    """E of the squared L2 norm of the zero-drift scheme after n_steps."""
    if dt <= 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    if n_steps == 0:
        return 0.0
    return float(discrete_convolution_variance(cov, dt, n_steps).sum())


def convolution_weak_error_curve(cov: CovarianceSpec, t_fix: float,
                                 dt_list) -> list[tuple[float, float]]:
    """Analytic weak error of the squared-norm functional at a fixed time.

    For each dt (which must divide t_fix exactly) the entry is
    (dt, |discrete second moment at t_fix - exact second moment at t_fix|).
    No sampling is involved.
    """
    if t_fix <= 0:
        raise ConfigurationError(f"t_fix must be > 0, got {t_fix}")
    exact = convolution_second_moment_exact(cov, t_fix)
    curve = []
    for dt in dt_list:
        dt = float(dt)
        if dt <= 0:
            raise ConfigurationError(f"dt must be > 0, got {dt}")
        n = round(t_fix / dt)
        if n < 1 or abs(n * dt - t_fix) > 1e-12 * t_fix:
            raise ConfigurationError(
                f"dt={dt} does not divide t_fix={t_fix} into whole steps")
        curve.append((dt, abs(discrete_convolution_second_moment(cov, dt, n) - exact)))
    return curve


def _step_factors(c: float, cfg):
    """Per-mode propagation factor a and per-step noise variance w.

    Increment-mode noise is decayed together with the state, exact-mode
    noise is added after the decay with the stationary one-step variance;
    the factors below mirror integrators.Engine step for step.
    """
    lam = eigenvalues(cfg.cov.n_modes)
    decay = np.exp(-lam * cfg.dt)
    a = decay * (1.0 - c * cfg.dt)
    if cfg.noise_mode == "increment":
        w = decay * decay * cfg.cov.mode_weights * cfg.dt
    else:
        w = cfg.cov.mode_weights * (-np.expm1(-2.0 * lam * cfg.dt)) / (2.0 * lam)
    return a, w


def linear_scheme_law(c: float, cfg, n_steps: int) -> ModeGaussian:
    """Exact law of the untamed scheme with drift f(z) = -c z after n_steps.

    cfg is a scheme configuration (taming off, starting state cfg.x0).  The
    per-mode recursion mean <- a mean, var <- a^2 var + w has the closed
    form below; no simulation happens here.
    """
    if c < 0:
        raise ConfigurationError(f"linear coefficient must be >= 0, got {c}")
    if cfg.taming:
        raise ConfigurationError(
            "linear_scheme_law covers the untamed scheme only; the tamed "
            "update is not an affine map of Gaussians")
    if n_steps < 0:
        raise ConfigurationError(f"n_steps must be >= 0, got {n_steps}")

    a, w = _step_factors(c, cfg)
    x0 = cfg.x0.coeffs
    if x0.ndim != 1:
        raise ConfigurationError("linear_scheme_law needs an unbatched x0")
    mean = a ** n_steps * x0
    a2 = a * a
    # geometric sum of w a^{2k}, k = 0..n-1; a^2 = 1 exactly degenerates to n terms
    flat = a2 == 1.0
    var = np.where(flat, w * n_steps,
                   w * (1.0 - a2 ** n_steps) / np.where(flat, 1.0, 1.0 - a2))
    return ModeGaussian(mean=mean, variance=var)


def linear_stationary_variance(c: float, cfg) -> np.ndarray:
    """Fixed point of the scheme's per-mode variance recursion, when stable."""
    a, w = _step_factors(c, cfg)
    a2 = a * a
    if np.any(a2 >= 1.0):
        raise ConfigurationError(
            "variance recursion has no stable fixed point: |a| >= 1 in some mode")
    return w / (1.0 - a2)


def linear_invariant_variance(c: float, cov: CovarianceSpec) -> np.ndarray:
    """Per-mode invariant variance q / (2 (lambda + c)) of the continuous
    dynamics with drift f(z) = -c z."""
    if c < 0:
        raise ConfigurationError(f"linear coefficient must be >= 0, got {c}")
    return cov.mode_weights / (2.0 * (eigenvalues(cov.n_modes) + c))
