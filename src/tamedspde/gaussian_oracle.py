"""Closed-form laws for the zero- and linear-drift cases.

Everything the scheme does to a linear model is an affine map of Gaussians,
so means and variances obey scalar per-mode recursions with closed-form
geometric sums.  These values are sampling-free: they are the ground truth
that Monte Carlo output gets compared against.

All formulas use expm1 where cancellation threatens, and none of them draw
random numbers; repeated calls are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .noise import CovarianceSpec
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


def _step_factors(cfg):
    """Per-mode propagation factor a and per-step noise variance w.

    The drift must be f(z) = -c z: c is 0 for the zero reaction and
    -sup f' for the linear one.  Increment-mode noise is decayed together
    with the state, exact-mode noise is added after the decay with the
    stationary one-step variance; the factors below mirror
    integrators.Engine step for step.
    """
    if cfg.nl.name not in ("zero", "linear"):
        raise ConfigurationError(
            f"the closed-form law needs a zero or linear reaction, "
            f"got {cfg.nl.name!r}")
    c = -cfg.nl.sup_fprime
    lam = eigenvalues(cfg.cov.n_modes)
    decay = np.exp(-lam * cfg.dt)
    a = decay * (1.0 - c * cfg.dt)
    if cfg.noise_mode == "increment":
        w = decay * decay * cfg.cov.mode_weights * cfg.dt
    else:
        w = cfg.cov.mode_weights * (-np.expm1(-2.0 * lam * cfg.dt)) / (2.0 * lam)
    return a, w


def linear_scheme_law(cfg) -> ModeGaussian:
    """Exact law of the untamed scheme after cfg.n_steps steps from cfg.x0.

    cfg's reaction must be zero or linear, f(z) = -c z.  The per-mode
    recursion mean <- a mean, var <- a^2 var + w has the closed form below;
    no simulation happens here.
    """
    if cfg.taming:
        raise ConfigurationError(
            "linear_scheme_law covers the untamed scheme only; the tamed "
            "update is not an affine map of Gaussians")
    a, w = _step_factors(cfg)
    n = cfg.n_steps
    mean = a ** n * cfg.x0
    a2 = a * a
    # geometric sum of w a^{2k}, k = 0..n-1; a^2 = 1 exactly degenerates to n terms
    flat = a2 == 1.0
    var = np.where(flat, w * n,
                   w * (1.0 - a2 ** n) / np.where(flat, 1.0, 1.0 - a2))
    return ModeGaussian(mean=mean, variance=var)


def linear_stationary_variance(cfg) -> np.ndarray:
    """Fixed point of the scheme's per-mode variance recursion, when stable."""
    a, w = _step_factors(cfg)
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
