"""Q-Wiener increments diagonal in the sine basis, and their regularity.

The covariance operator Q acts diagonally: Q e_j = q_j e_j with q_j >= 0.
Three constructors cover the supported families:

* ``white(n_modes)``       -- q_j = 1 for every mode (space-time white noise),
* ``power_decay(n_modes, decay)`` -- q_j = j ** (-decay), decay >= 0,
* ``explicit_covariance(weights)`` -- a caller-supplied weight list.

The smoothing classification (how much spatial regularity the stochastic
convolution gains, whether the top rate is attained, whether Q has finite
trace) is only defined for the two parametric families; an explicit list
carries no tail law, so :func:`classify_regularity` rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .spectral import eigenvalues


@dataclass(frozen=True, eq=False)
class CovarianceSpec:
    """Diagonal covariance: per-mode weights plus how they were built."""

    kind: str                 # "white", "power_decay", "explicit"
    mode_weights: np.ndarray  # shape (J,), nonnegative
    decay: float | None = None

    def __post_init__(self):
        w = np.asarray(self.mode_weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] < 1:
            raise ConfigurationError(
                f"mode_weights must be a 1-d array, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ConfigurationError("mode_weights must be finite and >= 0")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "mode_weights", w)

    @property
    def n_modes(self) -> int:
        return self.mode_weights.shape[0]


def white(n_modes: int) -> CovarianceSpec:
    """Space-time white noise truncated to n_modes."""
    return CovarianceSpec("white", np.ones(n_modes))


def power_decay(n_modes: int, decay: float) -> CovarianceSpec:
    """q_j = j ** (-decay); decay = 0 reproduces white weights."""
    if decay < 0:
        raise ConfigurationError(f"decay must be >= 0, got {decay}")
    j = np.arange(1, n_modes + 1, dtype=np.float64)
    return CovarianceSpec("power_decay", j ** (-decay), decay=float(decay))


def explicit_covariance(weights) -> CovarianceSpec:
    """Caller-supplied per-mode weights; no regularity classification."""
    return CovarianceSpec("explicit", np.asarray(weights, dtype=np.float64))


@dataclass(frozen=True)
class NoiseRegularity:
    """Smoothing classification of a covariance family.

    exponent     strongest spatial-smoothing order of the convolution,
                 capped at 1/2,
    attained     whether that order itself holds (False when only every
                 order strictly below it does),
    trace_class  whether sum q_j converges as n_modes grows.
    """

    exponent: float
    attained: bool
    trace_class: bool


def classify_regularity(spec: CovarianceSpec) -> NoiseRegularity:
    """Smoothing order of the stochastic convolution for a parametric family.

    For q_j = j ** (-decay) the convolution has spatial smoothing order
    min(1/2, (1 + decay) / 4): summability of lambda_j^(2r - 1) q_j needs
    4r < 1 + decay, and the cap at 1/2 reflects the parabolic limit.  The
    borderline case 4r = 1 + decay (decay <= 1) diverges logarithmically,
    so the cap value is attained only when decay > 1, which is also exactly
    when the weights are summable.
    """
    if spec.kind == "white":
        decay = 0.0
    elif spec.kind == "power_decay":
        decay = spec.decay
    else:
        raise ConfigurationError(
            "regularity classification needs a parametric covariance "
            "(white or power_decay), not an explicit weight list")
    exponent = min(0.5, (1.0 + decay) / 4.0)
    attained = decay > 1.0
    return NoiseRegularity(exponent=exponent, attained=attained,
                           trace_class=decay > 1.0)


def increment_scale(spec: CovarianceSpec, dt: float) -> np.ndarray:
    """Per-mode standard deviation sqrt(q_j dt) of a plain increment."""
    if dt <= 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    return np.sqrt(spec.mode_weights * dt)


def stationary_step_scale(spec: CovarianceSpec, dt: float) -> np.ndarray:
    """Per-mode std dev of the exact one-step convolution integral.

    Var of int_0^dt exp(-lambda (dt - s)) dW_j(s) is
    q_j (1 - exp(-2 lambda_j dt)) / (2 lambda_j).
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    lam = eigenvalues(spec.n_modes)
    return np.sqrt(spec.mode_weights * (-np.expm1(-2.0 * lam * dt)) / (2.0 * lam))

