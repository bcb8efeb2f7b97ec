"""Sine spectral basis for the Dirichlet Laplacian on (0, 1).

The basis functions are e_n(x) = sqrt(2) sin(n pi x) with eigenvalues
lambda_n = (n pi)^2 for the operator d^2/dx^2 with zero boundary values.
A field is represented by its first J sine coefficients
(:class:`SpectralField`); the reaction is evaluated at the interior
collocation nodes x_k = k / (M + 1), k = 1..M.

The one transform is S = ``sine_matrix(J, M)``: ``S @ a`` synthesizes node
values and ``S.T @ v`` times the node weight 1/(M+1) projects them back, the
pair ``Engine.basis`` and ``Engine.weight``.  With this weight the discrete
sine family is exactly orthonormal for modes up to M, so the pair returns
``a`` up to roundoff whenever J <= M; at J <= 256 dense products are fast.

Coefficient and value arrays may carry a trailing batch axis: shape (J,) is
one field, (J, B) is a batch of B fields sharing operations elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError


def eigenvalue(n: int) -> float:
    """Eigenvalue (n pi)^2 of the Dirichlet Laplacian, n >= 1."""
    if n < 1:
        raise ConfigurationError(f"mode index must be >= 1, got {n}")
    return (n * np.pi) ** 2


@lru_cache(maxsize=None)
def eigenvalues(n_modes: int) -> np.ndarray:
    """Array of the first ``n_modes`` eigenvalues, increasing."""
    if n_modes < 1:
        raise ConfigurationError(f"n_modes must be >= 1, got {n_modes}")
    n = np.arange(1, n_modes + 1, dtype=np.float64)
    out = (n * np.pi) ** 2
    out.setflags(write=False)
    return out


def collocation_nodes(n_nodes: int) -> np.ndarray:
    """Interior nodes k/(M+1), k = 1..M."""
    if n_nodes < 1:
        raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
    return np.arange(1, n_nodes + 1, dtype=np.float64) / (n_nodes + 1)


@lru_cache(maxsize=32)
def sine_matrix(n_modes: int, n_nodes: int) -> np.ndarray:
    """Synthesis matrix S with S[k, n] = sqrt(2) sin((n+1) pi x_{k+1}).

    Shape (n_nodes, n_modes).  ``S @ coeffs`` evaluates a field at the nodes;
    ``S.T @ values / (n_nodes + 1)`` projects node values onto the modes.
    """
    x = collocation_nodes(n_nodes)[:, None]
    n = np.arange(1, n_modes + 1, dtype=np.float64)[None, :]
    out = np.sqrt(2.0) * np.sin(np.pi * n * x)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A field given by sine coefficients, shape (J,) or (J, batch)."""

    coeffs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=np.float64)
        if a.ndim not in (1, 2) or a.shape[0] < 1:
            raise ConfigurationError(
                f"coeffs must have shape (n,) or (n, batch) with n >= 1, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ConfigurationError("coeffs must be finite")
        object.__setattr__(self, "coeffs", a)

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]


def zero_field(n_modes: int) -> SpectralField:
    return SpectralField(np.zeros(n_modes))


def unit_mode(n_modes: int, mode: int, amplitude: float = 1.0) -> SpectralField:
    """amplitude * e_mode truncated to n_modes coefficients."""
    if not 1 <= mode <= n_modes:
        raise ConfigurationError(f"mode must be in 1..{n_modes}, got {mode}")
    coeffs = np.zeros(n_modes)
    coeffs[mode - 1] = amplitude
    return SpectralField(coeffs)


def multi_mode(n_modes: int, amplitude: float = 1.0, rate: float = 2.0) -> SpectralField:
    """Alternating profile amplitude * (-1)^(n+1) * n^(-rate) over all modes.

    rate > 1 keeps the coefficients absolutely summable, hence the profile
    bounded; slower decay is rejected.
    """
    if rate <= 1:
        raise ConfigurationError(f"rate must be > 1 for a bounded profile, got {rate}")
    n = np.arange(1, n_modes + 1, dtype=np.float64)
    return SpectralField(amplitude * (-1.0) ** (n + 1) * n ** (-rate))


def bump_profile(n_modes: int, n_nodes: int, center: float = 0.5,
                 width: float = 0.1, amplitude: float = 1.0) -> SpectralField:
    """Gaussian bump exp(-((x - center)/width)^2), projected onto n_modes."""
    if not 0.0 < center < 1.0:
        raise ConfigurationError(f"center must be in (0, 1), got {center}")
    if width <= 0:
        raise ConfigurationError(f"width must be > 0, got {width}")
    if n_modes > n_nodes:
        raise ConfigurationError(
            f"n_modes={n_modes} must be <= n_nodes={n_nodes}")
    x = collocation_nodes(n_nodes)
    values = amplitude * np.exp(-(((x - center) / width) ** 2))
    return SpectralField((sine_matrix(n_modes, n_nodes).T @ values)
                         / (n_nodes + 1))


def semigroup_factors(n_modes: int, t: float) -> np.ndarray:
    """Per-mode heat semigroup factors exp(-lambda_n t), t >= 0."""
    if t < 0:
        raise ConfigurationError(f"semigroup time must be >= 0, got {t}")
    return np.exp(-eigenvalues(n_modes) * t)


def phi1_factors(n_modes: int, dt: float) -> np.ndarray:
    """Per-mode factors (1 - exp(-lambda_n dt)) / lambda_n.

    Uses expm1 so the small lambda*dt regime loses no precision; the factor
    is bounded by min(dt, 1/lambda_n).
    """
    if dt < 0:
        raise ConfigurationError(f"dt must be >= 0, got {dt}")
    lam = eigenvalues(n_modes)
    return -np.expm1(-lam * dt) / lam

