"""Sine spectral basis for the Dirichlet Laplacian on (0, 1).

The basis functions are e_n(x) = sqrt(2) sin(n pi x) with eigenvalues
lambda_n = (n pi)^2 for the operator d^2/dx^2 with zero boundary values.
A field is represented either by its first J sine coefficients
(:class:`SpectralField`) or by its values at the interior collocation nodes
x_k = k / (M + 1), k = 1..M (:class:`GridField`).

With the node weight 1/(M+1) the discrete sine family is exactly orthonormal
for modes up to M, so ``analyze(synthesize(a, M), J)`` returns ``a`` up to
roundoff whenever J <= M.  Transforms are dense matrix products; at the mode
counts used here (J <= 256) that is both fast and batch friendly, and nothing
in the interface depends on how the transform is evaluated.

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


def _check_coeff_array(a: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[0] < 1:
        raise ConfigurationError(
            f"{what} must have shape (n,) or (n, batch) with n >= 1, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ConfigurationError(f"{what} must be finite")
    return a


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A field given by sine coefficients, shape (J,) or (J, batch)."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _check_coeff_array(self.coeffs, "coeffs"))

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True, eq=False)
class GridField:
    """A field given by values at the interior collocation nodes."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _check_coeff_array(self.values, "values"))

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]


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
    x = collocation_nodes(n_nodes)
    values = amplitude * np.exp(-(((x - center) / width) ** 2))
    return analyze(GridField(values), n_modes)


def synthesize(field: SpectralField, n_nodes: int) -> GridField:
    """Evaluate a spectral field at n_nodes interior nodes (n_nodes >= J)."""
    j = field.n_modes
    if n_nodes < j:
        raise ConfigurationError(
            f"n_nodes={n_nodes} must be >= n_modes={j} to keep modes distinguishable")
    return GridField(sine_matrix(j, n_nodes) @ field.coeffs)


def analyze(grid: GridField, n_modes: int) -> SpectralField:
    """Project node values onto the first n_modes sine modes (n_modes <= M)."""
    m = grid.n_nodes
    if n_modes > m:
        raise ConfigurationError(
            f"n_modes={n_modes} must be <= n_nodes={m}")
    coeffs = (sine_matrix(n_modes, m).T @ grid.values) / (m + 1)
    return SpectralField(coeffs)


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


def apply_fractional(field: SpectralField, exponent: float) -> SpectralField:
    """Multiply each coefficient by lambda_n ** exponent, exponent in [-1, 1]."""
    if not -1.0 <= exponent <= 1.0:
        raise ConfigurationError(
            f"fractional exponent must be in [-1, 1], got {exponent}")
    factors = eigenvalues(field.n_modes) ** exponent
    if field.coeffs.ndim == 2:
        factors = factors[:, None]
    return SpectralField(factors * field.coeffs)


def l2_norm(field: SpectralField):
    """L2 norm on (0, 1) via Parseval; per-field array for batched input."""
    return np.sqrt((field.coeffs * field.coeffs).sum(axis=0))


def lp_norm(grid: GridField, p: float):
    """Node-quadrature Lp norm, ((1/(M+1)) sum |v_k|^p)^(1/p), p >= 1."""
    if p < 1:
        raise ConfigurationError(f"p must be >= 1, got {p}")
    weight = 1.0 / (grid.n_nodes + 1)
    return (weight * (np.abs(grid.values) ** p).sum(axis=0)) ** (1.0 / p)


def sup_norm(grid: GridField):
    """Max of |values| over the nodes; a lower bound for the true sup norm."""
    return np.abs(grid.values).max(axis=0)
