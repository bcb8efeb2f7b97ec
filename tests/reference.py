"""Reference versions of what the engine does in place, for tests only.

Each function here spells out one piece of the scheme the plain way, so a
test can hold the batched engine to it: the zero-drift step map, the
pseudo-spectral reaction lift and its taming norm, and the summation of
fine increments into coarse ones that couples the weak-order levels.
"""

import numpy as np

from tamedspde.errors import ConfigurationError, TrajectoryOverflow
from tamedspde.nonlinearity import Nonlinearity
from tamedspde.spectral import (GridField, SpectralField, analyze, lp_norm,
                                synthesize)


def step_discrete_convolution(state: np.ndarray, increment: np.ndarray,
                              decay_factors: np.ndarray) -> np.ndarray:
    """One step of Z <- exp(dt A)(Z + dW), the zero-drift scheme map.

    The sum happens before the decay multiply; every caller that needs to
    reproduce the scheme's noise handling bit for bit must use this grouping.
    """
    return decay_factors * (state + increment)


def _node_values(x: SpectralField, nl: Nonlinearity, n_nodes: int) -> np.ndarray:
    # overflow is detected by the isfinite check below, not by the warning
    with np.errstate(over="ignore", invalid="ignore"):
        fx = np.asarray(nl.f(synthesize(x, n_nodes).values), dtype=np.float64)
    if not np.all(np.isfinite(fx)):
        raise TrajectoryOverflow(
            f"{nl.name} produced non-finite node values")
    return fx


def apply_nemytskii(x: SpectralField, nl: Nonlinearity, n_nodes: int) -> SpectralField:
    """Coefficients of f(x(.)) truncated to x's mode count.

    Evaluation is pseudo-spectral: synthesize to n_nodes interior nodes,
    apply f pointwise, project back.  Non-finite values raise
    TrajectoryOverflow rather than propagating NaN.
    """
    return analyze(GridField(_node_values(x, nl, n_nodes)), x.n_modes)


def drift_norm(x: SpectralField, nl: Nonlinearity, n_nodes: int):
    """Node-quadrature L2 norm of f(x(.)), the taming denominator input."""
    return lp_norm(GridField(_node_values(x, nl, n_nodes)), 2.0)


def aggregate_fine_increments(increments: np.ndarray, n_coarse: int) -> np.ndarray:
    """Sum consecutive fine increments into n_coarse coarse increments.

    The step axis comes first.  This is the reference for the coupling of
    the weak-order levels, which the weak-order block streams bitwise.
    """
    n_fine = increments.shape[0]
    if n_coarse < 1 or n_fine % n_coarse != 0:
        raise ConfigurationError(
            f"cannot aggregate {n_fine} fine steps into {n_coarse} coarse steps")
    r = n_fine // n_coarse
    return increments.reshape((n_coarse, r) + increments.shape[1:]).sum(axis=1)
