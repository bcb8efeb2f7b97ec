"""Reference versions of what the engine does in place, for tests only.

Each function here spells out one piece of the scheme the plain way, so a
test can hold the batched engine to it: the counter-based words and
uniforms that rng.normal_matrix draws from, the zero-drift step map, the
pseudo-spectral reaction lift and its taming norm, the summation of fine
increments into coarse ones that couples the weak-order levels, the
per-mode statistics of a final state that the Gaussian laws are held to,
and the analytic weak-error curve of the discretized stochastic convolution.
"""

import math
from dataclasses import replace

import numpy as np

from tamedspde import rng
from tamedspde.errors import ConfigurationError, TrajectoryOverflow
from tamedspde.gaussian_oracle import linear_scheme_law
from tamedspde.integrators import SchemeConfig, whole_steps
from tamedspde.noise import CovarianceSpec
from tamedspde.nonlinearity import Nonlinearity, zero
from tamedspde.spectral import sine_matrix, zero_field


def words(seed: int, trajectories, step: int, n_slots: int) -> np.ndarray:
    """Raw uint64 words, shape (n_slots, len(trajectories)).

    ``words(seed, t, step, n)[k, i]`` depends only on
    (seed, t[i], step, k): it is the splitmix64 finalizer of the
    (seed, trajectory, step) key salted with slot k.
    """
    h = rng._keys(seed, trajectories, range(step, step + 1))[0]
    slots = (np.arange(n_slots, dtype=np.uint64) * rng._SLOT_SALT)[:, None]
    return rng._mix(h[None, :] ^ slots, np.empty((n_slots, h.size), np.uint64))


def uniforms(seed: int, trajectories, step: int, n_slots: int) -> np.ndarray:
    """Uniform draws on (0, 1], shape (n_slots, len(trajectories)): the top
    53 bits of each word, plus one, times 2^-53, each step exact."""
    w = words(seed, trajectories, step, n_slots)
    return ((w >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53


def mode_statistics(x: np.ndarray):
    """Per-mode (mean, its SE, variance, its SE) across the paths of the
    (J, B) states x, such as a PathBatch's final ones."""
    n_paths = x.shape[1]
    mean = x.mean(axis=1)
    sq = (x - mean[:, None]) ** 2
    var = sq.sum(axis=1) / (n_paths - 1)
    return (mean, np.sqrt(var / n_paths), var,
            sq.std(axis=1, ddof=1) / math.sqrt(n_paths))


def step_discrete_convolution(state: np.ndarray, increment: np.ndarray,
                              decay_factors: np.ndarray) -> np.ndarray:
    """One step of Z <- exp(dt A)(Z + dW), the zero-drift scheme map.

    The sum happens before the decay multiply; every caller that needs to
    reproduce the scheme's noise handling bit for bit must use this grouping.
    """
    return decay_factors * (state + increment)


def _node_values(x: np.ndarray, nl: Nonlinearity, n_nodes: int) -> np.ndarray:
    # overflow is detected by the isfinite check below, not by the warning
    with np.errstate(over="ignore", invalid="ignore"):
        fx = np.asarray(nl.f(sine_matrix(x.shape[0], n_nodes) @ x),
                        dtype=np.float64)
    if not np.all(np.isfinite(fx)):
        raise TrajectoryOverflow(
            f"{nl.name} produced non-finite node values")
    return fx


def apply_nemytskii(x: np.ndarray, nl: Nonlinearity, n_nodes: int) -> np.ndarray:
    """Coefficients of f(x(.)) truncated to x's mode count.

    Evaluation is pseudo-spectral, in the engine's form: synthesize to
    n_nodes interior nodes, apply f pointwise, project back with S.T times
    the node weight 1/(n_nodes + 1).  Non-finite values raise
    TrajectoryOverflow rather than propagating NaN.
    """
    fx = _node_values(x, nl, n_nodes)
    return (sine_matrix(x.shape[0], n_nodes).T @ fx) * (1.0 / (n_nodes + 1))


def drift_norm(x: np.ndarray, nl: Nonlinearity, n_nodes: int):
    """Node-quadrature L2 norm of f(x(.)), the taming denominator input,
    summed and then weighted as the engine does."""
    fx = _node_values(x, nl, n_nodes)
    return np.sqrt((fx * fx).sum(axis=0) * (1.0 / (n_nodes + 1)))


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


def convolution_weak_error_curve(cov: CovarianceSpec, t_fix: float,
                                 dt_list) -> list[tuple[float, float]]:
    """Analytic weak error of the squared-norm functional at a fixed time.

    From a zero start with zero drift, increment mode is the discrete
    stochastic convolution and exact mode is the continuous one sampled on
    the grid.  For each dt (a whole number of steps into t_fix) the entry is
    (dt, |E |X|^2 of the one law - E |X|^2 of the other| at t_fix).  No
    sampling is involved.
    """
    curve = []
    for dt in dt_list:
        dt = float(dt)
        cfg = SchemeConfig(n_modes=cov.n_modes, n_nodes=cov.n_modes, dt=dt,
                           n_steps=whole_steps(t_fix, dt), cov=cov, nl=zero(),
                           x0=zero_field(cov.n_modes), taming=False, dt_max=dt)
        moments = [linear_scheme_law(replace(cfg, noise_mode=mode)).l2_second_moment
                   for mode in ("increment", "exact")]
        curve.append((dt, abs(moments[0] - moments[1])))
    return curve
