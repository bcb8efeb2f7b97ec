"""Time-stepping engines for the semilinear heat equation with additive noise.

Two explicit one-step maps share all their plumbing:

* tamed:    X_{n+1} = e^{dt A} X_n + P1 F(X_n) / (1 + dt ||F(X_n)||) + noise
* untamed:  X_{n+1} = e^{dt A} (X_n + dt F(X_n)) + noise

where A is the Dirichlet Laplacian, P1 is the per-mode factor
(1 - e^{-lambda dt}) / lambda, F is the pointwise reaction lift evaluated
pseudo-spectrally, and the taming denominator uses the node-quadrature L2
norm of f(X_n).  The untamed map is the baseline that loses moment bounds
for superlinear f; its blow-up is an expected, recorded outcome.  The tamed
drift contribution has L2 norm at most dt ||F|| / (1 + dt ||F||) < 1 at
every step; :class:`PathBatch` checks that bound after every tamed step and
raises :class:`TamingBoundViolation` if it ever fails.

Noise enters in one of two modes.  "increment" applies the semigroup to a
plain Q-Wiener increment, so the zero-drift scheme is exactly
decay * (X + dW); the grouping (sum first, then decay) is part of the
contract, because reproducing those paths bit for bit is how the zero-drift
reduction is checked.  "exact" adds the one-step stochastic convolution
integral after the decay, sampled with its exact variance; it removes the
noise-discretization bias from invariant-law experiments.

States are coefficient arrays of shape (J,) or (J, B); every operation here
is batch-transparent.  :func:`evolve`, the one stepping loop and noise site,
steps a :class:`PathBatch` per configuration.  Randomness is addressed, never
streamed: trajectory b at step n always sees the same Gaussians regardless
of batch, process or thread layout, so :func:`evolve` draws the next step's
normals on a helper thread while the current step runs.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .errors import ConfigurationError, TamingBoundViolation, TrajectoryOverflow
from .noise import CovarianceSpec, increment_scale, stationary_step_scale
from .nonlinearity import Nonlinearity
from .spectral import (SpectralField, phi1_factors, semigroup_factors,
                       sine_matrix)

_NOISE_MODES = ("increment", "exact")

# the node-side work of a step runs over row tiles of about this many bytes
# of the workspace, which stay in cache between the reaction and its square
_TILE_BYTES = 1 << 17

# evolve's helper thread draws at least this many normals per call, in the
# fewest whole steps that hold them: short numpy calls on two threads trade
# the GIL at every call instead of overlapping
_CHUNK_NORMALS = 1 << 16


@dataclass(frozen=True, eq=False)
class SchemeConfig:
    """Everything one trajectory needs: model, grid, step count, seed.

    dt must lie in (0, dt_max]; the cap is part of the configuration so a
    run can declare the step-size regime its claims are valid in.
    """

    n_modes: int
    n_nodes: int
    dt: float
    n_steps: int
    cov: CovarianceSpec
    nl: Nonlinearity
    x0: SpectralField
    seed: int = 0
    taming: bool = True
    dt_max: float = 0.5
    noise_mode: str = "increment"

    def __post_init__(self):
        if self.n_modes < 1:
            raise ConfigurationError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.n_nodes < self.n_modes:
            raise ConfigurationError(
                f"n_nodes={self.n_nodes} must be >= n_modes={self.n_modes}")
        if self.dt_max <= 0:
            raise ConfigurationError(f"dt_max must be > 0, got {self.dt_max}")
        if not 0 < self.dt <= self.dt_max:
            raise ConfigurationError(
                f"dt={self.dt} must be in (0, dt_max={self.dt_max}]")
        if self.n_steps < 0:
            raise ConfigurationError(f"n_steps must be >= 0, got {self.n_steps}")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigurationError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.noise_mode not in _NOISE_MODES:
            raise ConfigurationError(
                f"noise_mode must be one of {_NOISE_MODES}, got {self.noise_mode!r}")
        if self.cov.n_modes != self.n_modes:
            raise ConfigurationError(
                f"covariance has {self.cov.n_modes} modes but n_modes={self.n_modes}")
        if self.x0.n_modes != self.n_modes:
            raise ConfigurationError(
                f"x0 has {self.x0.n_modes} modes but n_modes={self.n_modes}")

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt


def whole_steps(length: float, dt: float) -> int:
    """The step count n >= 1 with |n dt - length| <= 1e-9 length.

    A horizon, level or checkpoint must be a whole number of steps of dt;
    any other length or dt, non-finite or nonpositive ones included, is a
    ConfigurationError.
    """
    ratio = length / dt if length > 0 and dt > 0 else math.nan
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(n * dt - length) > 1e-9 * length:
        raise ConfigurationError(
            f"dt={dt} does not divide {length} into whole steps")
    return n


def _col(factors: np.ndarray, x: np.ndarray) -> np.ndarray:
    return factors if x.ndim == 1 else factors[:, None]


class Engine:
    """Precomputed one-step map for a fixed configuration.

    step() refreshes ``last_drift_l2`` with the per-path L2 norm of the
    tamed drift contribution, whose bound :class:`PathBatch` checks, and
    writes its intermediates into a workspace shared by all engines; the
    states it returns are new arrays.
    """

    # step()'s buffers for the last (n_nodes, state shape) of each thread,
    # as _work.key and _work.buffers, shared by all engines; a step writes
    # each before reading it and returns none of them
    _work = threading.local()

    def __init__(self, cfg: SchemeConfig):
        self.cfg = cfg
        self.dt = cfg.dt
        self.taming = cfg.taming
        self.noise_mode = cfg.noise_mode
        self.decay = semigroup_factors(cfg.n_modes, cfg.dt)
        self.gain = phi1_factors(cfg.n_modes, cfg.dt)
        self.basis = sine_matrix(cfg.n_modes, cfg.n_nodes)
        self.weight = 1.0 / (cfg.n_nodes + 1)
        scale = (increment_scale if cfg.noise_mode == "increment"
                 else stationary_step_scale)
        self.noise_scale = scale(cfg.cov, cfg.dt)
        self.f = cfg.nl.f
        # The zero reaction bypasses the transform entirely, which makes the
        # reduction to the pure noise recursion an identity, not a tolerance.
        self.zero_drift = cfg.nl.name == "zero"
        self.last_drift_l2 = 0.0

    def noise_from_gaussians(self, g: np.ndarray) -> np.ndarray:
        """Scale standard normals into this engine's noise term."""
        return _col(self.noise_scale, g) * g

    def step(self, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """One update of shape (J,) or (J, B) states, as a new array.

        It checks nothing: the result may be non-finite, and under taming
        ``last_drift_l2`` holds the per-path drift contribution whose
        bound the caller verifies.  :class:`PathBatch` does both checks.
        """
        decay = _col(self.decay, x)
        if self.zero_drift:
            self.last_drift_l2 = 0.0
            if self.noise_mode == "increment":
                return decay * (x + noise)
            return decay * x + noise

        # the module docstring's expressions, each operation in its order
        key, work = (self.basis.shape[0],) + x.shape, Engine._work
        if getattr(work, "key", None) != key:
            work.buffers = (np.empty((2, key[0]) + x.shape[1:]),
                            np.empty(x.shape))
            work.key = key
        (z, fx), coeffs = work.buffers
        inc = self.noise_mode == "increment"
        rows = max(1, _TILE_BYTES // fx[0].nbytes)  # node rows per tile
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(self.basis, x, out=z)
            # elementwise, so tiling leaves every bit as on the whole array;
            # z holds fx * fx afterwards, summed whole below
            for lo in range(0, len(z), rows):
                zt, ft = z[lo:lo + rows], fx[lo:lo + rows]
                self.f(zt, out=ft)
                if self.taming:
                    np.multiply(ft, ft, out=zt)
            coeffs = np.matmul(self.basis.T, fx, out=coeffs)
            coeffs *= self.weight
            if self.taming:
                norm = np.sqrt(z.sum(axis=0) * self.weight)
                drift = np.multiply(_col(self.gain, x), coeffs, out=coeffs)
                drift /= 1.0 + self.dt * norm
                # decay * (x + noise) + drift, or decay * x + drift + noise
                new = np.add(x, noise) if inc else x.copy()
                new *= decay
                new += drift
                drift *= drift
                self.last_drift_l2 = np.sqrt(drift.sum(axis=0))
            else:
                # decay * (x + dt coeffs + noise), or ... + noise after decay
                new = np.add(x, np.multiply(coeffs, self.dt, out=coeffs))
                if inc:
                    new += noise
                new *= decay
            if not inc:
                new += noise
        return new


class PathBatch:
    """Trajectories traj (global indices, uint64) of one configuration,
    stepped in lockstep from cfg.x0: ``x`` is their (J, B) state, ``n`` its
    index and ``blowup`` each path's first non-finite one."""

    def __init__(self, cfg: SchemeConfig, traj: np.ndarray,
                 allow_blowup: bool = False):
        if cfg.x0.coeffs.shape != (cfg.n_modes,):
            raise ConfigurationError(
                f"initial states must be unbatched arrays of shape "
                f"({cfg.n_modes},), got {cfg.x0.coeffs.shape}")
        self.cfg, self.traj, self.allow_blowup = cfg, traj, allow_blowup
        self.engine = Engine(cfg)
        self.x = np.repeat(cfg.x0.coeffs[:, None], len(traj), axis=1)
        self.blowup = np.full(len(traj), -1, dtype=np.int64)
        self.n = 0

    def advance(self, noise: np.ndarray) -> None:
        """Step the state on the (J, B) noise term.  A tamed drift
        contribution of 1 or more raises TamingBoundViolation.  A non-finite
        state raises TrajectoryOverflow, unless allow_blowup is set: then the
        path freezes, and once all are frozen none is stepped any more."""
        cfg, engine, traj, n = self.cfg, self.engine, self.traj, self.n
        self.n += 1
        if (self.blowup >= 0).all():
            return
        new = engine.step(self.x, noise)
        if engine.taming and np.any(engine.last_drift_l2 >= 1.0):
            bad = int(traj[int(np.argmax(engine.last_drift_l2 >= 1.0))])
            raise TamingBoundViolation(
                f"tamed drift contribution of trajectory {bad} reached 1 "
                f"at state {n + 1}", step=n + 1, trajectory=bad)
        finite = np.isfinite(new).all(axis=0)
        if not finite.all():
            if not self.allow_blowup:
                bad = int(traj[int(np.argmin(finite))])
                raise TrajectoryOverflow(
                    f"trajectory {bad} left the finite range at state "
                    f"{n + 1} (dt={cfg.dt:g})", step=n + 1, trajectory=bad)
            self.blowup[(~finite) & (self.blowup < 0)] = n + 1
            dead = self.blowup >= 0
            new[:, dead] = self.x[:, dead]
        self.x = new


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    or None where no such library is found.  Looked up on first use."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# _one_blas_thread's nesting depth and the count it restores on last exit
_blas_lock = threading.Lock()
_blas_pin = {"depth": 0, "before": None}


@contextlib.contextmanager
def _one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread inside the block and
    restore its count after; do nothing where that library is not found.
    Blocks may overlap, on any threads: the first entry sets one thread and
    the last exit restores the count the first one found."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _blas_lock:
        if _blas_pin["depth"] == 0:
            _blas_pin["before"] = get()
            set_(1)
        _blas_pin["depth"] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pin["depth"] -= 1
            if _blas_pin["depth"] == 0:
                set_(_blas_pin["before"])


def evolve(cfgs, traj: np.ndarray, on_state=None, allow_blowup: bool = False):
    """Step one :class:`PathBatch` per configuration on one stream of
    addressed noise, and return the batches.

    The normals of fine step j are drawn once and scaled for the last,
    finest configuration.  One at the finest step takes that noise array
    itself, so its bytes are those of its solo run; one with r times fewer
    steps advances every r fine steps on the in-order sum of their noise,
    started from +0.0.  In exact mode the sum is multiplied by the fine
    decay before each addition, which makes it the coarse step's stochastic
    convolution, with the coarse law (Jentzen and Kloeden, Proc. R. Soc. A
    465, 2009).  A coupled pair is two configurations that differ only in
    x0, stepped as two (J, B) states, not one (J, 2B) batch: a BLAS gemm
    column can differ bitwise with the batch width (seen with OpenBLAS at
    J = 16 and 64), which would tie the pair's bytes to its layout.
    on_state(n, batches) fires for the initial states and after every fine
    step; once every path of every batch is frozen, nothing is drawn or
    stepped.

    One helper thread draws the normals ahead, K steps per call
    (rng.normal_matrix over a range): while the main thread runs the steps
    of one chunk, the helper draws the next.  K is the fewest steps that
    hold 2^16 normals, capped at the steps left: 4 at 16 modes and 1024
    paths, 1 at 64 modes.  Every numpy call releases and retakes the GIL,
    and at (16, 1024) a draw or a step is 25-40 calls of 10-30 us, so drawn
    one step per call the two threads mostly trade the GIL (1.33 ms per
    draw-and-step pair against 1.44 ms serially, on a 2-core Xeon VM);
    K times longer calls overlap.  Under allow_blowup the main thread
    draws each step itself, as a step may freeze the last live path, after
    which nothing may be drawn.  For the length of the call numpy's bundled
    OpenBLAS, when found, runs on one thread, so the helper has the other
    core; the previous count is restored on return or raise, once the last
    of any overlapping calls ends.  Calls on several threads at once share
    no buffer.
    """
    fine = cfgs[-1]
    ratios = [fine.n_steps // cfg.n_steps if cfg.n_steps else 1
              for cfg in cfgs]
    for cfg, r in zip(cfgs, ratios):
        if (r * cfg.n_steps != fine.n_steps
                or (cfg.seed, cfg.n_modes, cfg.noise_mode)
                != (fine.seed, fine.n_modes, fine.noise_mode)
                or not np.array_equal(cfg.cov.mode_weights,
                                      fine.cov.mode_weights)):
            raise ConfigurationError(
                f"{cfg.n_steps} steps cannot share the noise of "
                f"{fine.n_steps} steps: the step counts must nest, and seed, "
                "n_modes, covariance and noise_mode agree")
    batches = [PathBatch(cfg, traj, allow_blowup) for cfg in cfgs]
    sums = [np.empty((fine.n_modes, len(traj))) if r > 1 else None
            for r in ratios]
    fine_decay = (batches[-1].engine.decay[:, None]
                  if fine.noise_mode == "exact" else None)

    per_call = -(-_CHUNK_NORMALS // max(1, fine.n_modes * len(traj)))

    def draw(lo):  # rng.normal_matrix is looked up at each call
        steps = range(lo, min(lo + per_call, fine.n_steps))
        return rng.normal_matrix(fine.seed, traj, steps, fine.n_modes)

    with (_one_blas_thread(),
          concurrent.futures.ThreadPoolExecutor(max_workers=1) as helper):
        if on_state is not None:
            on_state(0, batches)
        # the helper draws every step, step 0 included, so the main thread
        # builds no rng workspace of its own
        ahead = (helper.submit(draw, 0)
                 if fine.n_steps and not allow_blowup else None)
        for j in range(fine.n_steps):
            if any((paths.blowup < 0).any() for paths in batches):
                if allow_blowup:
                    g = rng.normal_matrix(fine.seed, traj, j, fine.n_modes)
                else:
                    if j % per_call == 0:
                        chunk = ahead.result()
                        ahead = (helper.submit(draw, j + per_call)
                                 if j + per_call < fine.n_steps else None)
                    g = chunk[j % per_call]
                noise = batches[-1].engine.noise_from_gaussians(g)
                for paths, r, acc in zip(batches, ratios, sums):
                    if r == 1:
                        acc = noise
                    elif j % r == 0:  # numpy's sum starts from +0.0, not a copy
                        np.add(noise, 0.0, out=acc)
                    else:
                        if fine_decay is not None:
                            acc *= fine_decay
                        acc += noise
                    if j % r == r - 1:
                        paths.advance(acc)
            if on_state is not None:
                on_state(j + 1, batches)
    return batches
