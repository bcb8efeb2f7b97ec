"""Monte Carlo experiment drivers: moments, weak order, ergodicity, cost.

The studies here turn batches of simulated paths into the quantities the
experiments report: norm moments along checkpoints, weak-error rate fits
against a common-random-number reference, ensemble and time averages of an
invariant law, synchronous-coupling contraction rates, and the step-count
schedule traded off against accuracy.

Paths are processed in fixed blocks of ``_PATH_BLOCK`` trajectories, and a
block whose path count is a multiple of 8 in two parts of 8-aligned width,
each cut again into parts of at most ``_PART_VALUES`` state values.  The
parts run on lanes, the calling process and forked children, at least
two of them even with ``workers: 1``.  The partition depends only on the
number of paths and the number of modes, every trajectory's noise is
addressed by its global index, an aligned part computes each path bitwise
as the whole block does, and partial results are joined in part order, so
neither the number of lanes nor the split has an effect on any output
byte.  A child inherits the block function through the fork; only part
results and errors are pickled back.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import ConfigurationError, TamingBoundViolation
from .integrators import SchemeConfig, evolve, whole_steps

_PATH_BLOCK = 1024

# an aligned part holds at most this many state values (paths times modes),
# so a lane's memory stays that of 512 paths at 32 modes as J grows
_PART_VALUES = 1 << 14


# ---------------------------------------------------------------------------
# result containers

@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo mean with its standard error."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigurationError(
                f"n_samples must be >= 1, got {self.n_samples}")
        if self.std_error < 0:
            raise ConfigurationError(
                f"std_error must be >= 0, got {self.std_error}")

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "MCEstimate":
        """Mean and std/sqrt(n); a single sample carries zero spread."""
        values = np.asarray(values, dtype=np.float64)
        n = values.size
        if n < 1:
            raise ConfigurationError("cannot estimate from zero samples")
        se = float(values.std(ddof=1) / math.sqrt(n)) if n >= 2 else 0.0
        return cls(value=float(values.mean()), std_error=se, n_samples=n)


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log error against log dt."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple  # ((log dt, log error), ...)


def fit_rate(dt_values, errors) -> RateFit:
    """Fit error ~ C * dt^slope through at least three positive points."""
    dt_values = np.asarray(dt_values, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if dt_values.shape != errors.shape or dt_values.ndim != 1:
        raise ConfigurationError("dt_values and errors must be matching 1-d arrays")
    if dt_values.size < 3:
        raise ConfigurationError(
            f"rate fit needs >= 3 points, got {dt_values.size}")
    if np.unique(dt_values).size != dt_values.size:
        raise ConfigurationError("dt values must be distinct for a rate fit")
    if np.any(dt_values <= 0) or np.any(errors <= 0):
        raise ConfigurationError("rate fit needs positive dt and error values")
    x = np.log(dt_values)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid ** 2).sum()) / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r2, points=tuple(zip(x.tolist(), y.tolist())))


@dataclass(frozen=True, eq=False)
class TestFunctional:
    """A scalar statistic of the state, tagged with its smoothness status.

    evaluate acts on coefficient arrays of shape (J,) or (J, B) and returns
    a scalar or (B,).  smooth means twice differentiable with bounded first
    and second derivatives, the hypothesis the weak-rate guarantee needs.
    """

    name: str
    evaluate: callable
    smooth: bool


def _phi_exp_neg_l2sq(x):
    return np.exp(-(x * x).sum(axis=0))


def _phi_tanh_mode1(x):
    return np.tanh(x[0])


def _phi_l2sq(x):
    return (x * x).sum(axis=0)


EXP_NEG_L2SQ = TestFunctional(
    name="exp_neg_l2sq", evaluate=_phi_exp_neg_l2sq, smooth=True)
BOUNDED_MODE1 = TestFunctional(
    name="bounded_mode1", evaluate=_phi_tanh_mode1, smooth=True)
# derivative unbounded, kept for its exact oracles
L2_SQUARED = TestFunctional(
    name="l2_squared", evaluate=_phi_l2sq, smooth=False)

FUNCTIONALS = {f.name: f for f in (EXP_NEG_L2SQ, BOUNDED_MODE1, L2_SQUARED)}


def _warn_if_rough(functional: TestFunctional) -> None:
    if not functional.smooth:
        warnings.warn(
            f"functional {functional.name!r} has no certified bounded first "
            "and second derivatives; the weak-rate guarantee does not cover it",
            stacklevel=3)


# ---------------------------------------------------------------------------
# block-parallel path engine

def _map_blocks(block_fn, n_paths: int, n_modes: int, workers: int) -> tuple:
    """Apply block_fn(start, count) over the fixed partition into parts.

    Paths go in blocks of _PATH_BLOCK, and a block of c >= 16 paths, c a
    multiple of 8, in two parts: 8 floor(c / 16) paths and the rest.  Each
    is cut again, in order, into parts of w = 8 floor(_PART_VALUES /
    (8 n_modes)) paths (at least 8) and a shorter rest: 512 + 512 paths for
    a block of 1024 at n_modes <= 32, four parts of 256 at 64 modes.  All
    widths are then multiples of 8, the width of numpy's float64 SIMD loops
    under AVX-512, so no part runs a remainder loop and each path is
    computed bitwise as in the whole block; an unaligned split was seen to
    change bits, so none is made.  The partition depends only on n_paths
    and n_modes.  The parts run on min(max(2, workers), parts) lanes (see
    _lanes), so workers 1 uses two processes too, and a run of one part
    forks nothing.  block_fn returns a tuple of arrays whose last axis runs
    over the part's paths, each joined along it in part order.  A block
    whose parts fail raises what the whole block would (see _failure_rank).
    """
    if n_paths < 1:
        raise ConfigurationError(f"n_paths must be >= 1, got {n_paths}")
    w = 8 * max(1, _PART_VALUES // (8 * n_modes))
    blocks = []  # the (start, count) parts of each block
    for s in range(0, n_paths, _PATH_BLOCK):
        c = min(_PATH_BLOCK, n_paths - s)
        if c % 8:
            blocks.append([(s, c)])
            continue
        h = 8 * (c // 16)
        blocks.append([(a + i, min(w, n - i))
                       for a, n in ((s, h), (s + h, c - h))
                       for i in range(0, n, w)])
    parts = [part for block in blocks for part in block]
    run, close = _lanes(block_fn, parts, min(max(2, workers), len(parts)))
    joined, k = [], 0
    try:
        for block in blocks:
            failed = []
            for _ in block:
                try:
                    joined.append(run(k))
                except Exception as exc:  # raised below, once per block
                    failed.append(exc)
                k += 1
            if failed:
                raise min(failed, key=_failure_rank)
    finally:
        close()
    return tuple(np.concatenate(arrays, axis=-1) for arrays in zip(*joined))


def _lanes(block_fn, parts, n):
    """run(k), the result of part k, and close(), with part k on lane
    k mod n.  Lane 0 is the calling process, which runs its parts inside
    run; every other lane is a forked child that runs its parts in order,
    writes each one's pickled (result, exception) to a pipe and exits.
    close kills and reaps every child.  If a child dies, run raises a
    BrokenProcessPool naming the part's trajectories."""
    children = []  # (pid, pipe) of lanes 1 .. n - 1

    def close():
        import signal  # here, so import pays no enum set-up for it
        for pid, pipe in children:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            pipe.close()

    try:
        for lane in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child leaves only through os._exit
                try:
                    with open(w, "wb") as pipe:
                        for part in parts[lane::n]:
                            try:
                                msg = pickle.dumps((block_fn(*part), None))
                            except BaseException as exc:
                                msg = pickle.dumps((None, exc))
                            pipe.write(msg)
                            pipe.flush()
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb")))
    except BaseException:
        close()
        raise

    def run(k):
        if k % n == 0:
            return block_fn(*parts[k])
        try:
            value, exc = pickle.load(children[k % n - 1][1])
        except (EOFError, pickle.UnpicklingError) as lost:
            # imported here, so a run whose lanes all finish does not load
            # concurrent.futures
            from concurrent.futures.process import BrokenProcessPool
            s, c = parts[k]
            raise BrokenProcessPool(
                f"a worker process died before trajectories {s} to "
                f"{s + c - 1} were done") from lost
        if exc is not None:
            raise exc
        return value
    return run, close


def _failure_rank(exc):
    """Where the whole block meets exc: an error evolve did not place first
    (min keeps the first of those), then evolve's (fine step,
    configuration), a taming violation before an overflow, and the lowest
    trajectory."""
    if not hasattr(exc, "order"):
        return (0,)
    return (1, exc.order, not isinstance(exc, TamingBoundViolation),
            exc.trajectory)


def _traj(start: int, count: int) -> np.ndarray:
    """Global trajectory indices of one block."""
    return np.arange(start, start + count, dtype=np.uint64)


def _state_norm(norm: str, x, engine) -> np.ndarray:
    """Per-path "l2" (Parseval) or "sup" (max over collocation nodes) norm."""
    # frozen exploded paths overflow here; callers discard those values
    with np.errstate(over="ignore"):
        if norm == "l2":
            return np.sqrt((x * x).sum(axis=0))
        return np.abs(engine.basis @ x).max(axis=0)


# ---------------------------------------------------------------------------
# moment growth

@dataclass(frozen=True, eq=False)
class MomentStudy:
    """Norm moments along checkpoints, or the blow-up tally if paths died.

    estimates[k] approximates (E |X|^power)^(1/power) at checkpoints[k];
    it is None whenever blowup_fraction > 0, because a frozen exploded path
    has no meaningful norm to average.
    """

    blowup_fraction: float
    estimates: tuple | None


def _norm_block(start, count, *, cfg, steps, norms):
    # one (len(steps), count) array per norm, row k at state steps[k], and
    # each path's blow-up state
    rows = {}
    for row, s in enumerate(steps):
        rows.setdefault(s, []).append(row)
    out = np.empty((len(norms), len(steps), count))

    def on_state(idx, batches):
        if idx in rows:
            paths, = batches
            for k, norm in enumerate(norms):
                out[k, rows[idx]] = _state_norm(norm, paths.x, paths.engine)

    paths, = evolve([cfg], _traj(start, count), on_state=on_state,
                    allow_blowup=not cfg.taming)
    return (*out, paths.blowup)


def estimate_moment(cfg: SchemeConfig, power: int, norm: str, checkpoints,
                    n_paths: int, workers: int = 1) -> MomentStudy:
    """Monte Carlo (E |X|^power)^(1/power) at each checkpoint time.

    norm is "l2" (coefficient Parseval norm) or "sup" (max over collocation
    nodes).  Tamed runs treat any blow-up as a hard failure; untamed runs
    report the blow-up fraction and suppress the moment estimates.
    """
    if power < 1:
        raise ConfigurationError(f"power must be >= 1, got {power}")
    if norm not in ("l2", "sup"):
        raise ConfigurationError(f"norm must be 'l2' or 'sup', got {norm!r}")
    steps = [0 if t == 0 else whole_steps(t, cfg.dt) for t in checkpoints]
    if any(s > cfg.n_steps for s in steps):
        raise ConfigurationError(
            f"checkpoints {list(checkpoints)} go past the horizon "
            f"{cfg.horizon} (n_steps={cfg.n_steps} of dt={cfg.dt})")
    values, blowup = _map_blocks(
        partial(_norm_block, cfg=cfg, steps=steps, norms=(norm,)),
        n_paths, cfg.n_modes, workers)
    frac = float((blowup >= 0).mean())
    if frac > 0.0:
        return MomentStudy(blowup_fraction=frac, estimates=None)
    estimates = []
    for row in values ** power:
        raw = MCEstimate.from_samples(row)
        # delta method for the power-th root of the mean
        root = raw.value ** (1.0 / power)
        se = 0.0 if raw.value == 0.0 else \
            raw.std_error * root / (power * raw.value)
        estimates.append(MCEstimate(value=root, std_error=se,
                                    n_samples=raw.n_samples))
    return MomentStudy(blowup_fraction=0.0, estimates=tuple(estimates))


# ---------------------------------------------------------------------------
# per-path norm records

@dataclass(frozen=True, eq=False)
class PathNorms:
    """L2 and sup norms of every state of every path.

    l2[n, i] and sup[n, i] belong to state n of path i, at times[n].
    blowup_steps[i] is the index of path i's first non-finite state, or -1
    if it has none; from that index on its rows repeat the last finite
    state.
    """

    times: np.ndarray
    l2: np.ndarray
    sup: np.ndarray
    blowup_steps: np.ndarray


def path_norms(cfg: SchemeConfig, n_paths: int,
               workers: int = 1) -> PathNorms:
    """Per-state norms of trajectories 0..n_paths-1.

    Tamed runs treat any blow-up as a hard failure; untamed runs record
    each path's blow-up step.
    """
    l2, sup, blowup = _map_blocks(
        partial(_norm_block, cfg=cfg, steps=range(cfg.n_steps + 1),
                norms=("l2", "sup")), n_paths, cfg.n_modes, workers)
    return PathNorms(times=cfg.dt * np.arange(cfg.n_steps + 1), l2=l2,
                     sup=sup, blowup_steps=blowup)


# ---------------------------------------------------------------------------
# weak order by common-random-number self-convergence

@dataclass(frozen=True)
class WeakOrderLevel:
    dt: float
    n_steps: int
    mean: float
    std_error: float
    error: float            # |mean - reference mean| via per-path coupling
    error_std_error: float  # std error of the coupled per-path difference
    noise_dominated: bool   # error within 2 SE of zero


@dataclass(frozen=True, eq=False)
class WeakOrderStudy:
    """Per-level functional means against the finest level, plus a rate fit.

    Levels run coarse to fine; the last one is the reference and never
    enters the fit.  fit is None when fewer than three levels carry an
    error visibly above the Monte Carlo noise floor.
    """

    levels: tuple
    fit: RateFit | None


def _weak_block(start, count, *, levels, functional):
    # one pass: the levels share the finest level's noise in one evolve
    return (np.stack([functional.evaluate(p.x)
                      for p in evolve(levels, _traj(start, count))]),)


def weak_order_study(cfg: SchemeConfig, dt_list, functional: TestFunctional,
                     n_paths: int, workers: int = 1) -> WeakOrderStudy:
    """Self-convergence weak-error study with coupled noise across levels.

    Every level of dt_list must divide cfg's horizon into whole steps and be
    an integer multiple of the finest level, whose paths serve as the
    reference.  A coarse level's noise is the sum of the fine noise it
    spans (decayed, in exact mode; see evolve), so per-path differences
    estimate the weak error with far smaller variance than independent runs
    would.  Levels whose error is within 2 standard errors of zero are
    excluded from the fit as noise-dominated; if fewer than three levels
    survive, no fit is attempted and fit is None.
    """
    dts = [float(dt) for dt in dt_list]
    if len(set(dts)) != len(dts):
        raise ConfigurationError("dt_list entries must be distinct")
    if len(dts) < 3:
        raise ConfigurationError(f"need >= 3 levels, got {len(dts)}")
    dts = sorted(dts, reverse=True)
    if dts[-1] > dts[0] / 4:
        raise ConfigurationError(
            f"finest dt={dts[-1]} must be at least 4x smaller than "
            f"coarsest dt={dts[0]}")
    runs = [replace(cfg, dt=dt, n_steps=whole_steps(cfg.horizon, dt))
            for dt in dts]
    _warn_if_rough(functional)

    phi, = _map_blocks(                          # (n_levels, n_paths)
        partial(_weak_block, levels=runs, functional=functional),
        n_paths, cfg.n_modes, workers)

    ref = phi[-1]
    levels = []
    for li, run in enumerate(runs):
        est = MCEstimate.from_samples(phi[li])
        diff = MCEstimate.from_samples(phi[li] - ref)
        err, err_se = abs(diff.value), diff.std_error
        is_ref = li == len(runs) - 1
        levels.append(WeakOrderLevel(
            dt=run.dt, n_steps=run.n_steps, mean=est.value,
            std_error=est.std_error, error=err, error_std_error=err_se,
            noise_dominated=(not is_ref) and err <= 2.0 * err_se))

    usable = [(lv.dt, lv.error) for lv in levels[:-1] if not lv.noise_dominated]
    fit = (fit_rate([u[0] for u in usable], [u[1] for u in usable])
           if len(usable) >= 3 else None)
    return WeakOrderStudy(levels=tuple(levels), fit=fit)


# ---------------------------------------------------------------------------
# ergodic averages

@dataclass(frozen=True, eq=False)
class ErgodicStudy:
    """Ensemble average of phi at the horizon vs per-path time averages."""

    ensemble: MCEstimate
    time_average: MCEstimate


def _ergodic_block(start, count, *, cfg, functional, first_step):
    sums = np.zeros(count)

    def on_state(idx, batches):
        if idx >= first_step:
            sums[:] += functional.evaluate(batches[0].x)

    paths, = evolve([cfg], _traj(start, count), on_state=on_state)
    return functional.evaluate(paths.x), sums / (cfg.n_steps - first_step + 1)


def ergodic_average(cfg: SchemeConfig, functional: TestFunctional,
                    burn_in: float, n_paths: int,
                    workers: int = 1) -> ErgodicStudy:
    """Two estimators of the invariant mean of a functional.

    The ensemble estimate averages phi over paths at the horizon; the time
    average uses every grid state strictly after burn_in on each path, then
    averages across paths, with between-path spread as its standard error
    (autocorrelation within a path is absorbed there).  Blow-up anywhere is
    a hard failure: averages over truncated paths would estimate nothing.
    """
    if not 0.0 <= burn_in < cfg.horizon:
        raise ConfigurationError(
            f"burn_in={burn_in} must lie in [0, horizon={cfg.horizon})")
    first_step = int(math.floor(burn_in / cfg.dt + 1e-9)) + 1
    if first_step > cfg.n_steps:
        raise ConfigurationError(
            f"burn_in={burn_in} leaves no state to average before the "
            f"horizon {cfg.horizon} (dt={cfg.dt})")
    finals, path_means = _map_blocks(
        partial(_ergodic_block, cfg=cfg, functional=functional,
                first_step=first_step),
        n_paths, cfg.n_modes, workers)
    return ErgodicStudy(ensemble=MCEstimate.from_samples(finals),
                        time_average=MCEstimate.from_samples(path_means))


# ---------------------------------------------------------------------------
# contraction of synchronously coupled pairs

@dataclass(frozen=True, eq=False)
class ContractionStudy:
    """Fitted exponential decay rate of the coupled-pair L2 distance.

    rate is minus the mean per-path slope of log distance against time;
    (ci_low, ci_high) is a 95 percent normal interval across paths.  Paths
    whose distance underflows keep only their pre-underflow window.
    """

    rate: float
    ci_low: float
    ci_high: float
    n_paths: int
    initial_distance: float
    per_path_rates: np.ndarray


def _contraction_block(start, count, *, pair):
    dist = np.empty((pair[0].n_steps + 1, count))

    def on_state(idx, batches):
        a, b = batches
        dist[idx] = np.sqrt(((a.x - b.x) ** 2).sum(axis=0))

    evolve(pair, _traj(start, count), on_state=on_state)

    # per-path window: stop at the first nonpositive or non-finite distance
    bad = (dist <= 0.0) | ~np.isfinite(dist)
    lengths = np.where(bad.any(axis=0), bad.argmax(axis=0), dist.shape[0])
    t = pair[0].dt * np.arange(dist.shape[0])[:, None]
    mask = np.arange(dist.shape[0])[:, None] < lengths[None, :]
    y = np.where(mask, np.log(np.where(mask, dist, 1.0)), 0.0)
    w = mask.astype(np.float64)
    n_pts = w.sum(axis=0)
    t_mean = (w * t).sum(axis=0) / n_pts
    y_mean = (w * y).sum(axis=0) / n_pts
    t_c = np.where(mask, t - t_mean, 0.0)
    denom = (t_c * t_c).sum(axis=0)
    # single-point windows give denom 0; those paths are dropped upstream
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = (t_c * (y - y_mean)).sum(axis=0) / denom
    return slopes, n_pts


def contraction_rate(cfg: SchemeConfig, x0_b, n_paths: int,
                     workers: int = 1) -> ContractionStudy:
    """Decay rate of the L2 distance between paths from cfg.x0 and from
    x0_b, driven by shared noise."""
    pair = [cfg, replace(cfg, x0=x0_b)]
    a, b = cfg.x0, pair[1].x0
    if np.array_equal(a, b):
        raise ConfigurationError(
            "x0 and x0_b coincide; the coupled distance is identically zero")
    if cfg.n_steps < 2:
        raise ConfigurationError("need n_steps >= 2 to fit a decay rate")
    slopes, n_pts = _map_blocks(partial(_contraction_block, pair=pair),
                                n_paths, cfg.n_modes, workers)
    keep = n_pts >= 2
    if not keep.any():
        raise ConfigurationError(
            "every path's distance underflowed immediately; nothing to fit")
    rates = -slopes[keep]
    est = MCEstimate.from_samples(rates)
    half = 1.96 * est.std_error
    return ContractionStudy(
        rate=est.value, ci_low=est.value - half, ci_high=est.value + half,
        n_paths=int(keep.sum()),
        initial_distance=float(np.sqrt(((a - b) ** 2).sum())),
        per_path_rates=rates)


# ---------------------------------------------------------------------------
# cost curve

@dataclass(frozen=True)
class CostPoint:
    eps: float
    horizon: float
    dt: float
    n_steps: int
    bound_product: float  # n_steps * eps^(1/alpha)


def cost_curve(alpha: float, regularity: float, horizon_power: int, eps_list,
               horizon_scale: float = 1.0,
               accuracy_scale: float = 1.0) -> tuple:
    """Step-count schedule reaching accuracy eps at an eps-dependent
    horizon, as one CostPoint per entry of eps_list.

    The horizon grows like horizon_scale * |log eps| and the step size
    solves horizon^horizon_power * dt^((alpha + regularity)/2) =
    accuracy_scale * eps, after which dt is nudged down so the horizon is a
    whole number of steps.  bound_product tracks n_steps * eps^(1/alpha),
    the quantity whose boundedness the cost claim asserts.
    """
    if not 0.0 < alpha < regularity:
        raise ConfigurationError(
            f"alpha={alpha} must lie in (0, regularity={regularity})")
    if horizon_power < 0:
        raise ConfigurationError(
            f"horizon_power must be >= 0, got {horizon_power}")
    if not (horizon_scale > 0 and accuracy_scale > 0):  # NaN included
        raise ConfigurationError("scales must be positive")
    points = []
    for eps in eps_list:
        eps = float(eps)
        if not 0.0 < eps < 1.0:
            raise ConfigurationError(f"eps must be in (0, 1), got {eps}")
        horizon = horizon_scale * abs(math.log(eps))
        try:
            dt_target = (accuracy_scale * eps / horizon ** horizon_power) \
                ** (2.0 / (alpha + regularity))
            n_steps = max(1, math.ceil(horizon / dt_target))
        except (OverflowError, ZeroDivisionError):
            raise ConfigurationError(
                f"eps={eps}: the step count leaves the float range") from None
        dt = horizon / n_steps
        points.append(CostPoint(
            eps=eps, horizon=horizon, dt=dt, n_steps=n_steps,
            bound_product=n_steps * eps ** (1.0 / alpha)))
    return tuple(points)
