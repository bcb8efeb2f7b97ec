"""Monte Carlo drivers checked against the closed-form linear laws.

Every statistical assertion here compares a sampled quantity to an exact
Gaussian value (scheme law, discrete-convolution variance, invariant trace)
within 4 standard errors at a pinned seed, so failures mean bias, not luck.
Block layout tests assert bitwise equality across worker counts, which is
the reproducibility contract the CSV outputs rely on.
"""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from tamedspde import estimators, noise, rng
from tamedspde.errors import (ConfigurationError, TamingBoundViolation,
                              TrajectoryOverflow)
from tamedspde.estimators import (_weak_block, BOUNDED_MODE1, EXP_NEG_L2SQ, FUNCTIONALS,
                                  L2_SQUARED, MCEstimate, contraction_rate,
                                  cost_curve, ergodic_average, estimate_moment,
                                  fit_rate, path_norms, weak_order_study)
from tamedspde.gaussian_oracle import (linear_invariant_variance,
                                       linear_scheme_law)
from tamedspde.integrators import PathBatch, SchemeConfig, evolve
from tamedspde.nonlinearity import dissipative_cubic, linear, polynomial, zero
from tamedspde.spectral import eigenvalue, semigroup_factors, unit_mode, zero_field

from reference import aggregate_fine_increments, mode_statistics


def make_cfg(nl, J=8, dt=0.05, n_steps=20, taming=True, mode="increment",
             seed=0, x0=None, cov=None, n_nodes=None):
    return SchemeConfig(n_modes=J, n_nodes=n_nodes or 4 * J, dt=dt,
                        n_steps=n_steps,
                        cov=cov if cov is not None else noise.white(J),
                        nl=nl, x0=x0 if x0 is not None else unit_mode(J, 1),
                        seed=seed, taming=taming, noise_mode=mode)


# --- scalar containers -------------------------------------------------------

def test_mc_estimate_from_samples():
    est = MCEstimate.from_samples(np.array([1.0, 2.0, 3.0, 4.0]))
    assert est.value == 2.5
    assert est.std_error == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
    assert est.n_samples == 4


def test_mc_estimate_single_sample_and_validation():
    est = MCEstimate.from_samples(np.array([7.0]))
    assert est.value == 7.0 and est.std_error == 0.0
    with pytest.raises(ConfigurationError):
        MCEstimate.from_samples(np.array([]))
    with pytest.raises(ConfigurationError):
        MCEstimate(value=1.0, std_error=-0.1, n_samples=3)
    with pytest.raises(ConfigurationError):
        MCEstimate(value=1.0, std_error=0.1, n_samples=0)


def test_fit_rate_recovers_exact_power_law():
    dts = np.array([0.2, 0.1, 0.05, 0.025])
    fit = fit_rate(dts, 3.0 * dts ** 2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert len(fit.points) == 4


def test_fit_rate_constant_errors_degenerate_r2():
    fit = fit_rate([0.2, 0.1, 0.05], [1.0, 1.0, 1.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_rate_validation():
    with pytest.raises(ConfigurationError):
        fit_rate([0.2, 0.1], [1.0, 2.0])
    with pytest.raises(ConfigurationError):
        fit_rate([0.2, 0.2, 0.1], [1.0, 2.0, 3.0])
    with pytest.raises(ConfigurationError):
        fit_rate([0.2, 0.1, 0.05], [1.0, 0.0, 2.0])
    with pytest.raises(ConfigurationError):
        fit_rate([0.2, -0.1, 0.05], [1.0, 1.0, 2.0])


def test_functionals_values_and_registry():
    x = np.array([[0.6], [0.8]])
    assert EXP_NEG_L2SQ.evaluate(x)[0] == pytest.approx(math.exp(-1.0))
    assert BOUNDED_MODE1.evaluate(x)[0] == pytest.approx(math.tanh(0.6))
    assert L2_SQUARED.evaluate(x)[0] == pytest.approx(1.0)
    assert EXP_NEG_L2SQ.smooth and BOUNDED_MODE1.smooth
    assert not L2_SQUARED.smooth
    assert set(FUNCTIONALS) == {"exp_neg_l2sq", "bounded_mode1", "l2_squared"}


# --- moment estimation -------------------------------------------------------

def test_moment_matches_linear_scheme_law():
    cfg = make_cfg(linear(1.0), seed=4, taming=False)
    study = estimate_moment(cfg, power=2, norm="l2", checkpoints=[0.5, 1.0],
                            n_paths=2000)
    assert study.blowup_fraction == 0.0
    for est, n in zip(study.estimates, (10, 20)):
        want = math.sqrt(
            linear_scheme_law(replace(cfg, n_steps=n)).l2_second_moment)
        assert abs(est.value - want) < 4.0 * est.std_error


def test_moment_checkpoint_zero_is_exact():
    cfg = make_cfg(zero(), n_steps=0, x0=unit_mode(8, 1, 2.0))
    study = estimate_moment(cfg, power=2, norm="l2", checkpoints=[0.0],
                            n_paths=16)
    assert study.estimates[0].value == pytest.approx(2.0, abs=1e-14)
    assert study.estimates[0].std_error == 0.0


def test_moment_sup_norm_runs():
    cfg = make_cfg(zero(), n_steps=4, x0=unit_mode(8, 1, 1.0), seed=3)
    study = estimate_moment(cfg, power=1, norm="sup", checkpoints=[0.2],
                            n_paths=64)
    assert study.estimates[0].value > 0.0


def test_moment_untamed_blowup_reports_fraction():
    cfg = make_cfg(dissipative_cubic(0.0), J=16, dt=0.25, n_steps=20,
                   taming=False, x0=unit_mode(16, 1, 10.0),
                   cov=noise.white(16))
    study = estimate_moment(cfg, power=2, norm="l2", checkpoints=[5.0],
                            n_paths=8)
    assert study.blowup_fraction == 1.0
    assert study.estimates is None


def test_moment_tamed_blowup_is_hard_failure():
    cfg = make_cfg(polynomial([0.0, 0.0, 0.0, 1.0]), x0=unit_mode(8, 1, 1e110),
                   n_steps=3)
    with pytest.raises(TrajectoryOverflow) as exc_info:
        estimate_moment(cfg, power=2, norm="l2", checkpoints=[0.15], n_paths=4)
    assert "trajectory" in str(exc_info.value)
    assert "state" in str(exc_info.value)


def test_moment_validation():
    cfg = make_cfg(zero())
    with pytest.raises(ConfigurationError):
        estimate_moment(cfg, power=0, norm="l2", checkpoints=[1.0], n_paths=8)
    with pytest.raises(ConfigurationError):
        estimate_moment(cfg, power=2, norm="h1", checkpoints=[1.0], n_paths=8)
    with pytest.raises(ConfigurationError):
        estimate_moment(cfg, power=2, norm="l2", checkpoints=[0.33], n_paths=8)
    with pytest.raises(ConfigurationError):
        estimate_moment(cfg, power=2, norm="l2", checkpoints=[1.5], n_paths=8)
    for t in (-0.05, math.nan, math.inf, 1e-12):
        with pytest.raises(ConfigurationError):
            estimate_moment(cfg, power=2, norm="l2", checkpoints=[t],
                            n_paths=8)
    with pytest.raises(ConfigurationError):
        estimate_moment(cfg, power=2, norm="l2", checkpoints=[1.0], n_paths=0)


# --- weak order ---------------------------------------------------------------

def test_aggregate_fine_increments_sums_consecutive():
    inc = np.arange(24.0).reshape(8, 3)
    got = aggregate_fine_increments(inc, 4)
    want = np.array([inc[0] + inc[1], inc[2] + inc[3],
                     inc[4] + inc[5], inc[6] + inc[7]])
    assert np.array_equal(got, want)
    assert np.array_equal(aggregate_fine_increments(inc, 8), inc)
    with pytest.raises(ConfigurationError):
        aggregate_fine_increments(inc, 5)
    with pytest.raises(ConfigurationError):
        aggregate_fine_increments(inc, 0)


def test_in_order_accumulation_is_the_aggregation_bitwise():
    # starting each coarse step at +0.0 and adding its fine increments in
    # order, as the streamed weak-order block does, is numpy's sum
    r_ = np.random.default_rng(5)
    for ratio in range(1, 65):
        inc = r_.normal(size=(3 * ratio, 4, 5))
        inc *= 10.0 ** r_.integers(-8, 9, size=inc.shape)  # order matters
        inc[:ratio, 0, 0] = -0.0             # so does the start: not a copy
        want = aggregate_fine_increments(inc, 3)
        got = np.empty_like(want)
        for j, fine in enumerate(inc):
            if j % ratio == 0:
                got[j // ratio] = fine + 0.0
            else:
                got[j // ratio] += fine
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), ratio


def test_streamed_weak_block_matches_materialised_levels():
    # reference: every fine increment stored, aggregated per level, and each
    # level stepped on its own, as the weak-order block used to do it
    cfg = make_cfg(dissipative_cubic(1.0), J=4, dt=0.25, n_steps=4,
                   cov=noise.power_decay(4, 3.0))
    level_steps = [4, 8, 16, 32]
    scale = noise.increment_scale(cfg.cov, 1.0 / 32)[:, None]
    for start, count in ((0, 1024), (1024, 76)):   # the blocks of 1100 paths
        got, = _weak_block(start, count, functional=EXP_NEG_L2SQ, levels=[
            replace(cfg, dt=1.0 / n, n_steps=n) for n in level_steps])
        traj = np.arange(start, start + count, dtype=np.uint64)
        fine = np.stack([scale * rng.normal_matrix(cfg.seed, traj, j, 4)
                         for j in range(32)])
        for li, n in enumerate(level_steps):
            paths = PathBatch(replace(cfg, dt=1.0 / n, n_steps=n), traj)
            for inc in aggregate_fine_increments(fine, n):
                paths.advance(inc)
            assert np.array_equal(got[li],
                                  EXP_NEG_L2SQ.evaluate(paths.x)), n


def test_weak_block_memory_does_not_grow_with_fine_steps():
    # same level count, 16x the fine steps: a stored (n_fine, J, B) buffer
    # would grow the peak about 14x here
    cfg = make_cfg(dissipative_cubic(1.0), J=16, dt=0.25, n_steps=4)
    peaks = []
    for n_fine in (64, 1024):
        tracemalloc.start()
        try:
            _weak_block(0, 64, functional=EXP_NEG_L2SQ, levels=[
                replace(cfg, dt=1.0 / n, n_steps=n)
                for n in (n_fine // 16, n_fine // 4, n_fine)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_weak_order_matches_analytic_self_curve():
    # zero drift from zero: E |X|^2 has an exact value at every level, so
    # each coupled error must sit on the analytic difference curve
    cov = noise.white(8)
    cfg = make_cfg(zero(), J=8, dt=0.25, n_steps=4, taming=False, seed=6,
                   x0=zero_field(8), cov=cov)
    dts = [0.25, 0.125, 0.0625, 0.03125, 0.015625]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        study = weak_order_study(cfg, dts, L2_SQUARED, n_paths=2048)
    def second_moment(dt, n_steps):
        return linear_scheme_law(
            replace(cfg, dt=dt, n_steps=n_steps)).l2_second_moment

    ref = second_moment(dts[-1], 64)
    ana_errors = []
    for lv in study.levels[:-1]:
        ana = abs(second_moment(lv.dt, lv.n_steps) - ref)
        assert abs(lv.error - ana) < 4.0 * lv.error_std_error
        ana_errors.append(ana)
    ana_fit = fit_rate([lv.dt for lv in study.levels[:-1]], ana_errors)
    assert study.fit is not None
    assert abs(study.fit.slope - ana_fit.slope) < 0.1
    assert study.levels[-1].error == 0.0


def test_weak_order_levels_sorted_and_reference_excluded():
    cfg = make_cfg(zero(), J=4, dt=0.25, n_steps=4, x0=zero_field(4),
                   cov=noise.white(4))
    study = weak_order_study(cfg, [0.0625, 0.25, 0.125, 0.03125],
                             EXP_NEG_L2SQ, n_paths=128)
    assert [lv.dt for lv in study.levels] == [0.25, 0.125, 0.0625, 0.03125]
    if study.fit is not None:
        assert len(study.fit.points) <= 3


def test_weak_order_noise_dominated_flag():
    # tanh of a symmetric mode has zero mean at every level: pure noise
    cfg = make_cfg(zero(), J=4, dt=0.25, n_steps=4, x0=zero_field(4),
                   cov=noise.white(4), seed=8)
    study = weak_order_study(cfg, [0.25, 0.125, 0.0625, 0.03125],
                             BOUNDED_MODE1, n_paths=64)
    assert study.fit is None
    assert all(lv.noise_dominated for lv in study.levels[:-1])
    assert not study.levels[-1].noise_dominated


def test_weak_order_warns_on_rough_functional():
    cfg = make_cfg(zero(), J=4, dt=0.25, n_steps=4, x0=zero_field(4),
                   cov=noise.white(4))
    with pytest.warns(UserWarning, match="weak-rate guarantee"):
        weak_order_study(cfg, [0.25, 0.125, 0.03125], L2_SQUARED, n_paths=32)


def test_weak_order_validation():
    cfg = make_cfg(zero(), J=4, dt=0.25, n_steps=4, x0=zero_field(4),
                   cov=noise.white(4))
    with pytest.raises(ConfigurationError):
        weak_order_study(cfg, [0.25, 0.125], EXP_NEG_L2SQ, 16)
    with pytest.raises(ConfigurationError):   # finest not 4x below coarsest
        weak_order_study(cfg, [0.25, 0.2, 0.125], EXP_NEG_L2SQ, 16)
    with pytest.raises(ConfigurationError):   # non-divisor of the horizon
        weak_order_study(cfg, [0.3, 0.125, 0.0625], EXP_NEG_L2SQ, 16)
    with pytest.raises(ConfigurationError):   # non-nested levels
        weak_order_study(cfg, [0.25, 0.1, 0.0625, 0.05], EXP_NEG_L2SQ, 16)
    with pytest.raises(ConfigurationError):   # duplicates
        weak_order_study(cfg, [0.25, 0.25, 0.0625], EXP_NEG_L2SQ, 16)
    for dts in ([0.25, 0.125, 0.0], [0.25, 0.125, -0.0625]):  # dt <= 0
        with pytest.raises(ConfigurationError):
            weak_order_study(cfg, dts, EXP_NEG_L2SQ, 16)
    # exact levels nest: with zero reaction each ends where the finest does
    exact = make_cfg(zero(), J=4, dt=0.25, n_steps=4, x0=zero_field(4),
                     cov=noise.white(4), mode="exact")
    study = weak_order_study(exact, [0.25, 0.125, 0.0625], EXP_NEG_L2SQ, 16)
    assert all(lv.error <= 1e-12 for lv in study.levels)


# --- ergodic averages -----------------------------------------------------------

def test_ergodic_average_hits_invariant_trace():
    cfg = make_cfg(zero(), J=4, dt=0.1, n_steps=200, taming=True,
                   mode="exact", seed=10, x0=zero_field(4), cov=noise.white(4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        study = ergodic_average(cfg, L2_SQUARED, burn_in=5.0, n_paths=256)
    trace = float(linear_invariant_variance(0.0, noise.white(4)).sum())
    assert abs(study.ensemble.value - trace) < 4.0 * study.ensemble.std_error
    assert abs(study.time_average.value - trace) < 4.0 * study.time_average.std_error
    # time averaging over 150 post-burn-in states beats one-time sampling
    assert study.time_average.std_error < study.ensemble.std_error


def test_ergodic_validation():
    cfg = make_cfg(zero(), J=4, dt=0.1, x0=zero_field(4), cov=noise.white(4))
    assert cfg.horizon == 2.0
    with pytest.raises(ConfigurationError):
        ergodic_average(cfg, EXP_NEG_L2SQ, burn_in=2.0, n_paths=8)
    with pytest.raises(ConfigurationError):
        ergodic_average(cfg, EXP_NEG_L2SQ, burn_in=-1.0, n_paths=8)
    # below the horizon, but within the 1e-9 grid tolerance of its last
    # state: no state lies after the burn-in
    with pytest.raises(ConfigurationError, match="burn_in=.* no state"):
        ergodic_average(cfg, EXP_NEG_L2SQ, burn_in=1.99999999999, n_paths=8)


# --- contraction ------------------------------------------------------------------

def test_contraction_zero_drift_is_first_eigenvalue():
    # a pure mode-1 separation contracts by exactly exp(-lambda_1 dt) per
    # step, so every path fits the same rate to machine precision
    cfg = make_cfg(zero(), J=8, dt=0.05, n_steps=30, seed=2,
                   x0=unit_mode(8, 1), cov=noise.white(8))
    study = contraction_rate(cfg, zero_field(8), n_paths=64)
    assert study.rate == pytest.approx(eigenvalue(1), rel=1e-9)
    assert study.ci_high - study.ci_low < 1e-9
    assert study.n_paths == 64
    assert study.initial_distance == pytest.approx(1.0)


def test_contraction_dissipative_cubic_beats_linear_rate():
    cfg = make_cfg(dissipative_cubic(1.0), J=8, dt=0.01, n_steps=100, seed=2,
                   x0=unit_mode(8, 1))
    study = contraction_rate(cfg, zero_field(8), n_paths=64)
    # drift slope bound gives at least lambda_1 + 1; noise pushes it higher
    assert study.ci_low > eigenvalue(1) + 1.0 - 0.05
    assert study.per_path_rates.shape == (64,)


def test_contraction_validation():
    cfg = make_cfg(zero(), J=4, x0=unit_mode(4, 1), cov=noise.white(4))
    with pytest.raises(ConfigurationError):
        contraction_rate(cfg, unit_mode(4, 1), n_paths=8)
    short = make_cfg(zero(), J=4, n_steps=1, x0=unit_mode(4, 1),
                     cov=noise.white(4))
    with pytest.raises(ConfigurationError):
        contraction_rate(short, zero_field(4), n_paths=8)
    with pytest.raises(ConfigurationError):
        contraction_rate(cfg, zero_field(5), n_paths=8)


# --- taming headroom -----------------------------------------------------------------

def test_taming_headroom_below_one():
    cfg = make_cfg(dissipative_cubic(0.0), x0=unit_mode(8, 1, 5.0), seed=1,
                   n_steps=30)
    peak = np.zeros(32)
    states = []

    def on_state(idx, batches):
        np.maximum(peak, batches[0].engine.last_drift_l2, out=peak)
        states.append(idx)

    evolve([cfg], np.arange(32, dtype=np.uint64), on_state=on_state)
    assert 0.0 < peak.max() < 1.0
    assert states == list(range(31))


# --- final mode statistics -------------------------------------------------------------

def test_final_mode_statistics_match_gaussian_law():
    cfg = make_cfg(zero(), J=4, dt=0.05, n_steps=10, taming=False, seed=12,
                   x0=unit_mode(4, 1, 2.0), cov=noise.white(4))
    paths, = evolve([cfg], np.arange(4000, dtype=np.uint64))
    mean, mean_se, var, var_se = mode_statistics(paths.x)
    mean_want = semigroup_factors(4, 0.05) ** 10 * cfg.x0
    var_want = linear_scheme_law(cfg).variance
    assert np.all(np.abs(mean - mean_want) < 4.0 * mean_se)
    assert np.all(np.abs(var - var_want) < 4.0 * var_se)
    assert mean.shape == var.shape == (4,)


# --- one overflow policy for every study ------------------------------------------

_STUDIES = {
    "moment-growth": lambda cfg: estimate_moment(cfg, 2, "l2", [0.15], 4),
    "weak-order": lambda cfg: weak_order_study(
        replace(cfg, n_steps=10), [0.25, 0.125, 0.0625], EXP_NEG_L2SQ,
        n_paths=4),
    "ergodic": lambda cfg: ergodic_average(cfg, EXP_NEG_L2SQ, 0.0, 4),
    "contraction": lambda cfg: contraction_rate(cfg, zero_field(8), 4),
    "simulate": lambda cfg: path_norms(cfg, 4),
}


@pytest.mark.parametrize("study", sorted(_STUDIES))
def test_overflow_names_trajectory_and_step(study):
    cfg = make_cfg(polynomial([0.0, 0.0, 0.0, 1.0]), x0=unit_mode(8, 1, 1e110),
                   n_steps=3)
    with pytest.raises(TrajectoryOverflow) as exc_info:
        _STUDIES[study](cfg)
    assert exc_info.value.trajectory == 0
    assert exc_info.value.step == 1


@pytest.mark.parametrize("study", ["moment-growth", "ergodic"])
def test_batched_x0_is_a_configuration_error(study):
    with pytest.raises(ConfigurationError):
        _STUDIES[study](make_cfg(zero(), x0=np.zeros((8, 2))))


# --- worker-count invariance --------------------------------------------------------------

def test_block_results_independent_of_workers():
    # 1030 paths span two blocks; every byte must match across pool sizes
    cfg = make_cfg(dissipative_cubic(1.0), J=2, dt=0.1, n_steps=3, seed=9,
                   x0=unit_mode(2, 1), cov=noise.white(2), n_nodes=8)
    solo = estimate_moment(cfg, 2, "l2", [0.3], n_paths=1030, workers=1)
    pooled = estimate_moment(cfg, 2, "l2", [0.3], n_paths=1030, workers=3)
    assert solo.estimates[0].value == pooled.estimates[0].value
    assert solo.estimates[0].std_error == pooled.estimates[0].std_error

    norms1 = path_norms(cfg, 1030, workers=1)
    norms3 = path_norms(cfg, 1030, workers=3)
    for field in ("l2", "sup", "blowup_steps"):
        assert np.array_equal(getattr(norms1, field), getattr(norms3, field))



def _no_child_left():
    # waitpid(-1) raises once this process has no child, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_is_capped_at_the_part_count():
    # 2049 paths: two blocks of 1024, each in two parts of 512, and a block
    # of one; part k runs on lane k mod min(max(2, workers), parts), lane 0
    # in the caller, and each part's arrays are joined on their last (path)
    # axis in order
    starts, counts, pids = estimators._map_blocks(
        lambda s, c: (np.full((2, c), s), np.array([c]),
                      np.array([os.getpid()])), 2049, 16, workers=8)
    assert np.array_equal(starts, np.repeat(
        [[0, 512, 1024, 1536, 2048]] * 2, [512] * 4 + [1], axis=1))
    assert counts.tolist() == [512] * 4 + [1]
    assert pids[0] == os.getpid() and len(set(pids.tolist())) == 5
    pids, = estimators._map_blocks(lambda s, c: (np.array([os.getpid()]),),
                                   2049, 16, workers=2)
    assert pids[0::2].tolist() == [os.getpid()] * 3
    assert len(set(pids.tolist())) == 2
    _no_child_left()


def _die_on_third_part(start, count):
    # the part of trajectories 1024-1535, on lane 2 of 3, kills its process
    if start == 1024:
        os._exit(1)
    return (np.full(count, start),)


def test_dead_worker_names_its_part():
    with pytest.raises(BrokenProcessPool,
                       match="trajectories 1024 to 1535") as info:
        estimators._map_blocks(_die_on_third_part, 2049, 16, workers=3)
    assert isinstance(info.value.__cause__, EOFError)
    _no_child_left()


def test_no_process_outlives_a_study():
    # after a return, a part's error and a lost child alike
    estimators._map_blocks(lambda s, c: (np.zeros(c),), 4096, 16, workers=3)
    _no_child_left()

    def block(start, count):
        if start == 1536:
            raise TrajectoryOverflow("lane 1")
        return (np.zeros(count),)

    with pytest.raises(TrajectoryOverflow, match="lane 1"):
        estimators._map_blocks(block, 4096, 16, workers=1)
    _no_child_left()
    with pytest.raises(BrokenProcessPool):
        estimators._map_blocks(_die_on_third_part, 4096, 16, workers=3)
    _no_child_left()
    cfg = make_cfg(dissipative_cubic(1.0), n_steps=3)
    path_norms(cfg, 2048, workers=1)
    _no_child_left()


def test_a_one_part_run_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = make_cfg(dissipative_cubic(1.0), n_steps=3)
    for n_paths, workers in [(7, 1), (8, 4), (100, 1), (1001, 3)]:
        norms = path_norms(cfg, n_paths, workers)
        assert norms.l2.shape == (4, n_paths)


def test_no_study_starts_a_thread(monkeypatch):
    # the step and draw workspaces are one per process, so a helper thread
    # would race on them; parts run in parallel only in forked lanes
    def no_thread(self):
        raise AssertionError("started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    lanes, real = [], estimators._lanes
    monkeypatch.setattr(estimators, "_lanes", lambda fn, parts, n: (
        lanes.append((len(parts), n)) or real(fn, parts, n)))
    cfg = make_cfg(dissipative_cubic(1.0), n_steps=3)
    for workers in (1, 3):
        assert path_norms(cfg, 2048, workers).l2.shape == (4, 2048)
        study = weak_order_study(replace(cfg, n_steps=10),
                                 [0.25, 0.125, 0.0625], EXP_NEG_L2SQ, 32,
                                 workers)
        assert len(study.levels) == 3
        study = ergodic_average(cfg, EXP_NEG_L2SQ, 0.0, 32, workers)
        assert study.ensemble.n_samples == 32
    assert lanes == [(4, 2), (2, 2), (2, 2), (4, 3), (2, 2), (2, 2)]


# --- two-part blocks --------------------------------------------------------------

def _split_blocks(J):
    """Every block function, as f(start, count), over small J-mode runs."""
    cfg = make_cfg(dissipative_cubic(1.0), J=J, dt=0.125, n_steps=4, seed=3)
    levels = [replace(cfg, dt=cfg.dt * r, n_steps=4 // r) for r in (4, 2, 1)]
    return {
        "evolve": lambda s, c: tuple(
            p.x for p in evolve(levels, estimators._traj(s, c))),
        "norm": partial(estimators._norm_block, cfg=cfg, steps=range(5),
                        norms=("l2", "sup")),
        "weak": partial(_weak_block, levels=levels, functional=EXP_NEG_L2SQ),
        "ergodic": partial(
            estimators._ergodic_block, functional=L2_SQUARED, first_step=2,
            cfg=replace(cfg, nl=linear(1.0), noise_mode="exact")),
        "contraction": partial(estimators._contraction_block, pair=[
            cfg, replace(cfg, x0=unit_mode(J, 2, 0.5))]),
    }


@pytest.mark.parametrize("J, counts", [(16, range(968, 1033)),
                                       (64, range(64, 129)),
                                       (64, range(1016, 1033))])
def test_split_blocks_equal_the_whole_block_bitwise(monkeypatch, J, counts):
    # every residue mod 8, on both sides of OpenBLAS's small-matrix gemm
    # limit (M J count of about 10^6): at J = 16, M = 64 the whole block
    # crosses it near count 977 while the halves stay below, at J = 64,
    # M = 256 the whole block stays above while the halves straddle it;
    # near 1024 at J = 64 each half is cut again into parts of at most
    # 2^14 state values, 256 paths; blocks of up to 2048 paths, so every
    # count is one block
    monkeypatch.setattr(estimators, "_PATH_BLOCK", 2048)
    for name, block in _split_blocks(J).items():
        for count in counts:
            # each part also returns its (start, count) once per path
            *got, starts, widths = estimators._map_blocks(
                lambda s, c: (*block(s, c), np.full(c, s), np.full(c, c)),
                count, J, workers=1)
            parts = sorted(set(zip(starts.tolist(), widths.tolist())))
            half = 8 * (count // 16)
            # only a multiple of 8 is split, into 8-aligned halves, and
            # each half into parts of 2^14 / J paths and a rest
            cap = 2 ** 14 // J
            layout = [(a, min(cap, end - a))
                      for lo, end in ((0, half), (half, count))
                      for a in range(lo, end, cap)]
            assert parts == (layout if count % 8 == 0 else [(0, count)])
            if count == 1024 and J == 64:
                assert parts == [(0, 256), (256, 256), (512, 256),
                                 (768, 256)]
            want = block(0, count)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b, equal_nan=True), (name, count)


# untamed cubic from amplitude 6: of paths 0-15 at seed 1, paths 8 and 14
# overflow at state 9 and every other one at state 10
_OVERFLOWING = make_cfg(dissipative_cubic(0.0), dt=0.25, n_steps=60, seed=1,
                        taming=False, x0=unit_mode(8, 1, 6.0))


@pytest.mark.parametrize("workers", [1, 2])
def test_split_block_raises_the_whole_blocks_error(monkeypatch, workers):
    # the second part of a 16-path block overflows at an earlier state than
    # the first: the error is still the whole block's, serially and in the
    # pool (two blocks of 16)
    block = partial(_weak_block, levels=[_OVERFLOWING],
                    functional=BOUNDED_MODE1)
    errors = []
    for start, count in [(0, 16), (0, 8), (8, 8)]:
        with pytest.raises(TrajectoryOverflow) as info:
            block(start, count)
        errors.append(info.value)
    whole, first, second = errors
    assert (first.step, first.trajectory) == (10, 0)
    assert (second.step, second.trajectory) == (9, 8)
    monkeypatch.setattr(estimators, "_PATH_BLOCK", 16)
    with pytest.raises(TrajectoryOverflow) as info:
        estimators._map_blocks(block, 16 * workers, 8, workers)
    assert type(info.value) is type(whole)
    assert str(info.value) == str(whole)
    assert (info.value.step, info.value.trajectory) == (9, 8)


def test_parts_after_a_failed_block_do_not_start(tmp_path):
    # 4096 paths, 8 parts: part 0 fails at once and part 1 takes 0.2 s, so
    # the child lane may begin part 3 before the failure is raised, but no
    # later part starts, and the run ends only after the child is reaped
    def block(start, count):
        (tmp_path / str(start)).touch()
        if start == 0:
            raise TrajectoryOverflow("part 0")
        time.sleep(0.2)
        return (np.zeros(count),)

    with pytest.raises(TrajectoryOverflow, match="part 0"):
        estimators._map_blocks(block, 4096, 16, workers=1)
    started = {int(path.name) for path in tmp_path.iterdir()}
    assert {0, 512} <= started <= {0, 512, 1536}
    _no_child_left()


def test_a_run_does_not_load_concurrent_futures():
    # it loads logging, about 0.6 MB of resident memory; only a lane that
    # dies needs it, for its BrokenProcessPool
    src = str(Path(estimators.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from tamedspde import estimators, integrators, noise, nonlinearity\n"
         "cfg = integrators.SchemeConfig(4, 16, 0.1, 3, noise.white(4), "
         "nonlinearity.dissipative_cubic(1.0), [1.0, 0, 0, 0])\n"
         "estimators.path_norms(cfg, 32)\n"
         "estimators.path_norms(cfg, 2048, workers=2)\n"
         "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _failing_part(errors):
    def block(start, count):
        raise errors[start]
    return block


def test_split_block_error_follows_evolves_order():
    # (fine step, configuration), a taming violation before an overflow,
    # then the lowest trajectory; an error evolve did not place goes first
    def overflow(order, trajectory, kind=TrajectoryOverflow):
        exc = kind("x", step=1, trajectory=trajectory)
        exc.order = order
        return exc

    cases = [
        ((3, 1), (3, 0), 1),  # the same fine step, an earlier configuration
        ((2, 1), (3, 0), 0),  # an earlier fine step
    ]

    def assert_same(got, want):
        # the part at 8 ran in a child lane: its error is a pickled copy
        assert type(got) is type(want) and str(got) == str(want)
        assert (got.order, got.trajectory) == (want.order, want.trajectory)

    for order0, order1, want in cases:
        errors = {0: overflow(order0, 0), 8: overflow(order1, 8)}
        with pytest.raises(TrajectoryOverflow) as info:
            estimators._map_blocks(_failing_part(errors), 16, 8, 1)
        assert_same(info.value, errors[8 * want])
    errors = {0: overflow((3, 0), 0), 8: overflow((3, 0), 8,
                                                  TamingBoundViolation)}
    with pytest.raises(TamingBoundViolation) as info:
        estimators._map_blocks(_failing_part(errors), 16, 8, 1)
    assert_same(info.value, errors[8])
    errors = {0: overflow((0, 0), 0), 8: MemoryError("x")}
    with pytest.raises(MemoryError):
        estimators._map_blocks(_failing_part(errors), 16, 8, 1)

# --- cost curve --------------------------------------------------------------------

def test_cost_curve_formula():
    points = cost_curve(alpha=0.2, regularity=0.25, horizon_power=2,
                        eps_list=[2.0 ** -4, 2.0 ** -6])
    p = points[0]
    horizon = abs(math.log(2.0 ** -4))
    assert p.horizon == pytest.approx(horizon)
    dt_target = (2.0 ** -4 / horizon ** 2) ** (2.0 / 0.45)
    n = max(1, math.ceil(horizon / dt_target))
    assert p.n_steps == n
    assert p.dt == pytest.approx(horizon / n)
    assert p.bound_product == pytest.approx(n * (2.0 ** -4) ** 5.0)
    # shrinking eps never shrinks the step count
    assert points[1].n_steps >= p.n_steps


def test_cost_curve_horizon_power_zero_keeps_dt_scale():
    points = cost_curve(alpha=0.24, regularity=0.25, horizon_power=0,
                        eps_list=[2.0 ** -k for k in range(4, 9)])
    for p in points:
        dt_target = p.eps ** (2.0 / 0.49)
        assert p.dt <= dt_target * (1.0 + 1e-12)
        assert p.n_steps == max(1, math.ceil(p.horizon / dt_target))


def test_cost_curve_validation():
    with pytest.raises(ConfigurationError):
        cost_curve(alpha=0.3, regularity=0.25, horizon_power=1, eps_list=[0.1])
    with pytest.raises(ConfigurationError):
        cost_curve(alpha=0.2, regularity=0.25, horizon_power=-1, eps_list=[0.1])
    with pytest.raises(ConfigurationError):
        cost_curve(alpha=0.2, regularity=0.25, horizon_power=1, eps_list=[1.5])
    with pytest.raises(ConfigurationError):
        cost_curve(alpha=0.2, regularity=0.25, horizon_power=1, eps_list=[0.1],
                   horizon_scale=0.0)
    for scale in ("horizon_scale", "accuracy_scale"):   # NaN is no scale
        with pytest.raises(ConfigurationError, match="scales must be positive"):
            cost_curve(alpha=0.2, regularity=0.25, horizon_power=1,
                       eps_list=[0.1], **{scale: math.nan})
