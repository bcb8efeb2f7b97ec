"""Full-scale acceptance runs: every advertised behavior at its stated
tolerance and runtime budget.

Each check appends one "[acceptance] NN <label>: PASS/FAIL" line to _LINES;
the terminal-summary hook in conftest.py echoes them after the test run so
the verdicts survive pytest's output capture.  Verdict lines are recorded
before the asserts, so a failing check still reports itself.

Scales here are deliberately larger than the unit tests use (10^4 to 10^5
paths); the whole file takes a few minutes, dominated by the coupled
weak-order study.
"""

import os
import time

import numpy as np
import pytest
import yaml

from tamedspde import cli, noise, rng, spectral
from tamedspde.estimators import (
    EXP_NEG_L2SQ,
    L2_SQUARED,
    contraction_rate,
    cost_curve,
    ergodic_average,
    fit_rate,
    path_norms,
    weak_order_study,
)
from tamedspde.gaussian_oracle import (
    convolution_weak_error_curve,
    linear_invariant_variance,
    linear_scheme_law,
)
from tamedspde.integrators import Engine, SchemeConfig, evolve
from tamedspde.nonlinearity import dissipative_cubic, linear, polynomial, zero
from tamedspde.noise import increment_scale

from reference import mode_statistics, step_discrete_convolution

_LINES = []


def _record(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    _LINES.append(line)
    print(line)


# -- 01 ---------------------------------------------------------------------

def test_transform_roundtrip_is_exact():
    t0 = time.perf_counter()
    gen = np.random.default_rng(0)
    worst = 0.0
    for n_modes in (4, 16, 64):
        # the pair Engine.step transforms with
        engine = Engine(SchemeConfig(
            n_modes=n_modes, n_nodes=4 * n_modes, dt=0.1, n_steps=0,
            cov=noise.white(n_modes), nl=zero(),
            x0=spectral.zero_field(n_modes)))
        for _ in range(100):
            coeffs = gen.standard_normal(n_modes)
            back = (engine.basis.T @ (engine.basis @ coeffs)) * engine.weight
            worst = max(worst, float(np.max(np.abs(back - coeffs))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _record(1, "transform roundtrip exact", ok,
            f"max err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


# -- 02 ---------------------------------------------------------------------

def test_analytic_convolution_weak_rates():
    t0 = time.perf_counter()
    dts = [2.0 ** -k for k in range(3, 10)]
    slopes = {}
    for name, cov in (("white", noise.white(128)),
                      ("decay3", noise.power_decay(128, 3.0))):
        curve = convolution_weak_error_curve(cov, 1.0, dts)
        slopes[name] = fit_rate([dt for dt, _ in curve],
                                [err for _, err in curve]).slope
    elapsed = time.perf_counter() - t0
    ok_white = 0.4 <= slopes["white"] <= 0.6
    ok_trace = 0.85 <= slopes["decay3"] <= 1.15
    ok = ok_white and ok_trace and elapsed < 1.0
    _record(2, "analytic convolution weak rates", ok,
            f"white {slopes['white']:.3f}, decay-3 {slopes['decay3']:.3f}, "
            f"{elapsed:.2f}s")
    assert ok_white, slopes
    assert ok_trace, slopes
    assert elapsed < 1.0


# -- 03 ---------------------------------------------------------------------

def test_linear_scheme_matches_gaussian_law():
    t0 = time.perf_counter()
    cfg = SchemeConfig(n_modes=16, n_nodes=64, dt=0.05, n_steps=100,
                       cov=noise.white(16), nl=linear(1.0),
                       x0=spectral.unit_mode(16, 1), seed=0, taming=False)
    law = linear_scheme_law(cfg)
    paths, = evolve([cfg], np.arange(10_000, dtype=np.uint64))
    mean, mean_se, var, var_se = mode_statistics(paths.x)
    z_mean = float(np.max(np.abs(mean - law.mean) / mean_se))
    z_var = float(np.max(np.abs(var - law.variance) / var_se))
    elapsed = time.perf_counter() - t0
    ok = z_mean <= 3.0 and z_var <= 3.0 and elapsed < 60.0
    _record(3, "linear scheme matches Gaussian law", ok,
            f"max |z| mean {z_mean:.2f}, var {z_var:.2f}, {elapsed:.1f}s")
    assert z_mean <= 3.0
    assert z_var <= 3.0
    assert elapsed < 60.0


# -- 04 ---------------------------------------------------------------------

def test_zero_drift_reduces_to_discrete_convolution():
    t0 = time.perf_counter()
    cfg = SchemeConfig(n_modes=16, n_nodes=64, dt=0.1, n_steps=50,
                       cov=noise.white(16), nl=zero(),
                       x0=spectral.multi_mode(16), seed=7, taming=True)
    decay = spectral.semigroup_factors(cfg.n_modes, cfg.dt)
    scale = increment_scale(cfg.cov, cfg.dt)
    traj = np.arange(3, dtype=np.uint64)
    states = []
    evolve([cfg], traj,
           on_state=lambda idx, batches: states.append(batches[0].x.copy()))
    identical = len(states) == cfg.n_steps + 1
    for i in range(3):
        z = cfg.x0.coeffs.copy()
        for n in range(cfg.n_steps):
            g = rng.normal_matrix(cfg.seed, traj[i:i + 1], n, cfg.n_modes)
            z = step_discrete_convolution(z, scale * g[:, 0], decay)
            identical = identical and np.array_equal(states[n + 1][:, i], z)
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 1.0
    _record(4, "zero-drift path equals noise recursion bitwise", ok,
            f"3 paths x {cfg.n_steps} steps, {elapsed:.2f}s")
    assert identical
    assert elapsed < 1.0


# -- 05 ---------------------------------------------------------------------

def test_tamed_drift_contribution_stays_below_one():
    t0 = time.perf_counter()
    cfg = SchemeConfig(n_modes=32, n_nodes=128, dt=0.1, n_steps=100,
                       cov=noise.white(32), nl=dissipative_cubic(1.0),
                       x0=spectral.unit_mode(32, 1, 5.0), seed=0, taming=True)
    peak = np.zeros(1000)

    def on_state(idx, batches):
        np.maximum(peak, batches[0].engine.last_drift_l2, out=peak)

    # evolve raises TrajectoryOverflow if any path leaves the finite range,
    # so returning at all is the no-overflow part of the claim
    evolve([cfg], np.arange(1000, dtype=np.uint64), on_state=on_state)
    top = float(peak.max())
    elapsed = time.perf_counter() - t0
    ok = top < 1.0 and elapsed < 60.0
    _record(5, "tamed drift contribution below one", ok,
            f"max {top:.4f} over 1000 paths, {elapsed:.1f}s")
    assert top < 1.0
    assert elapsed < 60.0


# -- 06 ---------------------------------------------------------------------

def test_untamed_cubic_paths_blow_up():
    t0 = time.perf_counter()
    cfg = SchemeConfig(n_modes=16, n_nodes=64, dt=0.25, n_steps=200,
                       cov=noise.white(16), nl=polynomial([0.0, 0.0, 0.0, -1.0]),
                       x0=spectral.unit_mode(16, 1, 10.0), seed=0, taming=False)
    steps = path_norms(cfg, 100).blowup_steps.tolist()
    fraction = sum(1 <= s <= 200 for s in steps) / 100.0
    # pinned from a pilot run: with this seed every path explodes at the
    # same step, before noise has any chance to spread them out
    pinned = all(s == 7 for s in steps)
    elapsed = time.perf_counter() - t0
    ok = fraction >= 0.9 and pinned and elapsed < 10.0
    _record(6, "untamed cubic paths blow up", ok,
            f"fraction {fraction:.2f}, all at step 7: {pinned}, {elapsed:.1f}s")
    assert fraction >= 0.9
    assert pinned, sorted(set(steps))
    assert elapsed < 10.0


# -- 07 ---------------------------------------------------------------------

def test_coupled_paths_contract_at_unit_rate():
    t0 = time.perf_counter()
    cfg = SchemeConfig(n_modes=16, n_nodes=64, dt=0.01, n_steps=500,
                       cov=noise.white(16), nl=dissipative_cubic(1.0),
                       x0=spectral.unit_mode(16, 1), seed=0, taming=True)
    study = contraction_rate(cfg, spectral.zero_field(16), n_paths=100)
    rel_width = (study.ci_high - study.ci_low) / study.rate
    elapsed = time.perf_counter() - t0
    ok = study.rate >= 1.0 and rel_width < 0.10 and elapsed < 60.0
    _record(7, "coupled paths contract", ok,
            f"rate {study.rate:.2f}, rel CI width {rel_width:.4f}, "
            f"{elapsed:.1f}s")
    assert study.rate >= 1.0
    assert rel_width < 0.10
    assert elapsed < 60.0


# -- 08 ---------------------------------------------------------------------

def test_ergodic_averages_hit_invariant_value():
    t0 = time.perf_counter()
    cfg = SchemeConfig(n_modes=16, n_nodes=64, dt=0.02, n_steps=2500,
                       cov=noise.white(16), nl=linear(1.0),
                       x0=spectral.unit_mode(16, 1), seed=0, taming=True,
                       noise_mode="exact")
    target = float(linear_invariant_variance(1.0, cfg.cov).sum())
    study = ergodic_average(cfg, L2_SQUARED, burn_in=10.0, n_paths=1000)
    checks = {}
    for name, est in (("ensemble", study.ensemble),
                      ("time-avg", study.time_average)):
        allowed = 3.0 * est.std_error + 0.05 * target
        checks[name] = abs(est.value - target) <= allowed
    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and elapsed < 120.0
    _record(8, "ergodic averages hit invariant value", ok,
            f"target {target:.5f}, ensemble {study.ensemble.value:.5f}, "
            f"time-avg {study.time_average.value:.5f}, {elapsed:.1f}s")
    assert checks["ensemble"], (study.ensemble, target)
    assert checks["time-avg"], (study.time_average, target)
    assert elapsed < 120.0


# -- 09 ---------------------------------------------------------------------

def test_nonlinear_weak_order_near_one():
    t0 = time.perf_counter()
    J = 64
    cfg = SchemeConfig(n_modes=J, n_nodes=4 * J, dt=0.25, n_steps=4,
                       cov=noise.power_decay(J, 3.0), nl=dissipative_cubic(1.0),
                       x0=spectral.unit_mode(J, 1), seed=0, taming=True)
    dts = [2.0 ** -k for k in range(2, 9)]
    # check 11 shows the worker count moves no byte
    study = weak_order_study(cfg, dts, EXP_NEG_L2SQ, n_paths=102_400,
                             workers=min(2, os.cpu_count() or 1))
    elapsed = time.perf_counter() - t0
    if study.fit is None:
        _record(9, "nonlinear weak order near one", False,
                f"noise-dominated at {study.n_paths} paths; no fit, "
                f"{elapsed:.0f}s")
        pytest.fail("every level was noise-dominated; rate not measurable")
    slope = study.fit.slope
    excluded = sum(lv.noise_dominated for lv in study.levels)
    ok = 0.8 <= slope <= 1.2 and elapsed < 1800.0
    _record(9, "nonlinear weak order near one", ok,
            f"slope {slope:.3f}, {excluded} noise-dominated levels, "
            f"{elapsed:.0f}s")
    assert 0.8 <= slope <= 1.2, slope
    assert elapsed < 1800.0


# -- 10 ---------------------------------------------------------------------

_EPS_LIST = [2.0 ** -k for k in range(4, 21)]


@pytest.mark.xfail(
    strict=True,
    reason="with horizon exponent 27 the step count carries a |log eps|^121 "
           "factor, so n_steps * eps^(1/alpha) spans ~80 orders of magnitude "
           "over this tolerance range; no bounded-ratio check can pass")
def test_step_count_tracks_inverse_accuracy_power():
    t0 = time.perf_counter()
    curve = cost_curve(alpha=0.2, regularity=0.25, horizon_power=27,
                       eps_list=_EPS_LIST)
    products = [p.bound_product for p in curve.points]
    ratio = max(products) / min(products)
    elapsed = time.perf_counter() - t0
    ok = ratio < 10.0 and elapsed < 1.0
    _record(10, "step-count bound, horizon exponent 27", ok,
            f"max/min {ratio:.2e}, {elapsed:.2f}s")
    assert ratio < 10.0, ratio
    assert elapsed < 1.0


def test_step_count_bound_in_feasible_regime():
    # companion check on the same tolerance range with the growing-horizon
    # exponent removed and alpha close to the regularity limit, where the
    # product n_steps * eps^(1/alpha) genuinely flattens out
    t0 = time.perf_counter()
    curve = cost_curve(alpha=0.24, regularity=0.25, horizon_power=0,
                       eps_list=_EPS_LIST)
    products = [p.bound_product for p in curve.points]
    ratio = max(products) / min(products)
    elapsed = time.perf_counter() - t0
    ok = ratio < 10.0 and elapsed < 1.0
    _record(10, "step-count bound, feasible regime", ok,
            f"max/min {ratio:.2f}, {elapsed:.2f}s")
    assert ratio < 10.0, ratio
    assert elapsed < 1.0


# -- 11 ---------------------------------------------------------------------

# Every config has more paths than one block of 1024, so workers 2
# really runs a process pool.
_DETERMINISM_CONFIGS = {
    "moment-growth": {
        "experiment": "moment-growth",
        "model": {"nonlinearity": {"name": "linear", "c": 1.0},
                  "covariance": "white",
                  "x0": {"kind": "unit_mode", "mode": 1},
                  "n_modes": 16, "n_nodes": 64},
        "discretization": {"dt": 0.05, "n_steps": 100, "taming": False},
        "sampling": {"n_paths": 10_000, "seed": 0},
        "params": {"checkpoints": [2.5, 5.0]},
        "output": {"formats": ["csv"]},
    },
    "contraction": {
        "experiment": "contraction",
        "model": {"nonlinearity": {"name": "dissipative_cubic", "c": 1.0},
                  "covariance": "white",
                  "x0": {"kind": "unit_mode", "mode": 1},
                  "n_modes": 16, "n_nodes": 64},
        "discretization": {"dt": 0.01, "n_steps": 500},
        "sampling": {"n_paths": 1100, "seed": 0},
        "params": {"x0_a": {"kind": "unit_mode", "mode": 1},
                   "x0_b": {"kind": "zero"}},
        "output": {"formats": ["csv"]},
    },
    "ergodic": {
        "experiment": "ergodic",
        "model": {"nonlinearity": {"name": "linear", "c": 1.0},
                  "covariance": "white",
                  "x0": {"kind": "unit_mode", "mode": 1},
                  "n_modes": 16, "n_nodes": 64},
        "discretization": {"dt": 0.02, "horizon": 50.0, "noise_mode": "exact"},
        "sampling": {"n_paths": 1100, "seed": 0},
        "params": {"burn_in": 10.0, "functional": "l2_squared"},
        "output": {"formats": ["csv"]},
    },
    # two blocks of the streamed weak-order kernel
    "weak-order": {
        "experiment": "weak-order",
        "model": {"nonlinearity": {"name": "dissipative_cubic", "c": 1.0},
                  "covariance": {"kind": "power_decay", "decay": 3.0},
                  "x0": {"kind": "unit_mode", "mode": 1},
                  "n_modes": 16, "n_nodes": 64},
        "discretization": {"horizon": 1.0,
                           "dt_list": [2.0 ** -k for k in range(2, 7)]},
        "sampling": {"n_paths": 1100, "seed": 0},
        "params": {"functional": "exp_neg_l2sq"},
        "output": {"formats": ["csv"]},
    },
    # two blocks of untamed cubic paths, some of which blow up
    "simulate": {
        "experiment": "simulate",
        "model": {"nonlinearity": {"name": "dissipative_cubic", "c": 0.0},
                  "covariance": "white",
                  "x0": {"kind": "unit_mode", "mode": 1, "amplitude": 5.0},
                  "n_modes": 16, "n_nodes": 64},
        "discretization": {"dt": 0.1, "n_steps": 30, "taming": False},
        "sampling": {"n_paths": 1100, "seed": 0},
        "output": {"formats": ["csv"]},
    },
}


def test_worker_count_does_not_change_output_bytes(tmp_path):
    t0 = time.perf_counter()
    mismatched = []
    for name, mapping in _DETERMINISM_CONFIGS.items():
        cfg_path = tmp_path / f"{name}.yaml"
        cfg_path.write_text(yaml.safe_dump(mapping))
        payloads = []
        for workers in (1, 2):
            out = tmp_path / f"{name}-w{workers}"
            code = cli.main([name, "--config", str(cfg_path),
                             "--workers", str(workers), "--out", str(out)])
            assert code == 0
            payloads.append((out / f"{name}.csv").read_bytes())
        if payloads[0] != payloads[1]:
            mismatched.append(name)
    elapsed = time.perf_counter() - t0
    ok = not mismatched
    _record(11, "worker count leaves bytes unchanged", ok,
            f"{', '.join(_DETERMINISM_CONFIGS)} at workers 1 vs 2, "
            f"{elapsed:.1f}s")
    assert not mismatched, mismatched
