"""Closed-form linear laws checked against literal recursions and quadrature.

Two in-file oracles anchor everything: ``law_by_recursion`` iterates the
per-mode affine recursion mean <- a mean, var <- a^2 var + w step by step
with independently derived factors, and ``ou_variance_by_quadrature``
integrates the Ornstein-Uhlenbeck kernel numerically.  The closed forms in
the package must match both.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedspde import noise, spectral
from tamedspde.errors import ConfigurationError
from tamedspde.estimators import fit_rate
from tamedspde.gaussian_oracle import (ModeGaussian,
                                       linear_invariant_variance,
                                       linear_scheme_law,
                                       linear_stationary_variance)
from tamedspde.integrators import SchemeConfig
from tamedspde.nonlinearity import dissipative_cubic, linear, zero
from tamedspde.spectral import eigenvalue, eigenvalues

from reference import convolution_weak_error_curve


def make_cfg(c, dt, mode, J=4, x0_mode=1, n_steps=10):
    return SchemeConfig(n_modes=J, n_nodes=4 * J, dt=dt, n_steps=n_steps,
                        cov=noise.white(J),
                        nl=linear(c) if c > 0 else zero(),
                        x0=spectral.unit_mode(J, x0_mode), taming=False,
                        noise_mode=mode)


def convolution_cfg(cov, dt, n_steps, mode):
    """Zero drift from a zero start: the stochastic convolution itself."""
    J = cov.n_modes
    return SchemeConfig(n_modes=J, n_nodes=J, dt=dt, n_steps=n_steps, cov=cov,
                        nl=zero(), x0=spectral.zero_field(J), taming=False,
                        noise_mode=mode)


def law_by_recursion(cfg):
    """Step the per-mode mean/variance recursion explicitly, from scratch.

    c is read off the reaction as -f(1), and a = exp(-lam dt)(1 - c dt).
    The noise variance per step is exp(-2 lam dt) q dt when the increment
    rides through the decay, and the exact one-step convolution variance
    q(1-exp(-2 lam dt))/(2 lam) when the noise is added afterwards.
    """
    c = -float(cfg.nl.f(np.ones(1))[0])
    lam = eigenvalues(cfg.cov.n_modes)
    a = np.exp(-lam * cfg.dt) * (1.0 - c * cfg.dt)
    if cfg.noise_mode == "increment":
        w = np.exp(-2.0 * lam * cfg.dt) * cfg.cov.mode_weights * cfg.dt
    else:
        w = cfg.cov.mode_weights * (1.0 - np.exp(-2.0 * lam * cfg.dt)) / (2.0 * lam)
    mean = cfg.x0.copy()
    var = np.zeros_like(mean)
    for _ in range(cfg.n_steps):
        mean = a * mean
        var = a * a * var + w
    return mean, var


def ou_variance_by_quadrature(lam, q, t, n_points=200_000):
    """Var of int_0^t exp(-lam (t-s)) dW(s) by trapezoid on the squared kernel."""
    s = np.linspace(0.0, t, n_points + 1)
    return q * np.trapezoid(np.exp(-2.0 * lam * (t - s)), s)


# --- ModeGaussian ------------------------------------------------------------

def test_mode_gaussian_second_moment():
    law = ModeGaussian(mean=np.array([3.0, 0.0]), variance=np.array([1.0, 2.0]))
    assert law.l2_second_moment == 12.0


def test_mode_gaussian_validation():
    with pytest.raises(ConfigurationError):
        ModeGaussian(mean=np.array([1.0]), variance=np.array([1.0, 2.0]))
    with pytest.raises(ConfigurationError):
        ModeGaussian(mean=np.array([0.0]), variance=np.array([-1.0]))


# --- stochastic convolution second moments -----------------------------------

def test_exact_second_moment_matches_quadrature():
    # exact-mode noise makes the zero-drift law the continuous convolution's
    cov = noise.power_decay(3, 1.0)
    cfg = convolution_cfg(cov, 0.1, 4, "exact")
    want = sum(ou_variance_by_quadrature(eigenvalue(j), j ** -1.0, cfg.horizon)
               for j in (1, 2, 3))
    got = linear_scheme_law(cfg).l2_second_moment
    assert got == pytest.approx(want, rel=1e-9)


def test_exact_second_moment_limits():
    cfg = convolution_cfg(noise.white(32), 0.5, 0, "exact")
    assert linear_scheme_law(cfg).l2_second_moment == 0.0
    # t -> infinity limit is the invariant trace sum q / (2 lam)
    trace = float((1.0 / (2.0 * eigenvalues(32))).sum())
    far = linear_scheme_law(replace(cfg, n_steps=100)).l2_second_moment
    assert far == pytest.approx(trace, rel=1e-12)
    with pytest.raises(ConfigurationError):
        linear_scheme_law(replace(cfg, n_steps=-1))


# --- analytic weak-error curve -----------------------------------------------

def test_weak_error_curve_values():
    # increment mode is the discrete convolution, exact mode the continuous one
    cov = noise.white(8)
    curve = convolution_weak_error_curve(cov, 1.0, [0.25, 0.125])
    assert curve[0][0] == 0.25
    for (dt, err), n in zip(curve, (4, 8)):
        inc, exact = (linear_scheme_law(convolution_cfg(cov, dt, n, mode))
                      .l2_second_moment for mode in ("increment", "exact"))
        assert err == pytest.approx(abs(inc - exact), rel=1e-14)


def test_weak_error_curve_rejects_non_divisor():
    with pytest.raises(ConfigurationError):
        convolution_weak_error_curve(noise.white(4), 1.0, [0.3])
    with pytest.raises(ConfigurationError):
        convolution_weak_error_curve(noise.white(4), 0.0, [0.25])
    with pytest.raises(ConfigurationError):
        convolution_weak_error_curve(noise.white(4), 1.0, [0.25, -0.125])


def test_weak_error_slopes_track_noise_regularity():
    # halving-order slopes are deterministic, so they freeze exactly:
    # rough noise converges near order 1/2, smooth noise near order 1
    dts = [2.0 ** -k for k in range(3, 8)]
    curve_w = convolution_weak_error_curve(noise.white(16), 1.0, dts)
    fit_w = fit_rate([p[0] for p in curve_w], [p[1] for p in curve_w])
    assert fit_w.slope == pytest.approx(0.4335676633477644, rel=1e-9)

    curve_s = convolution_weak_error_curve(noise.power_decay(16, 3.0), 1.0, dts)
    fit_s = fit_rate([p[0] for p in curve_s], [p[1] for p in curve_s])
    assert fit_s.slope == pytest.approx(0.8088343026681214, rel=1e-9)
    assert fit_s.slope > fit_w.slope + 0.2


# --- linear scheme law -------------------------------------------------------

@settings(max_examples=30)
@given(c=st.floats(0.0, 60.0), dt=st.floats(0.01, 0.3),
       n=st.integers(0, 60),
       mode=st.sampled_from(["increment", "exact"]))
def test_scheme_law_matches_recursion(c, dt, n, mode):
    cfg = make_cfg(c, dt, mode, n_steps=n)
    law = linear_scheme_law(cfg)
    mean, var = law_by_recursion(cfg)
    assert np.allclose(law.mean, mean, rtol=1e-10, atol=1e-280)
    assert np.allclose(law.variance, var, rtol=1e-10, atol=1e-280)


def test_scheme_law_zero_steps():
    cfg = make_cfg(1.0, 0.1, "increment", n_steps=0)
    law = linear_scheme_law(cfg)
    assert np.array_equal(law.mean, cfg.x0)
    assert np.all(law.variance == 0.0)


def test_scheme_law_validation():
    cfg = make_cfg(1.0, 0.1, "increment")
    with pytest.raises(ConfigurationError):
        linear_scheme_law(replace(cfg, n_steps=-1))
    with pytest.raises(ConfigurationError):
        linear_scheme_law(replace(cfg, taming=True))
    # a cubic reaction has no Gaussian law, so neither closed form applies
    cubic = replace(cfg, nl=dissipative_cubic(1.0))
    with pytest.raises(ConfigurationError, match="zero or linear"):
        linear_scheme_law(cubic)
    with pytest.raises(ConfigurationError, match="zero or linear"):
        linear_stationary_variance(cubic)


def test_scheme_law_stays_finite_when_unstable():
    # |a| > 1 is a legal question for the law even though nothing is stationary
    law = linear_scheme_law(make_cfg(40.0, 0.1, "increment", n_steps=5))
    assert np.all(np.isfinite(law.variance))
    assert np.all(np.isfinite(law.mean))


# --- stationary and invariant variances --------------------------------------

def test_stationary_variance_is_recursion_limit():
    cfg = make_cfg(1.0, 0.05, "increment")
    stat = linear_stationary_variance(cfg)
    far = linear_scheme_law(replace(cfg, n_steps=20_000)).variance
    assert np.allclose(stat, far, rtol=1e-12)


def test_stationary_variance_rejects_unstable():
    with pytest.raises(ConfigurationError):
        linear_stationary_variance(make_cfg(40.0, 0.1, "increment"))


def test_exact_mode_zero_drift_hits_invariant_variance():
    # with noise added after the decay the chain's fixed point reproduces
    # q / (2 lam) for every step size, not just in the dt -> 0 limit
    for dt in (0.5, 0.1, 0.02):
        cfg = make_cfg(0.0, dt, "exact")
        stat = linear_stationary_variance(cfg)
        inv = linear_invariant_variance(0.0, cfg.cov)
        assert np.allclose(stat, inv, rtol=1e-14)


def test_exact_mode_linear_bias_shrinks_with_dt():
    inv = linear_invariant_variance(1.0, noise.white(4))
    biases = []
    for dt in (0.2, 0.1, 0.05, 0.025):
        stat = linear_stationary_variance(make_cfg(1.0, dt, "exact"))
        biases.append(abs(stat[0] - inv[0]) / inv[0])
    for coarse, fine in zip(biases, biases[1:]):
        assert fine < 0.8 * coarse
    assert biases[-1] < 0.3 * biases[0]


def test_invariant_variance_values():
    got = linear_invariant_variance(1.0, noise.power_decay(3, 2.0))
    lam = eigenvalues(3)
    want = np.array([1.0, 0.25, 1.0 / 9.0]) / (2.0 * (lam + 1.0))
    assert np.allclose(got, want, rtol=1e-15)
    with pytest.raises(ConfigurationError):
        linear_invariant_variance(-0.5, noise.white(2))
