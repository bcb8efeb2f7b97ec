"""Covariance families, the driver's addressed noise, and the zero-drift
recursion.

The explicit geometric-sum loop in ``variance_by_summation`` is the oracle
for the variance of the discrete convolution, which is the zero-drift
increment-mode law ``linear_scheme_law`` gives in closed form; the Monte
Carlo check at the bottom ties the whole chain (stream -> increment -> step
map) to that same law.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedspde import noise, rng
from tamedspde.errors import ConfigurationError
from tamedspde.gaussian_oracle import linear_scheme_law
from tamedspde.integrators import PathBatch, SchemeConfig, evolve
from tamedspde.nonlinearity import zero
from tamedspde.spectral import eigenvalue, eigenvalues, zero_field

from reference import step_discrete_convolution


def convolution_variance(spec, dt, n_steps):
    """Per-mode variance of the discrete convolution after n_steps from zero."""
    J = spec.n_modes
    cfg = SchemeConfig(n_modes=J, n_nodes=J, dt=dt, n_steps=n_steps, cov=spec,
                       nl=zero(), x0=zero_field(J), taming=False)
    return linear_scheme_law(cfg).variance


def variance_by_summation(spec, dt, n_steps):
    """Per-mode variance as the literal sum q dt sum_k exp(-2 lam dt k)."""
    lam = eigenvalues(spec.n_modes)
    acc = np.zeros(spec.n_modes)
    for k in range(1, n_steps + 1):
        acc += spec.mode_weights * dt * np.exp(-2.0 * lam * dt * k)
    return acc


def test_variance_closed_form_matches_summation():
    spec = noise.power_decay(6, 1.5)
    got = convolution_variance(spec, 0.07, 23)
    want = variance_by_summation(spec, 0.07, 23)
    assert np.allclose(got, want, rtol=1e-13)


@settings(max_examples=40)
@given(decay=st.floats(0.0, 3.0), dt=st.floats(0.01, 0.5),
       n=st.integers(0, 40))
def test_variance_closed_form_property(decay, dt, n):
    spec = noise.power_decay(4, decay)
    got = convolution_variance(spec, dt, n)
    want = variance_by_summation(spec, dt, n)
    assert np.allclose(got, want, rtol=1e-11, atol=1e-300)
    # monotone in n and below the n -> infinity geometric limit
    lam = eigenvalues(4)
    r = np.exp(-2.0 * lam * dt)
    limit = spec.mode_weights * dt * r / (1.0 - r)
    assert np.all(got <= limit * (1.0 + 1e-12))
    nxt = convolution_variance(spec, dt, n + 1)
    assert np.all(nxt >= got)


def test_variance_zero_steps_and_validation():
    spec = noise.white(3)
    assert np.all(convolution_variance(spec, 0.1, 0) == 0.0)
    with pytest.raises(ConfigurationError):
        convolution_variance(spec, 0.1, -1)


# --- covariance construction -------------------------------------------------

def test_white_weights():
    spec = noise.white(5)
    assert spec.kind == "white"
    assert np.all(spec.mode_weights == 1.0)
    assert spec.n_modes == 5


def test_power_decay_weights():
    spec = noise.power_decay(4, 3.0)
    assert np.allclose(spec.mode_weights, [1.0, 0.125, 1.0 / 27.0, 0.015625],
                       rtol=1e-15)
    assert np.all(noise.power_decay(6, 0.0).mode_weights
                  == noise.white(6).mode_weights)


def test_explicit_weights_are_copied_and_frozen():
    src = np.array([1.0, 0.5])
    spec = noise.explicit_covariance(src)
    src[0] = 99.0
    assert spec.mode_weights[0] == 1.0
    with pytest.raises(ValueError):
        spec.mode_weights[0] = 2.0


def test_covariance_validation():
    with pytest.raises(ConfigurationError):
        noise.explicit_covariance([1.0, -0.1])
    with pytest.raises(ConfigurationError):
        noise.explicit_covariance([1.0, np.nan])
    with pytest.raises(ConfigurationError):
        noise.explicit_covariance([[1.0], [2.0]])
    with pytest.raises(ConfigurationError):
        noise.explicit_covariance([])
    with pytest.raises(ConfigurationError):
        noise.power_decay(4, -0.5)


# --- regularity classification -----------------------------------------------

def test_classify_white():
    reg = noise.classify_regularity(noise.white(8))
    assert reg == noise.NoiseRegularity(0.25, False, False)


def test_classify_power_decay():
    assert (noise.classify_regularity(noise.power_decay(8, 3.0))
            == noise.NoiseRegularity(0.5, True, True))
    # borderline: the cap is reached but the defining sum diverges
    assert (noise.classify_regularity(noise.power_decay(8, 1.0))
            == noise.NoiseRegularity(0.5, False, False))
    assert (noise.classify_regularity(noise.power_decay(8, 0.6))
            == noise.NoiseRegularity(0.4, False, False))


def test_classify_rejects_explicit():
    with pytest.raises(ConfigurationError):
        noise.classify_regularity(noise.explicit_covariance([1.0, 1.0]))
    assert noise.classify_regularity(noise.white(4)).exponent == 0.25


# --- addressed noise of the trajectory driver ---------------------------------

def _final(seed, traj, increments=None):
    cfg = SchemeConfig(n_modes=4, n_nodes=16, dt=0.1, n_steps=3,
                       cov=noise.power_decay(4, 2.0), nl=zero(),
                       x0=zero_field(4), seed=seed)
    traj = np.array(traj, dtype=np.uint64)
    if increments is None:
        paths, = evolve([cfg], traj)
        return paths.x
    paths = PathBatch(cfg, traj)
    for inc in increments:
        paths.advance(inc)
    return paths.x


def test_stream_is_reproducible():
    assert np.array_equal(_final(7, [3, 4]), _final(7, [3, 4]))


def test_stream_address_coordinates_matter():
    base = _final(1, [0])
    assert not np.array_equal(_final(2, [0]), base)
    assert not np.array_equal(_final(1, [1]), base)
    # a trajectory's noise does not depend on its batch neighbours
    assert np.array_equal(_final(1, [5, 0])[:, 1:], base)


# --- increments and the step map ---------------------------------------------

def test_increment_scale_values():
    assert np.all(noise.increment_scale(noise.white(4), 0.25) == 0.5)
    got = noise.increment_scale(noise.power_decay(3, 2.0), 0.1)
    want = np.sqrt(np.array([1.0, 0.25, 1.0 / 9.0]) * 0.1)
    assert np.allclose(got, want, rtol=1e-15)
    with pytest.raises(ConfigurationError):
        noise.increment_scale(noise.white(2), 0.0)


def test_stationary_step_scale_value():
    got = noise.stationary_step_scale(noise.white(1), 0.1)
    assert got[0] == pytest.approx(0.20886184813317496, rel=1e-14)
    with pytest.raises(ConfigurationError):
        noise.stationary_step_scale(noise.white(2), -0.1)


@settings(max_examples=40)
@given(dt=st.floats(1e-4, 1.0))
def test_stationary_scale_below_increment_scale(dt):
    # (1 - exp(-2 lam dt)) / (2 lam) < dt for every lam > 0
    spec = noise.power_decay(8, 1.0)
    stat = noise.stationary_step_scale(spec, dt)
    incr = noise.increment_scale(spec, dt)
    assert np.all(stat < incr)
    assert np.all(stat > 0)


def test_stationary_scale_small_dt_limit():
    spec = noise.white(1)
    dt = 1e-9
    ratio = noise.stationary_step_scale(spec, dt) / noise.increment_scale(spec, dt)
    assert ratio[0] == pytest.approx(1.0, abs=1e-7)


def test_sample_increment_is_scaled_stream_output():
    # supplying increment_scale * addressed normals as the increments
    # reproduces the driver's own addressed run bit for bit
    traj = np.array([9, 2], dtype=np.uint64)
    scale = noise.increment_scale(noise.power_decay(4, 2.0), 0.1)[:, None]
    incs = np.stack([scale * rng.normal_matrix(42, traj, n, 4)
                     for n in range(3)])
    assert incs.shape == (3, 4, 2)
    assert np.array_equal(_final(42, traj, increments=incs), _final(42, traj))


def test_step_grouping_adds_noise_before_decay():
    state = np.array([1.0, 2.0])
    inc = np.array([0.5, -0.25])
    dec = np.array([0.5, 0.25])
    got = step_discrete_convolution(state, inc, dec)
    assert np.array_equal(got, np.array([0.75, 0.4375]))


def test_simulated_variance_matches_formula():
    # 20k zero-drift paths, 10 steps; per-mode sample variance within 4 SE
    J, B, n_steps, dt = 4, 20_000, 10, 0.05
    spec = noise.white(J)
    decay = np.exp(-eigenvalues(J) * dt)
    scale = noise.increment_scale(spec, dt)
    state = np.zeros((J, B))
    for step in range(n_steps):
        g = rng.normal_matrix(123, np.arange(B, dtype=np.uint64), step, J)
        state = step_discrete_convolution(state, scale[:, None] * g,
                                          decay[:, None])
    want = convolution_variance(spec, dt, n_steps)
    se = want * math.sqrt(2.0 / B)
    assert np.all(np.abs(state.var(axis=1, ddof=1) - want) < 4.0 * se)
