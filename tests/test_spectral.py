"""Sine basis: transforms, operator factors, norms, and their inequalities.

Frozen scalar values below were derived independently (direct evaluation of
exp/sin/pi expressions, quadrature for the integral identity) before being
pinned here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedspde import noise, spectral
from tamedspde.errors import ConfigurationError
from tamedspde.estimators import _state_norm
from tamedspde.integrators import Engine, SchemeConfig
from tamedspde.nonlinearity import linear, zero

from reference import drift_norm

PI2 = math.pi ** 2


# --- eigenvalues -----------------------------------------------------------

def test_eigenvalue_values():
    assert spectral.eigenvalue(1) == pytest.approx(9.869604401089358, abs=0, rel=1e-15)
    assert spectral.eigenvalue(2) == pytest.approx(39.47841760435743, rel=1e-15)
    assert spectral.eigenvalue(3) == pytest.approx(9 * PI2, rel=1e-15)


def test_eigenvalue_rejects_zero():
    with pytest.raises(ConfigurationError):
        spectral.eigenvalue(0)


def test_eigenvalues_increasing():
    lam = spectral.eigenvalues(32)
    assert lam[0] == spectral.eigenvalue(1)
    assert np.all(np.diff(lam) > 0)


# --- the engine's transform pair -------------------------------------------

def engine(n_modes, n_nodes):
    """An Engine on this grid; its basis and weight are the pair step() runs."""
    return Engine(SchemeConfig(n_modes=n_modes, n_nodes=n_nodes, dt=0.1,
                               n_steps=0, cov=noise.white(n_modes), nl=zero(),
                               x0=spectral.zero_field(n_modes)))


def test_synthesize_first_mode_three_nodes():
    # sqrt(2) sin(pi k/4), k=1..3 -> (1, sqrt 2, 1)
    values = engine(1, 3).basis @ spectral.unit_mode(1, 1).coeffs
    assert values == pytest.approx([1.0, math.sqrt(2.0), 1.0], rel=1e-14)


def test_synthesize_zero_field():
    assert np.all(engine(4, 16).basis @ spectral.zero_field(4).coeffs == 0.0)


def test_synthesize_top_mode_is_pure_sine():
    j = 6
    x = spectral.collocation_nodes(25)
    values = engine(j, 25).basis @ spectral.unit_mode(j, j).coeffs
    assert values == pytest.approx(np.sqrt(2) * np.sin(j * np.pi * x), rel=1e-13)


def test_synthesize_rejects_too_few_nodes():
    with pytest.raises(ConfigurationError):
        engine(8, 7)


def test_analyze_pure_sine_grid():
    x = spectral.collocation_nodes(15)
    e = engine(4, 15)
    coeffs = (e.basis.T @ (np.sqrt(2) * np.sin(np.pi * x))) * e.weight
    assert abs(coeffs[0] - 1.0) <= 1e-12
    assert np.all(np.abs(coeffs[1:]) <= 1e-12)


def test_analyze_rejects_too_many_modes():
    # the one projection outside the engine
    with pytest.raises(ConfigurationError):
        spectral.bump_profile(8, 7)


@settings(max_examples=40)
@given(j=st.integers(1, 32), extra=st.integers(0, 40),
       seed=st.integers(0, 1000))
def test_roundtrip_exact(j, extra, seed):
    a = np.random.default_rng(seed).standard_normal(j)
    e = engine(j, j + extra)
    back = (e.basis.T @ (e.basis @ a)) * e.weight
    assert np.max(np.abs(back - a)) <= 1e-12


def test_roundtrip_batched():
    a = np.random.default_rng(0).standard_normal((12, 5))
    e = engine(12, 48)
    back = (e.basis.T @ (e.basis @ a)) * e.weight
    assert np.max(np.abs(back - a)) <= 1e-12


# --- semigroup and phi1 ----------------------------------------------------

def test_semigroup_identity_at_zero():
    assert np.array_equal(spectral.semigroup_factors(8, 0.0), np.ones(8))


def test_semigroup_mode1_factor():
    factor = spectral.semigroup_factors(1, 0.01)[0]
    assert factor == pytest.approx(0.906018055788923, rel=1e-15)


def test_semigroup_rejects_negative_time():
    with pytest.raises(ConfigurationError):
        spectral.semigroup_factors(2, -0.1)


def test_semigroup_l2_contraction():
    rng = np.random.default_rng(3)
    f = spectral.SpectralField(rng.standard_normal(16))
    t = 0.03
    decay = spectral.semigroup_factors(16, t)
    l2 = lambda c: math.sqrt((c * c).sum())
    assert l2(decay * f.coeffs) <= math.exp(-PI2 * t) * l2(f.coeffs)
    # equality when only the first mode is populated
    one = decay * spectral.unit_mode(16, 1, 2.5).coeffs
    assert l2(one) == pytest.approx(math.exp(-PI2 * t) * 2.5, rel=1e-14)


@given(s=st.floats(0.0, 2.0), t=st.floats(0.0, 2.0))
def test_semigroup_composition(s, t):
    two = spectral.semigroup_factors(64, t) * spectral.semigroup_factors(64, s)
    one = spectral.semigroup_factors(64, s + t)
    assert np.allclose(two, one, rtol=1e-13, atol=1e-300)


def test_phi1_mode1_factor():
    factor = spectral.phi1_factors(1, 0.01)[0]
    assert factor == pytest.approx(0.00952236182847448, rel=1e-14)


def test_phi1_small_dt_limit():
    dt = 1e-6 / PI2  # lambda_1 dt = 1e-6
    factor = spectral.phi1_factors(1, dt)[0]
    assert abs(factor - dt) <= 1e-9


def test_phi1_bounded_by_dt_and_inverse_eigenvalue():
    lam = spectral.eigenvalues(128)
    for dt in (1e-4, 0.01, 0.1, 0.5):
        factors = spectral.phi1_factors(128, dt)
        assert np.all(factors <= np.minimum(dt, 1.0 / lam) * (1 + 1e-15))
        assert np.all(factors > 0)


def test_phi1_matches_semigroup_integral():
    # (1 - e^{-lam dt})/lam = int_0^dt e^{-lam s} ds, midpoint quadrature;
    # the midpoint rule's relative error is below (lam dt / k)^2 / 8
    for n in (1, 2, 5, 8):
        lam = spectral.eigenvalue(n)
        for dt in (0.01, 0.1, 0.5):
            k = 4096
            s = (np.arange(k) + 0.5) * (dt / k)
            quad = np.exp(-lam * s).sum() * (dt / k)
            factor = spectral.phi1_factors(n, dt)[n - 1]
            tol = (lam * dt / k) ** 2 / 8.0 + 1e-12
            assert factor == pytest.approx(quad, rel=tol)


# --- norms ------------------------------------------------------------------

def test_l2_norm_pythagoras():
    # the norm the simulate and moment-growth "l2" columns print
    assert _state_norm("l2", np.array([3.0, 4.0]), engine(2, 8)) == 5.0


def test_lp_norm_of_first_mode_grid():
    # the taming norm's node quadrature: ||e_1||_{L2} = 1
    got = drift_norm(spectral.unit_mode(1, 1), linear(1.0), 63)
    assert abs(got - 1.0) <= 1e-10


def test_sup_norm_of_first_mode_grid():
    # M odd puts a node exactly at x = 1/2 where sqrt(2) sin(pi x) peaks
    got = _state_norm("sup", spectral.unit_mode(1, 1).coeffs, engine(1, 63))
    assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)


# --- operator inequalities on grids of modes and times ----------------------

def test_smoothing_bound():
    # lam^a e^{-lam t} min(t,1)^a <= 1.1 sup_u u^a e^{-u} for a in {1/4,1/2,1}
    lam = spectral.eigenvalues(128)[:, None]
    t = np.logspace(-6, 1, 200)[None, :]
    for a in (0.25, 0.5, 1.0):
        lhs = lam ** a * np.exp(-lam * t) * np.minimum(t, 1.0) ** a
        sup = a ** a * math.exp(-a)
        assert np.max(lhs) <= 1.1 * sup


def test_exponential_holder_bound():
    # |e^{-lam t} - e^{-lam s}| <= lam^a |t - s|^a with constant 1
    lam = spectral.eigenvalues(64)
    times = np.linspace(0.0, 3.0, 41)
    for a in (0.25, 0.5, 1.0):
        for i, t in enumerate(times):
            s = times[i + 1:]
            lhs = np.abs(np.exp(-lam[:, None] * t) - np.exp(-lam[:, None] * s[None, :]))
            rhs = lam[:, None] ** a * np.abs(t - s[None, :]) ** a
            assert np.all(lhs <= rhs * (1 + 1e-12))


# --- field constructors and validation --------------------------------------

def test_unit_mode_bounds_checked():
    with pytest.raises(ConfigurationError):
        spectral.unit_mode(4, 5)
    with pytest.raises(ConfigurationError):
        spectral.unit_mode(4, 0)


def test_multi_mode_requires_summable_rate():
    with pytest.raises(ConfigurationError):
        spectral.multi_mode(8, rate=1.0)
    f = spectral.multi_mode(8, amplitude=2.0, rate=2.0)
    assert f.coeffs[0] == 2.0
    assert f.coeffs[1] == pytest.approx(-0.5)


def test_bump_profile_roughly_centered():
    f = spectral.bump_profile(32, 128, center=0.5, width=0.1, amplitude=1.0)
    values = engine(32, 129).basis @ f.coeffs  # odd M -> node at 1/2
    mid = values[64]
    assert mid == pytest.approx(1.0, abs=0.02)
    assert abs(values[0]) < 0.01 and abs(values[-1]) < 0.01


def test_fields_reject_non_finite():
    with pytest.raises(ConfigurationError):
        spectral.SpectralField(np.array([1.0, np.nan]))
    with pytest.raises(ConfigurationError):
        spectral.SpectralField(np.zeros((2, 2, 2)))
