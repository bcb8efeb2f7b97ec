"""Reaction terms: pointwise lifts, the taming norm, and the audit.

The quadrature oracle below is the reference for every pinned mode value:
it integrates <f(x(.)), e_n> directly on a 2e5-point grid, independently of
the package's transforms.  For the cubic on the first mode it reproduces
the closed forms -1.5 a^3 (mode 1) and +0.5 a^3 (mode 3) to 13 digits,
which is what licenses freezing those numbers in the tests.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedspde import nonlinearity as nl
from tamedspde import spectral
from tamedspde.errors import ConfigurationError, TrajectoryOverflow

from reference import apply_nemytskii, drift_norm


def quadrature_mode(f, coeffs, n, n_points=200_000):
    """<f(x(.)), e_n> by trapezoid quadrature; the oracle for mode values."""
    xi = np.linspace(0.0, 1.0, n_points + 1)
    x_vals = np.zeros_like(xi)
    for m, a in enumerate(coeffs, start=1):
        x_vals += a * math.sqrt(2.0) * np.sin(m * np.pi * xi)
    return np.trapezoid(f(x_vals) * math.sqrt(2.0) * np.sin(n * np.pi * xi), xi)


def quadrature_l2(f, coeffs, n_points=200_000):
    """L2 norm of f(x(.)) by trapezoid quadrature."""
    xi = np.linspace(0.0, 1.0, n_points + 1)
    x_vals = np.zeros_like(xi)
    for m, a in enumerate(coeffs, start=1):
        x_vals += a * math.sqrt(2.0) * np.sin(m * np.pi * xi)
    return math.sqrt(np.trapezoid(f(x_vals) ** 2, xi))


def test_oracle_reproduces_closed_forms():
    # -(a sqrt2 sin)^3 projects onto modes 1 and 3 with weights -3/2 a^3, a^3/2
    a = 1.3
    cube = lambda z: -z ** 3
    assert quadrature_mode(cube, [a], 1) == pytest.approx(-1.5 * a ** 3, rel=1e-13)
    assert quadrature_mode(cube, [a], 2) == pytest.approx(0.0, abs=1e-13)
    assert quadrature_mode(cube, [a], 3) == pytest.approx(0.5 * a ** 3, rel=1e-13)
    assert quadrature_l2(cube, [1.0]) == pytest.approx(math.sqrt(2.5), rel=1e-13)


# --- pointwise lift ----------------------------------------------------------

def test_nemytskii_zero():
    out = apply_nemytskii(spectral.unit_mode(4, 1), nl.zero(), 16)
    assert np.all(out == 0.0)


def test_nemytskii_linear_is_identity_scaling():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(8)
    out = apply_nemytskii(x, nl.linear(3.0), 32)
    assert np.allclose(out, -3.0 * x, rtol=1e-12)


def test_nemytskii_cubic_mode_values():
    a = 1.3
    x = spectral.unit_mode(4, 1, a)
    out = apply_nemytskii(x, nl.dissipative_cubic(0.0), 64)
    assert out[0] == pytest.approx(-1.5 * a ** 3, rel=1e-12)
    assert out[1] == pytest.approx(0.0, abs=1e-12)
    assert out[2] == pytest.approx(0.5 * a ** 3, rel=1e-12)
    assert out[3] == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_nemytskii_matches_quadrature(seed):
    # degree-3 polynomial of a 3-mode field, nodes at 4x the mode count
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=3)
    cubic = nl.dissipative_cubic(1.0)
    out = apply_nemytskii(coeffs, cubic, 12)
    for n in range(1, 4):
        ref = quadrature_mode(cubic.f, coeffs, n)
        assert out[n - 1] == pytest.approx(ref, abs=1e-8)


def test_nemytskii_overflow_signal():
    x = spectral.unit_mode(2, 1, 1e150)
    with pytest.raises(TrajectoryOverflow):
        apply_nemytskii(x, nl.dissipative_cubic(1.0), 8)


# --- taming norm -------------------------------------------------------------

def test_drift_norm_zero():
    assert drift_norm(spectral.unit_mode(3, 2), nl.zero(), 12) == 0.0


def test_drift_norm_linear():
    x = np.array([3.0, 4.0])
    assert drift_norm(x, nl.linear(1.0), 16) == pytest.approx(5.0, abs=1e-10)


def test_drift_norm_cubic_first_mode():
    # ||2 sqrt2 sin^3||_{L2}^2 = 8 * int sin^6 = 8 * 5/16 = 2.5
    x = spectral.unit_mode(1, 1)
    got = drift_norm(x, nl.dissipative_cubic(0.0), 64)
    assert got == pytest.approx(1.5811388300841898, rel=1e-12)
    assert got == pytest.approx(quadrature_l2(lambda z: -z ** 3, [1.0]), rel=1e-10)


def test_drift_norm_never_silently_nan():
    x = spectral.unit_mode(2, 1, 1e200)
    with pytest.raises(TrajectoryOverflow):
        drift_norm(x, nl.dissipative_cubic(1.0), 8)


# --- descriptors -------------------------------------------------------------

def test_constructor_metadata():
    cubic = nl.dissipative_cubic(1.0)
    assert cubic.sup_fprime == -1.0     # dissipative with margin 1
    assert cubic.growth_exponent == 3.0
    assert cubic.certifies_second_moment and cubic.certifies_all_moments

    pure = nl.dissipative_cubic(0.0)
    assert pure.sup_fprime == 0.0       # no dissipative margin
    assert not pure.certifies_all_moments

    ac = nl.allen_cahn(1.0)
    assert ac.sup_fprime == 1.0
    assert ac.certifies_second_moment and not ac.certifies_all_moments
    assert "second moments only" in ac.note

    lin = nl.linear(2.0)
    assert lin.sup_fprime == -2.0       # dissipative with margin 2

    poly = nl.polynomial([0.0, 0.0, 1.0])
    assert math.isinf(poly.sup_fprime)
    assert poly.growth_exponent == 2.0


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        nl.linear(-1.0)
    with pytest.raises(ConfigurationError):
        nl.dissipative_cubic(-0.5)
    with pytest.raises(ConfigurationError):
        nl.polynomial([np.inf])


def test_polynomial_evaluation_order():
    # coeffs are ascending-degree: 1 + 2z - z^2
    p = nl.polynomial([1.0, 2.0, -1.0])
    assert p.f(np.array([2.0]))[0] == pytest.approx(1.0 + 4.0 - 4.0)
    assert p.fprime(np.array([2.0]))[0] == pytest.approx(2.0 - 4.0)


_COEFFS = [0.5, -1.0, 0.0, -1.0, 2.0]


@pytest.mark.parametrize("reaction, reference", [
    (nl.linear(1.5), lambda z: -1.5 * z),
    (nl.dissipative_cubic(1.0), lambda z: -(z * z * z) - 1.0 * z),
    (nl.allen_cahn(2.0), lambda z: -(z * z * z) - (-2.0) * z),
    (nl.polynomial(_COEFFS), lambda z: npoly.polyval(z, _COEFFS)),
    (nl.polynomial([3.0]), lambda z: npoly.polyval(z, [3.0])),
], ids=["linear", "cubic", "allen_cahn", "polynomial", "constant"])
def test_kernels_with_out_match_allocating_calls_bitwise(reaction, reference):
    # the engine passes a reused buffer as out; every bit must be as without
    z = np.random.default_rng(0).normal(scale=3.0, size=(16, 7))
    z[0, :6] = [np.inf, -np.inf, np.nan, 1e200, -1e200, -0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference(z)
        alloc = reaction.f(z)
        out = np.full_like(z, 7.0)
        got = reaction.f(z, out=out)
    assert got is out
    assert np.array_equal(alloc.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# --- audit -------------------------------------------------------------------

def test_audit_dissipative_cubic():
    rep = nl.audit_assumptions(nl.dissipative_cubic(1.0))
    assert rep.sup_fprime == -1.0  # attained at z = 0, which the grid contains
    assert rep.all_moments_ok and rep.second_moment_ok
    # finite-window fit of |f|+|f'|+|f''| on [-10,10]; the lower-degree
    # derivative terms flatten the slope well below the asymptotic degree 3
    assert rep.growth_exponent_fit == pytest.approx(2.1795527213624752, rel=1e-9)
    assert rep.bound_constant == pytest.approx(6.049296549726244, rel=1e-9)


def test_audit_growth_fit_approaches_declared_degree():
    fits = [nl.audit_assumptions(nl.dissipative_cubic(1.0), z_range=(-r, r),
                                 samples=4001).growth_exponent_fit
            for r in (10.0, 100.0, 1000.0)]
    assert fits[0] < fits[1] < fits[2] < 3.0
    assert fits[2] > 2.9


def test_audit_allen_cahn():
    rep = nl.audit_assumptions(nl.allen_cahn(1.0))
    assert rep.sup_fprime == 1.0
    assert rep.second_moment_ok      # 1 < pi^2
    assert not rep.all_moments_ok


def test_audit_unstable_square():
    rep = nl.audit_assumptions(nl.polynomial([0.0, 0.0, 1.0]))
    assert rep.sup_fprime == 20.0    # f'(z) = 2z peaks at the window edge
    assert not rep.second_moment_ok and not rep.all_moments_ok
    # max of (z^2+2|z|+2)/(1+z^2) sits at z = (sqrt5-1)/2, inside the grid
    assert rep.bound_constant == pytest.approx(2.618033988749895, rel=1e-5)


@settings(max_examples=30)
@given(c1=st.floats(-3.0, 3.0), c3=st.floats(-3.0, 3.0))
def test_audit_flags_monotone_in_window(c1, c3):
    # widening the window can only lower the certification flags
    p = nl.polynomial([0.0, c1, 0.0, c3])
    flags = []
    for r in (1.0, 5.0, 10.0):
        rep = nl.audit_assumptions(p, z_range=(-r, r), samples=801)
        flags.append((rep.second_moment_ok, rep.all_moments_ok))
    for prev, nxt in zip(flags, flags[1:]):
        assert prev[0] or not nxt[0]
        assert prev[1] or not nxt[1]


def test_audit_rejects_bad_window():
    with pytest.raises(ConfigurationError):
        nl.audit_assumptions(nl.zero(), z_range=(1.0, 1.0))
    with pytest.raises(ConfigurationError):
        nl.audit_assumptions(nl.zero(), samples=1)


def test_audit_report_round_trips_to_dict():
    d = asdict(nl.audit_assumptions(nl.linear(1.0)))
    assert d["sup_fprime"] == -1.0
    assert d["all_moments_ok"] is True
    assert set(d) == {"z_lo", "z_hi", "n_samples", "sup_fprime",
                      "growth_exponent_fit", "bound_constant",
                      "second_moment_ok", "all_moments_ok"}
