"""Reaction terms: scalar functions lifted pointwise to fields.

A :class:`Nonlinearity` bundles a scalar function f with its first two
derivatives and the metadata the solver and the experiment harness consult:
a polynomial growth exponent, the supremum of f' over the real line (finite
or +inf when unknown), and an optional dissipativity margin.

Two sufficient conditions drive everything downstream.  If sup f' is below
the leading Laplacian eigenvalue pi^2, second moments of the dynamics stay
bounded; if sup f' is strictly negative, the same holds for every moment
order and the margin gives a contraction rate.  ``audit_assumptions``
estimates sup f' and the growth exponent numerically on a bounded window,
which is the only honest claim sampling can make; the flags it reports are
valid on that window and nowhere else.

Pointwise evaluation on a spectral field happens in ``Engine.step``:
synthesize with ``Engine.basis``, apply f at each node, project back with
its transpose and ``Engine.weight``.  For polynomial f of degree d this is
exact (no aliasing) as soon as the node count is at least d times the mode
count, since products of the first J sine modes stay below the grid's
Nyquist index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .spectral import eigenvalue


# Scalar kernels live at module level (not closures), so Nonlinearity values
# pickle: forked lanes inherit them, but a spawned process would need it.
# With or without ``out``, a reaction kernel does the same operations in the
# same order: results are bitwise equal.

def _zero_fn(z):
    return np.zeros_like(z)


def _linear_fn(z, slope, out=None):
    return np.multiply(slope, z, out=out)


def _constant_fn(z, value):
    return np.full_like(z, value)


def _cubic_fn(z, linear, out=None):
    # f(z) = -z^3 - linear * z; allen_cahn reuses this with linear = -a
    cube = np.multiply(np.multiply(z, z, out=out), z, out=out)
    return np.subtract(np.negative(cube, out=out), linear * z, out=out)


def _cubic_d1(z, linear):
    return -3.0 * (z * z) - linear


def _cubic_d2(z):
    return -6.0 * z


def _poly_fn(z, coeffs, out=None):
    # Horner in the order of npoly.polyval: z*0 + c[-1], then *z + c[-i]
    acc = np.add(np.multiply(z, 0, out=out), coeffs[-1], out=out)
    for c in coeffs[-2::-1]:
        acc *= z
        acc += c
    return acc


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """A scalar reaction function with derivatives and certification data.

    sup_fprime is the supremum of f' over all of R (not just some window);
    constructors set it from calculus, custom polynomials leave it +inf.
    """

    name: str
    f: Callable
    fprime: Callable
    fsecond: Callable
    growth_exponent: float
    sup_fprime: float
    note: str | None = None

    def __post_init__(self):
        if self.growth_exponent < 2:
            raise ConfigurationError(
                f"growth_exponent must be >= 2, got {self.growth_exponent}")

    @property
    def certifies_second_moment(self) -> bool:
        """True when sup f' < pi^2, the threshold for bounded second moments."""
        return self.sup_fprime < eigenvalue(1)

    @property
    def certifies_all_moments(self) -> bool:
        """True when sup f' < 0, which certifies every moment order."""
        return self.sup_fprime < 0.0


def zero() -> Nonlinearity:
    return Nonlinearity(
        name="zero",
        f=_zero_fn, fprime=_zero_fn, fsecond=_zero_fn,
        growth_exponent=2.0, sup_fprime=0.0)


def linear(c: float = 1.0) -> Nonlinearity:
    """f(z) = -c z with c >= 0; the closed-form comparison case."""
    if not 0 <= c < math.inf:   # NaN included
        raise ConfigurationError(
            f"linear coefficient must be finite and >= 0, got {c}")
    return Nonlinearity(
        name="linear",
        f=partial(_linear_fn, slope=-c),
        fprime=partial(_constant_fn, value=-c),
        fsecond=_zero_fn,
        growth_exponent=2.0,
        sup_fprime=-c)


def dissipative_cubic(c: float = 1.0) -> Nonlinearity:
    """f(z) = -z^3 - c z, c >= 0.  The default drift throughout.

    sup f' = -c, so c > 0 certifies all moment orders with margin c.
    """
    if not 0 <= c < math.inf:   # NaN included
        raise ConfigurationError(
            f"cubic linear coefficient must be finite and >= 0, got {c}")
    return Nonlinearity(
        name="dissipative_cubic",
        f=partial(_cubic_fn, linear=c),
        fprime=partial(_cubic_d1, linear=c),
        fsecond=_cubic_d2,
        growth_exponent=3.0,
        sup_fprime=-c)


def allen_cahn(a: float = 1.0) -> Nonlinearity:
    """f(z) = -z^3 + a z.  For a > 0, sup f' = a.

    With 0 < a < pi^2 the second-moment condition holds, but the
    higher-moment condition is not certified by any route implemented here,
    so the descriptor carries a warning note that surfaces in run manifests.
    """
    if not math.isfinite(a):
        raise ConfigurationError(f"allen_cahn gain must be finite, got {a}")
    note = None
    if a > 0:
        note = ("dissipativity certified for second moments only; "
                "higher-moment condition unverified for positive linear gain")
    return Nonlinearity(
        name="allen_cahn",
        f=partial(_cubic_fn, linear=-a),
        fprime=partial(_cubic_d1, linear=-a),
        fsecond=_cubic_d2,
        growth_exponent=3.0,
        sup_fprime=float(a),
        note=note)


def polynomial(coeffs) -> Nonlinearity:
    """f(z) = sum coeffs[k] z^k.  No derivative bound is computed; run the
    audit to estimate one on a window of interest."""
    # imported here: no other reaction needs numpy.polynomial's 0.7 MB
    from numpy.polynomial import polynomial as npoly
    c = np.asarray(coeffs, dtype=np.float64)
    if c.ndim != 1 or c.shape[0] < 1 or not np.all(np.isfinite(c)):
        raise ConfigurationError("polynomial coeffs must be a finite 1-d sequence")
    degree = int(np.max(np.nonzero(c)[0])) if np.any(c != 0) else 0
    return Nonlinearity(
        name="polynomial",
        f=partial(_poly_fn, coeffs=c),
        fprime=partial(_poly_fn, coeffs=npoly.polyder(c)),
        fsecond=partial(_poly_fn, coeffs=npoly.polyder(c, 2)),
        growth_exponent=float(max(2, degree)),
        sup_fprime=math.inf,
        note="derivative bound unknown; certification requires an audit")


@dataclass(frozen=True)
class AuditReport:
    """Numerical check of the growth and derivative-bound hypotheses.

    Everything here is measured on [z_lo, z_hi] only; the flags certify
    nothing outside that window.
    """

    z_lo: float
    z_hi: float
    n_samples: int
    sup_fprime: float           # max of f' over the sampled window
    growth_exponent_fit: float  # log-log slope of |f|+|f'|+|f''| for |z| >= 1
    bound_constant: float       # smallest K with |f|+|f'|+|f''| <= K(1+|z|^g)
    second_moment_ok: bool      # sampled sup f' < pi^2
    all_moments_ok: bool        # sampled sup f' < 0


def audit_assumptions(nl: Nonlinearity, z_range: tuple[float, float] = (-10.0, 10.0),
                      samples: int = 2001) -> AuditReport:
    """Estimate sup f' and the growth exponent on a bounded window.

    Sampling is a uniform grid, so the report is deterministic and widening
    the window can only push the sampled supremum up: the ok flags never
    flip from false to true as the window grows.
    """
    z_lo, z_hi = float(z_range[0]), float(z_range[1])
    if not (math.isfinite(z_lo) and math.isfinite(z_hi) and z_lo < z_hi):
        raise ConfigurationError(f"z_range must be a bounded interval, got {z_range}")
    if samples < 2:
        raise ConfigurationError(f"samples must be >= 2, got {samples}")

    z = np.linspace(z_lo, z_hi, samples)
    fp = np.asarray(nl.fprime(z), dtype=np.float64)
    total = (np.abs(np.asarray(nl.f(z), dtype=np.float64))
             + np.abs(fp)
             + np.abs(np.asarray(nl.fsecond(z), dtype=np.float64)))

    # Growth is read off where |z| >= 1; below that the constant term of the
    # bound dominates and the log-log fit would see only noise.
    tail = (np.abs(z) >= 1.0) & (total > 0.0)
    log_abs = np.log(np.abs(z[tail]))
    if tail.sum() >= 2 and np.ptp(log_abs) > 0.0:
        slope = np.polyfit(log_abs, np.log(total[tail]), 1)[0]
    else:
        slope = math.nan

    bound_constant = float(np.max(total / (1.0 + np.abs(z) ** nl.growth_exponent)))
    sup_fp = float(fp.max())
    return AuditReport(
        z_lo=z_lo, z_hi=z_hi, n_samples=samples,
        sup_fprime=sup_fp,
        growth_exponent_fit=float(slope),
        bound_constant=bound_constant,
        second_moment_ok=sup_fp < eigenvalue(1),
        all_moments_ok=sup_fp < 0.0)
