#!/usr/bin/env python3
"""Compare ensemble and time-average estimates of the invariant squared-norm
mean against its closed form for the linear model f(z) = -c z.

With the exact one-step noise convolution the discrete chain's stationary
law coincides with the continuous one, so both estimators should land
within a few standard errors of the closed-form target.
"""

import argparse

from tamedspde import noise, spectral
from tamedspde.estimators import L2_SQUARED, ergodic_average
from tamedspde.gaussian_oracle import linear_invariant_variance
from tamedspde.integrators import SchemeConfig, whole_steps
from tamedspde.nonlinearity import linear


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--modes", type=int, default=16)
    ap.add_argument("--dt", type=float, default=0.02)
    ap.add_argument("--horizon", type=float, default=50.0)
    ap.add_argument("--burn-in", type=float, default=10.0)
    ap.add_argument("--paths", type=int, default=1000)
    ap.add_argument("--rate", type=float, default=1.0,
                    help="reaction rate c in f(z) = -c z")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cov = noise.white(args.modes)
    cfg = SchemeConfig(
        n_modes=args.modes, n_nodes=4 * args.modes, dt=args.dt,
        n_steps=whole_steps(args.horizon, args.dt), cov=cov,
        nl=linear(args.rate), x0=spectral.unit_mode(args.modes, 1),
        seed=args.seed, taming=True, noise_mode="exact")

    target = float(linear_invariant_variance(args.rate, cov).sum())
    study = ergodic_average(cfg, L2_SQUARED, burn_in=args.burn_in,
                            n_paths=args.paths)

    print(f"invariant squared-norm mean (closed form): {target:.6f}")
    for name, est in (("ensemble at horizon   ", study.ensemble),
                      ("per-path time average ", study.time_average)):
        z = abs(est.value - target) / est.std_error
        print(f"{name}: {est.value:.6f} +- {est.std_error:.6f}  "
              f"({z:.2f} SE from target)")


if __name__ == "__main__":
    main()
