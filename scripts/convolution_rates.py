#!/usr/bin/env python3
"""Print the sampling-free weak-error curve of the discretized stochastic
convolution for a white and a power-decay covariance, with fitted rates.

The errors come from closed-form variance sums, so the printed slopes are
free of Monte Carlo noise: they show the noise-regularity split (order 1/2
for white noise, order 1 once the covariance is trace class) directly.
"""

import argparse

from tamedspde import noise
from tamedspde.estimators import fit_rate
from tamedspde.gaussian_oracle import convolution_weak_error_curve


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--modes", type=int, default=128)
    ap.add_argument("--t-fix", type=float, default=1.0,
                    help="time at which the weak error is evaluated")
    ap.add_argument("--levels", type=int, default=7,
                    help="dt runs over 2^-3 .. 2^-(levels+2)")
    ap.add_argument("--decay", type=float, default=3.0,
                    help="exponent of the power-decay covariance")
    args = ap.parse_args()

    dts = [2.0 ** -k for k in range(3, 3 + args.levels)]
    cases = (("white", noise.white(args.modes)),
             (f"decay {args.decay:g}", noise.power_decay(args.modes, args.decay)))
    for label, cov in cases:
        curve = convolution_weak_error_curve(cov, args.t_fix, dts)
        print(f"{label} covariance (2 x regularity exponent = "
              f"{2.0 * noise.classify_regularity(cov).exponent:g}):")
        for dt, err in curve:
            print(f"  dt {dt:<12.8f} |weak error| {err:.6e}")
        fit = fit_rate([dt for dt, _ in curve], [err for _, err in curve])
        print(f"  fitted slope {fit.slope:.4f}  (r^2 {fit.r_squared:.5f})")


if __name__ == "__main__":
    main()
