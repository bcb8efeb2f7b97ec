"""Benchmark workloads: configs generated from the seed, work counts, oracles.

Configs are built here rather than read from ``configs/``, so editing the
shipped configs cannot move the benchmark.  The seed reaches the program
only as ``sampling.seed``; the shape of the work is fixed per workload so
every run of a workload does the same number of path-steps.

The checks use the acceptance suite's rules: check 09 for the weak-order
slope and check 08 for the ergodic estimators.  The ergodic target is the
closed-form invariant value sum_j q_j / (2 (lambda_j + c)), evaluated here
independently of the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# seven dyadic levels, 2^-2 .. 2^-8, as in acceptance check 09
_WEAK_DT = [2.0 ** -k for k in range(2, 9)]


def weak_order_config(seed: int) -> dict:
    return {
        "experiment": "weak-order",
        "model": {"nonlinearity": {"name": "dissipative_cubic", "c": 1.0},
                  "covariance": {"kind": "power_decay", "decay": 3.0},
                  "x0": {"kind": "unit_mode", "mode": 1},
                  "n_modes": 64, "n_nodes": 256},
        "discretization": {"horizon": 1.0, "dt_list": _WEAK_DT},
        "params": {"functional": "exp_neg_l2sq"},
        "sampling": {"n_paths": 4096, "seed": seed, "workers": 1},
    }


def ergodic_config(seed: int) -> dict:
    return {
        "experiment": "ergodic",
        "model": {"nonlinearity": {"name": "linear", "c": 1.0},
                  "covariance": "white",
                  "x0": {"kind": "unit_mode", "mode": 1},
                  "n_modes": 16, "n_nodes": 64},
        "discretization": {"dt": 0.02, "horizon": 50.0,
                           "noise_mode": "exact"},
        "params": {"functional": "l2_squared", "burn_in": 10.0},
        "sampling": {"n_paths": 2048, "seed": seed, "workers": 1},
    }


def weak_order_path_steps(cfg: dict) -> int:
    """Every level is run over every path: n_paths * sum of level steps."""
    horizon = cfg["discretization"]["horizon"]
    steps = sum(round(horizon / dt) for dt in cfg["discretization"]["dt_list"])
    return cfg["sampling"]["n_paths"] * steps


def ergodic_path_steps(cfg: dict) -> int:
    disc = cfg["discretization"]
    return cfg["sampling"]["n_paths"] * round(disc["horizon"] / disc["dt"])


def check_weak_order(cfg: dict, out_dir: Path) -> list:
    """Check 09's rule: a fit exists and its slope lies in [0.8, 1.2]."""
    fit = json.loads((out_dir / "fit.json").read_text())["fit"]
    if fit is None:
        return [("fit_exists", False, "every level noise-dominated")]
    slope = fit["slope"]
    return [("fit_exists", True, f"{fit['n_levels_used']} levels"),
            ("slope_in_0.8_1.2", 0.8 <= slope <= 1.2, f"slope {slope:.4f}")]


def linear_invariant_l2sq(c: float, n_modes: int) -> float:
    """E|X|^2 under the invariant law of the linear model with white noise."""
    return sum(1.0 / (2.0 * ((j * math.pi) ** 2 + c))
               for j in range(1, n_modes + 1))


def check_ergodic(cfg: dict, out_dir: Path) -> list:
    """Check 08's rule: each estimator within 3 SE + 5 % of the target."""
    summary = json.loads((out_dir / "ergodic.json").read_text())
    target = linear_invariant_l2sq(cfg["model"]["nonlinearity"]["c"],
                                   cfg["model"]["n_modes"])
    out = []
    for name in ("ensemble", "time_average"):
        est = summary[name]
        allowed = 3.0 * est["std_error"] + 0.05 * target
        err = abs(est["value"] - target)
        out.append((f"{name}_near_invariant", err <= allowed,
                    f"{est['value']:.5f} vs {target:.5f} (allowed {allowed:.5f})"))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], dict]
    path_steps: Callable[[dict], int]
    check: Callable[[dict, Path], list]


WORKLOADS = {
    "weak_order": Workload("weak_order", weak_order_config,
                           weak_order_path_steps, check_weak_order),
    "ergodic": Workload("ergodic", ergodic_config, ergodic_path_steps,
                        check_ergodic),
}
