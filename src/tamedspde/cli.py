"""Command-line experiment runner.

    tamedspde <experiment> --config FILE [--seed N] [--workers K] [--out DIR]

Flags override the config file.  Each run writes, under the output
directory: <experiment>.csv (schema-versioned '#' header line, 17
significant digits), <experiment>.json (summary), <experiment>.gp (a ready
gnuplot script over the CSV), a fit.json for rate studies, and
manifest.json embedding the fully resolved configuration and its hash.
CSV bytes depend only on the resolved configuration, never on the worker
count or the wall clock.

Exit codes: 0 success, 2 configuration error, 3 numeric failure (a tamed
trajectory leaving the finite range or breaking the taming bound, reported
with step and trajectory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .config import EXPERIMENTS, ExperimentConfig, build_x0, parse_config
from .errors import ConfigurationError, TrajectoryOverflow
from .estimators import (FUNCTIONALS, contraction_rate, cost_curve,
                         ergodic_average, estimate_moment, path_norms,
                         weak_order_study)
from .noise import classify_regularity
from .nonlinearity import audit_assumptions

_CSV_VERSION = "tamedspde-csv v1"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _json_default(obj):
    # json asks only for what it cannot encode: numpy arrays and scalars
    # (np.float64 is a float, so json prints it with float.__repr__)
    return obj.tolist() if isinstance(obj, np.ndarray) else obj.item()


def _write_csv(path: Path, experiment: str, columns, rows) -> None:
    lines = [f"# {_CSV_VERSION} experiment={experiment}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n",
                    encoding="utf-8")


def _write_gp(path: Path, experiment: str) -> None:
    header = (f"# gnuplot script for {experiment}.csv\n"
              'set datafile separator ","\n'
              "set key autotitle columnhead\n"
              f'csv = "{experiment}.csv"\n')
    path.write_text(header + _EXPERIMENTS[experiment][1], encoding="utf-8")


# ---------------------------------------------------------------------------
# experiment dispatch: each returns (columns, rows, summary, extra_files)

def _run_simulate(cfg: ExperimentConfig):
    study = path_norms(cfg.scheme, cfg.n_paths, cfg.workers)
    rows = []
    paths = []
    for i, blowup in enumerate(study.blowup_steps.tolist()):
        # rows stop before the first non-finite state
        kept = len(study.times) if blowup < 0 else blowup
        rows += [(i, study.times[n], study.l2[n, i], study.sup[n, i])
                 for n in range(kept)]
        paths.append({"trajectory": i,
                      "blowup_step": None if blowup < 0 else blowup,
                      "final_l2": float(study.l2[kept - 1, i])})
    n_blown = sum(1 for p in paths if p["blowup_step"] is not None)
    summary = {"paths": paths, "n_paths": cfg.n_paths,
               "blowup_fraction": n_blown / cfg.n_paths}
    return ("path", "t", "l2_norm", "sup_norm"), rows, summary, {}


def _run_moment_growth(cfg: ExperimentConfig):
    p = cfg.params
    study = estimate_moment(cfg.scheme, p["power"], p["norm"],
                            p["checkpoints"], cfg.n_paths, cfg.workers)
    rows = []
    if study.estimates is not None:
        for t, est in zip(study.checkpoints, study.estimates):
            rows.append((t, est.value, est.std_error))
    summary = {"power": study.power, "norm": study.norm,
               "n_paths": study.n_paths,
               "blowup_fraction": study.blowup_fraction,
               "checkpoints": list(study.checkpoints),
               "estimates": None if study.estimates is None else
               [{"t": t, "value": e.value, "std_error": e.std_error}
                for t, e in zip(study.checkpoints, study.estimates)]}
    return ("t", "estimate", "std_error"), rows, summary, {}


def _run_weak_order(cfg: ExperimentConfig):
    p = cfg.params
    study = weak_order_study(cfg.scheme, p["dt_list"],
                             FUNCTIONALS[p["functional"]], cfg.n_paths,
                             cfg.workers)
    rows = [(lv.dt, lv.n_steps, lv.mean, lv.std_error, lv.error,
             lv.error_std_error, lv.noise_dominated) for lv in study.levels]
    fit = None if study.fit is None else {
        "slope": study.fit.slope, "intercept": study.fit.intercept,
        "r_squared": study.fit.r_squared,
        "n_levels_used": len(study.fit.points)}
    summary = {"functional": study.functional, "horizon": study.horizon,
               "n_paths": study.n_paths,
               "noise_dominated": study.noise_dominated, "fit": fit}
    extra = {"fit.json": {"noise_dominated": study.noise_dominated,
                          "fit": fit}}
    return (("dt", "n_steps", "estimate", "std_error", "error_vs_ref",
             "error_std_error", "noise_dominated"), rows, summary, extra)


def _run_ergodic(cfg: ExperimentConfig):
    p = cfg.params
    study = ergodic_average(cfg.scheme, FUNCTIONALS[p["functional"]],
                            p["burn_in"], cfg.n_paths, cfg.workers)
    rows = [("ensemble", study.ensemble.value, study.ensemble.std_error,
             study.ensemble.n_samples),
            ("time_average", study.time_average.value,
             study.time_average.std_error, study.time_average.n_samples)]
    summary = {"functional": study.functional, "horizon": study.horizon,
               "burn_in": study.burn_in, "n_paths": study.n_paths,
               "ensemble": {"value": study.ensemble.value,
                            "std_error": study.ensemble.std_error},
               "time_average": {"value": study.time_average.value,
                                "std_error": study.time_average.std_error}}
    return ("estimator", "value", "std_error", "n_samples"), rows, summary, {}


def _run_contraction(cfg: ExperimentConfig):
    p = cfg.params
    scheme = cfg.scheme
    x0_a = build_x0(p["x0_a"], scheme.n_modes, scheme.n_nodes)
    x0_b = build_x0(p["x0_b"], scheme.n_modes, scheme.n_nodes)
    study = contraction_rate(replace(scheme, x0=x0_a), x0_b, cfg.n_paths,
                             cfg.workers)
    rows = [(i, r) for i, r in enumerate(study.per_path_rates)]
    summary = {"rate": study.rate, "ci_low": study.ci_low,
               "ci_high": study.ci_high, "n_paths": study.n_paths,
               "initial_distance": study.initial_distance}
    return ("path", "rate"), rows, summary, {}


def _run_cost_curve(cfg: ExperimentConfig):
    p = cfg.params
    curve = cost_curve(p["alpha"], p["regularity"], p["horizon_power"],
                       p["eps_list"], p["horizon_scale"], p["accuracy_scale"])
    rows = [(pt.eps, pt.horizon, pt.dt, pt.n_steps, pt.bound_product)
            for pt in curve.points]
    products = [pt.bound_product for pt in curve.points]
    summary = {"alpha": curve.alpha, "regularity": curve.regularity,
               "horizon_power": curve.horizon_power,
               "horizon_scale": curve.horizon_scale,
               "accuracy_scale": curve.accuracy_scale,
               "bound_product_min": min(products),
               "bound_product_max": max(products)}
    return (("eps", "horizon", "dt", "n_steps", "bound_product"), rows,
            summary, {})


def _run_audit(cfg: ExperimentConfig):
    p = cfg.params
    nl = cfg.scheme.nl
    report = audit_assumptions(nl, (p["z_lo"], p["z_hi"]), p["samples"])
    try:
        reg = classify_regularity(cfg.scheme.cov)
        reg_dict = {"exponent": reg.exponent, "attained": reg.attained,
                    "trace_class": reg.trace_class}
    except ConfigurationError:
        reg_dict = None
    summary = {"nonlinearity": nl.name, "report": asdict(report),
               "declared_sup_fprime": nl.sup_fprime,
               "declared_growth_exponent": nl.growth_exponent,
               "certifies_second_moment": nl.certifies_second_moment,
               "certifies_all_moments": nl.certifies_all_moments,
               "note": nl.note, "noise_regularity": reg_dict}
    rows = [("nonlinearity", nl.name)]
    rows += list(asdict(report).items())
    rows += [("certifies_second_moment", nl.certifies_second_moment),
             ("certifies_all_moments", nl.certifies_all_moments)]
    if reg_dict is not None:
        rows += [("noise_regularity_exponent", reg_dict["exponent"]),
                 ("noise_regularity_attained", reg_dict["attained"]),
                 ("noise_trace_class", reg_dict["trace_class"])]
    else:
        rows += [("noise_regularity_exponent", "unclassified")]

    print(f"audit: nonlinearity {nl.name} on "
          f"[{report.z_lo:g}, {report.z_hi:g}] ({report.n_samples} samples)")
    print(f"  sup f' = {report.sup_fprime:.6g}   "
          f"growth exponent fit = {report.growth_exponent_fit:.4g}   "
          f"bound constant = {report.bound_constant:.6g}")
    print(f"  second-moment condition: "
          f"{'ok' if report.second_moment_ok else 'NOT satisfied'}   "
          f"all-moments condition: "
          f"{'ok' if report.all_moments_ok else 'NOT satisfied'}")
    if nl.note:
        print(f"  note: {nl.note}")
    if reg_dict is None:
        print("  noise regularity: unclassified (explicit weights)")
    else:
        print(f"  noise smoothing exponent = {reg_dict['exponent']:g} "
              f"(attained: {reg_dict['attained']}, "
              f"trace class: {reg_dict['trace_class']})")
    return ("key", "value"), rows, summary, {}


# experiment -> (runner, gnuplot body after the common header); a runner
# returns (columns, rows, summary, extra_files)
_EXPERIMENTS = {
    "simulate": (_run_simulate, (
        'set xlabel "t"\nset ylabel "L2 norm"\n'
        'plot csv using 2:3 with dots title "paths"\n')),
    "moment-growth": (_run_moment_growth, (
        'set xlabel "t"\nset ylabel "moment estimate"\n'
        'plot csv using 1:2:3 with yerrorlines title "moment"\n')),
    "weak-order": (_run_weak_order, (
        'set logscale xy\nset xlabel "dt"\nset ylabel "weak error"\n'
        'plot csv using 1:5 with linespoints title "error vs reference"\n')),
    "ergodic": (_run_ergodic, (
        'set ylabel "estimate"\nset xrange [-0.5:1.5]\n'
        'plot csv using 0:2:3 with yerrorbars title "estimators"\n')),
    "contraction": (_run_contraction, (
        'set xlabel "path"\nset ylabel "decay rate"\n'
        'plot csv using 1:2 with points title "per-path rate"\n')),
    "cost-curve": (_run_cost_curve, (
        'set logscale xy\nset xlabel "eps"\nset ylabel "steps"\n'
        'plot csv using 1:4 with linespoints title "N(eps)"\n')),
    "audit": (_run_audit, "# tabular report; nothing to plot\n"),
}


def _config_hash(resolved: dict) -> str:
    # hash only what determines the output bytes: directory and worker
    # count are excluded, so equal hashes promise equal CSVs
    hashed = {k: v for k, v in resolved.items() if k != "output"}
    hashed["sampling"] = {k: v for k, v in resolved["sampling"].items()
                          if k != "workers"}
    config_json = json.dumps(hashed, sort_keys=True, default=_json_default)
    return hashlib.sha256(config_json.encode()).hexdigest()


def run(cfg: ExperimentConfig) -> dict:
    """Execute one experiment, write its artifacts, and return the manifest
    written to manifest.json."""
    started = time.perf_counter()
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"output.directory: {exc}") from None

    columns, rows, summary, extra = _EXPERIMENTS[cfg.experiment][0](cfg)

    outputs = []
    if "csv" in cfg.formats:
        name = f"{cfg.experiment}.csv"
        _write_csv(out_dir / name, cfg.experiment, columns, rows)
        outputs.append(name)
    if "json" in cfg.formats:
        name = f"{cfg.experiment}.json"
        _write_json(out_dir / name, summary)
        outputs.append(name)
        for name, payload in extra.items():
            _write_json(out_dir / name, payload)
            outputs.append(name)
    if "gnuplot" in cfg.formats:
        name = f"{cfg.experiment}.gp"
        _write_gp(out_dir / name, cfg.experiment)
        outputs.append(name)

    manifest = {
        "artifact": "tamedspde", "version": __version__,
        "experiment": cfg.experiment, "config": cfg.resolved,
        "config_hash": _config_hash(cfg.resolved), "seed": cfg.scheme.seed,
        "workers": cfg.workers, "wall_time_s": time.perf_counter() - started,
        "outputs": outputs, "warnings": list(cfg.notes)}
    _write_json(out_dir / "manifest.json", manifest)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tamedspde",
        description="spectral simulator and experiment harness for a tamed "
                    "exponential Euler scheme")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="YAML config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    overrides = {"experiment": args.experiment}
    if args.seed is not None:
        overrides["sampling.seed"] = args.seed
    if args.workers is not None:
        overrides["sampling.workers"] = args.workers
    if args.out is not None:
        overrides["output.directory"] = args.out

    try:
        cfg = parse_config(args.config, overrides)
    except (ConfigurationError, OSError, yaml.YAMLError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        manifest = run(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except TrajectoryOverflow as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    for note in manifest["warnings"]:
        print(f"warning: {note}", file=sys.stderr)
    print(f"{cfg.experiment}: wrote {', '.join(manifest['outputs'])} "
          f"in {Path(cfg.out_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
