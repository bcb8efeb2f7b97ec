"""End-to-end runs of the command-line driver against temp directories.

Runs here are miniature (a handful of paths, coarse grids) because the CLI
layer under test is dispatch, file writing, determinism, and exit codes;
statistical content is covered elsewhere.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from tamedspde import cli


def write_config(tmp_path, name="run.yaml", **sections):
    base = {
        "experiment": "simulate",
        "model": {"nonlinearity": "zero", "covariance": "white",
                  "n_modes": 8, "n_nodes": 32},
        "discretization": {"dt": 0.1, "n_steps": 5},
        "sampling": {"n_paths": 3, "seed": 1},
    }
    base.update(sections)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(base))
    return str(path)


def test_simulate_writes_all_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    for name in ("simulate.csv", "simulate.json", "simulate.gp",
                 "manifest.json"):
        assert (out / name).exists()
    lines = (out / "simulate.csv").read_text().splitlines()
    assert lines[0] == "# tamedspde-csv v1 experiment=simulate"
    assert lines[1] == "path,t,l2_norm,sup_norm"
    assert len(lines) == 2 + 3 * 6      # three paths, six states each
    assert "simulate: wrote" in capsys.readouterr().out


def test_manifest_contents(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["simulate", "--config", cfg, "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifact"] == "tamedspde"
    assert manifest["experiment"] == "simulate"
    assert manifest["seed"] == 1
    assert set(manifest["outputs"]) == {"simulate.csv", "simulate.json",
                                        "simulate.gp"}
    # the hash covers the computation: output section and worker count are
    # outside it, so runs differing only there hash identically
    hashed = {k: v for k, v in manifest["config"].items() if k != "output"}
    hashed["sampling"] = {k: v for k, v in manifest["config"]["sampling"].items()
                          if k != "workers"}
    config_json = json.dumps(hashed, sort_keys=True)
    assert manifest["config_hash"] == hashlib.sha256(
        config_json.encode()).hexdigest()
    # the manifest's embedded config replays through the CLI config layer
    from tamedspde.config import resolve_config
    replay = resolve_config(manifest["config"])
    assert replay.resolved == manifest["config"]


def test_import_loads_neither_openssl_nor_numpy_polynomial():
    # hashlib's OpenSSL and numpy.polynomial cost every run resident memory
    # that only the config hash and the polynomial reaction would use
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tamedspde.cli; "
         "print(sorted({'_hashlib', 'numpy.polynomial'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", "--config", cfg, "--out", str(out_a)])
    cli.main(["simulate", "--config", cfg, "--out", str(out_b)])
    assert (out_a / "simulate.csv").read_bytes() \
        == (out_b / "simulate.csv").read_bytes()
    ha = json.loads((out_a / "manifest.json").read_text())["config_hash"]
    hb = json.loads((out_b / "manifest.json").read_text())["config_hash"]
    assert ha == hb


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", "--config", cfg, "--out", str(out_a)])
    cli.main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "9"])
    assert (out_a / "simulate.csv").read_bytes() \
        != (out_b / "simulate.csv").read_bytes()
    assert json.loads((out_b / "manifest.json").read_text())["seed"] == 9


def test_worker_override_leaves_bytes_alone(tmp_path):
    cfg = write_config(tmp_path, experiment="moment-growth",
                       sampling={"n_paths": 40, "seed": 2},
                       params={"checkpoints": [0.2, 0.5]})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["moment-growth", "--config", cfg, "--out", str(out_a),
                     "--workers", "1"]) == 0
    assert cli.main(["moment-growth", "--config", cfg, "--out", str(out_b),
                     "--workers", "2"]) == 0
    assert (out_a / "moment-growth.csv").read_bytes() \
        == (out_b / "moment-growth.csv").read_bytes()


def test_weak_order_writes_fit_json(tmp_path):
    cfg = write_config(tmp_path, experiment="weak-order",
                       model={"nonlinearity": "zero", "covariance": "white",
                              "n_modes": 4, "n_nodes": 16,
                              "x0": {"kind": "zero"}},
                       discretization={"horizon": 1.0},
                       params={"dt_list": [0.25, 0.125, 0.0625, 0.03125]},
                       sampling={"n_paths": 256, "seed": 3})
    out = tmp_path / "out"
    assert cli.main(["weak-order", "--config", cfg, "--out", str(out)]) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert "noise_dominated" in fit
    lines = (out / "weak-order.csv").read_text().splitlines()
    assert lines[1].startswith("dt,n_steps,")
    assert len(lines) == 2 + 4          # one row per level


def test_gnuplot_script_references_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["simulate", "--config", cfg, "--out", str(out)])
    gp = (out / "simulate.gp").read_text()
    assert 'csv = "simulate.csv"' in gp
    assert 'set datafile separator ","' in gp


def test_formats_subset_skips_files(tmp_path):
    cfg = write_config(tmp_path, output={"formats": ["csv"]})
    out = tmp_path / "out"
    cli.main(["simulate", "--config", cfg, "--out", str(out)])
    assert (out / "simulate.csv").exists()
    assert not (out / "simulate.json").exists()
    assert not (out / "simulate.gp").exists()
    assert (out / "manifest.json").exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["simulate", "--config",
                     str(tmp_path / "absent.yaml")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, discretization={"dt": 0.3, "horizon": 1.0})
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: discretization.horizon: dt=0.3 does not divide "
        "1.0 into whole steps")


# A config file that is not valid UTF-8, or that gives a key twice in one
# mapping, is a configuration error: exit 2, not a traceback or a run on
# the last value, and nothing is written.
_HEAD = (b"experiment: simulate\n"
         b"model: {nonlinearity: zero, covariance: white, n_modes: 8, "
         b"n_nodes: 32}\n"
         b"discretization: {dt: 0.1, n_steps: 5}\n")


@pytest.mark.parametrize("tail, message", [
    (b"sampling: {n_paths: 3, seed: \xff}\n",
     "unacceptable character #x00ff: invalid start byte\n  in "),
    (b"sampling: {n_paths: 3}\nsampling: {n_paths: 5}\n",
     "found duplicate key 'sampling'\n  in "),
    (b"sampling: {n_paths: 5, n_paths: 7}\n",
     "found duplicate key 'n_paths'\n  in "),
])
def test_unreadable_config_exits_2(tmp_path, capsys, tail, message):
    cfg = tmp_path / "run.yaml"
    cfg.write_bytes(_HEAD + tail)
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: "), err
    assert message in err
    assert not (tmp_path / "out").exists()


# A level or checkpoint that is not a whole number of steps of dt, a NaN or
# an infinity among them, is a configuration error: exit 2, not a traceback.
_OFF_GRID = [
    ("weak-order", {"discretization": {"horizon": 1.0},
                    "params": {"dt_list": [0.25, 0.125, 0.0]}}),
    ("moment-growth", {"params": {"checkpoints": [float("nan")]}}),
    ("moment-growth", {"params": {"checkpoints": [float("inf")]}}),
]


@pytest.mark.parametrize("experiment, sections", _OFF_GRID)
def test_off_grid_value_exits_2(tmp_path, capsys, experiment, sections):
    cfg = write_config(tmp_path, experiment=experiment, **sections)
    assert cli.main([experiment, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: "), err
    assert "whole steps" in err


# A non-finite reaction coefficient is refused before any step is taken:
# exit 2, not a numeric failure at the first state.
@pytest.mark.parametrize("nonlinearity", [
    {"name": "linear", "c": float("nan")},
    {"name": "dissipative_cubic", "c": float("inf")},
    {"name": "allen_cahn", "a": float("inf")},
    {"name": "allen_cahn", "a": float("nan")},
])
def test_non_finite_reaction_coefficient_exits_2(tmp_path, capsys,
                                                 nonlinearity):
    cfg = write_config(tmp_path, model={"nonlinearity": nonlinearity,
                                        "covariance": "white",
                                        "n_modes": 4, "n_nodes": 16})
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: "), err
    assert "finite" in err


@pytest.mark.parametrize("experiment, x0, params", [
    ("simulate", {"kind": "unit_mode", "amplitude": float("inf")}, {}),
    ("simulate", {"kind": "multi_mode", "amplitude": float("nan")}, {}),
    ("contraction", "unit_mode",
     {"x0_b": {"kind": "unit_mode", "amplitude": float("inf")}}),
])
def test_non_finite_start_exits_2(tmp_path, capsys, experiment, x0, params):
    cfg = write_config(tmp_path, experiment=experiment,
                       model={"nonlinearity": "zero", "covariance": "white",
                              "x0": x0},
                       params=params)
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: "), err
    assert "finite" in err
    assert not out.exists()


def test_empty_ergodic_window_exits_2(tmp_path, capsys):
    # the burn-in is below the horizon, but within the grid tolerance of
    # the last state, so no state is left to average
    cfg = write_config(tmp_path, experiment="ergodic",
                       discretization={"dt": 0.1, "horizon": 2.0},
                       params={"burn_in": 1.99999999999})
    assert cli.main(["ergodic", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: burn_in=1.99999999999"), err
    assert not (tmp_path / "out" / "ergodic.csv").exists()


def test_seed_flag_takes_the_uint64_range(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["simulate", "--config", cfg, "--seed", str(2 ** 64 - 1),
                     "--out", str(tmp_path / "top")]) == 0
    assert cli.main(["simulate", "--config", cfg, "--seed", str(2 ** 64),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: sampling.seed: ")
    assert not (tmp_path / "out").exists()


def test_uncreatable_output_directory_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: output.directory: ")


def test_directory_at_artifact_path_exits_2_before_the_run(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    (out / "simulate.csv").mkdir(parents=True)
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: output.directory: "), err
    assert "simulate.csv" in err
    assert sorted(p.name for p in out.iterdir()) == ["simulate.csv"]


# A cost-curve step count that leaves the float range, because dt
# underflows to 0 or the horizon's power overflows, is a configuration
# error naming its eps: exit 2, not a traceback.
_CUBIC = {"nonlinearity": {"name": "dissipative_cubic", "c": 1.0},
          "covariance": "white", "n_modes": 8, "n_nodes": 32}
_OUT_OF_RANGE = [
    ({"model": _CUBIC,
      "params": {"alpha": 0.001, "accuracy_scale": 1.0e-10,
                 "eps_list": [0.5, 9.5367431640625e-07]}},
     "eps=9.5367431640625e-07"),
    ({"params": {"alpha": 0.1, "horizon_scale": 1.0e+300}}, "eps=0.0625"),
    ({"params": {"alpha": 0.1, "eps_list": []}}, "params.eps_list"),
]


@pytest.mark.parametrize("sections, eps", _OUT_OF_RANGE)
def test_cost_curve_out_of_float_range_exits_2(tmp_path, capsys, sections,
                                               eps):
    cfg = write_config(tmp_path, experiment="cost-curve", **sections)
    assert cli.main(["cost-curve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: "), err
    assert eps in err


def test_no_checkpoints_writes_header_only_csv(tmp_path):
    cfg = write_config(tmp_path, experiment="moment-growth",
                       params={"checkpoints": []})
    out = tmp_path / "out"
    assert cli.main(["moment-growth", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "moment-growth.csv").read_text().splitlines() == [
        "# tamedspde-csv v1 experiment=moment-growth", "t,estimate,std_error"]
    assert json.loads((out / "moment-growth.json").read_text())[
        "estimates"] == []


# SHA-256 of the CSV of zero-reaction runs over 1,100 paths, which span two
# blocks, captured before the studies shared one block join.  A zero
# reaction keeps every step elementwise, so no BLAS summation order enters
# these bytes.
_PINNED_CSV = {
    "moment-growth": (
        {"discretization": {"dt": 0.1, "n_steps": 5},
         "params": {"norm": "l2", "checkpoints": [0.5, 0.0, 0.2, 0.5]}},
        "b2724ac3d0cdae50d124b5fc8bc5504568fd2ac1ec86ca5d2e8a7ff8a40eb28d"),
    "weak-order": (
        {"discretization": {"horizon": 1.0},
         "params": {"dt_list": [0.25, 0.125, 0.0625, 0.03125]}},
        "88f4745916e298c02d42f335022be532a4dda844db054897374f261084fd4320"),
    "ergodic": (
        {"discretization": {"dt": 0.1, "horizon": 2.0},
         "params": {"functional": "exp_neg_l2sq", "burn_in": 0.5}},
        "a2217c9e119b62efdb5c1598960b70467fae1bbf5ce5245abe60bab90f038069"),
    "contraction": (
        {"discretization": {"dt": 0.05, "n_steps": 20},
         "model": {"x0": {"kind": "multi_mode"}}},
        "d046738961690d8313299ef7c22bdaa363438173ca7b8e328d03e359a317bea3"),
}


# SHA-256 of the summary JSON of the same runs, captured while the studies
# still took their horizon as a separate argument; both report a horizon.
_PINNED_JSON = {
    "weak-order":
        "58634a462149a43554ef49b1262afc80bf6f17cee640d5246b922e60f77f9110",
    "ergodic":
        "e320c97804287ecd9e754afbfc4a652ef9dc97f06c8aaf62038306f1cf85d542",
}


def _pinned_run(tmp_path, experiment) -> Path:
    sections = dict(_PINNED_CSV[experiment][0])
    model = {"nonlinearity": "zero", "covariance": "white", "n_modes": 4,
             "n_nodes": 16, **sections.pop("model", {})}
    cfg = write_config(tmp_path, experiment=experiment, model=model,
                       sampling={"n_paths": 1100, "seed": 7}, **sections)
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", cfg, "--out", str(out)]) == 0
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("experiment", sorted(_PINNED_CSV))
def test_csv_bytes_are_pinned(tmp_path, experiment):
    out = _pinned_run(tmp_path, experiment)
    assert _sha256(out / f"{experiment}.csv") == _PINNED_CSV[experiment][1]
    if experiment in _PINNED_JSON:
        assert _sha256(out / f"{experiment}.json") == _PINNED_JSON[experiment]


def test_tamed_overflow_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        model={"nonlinearity": {"name": "polynomial",
                                "coeffs": [0.0, 0.0, 0.0, 1.0]},
               "covariance": "white", "n_modes": 4, "n_nodes": 16,
               "x0": {"kind": "unit_mode", "amplitude": 1.0e110}},
        sampling={"n_paths": 1, "seed": 0})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err
    assert "trajectory 0" in err and "state 1" in err


# Inflating the engine's gain pushes the tamed drift contribution far past
# the bound 1 that the scheme guarantees.
_INFLATED_GAIN_RUN = """
import sys
from tamedspde import cli, integrators

engine_init = integrators.Engine.__init__

def inflated(engine, cfg):
    engine_init(engine, cfg)
    engine.gain = engine.gain * 1e6

integrators.Engine.__init__ = inflated
sys.exit(cli.main(sys.argv[1:]))
"""


def test_taming_bound_violation_exits_3_under_optimize(tmp_path):
    cfg = write_config(
        tmp_path,
        model={"nonlinearity": {"name": "dissipative_cubic", "c": 1.0},
               "covariance": "white", "n_modes": 4, "n_nodes": 16,
               "x0": {"kind": "unit_mode", "amplitude": 5.0}},
        sampling={"n_paths": 2, "seed": 0})
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # -O strips assert statements; the bound check must survive it
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _INFLATED_GAIN_RUN, "simulate",
         "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 3, proc.stderr
    assert "numeric failure" in proc.stderr
    assert "trajectory 0" in proc.stderr and "state 1" in proc.stderr


def test_untamed_blowup_is_recorded_not_fatal(tmp_path):
    cfg = write_config(
        tmp_path,
        model={"nonlinearity": {"name": "dissipative_cubic", "c": 0.0},
               "covariance": "white", "n_modes": 16, "n_nodes": 64,
               "x0": {"kind": "unit_mode", "amplitude": 10.0}},
        discretization={"dt": 0.25, "n_steps": 50, "taming": False},
        sampling={"n_paths": 4, "seed": 0})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "simulate.json").read_text())
    assert summary["blowup_fraction"] > 0.0
    assert any(p["blowup_step"] is not None for p in summary["paths"])


def test_audit_prints_report(tmp_path, capsys):
    cfg = write_config(
        tmp_path, experiment="audit",
        model={"nonlinearity": {"name": "allen_cahn", "a": 1.0},
               "covariance": {"kind": "power_decay", "decay": 3.0},
               "n_modes": 8, "n_nodes": 32})
    out = tmp_path / "out"
    assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "sup f' = 1" in captured.out
    assert "second-moment condition: ok" in captured.out
    assert "all-moments condition: NOT satisfied" in captured.out
    assert "noise smoothing exponent = 0.5" in captured.out
    assert "warning: nonlinearity allen_cahn" in captured.err
    lines = (out / "audit.csv").read_text().splitlines()
    assert lines[1] == "key,value"
    assert any(line.startswith("sup_fprime,") for line in lines)


def test_json_outputs_write_non_finite_numbers_as_null(tmp_path):
    # a window with no tail leaves the growth exponent unfitted (NaN)
    cfg = write_config(tmp_path, experiment="audit",
                       params={"z_lo": -0.5, "z_hi": 0.5})
    out = tmp_path / "out"
    assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    summary = json.loads((out / "audit.json").read_text(),
                         parse_constant=reject)
    assert summary["report"]["growth_exponent_fit"] is None
    assert "growth_exponent_fit,nan" in (out / "audit.csv").read_text()


def test_ergodic_and_contraction_and_cost_run(tmp_path):
    erg = write_config(tmp_path, "erg.yaml", experiment="ergodic",
                       discretization={"dt": 0.1, "horizon": 2.0},
                       sampling={"n_paths": 8, "seed": 4},
                       model={"nonlinearity": "zero", "covariance": "white",
                              "n_modes": 4, "n_nodes": 16,
                              "x0": {"kind": "zero"}})
    out = tmp_path / "erg_out"
    assert cli.main(["ergodic", "--config", erg, "--out", str(out)]) == 0
    rows = (out / "ergodic.csv").read_text().splitlines()
    assert rows[2].startswith("ensemble,")
    assert rows[3].startswith("time_average,")

    con = write_config(tmp_path, "con.yaml", experiment="contraction",
                       model={"nonlinearity": {"name": "dissipative_cubic",
                                               "c": 1.0},
                              "covariance": "white", "n_modes": 4,
                              "n_nodes": 16},
                       discretization={"dt": 0.05, "n_steps": 20},
                       sampling={"n_paths": 6, "seed": 5})
    out = tmp_path / "con_out"
    assert cli.main(["contraction", "--config", con, "--out", str(out)]) == 0
    summary = json.loads((out / "contraction.json").read_text())
    assert summary["rate"] > 0.0

    cost = write_config(tmp_path, "cost.yaml", experiment="cost-curve",
                        params={"alpha": 0.2, "eps_list": [0.0625, 0.03125]})
    out = tmp_path / "cost_out"
    assert cli.main(["cost-curve", "--config", cost, "--out", str(out)]) == 0
    rows = (out / "cost-curve.csv").read_text().splitlines()
    assert rows[1] == "eps,horizon,dt,n_steps,bound_product"
    assert len(rows) == 4


# resolved configs and config hashes of the shipped configs, as written
# before the config tables existed; a manifest must keep replaying them
_SHIPPED = {
    "audit": ({
        "experiment": "audit",
        "model": {"nonlinearity": {"name": "allen_cahn", "a": 1.0},
                  "covariance": {"kind": "power_decay", "decay": 2.0},
                  "x0": {"kind": "zero"}, "n_modes": 32, "n_nodes": 128},
        "discretization": {"dt": 0.1, "n_steps": 100, "dt_max": 0.5,
                           "taming": True, "noise_mode": "increment"},
        "sampling": {"n_paths": 100, "seed": 0, "workers": 1},
        "output": {"directory": "out/audit",
                   "formats": ["csv", "json", "gnuplot"]},
        "params": {"z_lo": -10.0, "z_hi": 10.0, "samples": 2001},
    }, "e78a25977ece254909f2ea198396a15bf13f02440a665c20d84b5aa060531f6f"),
    "blowup": ({
        "experiment": "moment-growth",
        "model": {"nonlinearity": {"name": "polynomial",
                                   "coeffs": [0.0, 0.0, 0.0, -1.0]},
                  "covariance": {"kind": "white"},
                  "x0": {"kind": "unit_mode", "mode": 1, "amplitude": 10.0},
                  "n_modes": 16, "n_nodes": 64},
        "discretization": {"dt": 0.25, "n_steps": 200, "dt_max": 0.5,
                           "taming": False, "noise_mode": "increment"},
        "sampling": {"n_paths": 100, "seed": 0, "workers": 1},
        "output": {"directory": "out/blowup",
                   "formats": ["csv", "json", "gnuplot"]},
        "params": {"power": 2, "norm": "l2",
                   "checkpoints": [5.0, 25.0, 50.0]},
    }, "58de38cedb87e9ae066b961fda68c530c026fef327bcb8bc94183e40e36e927a"),
    "blowup_tamed": ({
        "experiment": "moment-growth",
        "model": {"nonlinearity": {"name": "polynomial",
                                   "coeffs": [0.0, 0.0, 0.0, -1.0]},
                  "covariance": {"kind": "white"},
                  "x0": {"kind": "unit_mode", "mode": 1, "amplitude": 10.0},
                  "n_modes": 16, "n_nodes": 64},
        "discretization": {"dt": 0.25, "n_steps": 200, "dt_max": 0.5,
                           "taming": True, "noise_mode": "increment"},
        "sampling": {"n_paths": 100, "seed": 0, "workers": 1},
        "output": {"directory": "out/blowup_tamed",
                   "formats": ["csv", "json", "gnuplot"]},
        "params": {"power": 2, "norm": "l2",
                   "checkpoints": [5.0, 25.0, 50.0]},
    }, "05cbad331e2549e218c4e879f701f86dca7dc7f479cef42aee44a060f9a6096d"),
    "ergodic": ({
        "experiment": "ergodic",
        "model": {"nonlinearity": {"name": "linear", "c": 1.0},
                  "covariance": {"kind": "white"},
                  "x0": {"kind": "unit_mode", "mode": 1, "amplitude": 1.0},
                  "n_modes": 16, "n_nodes": 64},
        "discretization": {"dt": 0.02, "horizon": 50.0, "dt_max": 0.5,
                           "taming": True, "noise_mode": "exact"},
        "sampling": {"n_paths": 1000, "seed": 0, "workers": 1},
        "output": {"directory": "out/ergodic",
                   "formats": ["csv", "json", "gnuplot"]},
        "params": {"functional": "l2_squared", "burn_in": 10.0},
    }, "1ad88e8c939869635ab06b88da69cd105923808848a048bfc0b50054e3eb6995"),
    "weak_order": ({
        "experiment": "weak-order",
        "model": {"nonlinearity": {"name": "dissipative_cubic", "c": 1.0},
                  "covariance": {"kind": "power_decay", "decay": 3.0},
                  "x0": {"kind": "unit_mode", "mode": 1, "amplitude": 1.0},
                  "n_modes": 64, "n_nodes": 256},
        "discretization": {"horizon": 1.0, "dt_max": 0.5, "taming": True,
                           "noise_mode": "increment"},
        "sampling": {"n_paths": 8192, "seed": 0, "workers": 1},
        "output": {"directory": "out/weak_order",
                   "formats": ["csv", "json", "gnuplot"]},
        "params": {"dt_list": [2.0 ** -k for k in range(2, 9)],
                   "functional": "exp_neg_l2sq"},
    }, "b350db0305eeb825464920d8ee6fd30fb52e710f5c09de2e2767a2075ff2abe0"),
}


@pytest.mark.parametrize("name", sorted(_SHIPPED))
def test_shipped_configs_resolve_to_pinned_values(name):
    resolved, config_hash = _SHIPPED[name]
    configs = Path(__file__).resolve().parents[1] / "configs"
    cfg = cli.parse_config(str(configs / f"{name}.yaml"))
    assert cfg.resolved == resolved
    assert cli._config_hash(cfg.resolved) == config_hash


def test_taming_keeps_the_blowup_paths_finite(tmp_path):
    # the two shipped blow-up configs differ only in taming: on the same
    # draws every untamed path blows up and every tamed one stays finite
    configs = Path(__file__).resolve().parents[1] / "configs"
    fractions = {}
    for name in ("blowup", "blowup_tamed"):
        out = tmp_path / name
        assert cli.main(["moment-growth", "--config",
                         str(configs / f"{name}.yaml"), "--out", str(out)]) == 0
        summary = json.loads((out / "moment-growth.json").read_text())
        fractions[name] = summary["blowup_fraction"]
    assert fractions == {"blowup": 1.0, "blowup_tamed": 0.0}


# (experiment, sections over write_config's base, the key the error names)
_MALFORMED = [
    ("simulate", {"model": {"nonlinearity": "zero", "covariance": "white",
                            "n_modes": "abc"}}, "model.n_modes"),
    ("simulate", {"model": {"nonlinearity": {"name": "linear", "c": "fast"},
                            "covariance": "white"}}, "model.nonlinearity.c"),
    ("simulate", {"model": {"nonlinearity": {"name": "polynomial",
                                             "coeffs": "x"},
                            "covariance": "white"}},
     "model.nonlinearity.coeffs"),
    ("simulate", {"model": {"nonlinearity": "zero",
                            "covariance": {"kind": "power_decay",
                                           "decay": "x"}}},
     "model.covariance.decay"),
    ("simulate", {"model": {"nonlinearity": "zero", "covariance": "white",
                            "x0": {"kind": "unit_mode", "mode": "x"}}},
     "model.x0.mode"),
    ("simulate", {"discretization": {"dt": "x", "n_steps": 5}},
     "discretization.dt"),
    ("simulate", {"discretization": {"dt": 0.1, "taming": "false"}},
     "discretization.taming"),
    ("simulate", {"sampling": {"n_paths": 3, "seed": "x"}}, "sampling.seed"),
    ("audit", {"params": {"samples": "x"}}, "params.samples"),
    ("moment-growth", {"params": {"checkpoints": 5.0}}, "params.checkpoints"),
    ("weak-order", {"discretization": {"horizon": 1.0},
                    "params": {"dt_list": 0.5}}, "params.dt_list"),
    ("weak-order", {"discretization": {"horizon": 1.0, "dt": 0.25},
                    "params": {"dt_list": [0.25, 0.125, 0.0625]}},
     "discretization.dt"),
    ("weak-order", {"discretization": {"horizon": 1.0, "n_steps": 4},
                    "params": {"dt_list": [0.25, 0.125, 0.0625]}},
     "discretization.n_steps"),
    # YAML's true is an int to Python, but no count or coefficient
    ("simulate", {"sampling": {"n_paths": 3, "seed": True}}, "sampling.seed"),
    ("simulate", {"model": {"nonlinearity": {"name": "linear", "c": True},
                            "covariance": "white"}}, "model.nonlinearity.c"),
    # a seed is a uint64: 2^64 + 3 would alias seed 3 under another hash
    ("simulate", {"sampling": {"n_paths": 3, "seed": 2 ** 64 + 3}},
     "sampling.seed"),
    ("simulate", {"sampling": {"n_paths": 3, "seed": -1}}, "sampling.seed"),
    # the coarsest level is the base dt, but an empty list has none
    ("weak-order", {"discretization": {"horizon": 1.0},
                    "params": {"dt_list": []}}, "params.dt_list"),
    ("weak-order", {"discretization": {"horizon": 1.0},
                    "params": {"dt_list": [0.0]}}, "params.dt_list"),
    ("weak-order", {"discretization": {"horizon": 1.0},
                    "params": {"dt_list": [1.0, 0.5, 0.25]}}, "params.dt_list"),
    # values that convert but that the model's constructor refuses
    ("simulate", {"model": {"nonlinearity": "zero", "covariance": "white",
                            "n_modes": 4, "n_nodes": 16,
                            "x0": {"kind": "unit_mode", "mode": 9}}},
     "model.x0"),
    ("contraction", {"model": {"nonlinearity": "zero", "covariance": "white",
                               "n_modes": 4, "n_nodes": 16},
                     "params": {"x0_b": {"kind": "unit_mode", "mode": 9}}},
     "params.x0_b"),
    ("simulate", {"model": {"nonlinearity": "zero",
                            "covariance": {"kind": "power_decay",
                                           "decay": -1}}},
     "model.covariance"),
    ("simulate", {"model": {"nonlinearity": {"name": "linear", "c": -1},
                            "covariance": "white"}}, "model.nonlinearity"),
    ("simulate", {"discretization": {"dt": 0.1, "n_steps": 5,
                                     "noise_mode": "exakt"}},
     "discretization.noise_mode"),
]


@pytest.mark.parametrize("experiment, sections, key", _MALFORMED)
def test_malformed_value_exits_2_naming_key(tmp_path, capsys, experiment,
                                            sections, key):
    cfg = write_config(tmp_path, experiment=experiment, **sections)
    assert cli.main([experiment, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key}: "), err
    assert not (tmp_path / "out").exists()
