"""Config parsing: defaults, shorthands, overrides, and replayable manifests."""

import numpy as np
import pytest
import yaml

from tamedspde import cli
from tamedspde.config import (EXPERIMENTS, build_covariance,
                              build_nonlinearity, build_x0, parse_config,
                              resolve_config)
from tamedspde.errors import ConfigurationError

MINIMAL = {
    "experiment": "simulate",
    "model": {"nonlinearity": "zero", "covariance": "white"},
}


def test_minimal_config_fills_defaults():
    cfg = resolve_config(MINIMAL)
    s = cfg.scheme
    assert (s.n_modes, s.n_nodes) == (64, 256)
    assert (s.dt, s.n_steps, s.dt_max) == (0.1, 100, 0.5)
    assert s.taming and s.noise_mode == "increment"
    assert s.cov.kind == "white"
    assert s.nl.name == "zero"
    assert s.x0[0] == 1.0 and np.all(s.x0[1:] == 0.0)
    assert (cfg.n_paths, cfg.workers) == (100, 1)
    assert cfg.out_dir == "out"
    assert cfg.formats == ("csv", "json", "gnuplot")
    assert cfg.notes == ()


def test_resolved_config_replays_to_itself():
    cfg = resolve_config({
        "experiment": "ergodic",
        "model": {"nonlinearity": {"name": "linear", "c": 1.0},
                  "covariance": "white", "n_modes": 16, "n_nodes": 64},
        "discretization": {"dt": 0.02, "horizon": 50.0, "noise_mode": "exact"},
        "sampling": {"n_paths": 500, "seed": 3},
    })
    replay = resolve_config(cfg.resolved)
    assert replay.resolved == cfg.resolved
    assert replay.scheme.n_steps == cfg.scheme.n_steps == 2500
    assert replay.params == cfg.params


def test_unknown_keys_named_in_errors():
    cases = [
        ({**MINIMAL, "extra": 1}, "extra"),
        ({**MINIMAL, "model": {**MINIMAL["model"], "shape": 3}}, "shape"),
        ({**MINIMAL, "discretization": {"dt": 0.1, "steps": 5}}, "steps"),
        ({**MINIMAL, "sampling": {"paths": 10}}, "paths"),
        ({**MINIMAL, "output": {"dir": "x"}}, "dir"),
        ({**MINIMAL, "params": {"power": 2}}, "power"),  # not a simulate key
        # the first contraction start is model.x0, set in one place
        ({**MINIMAL, "experiment": "contraction",
          "params": {"x0_a": {"kind": "zero"}}}, "x0_a"),
        ({**MINIMAL, "model": {"nonlinearity": {"name": "linear", "slope": 2},
                               "covariance": "white"}}, "slope"),
    ]
    for raw, key in cases:
        with pytest.raises(ConfigurationError, match=key):
            resolve_config(raw)


def test_experiment_name_checked():
    with pytest.raises(ConfigurationError):
        resolve_config({**MINIMAL, "experiment": "extrapolate"})
    assert "simulate" in EXPERIMENTS
    assert tuple(cli._EXPERIMENTS) == EXPERIMENTS


def test_horizon_and_steps_are_exclusive():
    raw = {**MINIMAL,
           "discretization": {"dt": 0.1, "horizon": 2.0, "n_steps": 20}}
    with pytest.raises(ConfigurationError, match="not both"):
        resolve_config(raw)


def test_horizon_must_divide():
    for dt, horizon in ((0.3, 1.0), (0.3, float("inf")), (0.3, float("nan")),
                        (0.3, 0.0), (0.3, -0.9), (1e-300, 1e300)):
        raw = {**MINIMAL, "discretization": {"dt": dt, "horizon": horizon}}
        with pytest.raises(ConfigurationError, match="whole steps"):
            resolve_config(raw)
    ok = resolve_config({**MINIMAL,
                         "discretization": {"dt": 0.25, "horizon": 1.0}})
    assert ok.scheme.n_steps == 4


def test_dt_above_cap_rejected():
    raw = {**MINIMAL, "discretization": {"dt": 0.6}}
    with pytest.raises(ConfigurationError, match="dt_max"):
        resolve_config(raw)
    ok = resolve_config({**MINIMAL,
                         "discretization": {"dt": 0.6, "dt_max": 1.0}})
    assert ok.scheme.dt == 0.6


def test_overrides_win_and_unknown_overrides_fail():
    cfg = resolve_config(MINIMAL, overrides={
        "sampling.n_paths": 7, "sampling.seed": 42, "sampling.workers": 2,
        "output.directory": "elsewhere"})
    assert cfg.n_paths == 7 and cfg.scheme.seed == 42
    assert cfg.workers == 2 and cfg.out_dir == "elsewhere"
    with pytest.raises(ConfigurationError, match="unknown override"):
        resolve_config(MINIMAL, overrides={"sampling.paths": 7})


def test_weak_order_needs_horizon_and_levels():
    base = {"experiment": "weak-order",
            "model": {"nonlinearity": "zero", "covariance": "white",
                      "n_modes": 8, "n_nodes": 32}}
    with pytest.raises(ConfigurationError, match="horizon"):
        resolve_config({**base, "params": {"dt_list": [0.25, 0.125, 0.0625]}})
    with pytest.raises(ConfigurationError, match="dt_list"):
        resolve_config({**base, "discretization": {"horizon": 1.0}})
    cfg = resolve_config({**base,
                          "discretization": {"horizon": 1.0},
                          "params": {"dt_list": [0.125, 0.25, 0.0625]}})
    # the base step is the coarsest level
    assert cfg.scheme.dt == 0.25
    assert cfg.scheme.n_steps == 4
    assert cfg.params["functional"] == "exp_neg_l2sq"


def test_dt_list_accepted_in_discretization_once():
    base = {"experiment": "weak-order",
            "model": {"nonlinearity": "zero", "covariance": "white",
                      "n_modes": 8, "n_nodes": 32}}
    cfg = resolve_config({**base,
                          "discretization": {"horizon": 1.0,
                                             "dt_list": [0.25, 0.125, 0.0625]}})
    assert cfg.params["dt_list"] == [0.25, 0.125, 0.0625]
    with pytest.raises(ConfigurationError, match="pick one"):
        resolve_config({**base,
                        "discretization": {"horizon": 1.0,
                                           "dt_list": [0.25, 0.125, 0.0625]},
                        "params": {"dt_list": [0.25, 0.125, 0.0625]}})
    with pytest.raises(ConfigurationError, match="weak-order"):
        resolve_config({**MINIMAL,
                        "discretization": {"dt_list": [0.25, 0.125]}})


def test_moment_growth_defaults():
    cfg = resolve_config({**MINIMAL, "experiment": "moment-growth",
                          "discretization": {"dt": 0.1, "n_steps": 50}})
    assert cfg.params["power"] == 2
    assert cfg.params["norm"] == "l2"
    assert cfg.params["checkpoints"] == [pytest.approx(5.0)]
    with pytest.raises(ConfigurationError, match="power"):
        resolve_config({**MINIMAL, "experiment": "moment-growth",
                        "params": {"power": 0}})
    with pytest.raises(ConfigurationError, match="norm"):
        resolve_config({**MINIMAL, "experiment": "moment-growth",
                        "params": {"norm": "h2"}})


def test_ergodic_defaults_and_functional_check():
    cfg = resolve_config({**MINIMAL, "experiment": "ergodic",
                          "discretization": {"dt": 0.1, "horizon": 10.0}})
    assert cfg.params["burn_in"] == pytest.approx(2.0)
    assert cfg.params["functional"] == "l2_squared"
    # like every experiment but weak-order, ergodic takes n_steps instead
    steps = resolve_config({**MINIMAL, "experiment": "ergodic",
                            "discretization": {"dt": 0.1, "n_steps": 100}})
    assert steps.scheme.n_steps == 100
    assert steps.params["burn_in"] == pytest.approx(2.0)
    with pytest.raises(ConfigurationError, match="functional"):
        resolve_config({**MINIMAL, "experiment": "ergodic",
                        "discretization": {"dt": 0.1, "horizon": 10.0},
                        "params": {"functional": "energy"}})


def test_contraction_x0_defaults():
    cfg = resolve_config({
        "experiment": "contraction",
        "model": {"nonlinearity": "zero", "covariance": "white",
                  "x0": {"kind": "unit_mode", "amplitude": 2.0}},
    })
    assert np.array_equal(cfg.scheme.x0, 2.0 * np.eye(64)[0])
    assert cfg.params == {"x0_b": {"kind": "zero"}}


def test_cost_curve_params():
    cfg = resolve_config({**MINIMAL, "experiment": "cost-curve",
                          "params": {"alpha": 0.2}})
    assert cfg.params["alpha"] == 0.2
    # the defaults are resolved here, so the manifest records what was used:
    # white noise has exponent 1/4, the zero reaction growth 2 -> round(3 * 4)
    assert cfg.params["regularity"] == 0.25
    assert cfg.params["horizon_power"] == 12
    assert cfg.resolved["params"]["regularity"] == 0.25
    cubic = resolve_config({
        **MINIMAL, "experiment": "cost-curve", "params": {"alpha": 0.2},
        "model": {"nonlinearity": "dissipative_cubic",
                  "covariance": {"kind": "power_decay", "decay": 3.0}}})
    assert cubic.params["regularity"] == 0.5
    assert cubic.params["horizon_power"] == 27
    with pytest.raises(ConfigurationError, match="regularity"):
        resolve_config({**MINIMAL, "experiment": "cost-curve",
                        "params": {"alpha": 0.2},
                        "model": {"nonlinearity": "zero", "n_modes": 2,
                                  "covariance": {"kind": "explicit",
                                                 "weights": [1.0, 0.5]}}})
    assert len(cfg.params["eps_list"]) == 17
    assert cfg.params["eps_list"][0] == 2.0 ** -4
    assert cfg.params["eps_list"][-1] == 2.0 ** -20
    with pytest.raises(ConfigurationError, match="alpha"):
        resolve_config({**MINIMAL, "experiment": "cost-curve"})


def test_audit_window_defaults():
    cfg = resolve_config({**MINIMAL, "experiment": "audit"})
    assert (cfg.params["z_lo"], cfg.params["z_hi"]) == (-10.0, 10.0)
    assert cfg.params["samples"] == 2001


def test_builder_validation():
    with pytest.raises(ConfigurationError, match="unknown name"):
        build_nonlinearity("quartic")
    with pytest.raises(ConfigurationError, match="coeffs"):
        build_nonlinearity({"name": "polynomial"})
    with pytest.raises(ConfigurationError, match="unknown kind"):
        build_covariance("pink", 4)
    with pytest.raises(ConfigurationError, match="decay"):
        build_covariance({"kind": "power_decay"}, 4)
    with pytest.raises(ConfigurationError, match="weights"):
        build_covariance({"kind": "explicit", "weights": [1.0, 1.0]}, 4)
    with pytest.raises(ConfigurationError, match="unknown kind"):
        build_x0("spike", 4, 16)
    with pytest.raises(ConfigurationError, match=r"model\.nonlinearity\.c:"):
        build_nonlinearity({"name": "linear", "c": "fast"})
    with pytest.raises(ConfigurationError, match=r"model\.covariance\.decay:"):
        build_covariance({"kind": "power_decay", "decay": "x"}, 4)
    with pytest.raises(ConfigurationError, match=r"model\.x0\.mode:"):
        build_x0({"kind": "unit_mode", "mode": 1.5}, 4, 16)


def test_builders_produce_model_objects():
    nl = build_nonlinearity({"name": "dissipative_cubic", "c": 2.0})
    assert nl.sup_fprime == -2.0
    cov = build_covariance({"kind": "power_decay", "decay": 3.0}, 4)
    assert cov.decay == 3.0
    x0 = build_x0({"kind": "bump", "center": 0.5, "width": 0.1}, 32, 128)
    assert x0.shape == (32,)


@pytest.mark.parametrize("nonlinearity, covariance, expected", [
    ({"name": "linear"}, "white",
     ({"name": "linear", "c": 1.0}, {"kind": "white"})),
    ({"name": "dissipative_cubic"}, {"kind": "white"},
     ({"name": "dissipative_cubic", "c": 1.0}, {"kind": "white"})),
    ("allen_cahn", {"kind": "power_decay", "decay": 2},
     ({"name": "allen_cahn", "a": 1.0}, {"kind": "power_decay", "decay": 2.0})),
])
def test_omitted_model_parameters_are_recorded(nonlinearity, covariance,
                                               expected):
    cfg = resolve_config({**MINIMAL, "model": {"nonlinearity": nonlinearity,
                                               "covariance": covariance}})
    model = cfg.resolved["model"]
    assert (model["nonlinearity"], model["covariance"]) == expected
    # canonical types: the manifest's hash must not depend on 2 vs 2.0
    assert all(type(v) is float for v in model["covariance"].values()
               if not isinstance(v, str))
    assert resolve_config(cfg.resolved).resolved == cfg.resolved


def test_allen_cahn_note_surfaces():
    cfg = resolve_config({**MINIMAL,
                          "model": {"nonlinearity": {"name": "allen_cahn",
                                                     "a": 1.0},
                                    "covariance": "white"}})
    assert len(cfg.notes) == 1
    assert "second moments" in cfg.notes[0]


def test_output_formats_validated():
    cfg = resolve_config({**MINIMAL, "output": {"formats": ["csv"]}})
    assert cfg.formats == ("csv",)
    with pytest.raises(ConfigurationError, match="format"):
        resolve_config({**MINIMAL, "output": {"formats": ["csv", "hdf5"]}})
    with pytest.raises(ConfigurationError, match=r"output\.directory:"):
        resolve_config({**MINIMAL, "output": {"directory": None}})


def test_parse_config_reads_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({
        "experiment": "simulate",
        "model": {"nonlinearity": {"name": "linear", "c": 1.0},
                  "covariance": {"kind": "power_decay", "decay": 2.0},
                  "n_modes": 8, "n_nodes": 32},
        "discretization": {"dt": 0.05, "n_steps": 10},
        "sampling": {"n_paths": 3, "seed": 9},
    }))
    cfg = parse_config(str(path), overrides={"sampling.seed": 11})
    assert cfg.scheme.seed == 11
    assert cfg.scheme.cov.decay == 2.0
    assert cfg.scheme.n_steps == 10


def test_sampling_bounds():
    with pytest.raises(ConfigurationError, match="n_paths"):
        resolve_config({**MINIMAL, "sampling": {"n_paths": 0}})
    with pytest.raises(ConfigurationError, match="workers"):
        resolve_config({**MINIMAL, "sampling": {"workers": 0}})
