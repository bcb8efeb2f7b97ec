"""Experiment configuration: a YAML file with nested sections, validated up
front, with every default recorded so a run's manifest can replay it.

Sections: experiment (name), model (nonlinearity, covariance, x0, grid
sizes), discretization (dt, horizon or step count, dt_max cap, taming,
noise mode), sampling (paths, seed, workers), output (directory, formats),
params (experiment-specific knobs).  Each section is one table below of
key -> (default, converter): a key outside its table is rejected by name,
every value read is converted in one guarded place, and a value that does
not convert is a ConfigurationError naming section.key.  Nothing is
silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import yaml

from . import nonlinearity as nl_mod
from . import noise as noise_mod
from . import spectral
from .errors import ConfigurationError
from .estimators import FUNCTIONALS
from .integrators import _NOISE_MODES, SchemeConfig, whole_steps

FORMATS = ("csv", "json", "gnuplot")
_SECTIONS = ("model", "discretization", "sampling", "output", "params")
_OVERRIDABLE = ("sampling.n_paths", "sampling.seed", "sampling.workers",
                "output.directory")
_REQUIRED = object()  # a table default meaning "the key must be given"


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A fully validated run description.

    resolved holds the config with every default filled in; manifests embed
    it, and feeding it back through parsing reproduces this object.
    """

    experiment: str
    scheme: SchemeConfig
    n_paths: int
    workers: int
    out_dir: str
    formats: tuple
    params: dict
    resolved: dict
    notes: tuple  # model warnings to surface in the manifest


def _require_mapping(obj, where: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigurationError(f"section '{where}' must be a mapping")
    return obj


def _check_keys(section: str, given: dict, allowed) -> None:
    unknown = sorted(set(given) - set(allowed), key=str)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} in section '{section}'; "
            f"allowed: {sorted(allowed)}")


# ---------------------------------------------------------------------------
# converters: each returns a value in canonical form or raises TypeError or
# ValueError, which _read reports as a ConfigurationError naming the key

def _not_bool(value):
    # YAML's true and false are ints to Python, and no number here
    if isinstance(value, bool):
        raise TypeError(f"must be a number, got {value!r}")
    return value


def _int(value) -> int:
    if isinstance(_not_bool(value), float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _float(value) -> float:
    # strings stay accepted: PyYAML reads 1e-3 as the string '1e-3'
    return float(_not_bool(value))


def _count(value) -> int:
    n = _int(value)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def _seed(value) -> int:
    n = _int(value)
    if not 0 <= n < 1 << 64:
        raise ValueError(f"must be in [0, 2^64), got {n}")
    return n


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"must be true or false, got {value!r}")
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def _list(item):
    def convert(value) -> list:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"must be a list, got {value!r}")
        return [item(v) for v in value]
    return convert


def _one_of(*names):
    def convert(value):
        if value not in names:
            raise ValueError(f"unknown value {value!r}; choose from {list(names)}")
        return value
    return convert


def _optional(convert):
    return lambda value: None if value is None else convert(value)


class _Choices:
    """A section that picks one model by its ``key`` entry ('name' may stand
    for {key: 'name'}); options maps each choice to (constructor, table)."""

    def __init__(self, key: str, options: dict):
        self.key, self.options = key, options

    def fill(self, where: str, spec) -> dict:
        if isinstance(spec, str):
            spec = {self.key: spec}
        spec = dict(_require_mapping(spec, where))
        choice = spec.pop(self.key, None)
        if not isinstance(choice, str) or choice not in self.options:
            raise ConfigurationError(
                f"{where}: unknown {self.key} {choice!r}; choose from "
                f"{', '.join(self.options)}")
        return {self.key: choice, **_fill(where, spec, self.options[choice][1])}

    def build(self, where: str, spec, *args):
        params = self.fill(where, spec)
        try:
            return self.options[params.pop(self.key)][0](*args, **params)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where}: {exc}") from None


def _read(where: str, value, convert):
    if isinstance(convert, _Choices):
        return convert.fill(where, value)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


def _fill(section: str, given: dict, table: dict, run=None) -> dict:
    """given with every default of table filled in and every value converted.

    A callable default is computed from run (the run length and the model's
    built covariance and nonlinearity); _REQUIRED means the key has
    no default.
    """
    _check_keys(section, given, table)
    out = {}
    for key, (default, convert) in table.items():
        where = f"{section}.{key}"
        if key in given:
            value = given[key]
        elif default is _REQUIRED:
            raise ConfigurationError(f"{where} is required")
        else:
            value = default(run) if callable(default) else default
        out[key] = _read(where, value, convert)
    return out


# ---------------------------------------------------------------------------
# tables

def _explicit_covariance(n_modes: int, weights) -> noise_mod.CovarianceSpec:
    cov = noise_mod.explicit_covariance(weights)
    if cov.n_modes != n_modes:
        raise ConfigurationError(
            f"{cov.n_modes} weights given but n_modes={n_modes}")
    return cov


def _on_modes(make):
    """An x0 constructor that needs no node count."""
    return lambda n_modes, n_nodes, **params: make(n_modes, **params)


_NONLINEARITY = _Choices("name", {
    "zero": (nl_mod.zero, {}),
    "linear": (nl_mod.linear, {"c": (1.0, _float)}),
    "dissipative_cubic": (nl_mod.dissipative_cubic, {"c": (1.0, _float)}),
    "allen_cahn": (nl_mod.allen_cahn, {"a": (1.0, _float)}),
    "polynomial": (nl_mod.polynomial, {"coeffs": (_REQUIRED, _list(_float))}),
})

_COVARIANCE = _Choices("kind", {
    "white": (noise_mod.white, {}),
    "power_decay": (noise_mod.power_decay, {"decay": (_REQUIRED, _float)}),
    "explicit": (_explicit_covariance, {"weights": (_REQUIRED, _list(_float))}),
})

_X0 = _Choices("kind", {
    "zero": (_on_modes(spectral.zero_field), {}),
    "unit_mode": (_on_modes(spectral.unit_mode),
                  {"mode": (1, _int), "amplitude": (1.0, _float)}),
    "multi_mode": (_on_modes(spectral.multi_mode),
                   {"amplitude": (1.0, _float), "rate": (2.0, _float)}),
    "bump": (spectral.bump_profile,
             {"center": (0.5, _float), "width": (0.1, _float),
              "amplitude": (1.0, _float)}),
})

_MODEL = {
    "nonlinearity": (_REQUIRED, _NONLINEARITY),
    "covariance": (_REQUIRED, _COVARIANCE),
    "x0": ("unit_mode", _X0),
    "n_modes": (64, _count),
    "n_nodes": (256, _count),
}

_DISCRETIZATION = {
    "dt": (0.1, _float),
    "dt_list": (None, _optional(_list(_float))),
    "horizon": (None, _optional(_float)),
    "n_steps": (100, _int),
    "dt_max": (0.5, _float),
    "taming": (True, _bool),
    "noise_mode": ("increment", _one_of(*_NOISE_MODES)),
}

_SAMPLING = {"n_paths": (100, _count), "seed": (0, _seed), "workers": (1, _count)}

_OUTPUT = {"directory": ("out", _text),
           "formats": (FORMATS, _list(_one_of(*FORMATS)))}

# experiment -> its params table; a new experiment is one entry here and
# one in the command line's table
_PARAMS = {
    "simulate": {},
    "moment-growth": {
        "power": (2, _count),
        "norm": ("l2", _one_of("l2", "sup")),
        "checkpoints": (lambda run: [run["length"]], _list(_float)),
    },
    "weak-order": {
        "dt_list": (_REQUIRED, _list(_float)),
        "functional": ("exp_neg_l2sq", _one_of(*FUNCTIONALS)),
    },
    "ergodic": {
        "functional": ("l2_squared", _one_of(*FUNCTIONALS)),
        "burn_in": (lambda run: run["length"] / 5.0, _float),
    },
    "contraction": {"x0_b": ("zero", _X0)},
    "cost-curve": {
        "alpha": (_REQUIRED, _float),
        "regularity": (lambda run: noise_mod.classify_regularity(
            run["cov"]).exponent, _float),
        "horizon_power": (lambda run: round(
            3 * run["nl"].growth_exponent * run["nl"].growth_exponent), _int),
        "eps_list": (tuple(2.0 ** -k for k in range(4, 21)), _list(_float)),
        "horizon_scale": (1.0, _float),
        "accuracy_scale": (1.0, _float),
    },
    "audit": {
        "z_lo": (-10.0, _float),
        "z_hi": (10.0, _float),
        "samples": (2001, _int),
    },
}

EXPERIMENTS = tuple(_PARAMS)


def build_nonlinearity(spec) -> nl_mod.Nonlinearity:
    return _NONLINEARITY.build("model.nonlinearity", spec)


def build_covariance(spec, n_modes: int) -> noise_mod.CovarianceSpec:
    return _COVARIANCE.build("model.covariance", spec, n_modes)


def build_x0(spec, n_modes: int, n_nodes: int,
             where: str = "model.x0") -> np.ndarray:
    return _X0.build(where, spec, n_modes, n_nodes)


class _UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that rejects a key given twice in one mapping."""

    def construct_mapping(self, node, deep=False):
        seen = []  # (tag, text) of each key; a collection key never matches
        for key, _ in node.value:
            if (key.tag, key.value) in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key.value!r}", key.start_mark)
            seen.append((key.tag, key.value))
        return super().construct_mapping(node, deep)


def parse_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Load, default-fill, and validate a config file.

    overrides maps dotted keys ('sampling.seed', 'sampling.workers',
    'output.directory', 'experiment') to values that win over the file, the
    way command-line flags should.
    """
    with open(path, "rb") as fh:  # bytes, so bad UTF-8 is a YAMLError
        raw = yaml.load(fh, Loader=_UniqueKeyLoader)
    return resolve_config(_require_mapping(raw, "top level"), overrides)


def resolve_config(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    _check_keys("top level", raw, ("experiment",) + _SECTIONS)
    overrides = dict(overrides or {})

    experiment = overrides.pop("experiment", None) or raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigurationError(
            f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    unknown = sorted(set(overrides) - set(_OVERRIDABLE))
    if unknown:
        raise ConfigurationError(f"unknown override(s): {unknown}")
    given = {name: dict(_require_mapping(raw.get(name), name))
             for name in _SECTIONS}
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        given[section][key] = value

    model = _fill("model", given["model"], _MODEL)
    nl = build_nonlinearity(model["nonlinearity"])
    cov = build_covariance(model["covariance"], model["n_modes"])
    x0 = build_x0(model["x0"], model["n_modes"], model["n_nodes"])

    disc = _fill("discretization", given["discretization"], _DISCRETIZATION)
    params_given = given["params"]
    if disc["dt_list"] is not None:
        if experiment != "weak-order":
            raise ConfigurationError(
                "discretization.dt_list only applies to the weak-order experiment")
        if "dt_list" in params_given:
            raise ConfigurationError(
                "dt_list given in both discretization and params; pick one")
        params_given["dt_list"] = disc["dt_list"]
    horizon = disc["horizon"]
    if experiment == "weak-order":
        if horizon is None:
            raise ConfigurationError(
                "discretization.horizon is required for weak-order")
        for key in ("dt", "n_steps"):
            if key in given["discretization"]:
                raise ConfigurationError(
                    f"discretization.{key}: weak-order takes its steps "
                    "from dt_list")
        # the base dt is the coarsest level
        levels = _fill("params", params_given, _PARAMS[experiment])["dt_list"]
        if not levels:
            raise ConfigurationError("params.dt_list: give at least one level")
        dt, name = max(levels), "params.dt_list: coarsest level dt"
    else:
        dt, name = disc["dt"], "discretization.dt"
        if horizon is not None and "n_steps" in given["discretization"]:
            raise ConfigurationError(
                "give discretization.horizon or discretization.n_steps, not both")
    if not 0 < dt <= disc["dt_max"]:
        raise ConfigurationError(
            f"{name}={dt} must be in (0, dt_max={disc['dt_max']}]")
    n_steps = disc["n_steps"] if horizon is None else _read(
        "discretization.horizon", horizon, lambda h: whole_steps(h, dt))
    params = _fill("params", params_given, _PARAMS[experiment],
                   {"length": n_steps * dt, "cov": cov, "nl": nl})

    sampling = _fill("sampling", given["sampling"], _SAMPLING)
    output = _fill("output", given["output"], _OUTPUT)

    scheme = SchemeConfig(n_modes=model["n_modes"], n_nodes=model["n_nodes"],
                          dt=dt, n_steps=n_steps, cov=cov, nl=nl, x0=x0,
                          seed=sampling["seed"], taming=disc["taming"],
                          dt_max=disc["dt_max"], noise_mode=disc["noise_mode"])
    if experiment == "contraction":  # checked here too, to fail before any output
        replace(scheme, x0=build_x0(params["x0_b"], model["n_modes"],
                                    model["n_nodes"], "params.x0_b"))

    # serialized form: one of n_steps/horizon, so a manifest replays cleanly
    disc_out = {key: disc[key] for key in ("dt_max", "taming", "noise_mode")}
    if experiment != "weak-order":
        disc_out["dt"] = dt
    if horizon is None:
        disc_out["n_steps"] = n_steps
    else:
        disc_out["horizon"] = horizon
    resolved = {"experiment": experiment, "model": model,
                "discretization": disc_out, "sampling": sampling,
                "output": output, "params": params}
    notes = (f"nonlinearity {nl.name}: {nl.note}",) if nl.note else ()
    return ExperimentConfig(experiment=experiment, scheme=scheme,
                            n_paths=sampling["n_paths"],
                            workers=sampling["workers"],
                            out_dir=output["directory"],
                            formats=tuple(output["formats"]), params=params,
                            resolved=resolved, notes=notes)
