"""Every package name that bench/child.py wraps still exists, and every
benchmark workload config still resolves to the work it counts.

The benchmark's child skips an absent name silently, so a rename in the
package would drop that layer's spans without failing anything; and a
config change that drops a key a workload sets would fail only in the
benchmark run.  These tests make both fail here instead.
"""

from pathlib import Path

from tamedspde import estimators, integrators, noise
from tamedspde.config import resolve_config
from tamedspde.nonlinearity import dissipative_cubic
from tamedspde.spectral import unit_mode

_BENCH = Path(__file__).resolve().parents[1] / "bench"

# No workload has called it since the weak-order kernel was streamed, and it
# left the package; ROADMAP item 1 drops its span from the benchmark.
_KNOWN_ABSENT = {"tamedspde.estimators.aggregate_fine_increments"}


def test_bench_wraps_only_names_that_exist(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(_BENCH))
    import child
    import spans

    wrapped = []
    monkeypatch.setattr(child, "_wrap", lambda module, attr, wrapper:
                        wrapped.append((module, attr)))
    monkeypatch.setattr(integrators.Engine, "__init__",
                        integrators.Engine.__init__)
    for key, functional in list(estimators.FUNCTIONALS.items()):
        monkeypatch.setitem(estimators.FUNCTIONALS, key, functional)
    child.install_tracing(spans.Tracer("names", str(tmp_path)))

    missing = {f"{module.__name__}.{attr}" for module, attr in wrapped
               if getattr(module, attr, None) is None}
    assert wrapped and missing <= _KNOWN_ABSENT, missing
    assert all(isinstance(f.evaluate, spans.Timed)
               for f in estimators.FUNCTIONALS.values())
    cfg = integrators.SchemeConfig(
        n_modes=4, n_nodes=8, dt=0.1, n_steps=1, cov=noise.white(4),
        nl=dissipative_cubic(1.0), x0=unit_mode(4, 1))
    engine = integrators.Engine(cfg)
    for attr in ("f", "step", "noise_from_gaussians"):
        assert isinstance(getattr(engine, attr), spans.Timed), attr


def test_bench_configs_resolve_to_their_path_steps(monkeypatch):
    monkeypatch.syspath_prepend(str(_BENCH))
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        raw = workload.config(0)
        cfg = resolve_config(raw)
        if cfg.experiment == "weak-order":
            steps = sum(integrators.whole_steps(cfg.scheme.horizon, dt)
                        for dt in cfg.params["dt_list"])
        else:
            assert cfg.experiment == "ergodic", name
            steps = cfg.scheme.n_steps
        assert workload.path_steps(raw) == cfg.n_paths * steps, name
