"""Run one experiment through ``tamedspde.cli.main`` in a fresh interpreter.

    python3 bench/child.py SPEC.json

SPEC holds the CLI argv, the checkout's ``src`` directory, the result
path and, for a traced run, the run id and trace directory.  The child
wraps a few module attributes from outside the package (no file under
``src/`` changes) and writes a JSON result with ``perf_counter`` marks,
which the parent turns into set-up, wall and study times.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans


def _rusage_cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers reaped pool workers
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


_STUDIES = ("weak_order_study", "ergodic_average", "contraction_rate")
_BLOCKS = ("_weak_block", "_ergodic_block", "_contraction_block")


def _wrap(module, attr: str, wrapper) -> None:
    """Replace module.attr by wrapper(original); absent names are skipped,
    so the benchmark keeps running when a later version drops one."""
    original = getattr(module, attr, None)
    if original is not None:
        setattr(module, attr, wrapper(original))


def install_marks(cli, marks: dict) -> None:
    """Time config validation, the study call and the whole run."""
    parse_config, run = cli.parse_config, cli.run

    def timed_parse(*args, **kwargs):
        t0 = time.perf_counter()
        cfg = parse_config(*args, **kwargs)
        marks["validated"] = time.perf_counter()
        marks["parse_config_s"] = marks["validated"] - t0
        return cfg

    def timed_run(*args, **kwargs):
        try:
            return run(*args, **kwargs)
        finally:
            marks["run_end"] = time.perf_counter()

    def timed_study(study, *args, **kwargs):
        cpu0, t0 = _rusage_cpu(), time.perf_counter()
        try:
            return study(*args, **kwargs)
        finally:
            marks["study_s"] = time.perf_counter() - t0
            marks["cpu_study_s"] = _rusage_cpu() - cpu0

    cli.parse_config, cli.run = timed_parse, timed_run
    for name in _STUDIES:
        _wrap(cli, name, lambda study: functools.partial(timed_study, study))


def _step_counts(engine, args, _result) -> dict:
    x = args[0]
    paths = x.shape[1] if x.ndim == 2 else 1
    counts = {"integrators.step.path_steps": paths}
    if not engine.zero_drift:
        # synthesis and analysis matmuls, 2 M J B flops each
        n_nodes, n_modes = engine.basis.shape
        counts["spectral.transform.flops"] = 4 * n_nodes * n_modes * paths
    return counts


def _block_wrapper(tracer: spans.Tracer):
    def wrap(block):
        timed = spans.Timed(tracer, "estimators.block", block,
                            worker_boundary=True)

        def wrapper(*args, **kwargs):
            return timed(*args, **kwargs)

        # a real function under the original qualified name, so the pool
        # can still pickle the block by reference
        return functools.update_wrapper(wrapper, block)
    return wrap


def install_tracing(tracer: spans.Tracer) -> None:
    """Wrap the public entry points of each layer with span recorders.

    Runs before install_marks, so each study span sits inside the study
    timer.
    """
    from dataclasses import replace

    from tamedspde import cli, estimators, integrators, rng

    def timed(name, count=None):
        return lambda fn: spans.Timed(tracer, name, fn, count=count)

    for attr in ("_write_csv", "_write_json", "_write_gp"):
        _wrap(cli, attr, timed("cli.output"))
    for attr in _STUDIES:
        _wrap(cli, attr, timed("estimators.study"))
    for attr in _BLOCKS:
        _wrap(estimators, attr, _block_wrapper(tracer))
    _wrap(rng, "normal_matrix", timed(
        "rng.normal_matrix",
        count=lambda args, res: {"rng.normals": res.size}))
    _wrap(estimators, "aggregate_fine_increments", timed(
        "estimators.aggregate",
        count=lambda args, res: {"estimators.aggregate.bytes_in":
                                 args[0].nbytes}))
    for key, functional in list(estimators.FUNCTIONALS.items()):
        estimators.FUNCTIONALS[key] = replace(
            functional, evaluate=spans.Timed(tracer, "estimators.functional",
                                             functional.evaluate))

    engine_init = integrators.Engine.__init__

    def init(engine, cfg):
        engine_init(engine, cfg)
        engine.f = spans.Timed(
            tracer, "nonlinearity.f", engine.f,
            count=lambda args, res: {"nonlinearity.f.node_values":
                                     args[0].size})
        engine.step = spans.Timed(tracer, "integrators.step", engine.step,
                                  count=functools.partial(_step_counts, engine))
        engine.noise_from_gaussians = spans.Timed(
            tracer, "integrators.noise_from_gaussians",
            engine.noise_from_gaussians)

    integrators.Engine.__init__ = init


def layer_metrics(records: list, counters: dict, marks: dict,
                  workers: int) -> dict:
    """Per-layer numbers of one traced run, from spans and counters."""
    tot = spans.totals_by_name(records)

    def self_s(name):
        return tot.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def per(num, den):
        return num / den if den else 0.0

    blocks = sorted(s["end"] - s["start"] for s in records
                    if s["name"] == "estimators.block")
    study_s = marks["study_s"]
    block_sum = sum(blocks)
    normals = counters.get("rng.normals", 0)
    bytes_in = counters.get("estimators.aggregate.bytes_in", 0)
    return {
        "rng.normal_matrix.calls": calls("rng.normal_matrix"),
        "rng.normals": normals,
        "rng.normal_matrix.self_s": self_s("rng.normal_matrix"),
        "rng.normals_per_s": per(normals, self_s("rng.normal_matrix")),
        "integrators.step.calls": calls("integrators.step"),
        "integrators.step.path_steps":
            counters.get("integrators.step.path_steps", 0),
        "integrators.step.self_s": self_s("integrators.step"),
        "integrators.noise_from_gaussians.self_s":
            self_s("integrators.noise_from_gaussians"),
        "nonlinearity.f.self_s": self_s("nonlinearity.f"),
        "nonlinearity.f.node_values":
            counters.get("nonlinearity.f.node_values", 0),
        "spectral.transform.flops":
            counters.get("spectral.transform.flops", 0),
        "estimators.aggregate.self_s": self_s("estimators.aggregate"),
        "estimators.aggregate.bytes_in": bytes_in,
        # every call receives a whole block's fine buffer
        "estimators.fine_buffer_mb":
            per(bytes_in, calls("estimators.aggregate")) / 2 ** 20,
        "estimators.functional.self_s": self_s("estimators.functional"),
        "estimators.blocks": len(blocks),
        "estimators.block_s.p50": statistics.median(blocks) if blocks else 0.0,
        "estimators.block_s.max": blocks[-1] if blocks else 0.0,
        "estimators.study_s": study_s,
        "estimators.pool.overhead_s": study_s - block_sum / workers,
        "estimators.pool.efficiency": per(block_sum, workers * study_s),
        "process.cpu_per_wall": per(marks["cpu_study_s"], study_s),
        "config.parse_config_s": marks["parse_config_s"],
        "cli.output_s": sum(s["end"] - s["start"] for s in records
                            if s["name"] == "cli.output"),
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import tamedspde.cli as cli
    t_imported = time.perf_counter()
    src = Path(spec["src"]).resolve()
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"tamedspde imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 4

    tracer = None
    if spec.get("trace_dir"):
        tracer = spans.Tracer(spec["run_id"], spec["trace_dir"])
        install_tracing(tracer)
    marks = {}
    install_marks(cli, marks)

    code = cli.main(spec["argv"])
    result = {"exit_code": code, "t_imported": t_imported,
              "peak_rss_mb": _peak_rss_mb(), **marks}
    if code == 0 and tracer is not None:
        tracer.merge_worker_files()
        records = tracer.records()
        out_dir = Path(spec["out"])
        layers = layer_metrics(records, tracer.counters, marks,
                               spec["workers"])
        layers["cli.output_bytes"] = sum(
            p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        result["layers"] = layers
        with open(spec["spans_out"], "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
