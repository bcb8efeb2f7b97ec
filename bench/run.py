"""tamedspde benchmark: Monte Carlo workloads through the command line.

    python3 bench/run.py --workload {weak_order,ergodic,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` there, never from an installed copy, and the run fails without
printing a result when ``src/tamedspde`` is missing.

Each repeat is a fresh interpreter (``bench/child.py``) that runs the
workload's experiment through ``tamedspde.cli.main``, so set-up time and
peak memory are those of one CLI run.  Repeats run one at a time (a closed
loop with one client) until ``--seconds`` have passed, at least three of
them, and every metric is the median over repeats.  Every repeat's output
is checked against the workload's oracle.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repeats and reports the per-layer metrics of the
traced ones; ``trace.overhead_frac`` compares their study times.  The
spans of the last traced repeat are left in
``.bench_out/<workload>-seed<N>-spans.jsonl``.

The benchmark sets no BLAS or OpenMP thread variable: it records the ones
it finds, because pinning them would hide how the program behaves as
users run it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_REPEATS = 3
# the whole invocation must end within 180 s, whatever --seconds says
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "path_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rng.normal_matrix.calls": "count",
    "rng.normals": "count",
    "rng.normal_matrix.self_s": "s",
    "rng.normals_per_s": "1/s",
    "integrators.step.calls": "count",
    "integrators.step.path_steps": "count",
    "integrators.step.self_s": "s",
    "integrators.noise_from_gaussians.self_s": "s",
    "nonlinearity.f.self_s": "s",
    "nonlinearity.f.node_values": "count",
    "spectral.transform.flops": "flop",
    "estimators.aggregate.self_s": "s",
    "estimators.aggregate.bytes_in": "B",
    "estimators.fine_buffer_mb": "MB",
    "estimators.functional.self_s": "s",
    "estimators.blocks": "count",
    "estimators.block_s.p50": "s",
    "estimators.block_s.max": "s",
    "estimators.study_s": "s",
    "estimators.pool.overhead_s": "s",
    "estimators.pool.efficiency": "ratio",
    "process.cpu_per_wall": "ratio",
    "config.parse_config_s": "s",
    "import_s": "s",
    "cli.output_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_frac": "ratio",
}
# derived from array shapes, not measured
COMPUTED = {"spectral.transform.flops", "estimators.aggregate.bytes_in",
            "estimators.fine_buffer_mb"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def machine_metadata() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {"name": deps["blas"].get("name"),
                "version": deps["blas"].get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Runner:
    """Runs child interpreters for one invocation, under one deadline."""

    def __init__(self, root: Path, work: Path, started: float):
        self.root = root
        self.src = root / "src"
        self.work = work
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([self.env["PYTHONPATH"]]
                               if self.env.get("PYTHONPATH") else []))

    def _wait(self, cmd: list) -> subprocess.CompletedProcess:
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("deadline reached before the next repeat")
        # new process group, so a stuck child and its pool workers die together
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.root,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{cmd[1:]} did not finish within the deadline")
        return subprocess.CompletedProcess(cmd, proc.returncode, "", err)

    def warm_up(self) -> None:
        """Import the package once, so byte-code compilation is not timed."""
        done = self._wait([sys.executable, "-c", "import tamedspde.cli"])
        if done.returncode != 0:
            raise BenchError(f"cannot import tamedspde from {self.src}:\n"
                             f"{done.stderr}")

    def repeat(self, experiment: str, config: Path, tag: str, workers: int,
               trace: bool) -> dict:
        """One CLI run in a fresh interpreter; returns the child's marks."""
        rep = self.work / tag
        rep.mkdir()
        spec = {"argv": [experiment, "--config", str(config),
                         "--out", str(rep / "out")],
                "src": str(self.src), "result": str(rep / "result.json"),
                "out": str(rep / "out"), "workers": workers}
        if trace:
            (rep / "trace").mkdir()
            spec.update(run_id=tag, trace_dir=str(rep / "trace"),
                        spans_out=str(rep / "spans.jsonl"))
        spec_path = rep / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        t_spawn = time.perf_counter()
        done = self._wait([sys.executable, str(HERE / "child.py"),
                           str(spec_path)])
        if done.returncode != 0 or not (rep / "result.json").is_file():
            raise BenchError(f"child for {tag} exited {done.returncode}:\n"
                             f"{done.stderr}")
        result = json.loads((rep / "result.json").read_text())
        result["t_spawn"] = t_spawn
        result["dir"] = rep
        return result


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(runner: Runner, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    workload = WORKLOADS[name]
    cfg = workload.config(seed)
    cfg_path = runner.work / f"{name}.yaml"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")  # JSON is YAML
    path_steps = workload.path_steps(cfg)
    workers = cfg["sampling"]["workers"]

    runner.warm_up()
    begin = time.perf_counter()
    repeats, checks = [], []
    attempts = 0
    while attempts < MIN_REPEATS or time.perf_counter() - begin < seconds:
        traced = trace and attempts % 2 == 1
        tag = f"{name}-{attempts}"
        attempts += 1
        r = runner.repeat(cfg["experiment"], cfg_path, tag, workers, traced)
        r["traced"] = traced
        if r["exit_code"] != 0:
            checks.append((tag, "exit_code_0", False, str(r["exit_code"])))
            continue
        for check, ok, detail in workload.check(cfg, r["dir"] / "out"):
            checks.append((tag, check, ok, detail))
        if traced:
            counted = r["layers"]["integrators.step.path_steps"]
            checks.append((tag, "path_steps_match_formula",
                           counted == path_steps,
                           f"{counted} counted, {path_steps} expected"))
        repeats.append(r)

    plain = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    if not plain or (trace and not traced):
        raise BenchError(f"no successful repeat of {name}: {checks}")
    samples = {
        "wall_s": [r["run_end"] - r["validated"] for r in plain],
        "path_steps_per_s": [path_steps / r["study_s"] for r in plain],
        "setup_s": [r["validated"] - r["t_spawn"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    out = {"name": name, "seed": seed, "repeats": len(repeats),
           "path_steps": path_steps, "checks": checks, "samples": samples}
    if trace:
        for r in traced:
            r["layers"]["import_s"] = r["t_imported"] - r["t_spawn"]
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_frac"] = (
            statistics.median(r["study_s"] for r in traced)
            / statistics.median(r["study_s"] for r in plain) - 1.0)
        out["layers"] = layers
        out["spans"] = traced[-1]["dir"] / "spans.jsonl"
    return out


def report(result: dict, trace: bool) -> dict:
    """Print one workload's metrics by name with units; return them."""
    checks = result["checks"]
    failed = sum(1 for c in checks if not c[2])
    print(f"workload {result['name']} seed {result['seed']}: "
          f"{result['repeats']} repeats, {result['path_steps']} path-steps "
          f"per repeat, {len(checks)} checks, {failed} failed")
    for tag, check, ok, detail in checks:
        if not ok:
            print(f"  FAIL {tag} {check}: {detail}")
    metrics = {}
    if not trace:
        for key, unit in END_TO_END.items():
            values = result["samples"][key]
            med = statistics.median(values)
            q1, q3 = _quartiles(values)
            print(f"  {key:<18} {med:14.6g} {unit:<5} median of "
                  f"{len(values)} (q1 {q1:.6g}, q3 {q3:.6g})")
            metrics[key] = {"value": med, "unit": unit}
        print(f"  {'check_fail_frac':<18} {failed / len(checks):14.6g} "
              f"{'ratio':<5} {failed}/{len(checks)}")
    else:
        layers = result["layers"]
        study = layers["estimators.study_s"]
        for key, unit in PER_LAYER.items():
            value = layers[key]
            note = "  computed" if key in COMPUTED else ""
            if key.endswith("self_s") and study > 0:
                note = f"  {100.0 * value / study:5.1f} % of study"
            print(f"  {key:<40} {value:14.6g} {unit}{note}")
            metrics[key] = {"value": value, "unit": unit}
        print(f"  spans of the last traced repeat: {result['spans_kept']}")
    return {"attempted": len(checks), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "tamedspde" / "cli.py").is_file():
        print(f"no tamedspde source under {root / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    print("machine " + json.dumps(machine_metadata(), sort_keys=True))

    keep = root / ".bench_out"
    keep.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=keep))
    try:
        runner = Runner(root, work, started)
        summaries = []
        for name in names:
            result = run_workload(runner, name, args.seed, args.seconds, trace)
            if trace:
                kept = keep / f"{name}-seed{args.seed}-spans.jsonl"
                shutil.copyfile(result["spans"], kept)
                result["spans_kept"] = kept.relative_to(root)
            summaries.append((name, report(result, trace)))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(s["attempted"] for _, s in summaries)
    failed = sum(s["failed"] for _, s in summaries)
    if len(summaries) == 1:
        metrics = summaries[0][1]["metrics"]
    else:
        metrics = {f"{name}.{key}": m for name, s in summaries
                   for key, m in s["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
