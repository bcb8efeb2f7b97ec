"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import (WORKLOADS, ergodic_config, ergodic_path_steps,  # noqa: E402
                       linear_invariant_l2sq, weak_order_config,
                       weak_order_path_steps)

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_path_step_formulas():
    # 4096 paths over levels of 4, 8, ..., 256 steps
    assert weak_order_path_steps(weak_order_config(0)) == 4096 * 508
    # 2048 paths, horizon 50 at dt 0.02
    assert ergodic_path_steps(ergodic_config(0)) == 2048 * 2500


def test_seed_reaches_only_the_sampling_seed():
    for workload in WORKLOADS.values():
        a, b = workload.config(3), workload.config(4)
        assert a["sampling"].pop("seed") == 3
        assert b["sampling"].pop("seed") == 4
        assert a == b


def test_ergodic_oracle_matches_package_closed_form():
    from tamedspde.gaussian_oracle import linear_invariant_variance
    from tamedspde.noise import white

    expected = float(linear_invariant_variance(1.0, white(16)).sum())
    assert linear_invariant_l2sq(1.0, 16) == pytest.approx(expected, rel=1e-12)


def _span(name, start, end, span_id, parent):
    return {"name": name, "start": start, "end": end, "id": span_id,
            "parent": parent}


def test_self_time_subtracts_union_of_children():
    tree = [
        _span("study", 0.0, 10.0, "r", None),
        _span("block", 1.0, 4.0, "a", "r"),
        _span("block", 3.0, 6.0, "b", "r"),     # overlaps a
        _span("block", 8.0, 12.0, "c", "r"),    # clipped to the parent at 10
        _span("step", 2.0, 3.0, "g", "a"),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({"r": 3.0, "a": 2.0, "b": 3.0, "c": 4.0,
                                 "g": 1.0})
    totals = spans.totals_by_name(tree)
    assert totals["block"]["calls"] == 3
    assert totals["block"]["self_s"] == pytest.approx(9.0)
    assert totals["block"]["total_s"] == pytest.approx(10.0)


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert _NAME.fullmatch(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert _UNIT.fullmatch(metric["unit"]), metric
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _tiny_repeat(tmp_path, cfg, workers):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(json.dumps(cfg))
    runner = run.Runner(ROOT, tmp_path, time.perf_counter())
    return runner.repeat(cfg["experiment"], cfg_path, "tiny", workers,
                         trace=True)


def test_traced_repeat_counts_match_formula(tmp_path):
    cfg = weak_order_config(1)
    cfg["model"].update(n_modes=8, n_nodes=32)
    cfg["discretization"]["dt_list"] = [0.25, 0.125, 0.0625]
    cfg["sampling"]["n_paths"] = 16
    r = _tiny_repeat(tmp_path, cfg, workers=1)
    assert r["exit_code"] == 0
    layers = r["layers"]
    assert layers["integrators.step.path_steps"] == weak_order_path_steps(cfg)
    assert layers["integrators.step.calls"] == 4 + 8 + 16
    assert layers["rng.normals"] == 8 * 16 * 16
    assert layers["spectral.transform.flops"] == 4 * 32 * 8 * 16 * 28
    assert layers["estimators.blocks"] == 1
    spans_file = tmp_path / "tiny" / "spans.jsonl"
    names = {json.loads(line)["name"] for line in spans_file.open()}
    assert {"estimators.study", "estimators.block", "rng.normal_matrix",
            "integrators.step", "nonlinearity.f", "estimators.aggregate",
            "estimators.functional", "cli.output"} <= names


def test_spans_from_pool_workers_are_collected(tmp_path):
    cfg = {"experiment": "contraction",
           "model": {"nonlinearity": {"name": "dissipative_cubic", "c": 1.0},
                     "covariance": "white", "n_modes": 4, "n_nodes": 16},
           "discretization": {"dt": 0.01, "n_steps": 3},
           "params": {"x0_a": {"kind": "unit_mode", "mode": 1},
                      "x0_b": {"kind": "zero"}},
           "sampling": {"n_paths": 2048, "seed": 0, "workers": 2}}
    r = _tiny_repeat(tmp_path, cfg, workers=2)
    assert r["exit_code"] == 0
    layers = r["layers"]
    # two blocks of 1024 paths, each run in a pool worker
    assert layers["estimators.blocks"] == 2
    assert layers["rng.normals"] == 4 * 2048 * 3
    assert layers["integrators.step.path_steps"] == 2 * 2048 * 3
    records = [json.loads(line)
               for line in (tmp_path / "tiny" / "spans.jsonl").open()]
    study = [s for s in records if s["name"] == "estimators.study"]
    blocks = [s for s in records if s["name"] == "estimators.block"]
    assert len(study) == 1
    assert all(b["parent"] == study[0]["id"] for b in blocks)
    assert all(b["pid"] != study[0]["pid"] for b in blocks)


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ergodic", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
