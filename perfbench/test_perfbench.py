"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
from spans import Recorder  # noqa: E402

SMALL = dataclasses.replace(bench.WORKLOADS["clustered-haft"], n=64, t_max=32)
SMALL_CHURN = dataclasses.replace(bench.WORKLOADS["churn-stretch"], n=32, t_max=32)


def test_null_healer_fails_the_check():
    (reps,) = bench.run_passes(dataclasses.replace(SMALL, healer="null"), 1, 0, Recorder(trace=False))
    assert any("hard violations" in p for p in reps[0].problems)


def test_haft_passes_and_repeats_byte_identical():
    (first,) = bench.run_passes(SMALL, 1, 0, Recorder(trace=False))
    (second,) = bench.run_passes(SMALL, 1, 0, Recorder(trace=False))
    assert all(r.problems == [] for r in first)
    assert len(first) == SMALL.corpus
    assert all(len(r.latencies_s) == SMALL.t_max for r in first)
    assert [r.sha256 for r in first] == [r.sha256 for r in second]


def test_traced_counts_repeat_and_split_the_loop():
    layers = []
    for _ in range(2):
        rec = Recorder(trace=True)
        (reps,) = bench.run_passes(SMALL_CHURN, 3, 0, rec)
        assert reps[0].problems == []
        layers.append(bench.per_layer(SMALL_CHURN, rec, reps))
    counts = [{k: v for k, v in d.items() if not k.endswith("_s") and not k.startswith("trace.")} for d in layers]
    assert counts[0] == counts[1]
    inserts = sum(r.op == "insert" for rs in bench.corpus(reps) for r in rs)
    assert layers[0]["engine.shadow_apsp_calls"] == inserts
    assert layers[0]["engine.live_graph_calls"] == 3 * SMALL_CHURN.t_max * SMALL_CHURN.corpus
    assert 0 < layers[0]["healers.on_delete_self_s"] < layers[0]["healers.on_delete_s"]
    assert 0 < layers[0]["trace.dominant_share"] < 1


def test_scaled_times_follow_the_probe():
    ref = bench.PROBE_REFERENCE_S
    # At the reference speed an event keeps its host time; on a core running
    # half as fast (probe twice as long) it counts half; between the two, the
    # mean of the bracketing probes applies.
    assert bench.scaled([0.01, 0.02], [ref, ref, 2 * ref]) == pytest.approx([0.01, 0.02 * 2 / 3])
    assert bench.scaled([0.04], [2 * ref, 2 * ref]) == pytest.approx([0.02])


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cut-rebuild", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        assert not line.startswith("{")


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    rec = Recorder(trace=True)
    (reps,) = bench.run_passes(SMALL, 1, 0, rec)
    e2e = set(bench.end_to_end(reps)) | {"setup_s"}
    assert e2e == {m["name"] for m in spec["end_to_end"]}
    layers = set(bench.per_layer(SMALL, rec, reps)) | {"families.make_family_s", "trace.overhead"}
    assert layers == {m["name"] for m in spec["per_layer"]}
