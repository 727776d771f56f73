"""The benchmark in `perfbench/` drives the library through its public API.

`perfbench/spans.py` replaces each (owner, attribute) in `LAYER_POINTS`,
plus the engine's clock points, with a wrapper for the length of a run, and
`perfbench/bench.py` builds each workload's `RunConfig` and checks the
finished run. A rename or removal in the library would break the benchmark
only when it runs, so these tests resolve every name and run every workload,
shrunk, here instead.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import bench  # noqa: E402
import spans  # noqa: E402

from selfheal import engine  # noqa: E402


def test_every_layer_point_resolves():
    missing = [
        f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
        for name, (owner, attr) in spans.LAYER_POINTS.items()
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_clock_points_resolve():
    for owner, attr in ((engine, "start"), (engine, "step"), (engine.RunState, "live_graph")):
        assert callable(getattr(owner, attr, None)), attr


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_shrunk_workload_passes_the_check(name):
    workload = dataclasses.replace(bench.WORKLOADS[name], n=24, t_max=8)
    seed = workload.seeds(1)[0]
    state = engine.run(workload.config(seed, workload.graph(seed)))
    assert bench.check(workload, state) == []
