"""The traced benchmark in `perfbench/` wraps library entry points by name.

`perfbench/spans.py` replaces each (owner, attribute) in `LAYER_POINTS`,
plus the engine's clock points, with a wrapper for the length of a run. A
rename or removal in the library would crash `--trace 1` only when the
benchmark runs, so this test resolves every name here instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import spans

    return spans


def test_every_layer_point_resolves():
    spans = _spans()
    missing = [
        f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
        for name, (owner, attr) in spans.LAYER_POINTS.items()
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_clock_points_resolve():
    from selfheal import engine

    for owner, attr in ((engine, "start"), (engine, "step"), (engine.RunState, "live_graph")):
        assert callable(getattr(owner, attr, None)), attr
