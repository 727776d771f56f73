"""Instrumentation from outside the library: a clock and an optional tracer.

Both work by replacing public entry points of the `selfheal` modules with
thin wrappers for the duration of a `with instrument(...)` block and
restoring the originals afterwards. No library file is changed.

* The clock wraps `engine.start` and `engine.step` only. It records the
  host time of each event, for runs that go through the public
  `engine.run`. After set-up and after each event it also times a fixed
  loop of the benchmark's own, the speed probe; the probe's time is not
  counted in any event.
* The tracer additionally wraps one entry point per layer and keeps a span
  (name, start, end, parent span, rep, event) for every call in memory.
  Event k covers everything from the completion of event k-1 (or of
  set-up, for k = 1) to its own completion, so each event's spans share
  the (rep, event) pair; spans made inside `engine.start` carry event 0.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from selfheal import engine, graph, healers, metrics, virtual_graph

# Per-layer span names, and the (owner, attribute) each one wraps. The
# engine imports its adversary and APSP helpers by name, so those are
# wrapped in the engine's namespace; likewise the haft helpers in healers.
LAYER_POINTS = {
    "adversary.next_event": (engine, "next_event"),
    "adversary.validate_event": (engine, "validate_event"),
    "graph.articulation_points": (graph.Graph, "articulation_points"),
    "graph.is_connected": (graph.Graph, "is_connected"),
    "engine.shadow_apsp": (engine, "all_pairs_distances"),
    "healers.preprocess": (healers.HaftHealer, "preprocess"),
    "healers.on_delete": (healers.HaftHealer, "on_delete"),
    "healers.on_insert": (healers.HaftHealer, "on_insert"),
    "haft.split_out": (healers, "split_out"),
    "haft.assemble": (healers, "_assemble"),
    "haft.assign_simulators": (healers, "assign_simulators"),
    "haft.to_virtual_edges": (healers, "to_virtual_edges"),
    "virtual_graph.de_simulate": (virtual_graph.VirtualGraph, "de_simulate"),
    "virtual_graph.edge_set": (virtual_graph.VirtualGraph, "edge_set"),
    "virtual_graph.remove_processor": (virtual_graph.VirtualGraph, "remove_processor"),
    "metrics.degree_ratio_max": (metrics, "degree_ratio_max"),
    "metrics.stretch_max": (metrics, "stretch_max"),
    "metrics.all_pairs_distances": (metrics, "all_pairs_distances"),
}


# The speed probe's size: a fixed dict-and-integer loop of PROBE_LOOP turns,
# ~0.23 ms on an idle core, 2-5% of an event. It runs once per sample, not
# best-of: a best-of would skip the moments another tenant holds the core,
# which the events pay.
PROBE_LOOP = 2000


def probe() -> float:
    """Host time of the speed probe: it does the same work on every call, so
    it shows how fast the core runs Python code at the moment."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(PROBE_LOOP):
        table[i & 255] = acc
        acc = (acc + i * 7) % 1009
    return time.perf_counter() - t0


class Recorder:
    """Event times, speed probes and spans of one or more `engine.run` calls."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.rep = 0
        self.event = 0
        self.latencies: list[float] = []
        # Probe times: one after set-up, then one after each event.
        self.probes: list[float] = []
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._resumed = 0.0

    def new_rep(self) -> None:
        self.rep += 1
        self.event = 0
        self.latencies = []
        self.probes = []

    def take_probe(self) -> None:
        """Time the speed probe, and restart the event clock after it."""
        self.probes.append(probe())
        self._resumed = time.perf_counter()

    def event_done(self) -> None:
        self.latencies.append(time.perf_counter() - self._resumed)
        self.event += 1
        self.take_probe()

    def add(self, name: str, amount: int) -> None:
        """Count work done inside the loop (set-up, event 0, is left out)."""
        if self.event:
            self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            event = self.event
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.rep, event)

        return traced


def _clock_points(rec: Recorder, start=None, step=None) -> dict[tuple[object, str], object]:
    """Wrap `start` and `step` (by default the engine's own) with the clock."""
    start, step = start or engine.start, step or engine.step

    def timed_start(config):
        state = start(config)
        rec.event = 1
        rec.take_probe()
        return state

    def timed_step(state, event):
        result = step(state, event)
        rec.event_done()
        return result

    return {(engine, "start"): timed_start, (engine, "step"): timed_step}


def _trace_points(rec: Recorder) -> dict[tuple[object, str], object]:
    points = {}
    for name, (owner, attr) in LAYER_POINTS.items():
        points[(owner, attr)] = rec.span(name, getattr(owner, attr))

    # Counters that need the call's arguments or result.
    split_out = points[(healers, "split_out")]
    assemble = points[(healers, "_assemble")]
    live_graph = engine.RunState.live_graph

    def counted_split_out(h, dead):
        pieces, dissolved = split_out(h, dead)
        rec.add("haft.dissolved_vids", len(dissolved))
        return pieces, dissolved

    def counted_assemble(items, vids):
        before = vids.next_vid
        result = assemble(items, vids)
        rec.add("haft.vids_minted", vids.next_vid - before)
        return result

    def counted_live_graph(state):
        rec.add("engine.live_graph_calls", 1)
        return live_graph(state)

    points[(healers, "split_out")] = counted_split_out
    points[(healers, "_assemble")] = counted_assemble
    points[(engine.RunState, "live_graph")] = counted_live_graph

    # engine.start and engine.step are spans too, inside the clock, so that
    # the speed probe falls outside every span.
    points.update(
        _clock_points(
            rec,
            rec.span("engine.start", engine.start),
            rec.span("engine.step", engine.step),
        )
    )
    return points


@contextmanager
def instrument(rec: Recorder):
    """Install the clock (and, if `rec.trace`, the tracer) for the block."""
    points = _trace_points(rec) if rec.trace else _clock_points(rec)
    saved = {key: getattr(*key) for key in points}
    try:
        for (owner, attr), wrapper in points.items():
            setattr(owner, attr, wrapper)
        yield rec
    finally:
        for (owner, attr), original in saved.items():
            setattr(owner, attr, original)
