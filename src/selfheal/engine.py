"""The simulation loop: adversary event, recovery phase, measurement.

Each timestep applies one adversary event, lets the healer respond, then
measures the healed graph against the shadow graph G'. The shadow graph
contains every node ever created, with original plus insertion edges only,
never healing edges; deletions mark nodes instead of removing them, so
shadow distances keep flowing through deleted nodes. Live processors are
the shadow nodes minus the deleted set. Exact shadow distances are built
once, when a measurement first needs them, and then updated in O(n^2) per
insert (`ShadowOracle`).

Runs are deterministic: one master seed drives the adversary and the stretch
sampler, and all iteration orders are sorted. Running the same config twice
produces identical records, byte for byte once serialized.

A run ends early with status "annihilated" if the adversary deletes the
whole network, or "exhausted" when the strategy has no legal move left.

One engine instance is strictly sequential; parallel sweeps use independent
instances that share nothing.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import metrics
from .adversary import AdversaryState, Event, StrategySpec, new_state, next_event, validate_event
from .graph import Graph, UnknownNodeError
from .healers import Healer, make_healer
from .metrics import MetricsRecord, StretchResult, all_pairs_distances


class InvalidEventError(ValueError):
    pass


class InternalError(RuntimeError):
    """A library check failed on input that passed validation: while
    preprocessing the initial graph, or on a validated event."""


@dataclass
class RunConfig:
    initial: Graph
    healer: str = "haft"
    strategy: StrategySpec = field(default_factory=StrategySpec)
    t_max: int = 0
    seed: int = 0
    exact_apsp_cap: int = 256
    stretch_samples: int = 1000


class ShadowOracle:
    """Exact distances over the shadow graph (deleted nodes included).

    The matrix is built lazily: the first `matrix()` call runs the full
    `all_pairs_distances`, so a run that never measures stretch never pays
    for it. After that the shadow graph only grows, one node per insert, so
    `insert` updates the matrix in place of a rebuild (Ausiello et al.,
    "Incremental algorithms for minimal length paths", 1991): the new
    node's row is one more than the nearest neighbour's row, and every
    pair then relaxes through the new node. Both steps are O(n^2); values
    stay exact integers in float64. The new node takes the next row and
    column whatever its id, so the matrix is read through `index` only.
    Deletions only mark nodes and change nothing here.
    """

    def __init__(self, shadow: Graph):
        self._shadow = shadow
        self._dist: np.ndarray | None = None
        self._index: dict[int, int] = {}
        self._diameter: object = None

    def insert(self, v: int, neighbors: Iterable[int]) -> None:
        """Add shadow node v, joined to `neighbors` (already in the matrix)."""
        self._diameter = None
        if self._dist is None:
            return
        dist, n = self._dist, len(self._index)
        row = 1.0 + dist[[self._index[w] for w in neighbors]].min(axis=0)
        grown = np.empty((n + 1, n + 1))
        through_v = grown[:n, :n]
        np.add.outer(row, row, out=through_v)
        np.minimum(through_v, dist, out=through_v)
        grown[n, :n] = row
        grown[:n, n] = row
        grown[n, n] = 0.0
        self._dist = grown
        self._index[v] = n

    def matrix(self) -> tuple[np.ndarray, dict[int, int]]:
        """The distance matrix and its node -> row index: read-only, valid
        until the next insert (which grows the index in place)."""
        if self._dist is None:
            self._dist, self._index = all_pairs_distances(self._shadow)
        return self._dist, self._index

    def diameter(self) -> object:
        """`metrics.diameter_from` of the matrix, kept until the next insert."""
        if self._diameter is None:
            self._diameter = metrics.diameter_from(self.matrix()[0])
        return self._diameter

    def distance(self, u: int, v: int) -> float:
        dist, index = self.matrix()
        return float(dist[index[u], index[v]])


@dataclass
class RunState:
    config: RunConfig
    healer: Healer
    shadow: Graph
    deleted: set[int] = field(default_factory=set)
    records: list[MetricsRecord] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    t: int = 0
    status: str = "ok"
    warnings: list[str] = field(default_factory=list)
    adversary: AdversaryState | None = None
    initial_record: MetricsRecord | None = None
    setup_messages: int = 0
    oracle: ShadowOracle | None = None
    timers: dict[str, float] = field(default_factory=dict)

    def live_graph(self) -> Graph:
        """The healer's live graph: read-only, valid until the next event."""
        return self.healer.live_graph()

    @property
    def live_count(self) -> int:
        return self.shadow.node_count - len(self.deleted)


def start(config: RunConfig) -> RunState:
    """Preprocessing: build healer state and the shadow graph, snapshot G0."""
    healer = make_healer(config.healer)
    # The healer name is known and the graph well formed, so a ValueError
    # from here on is the library's own.
    try:
        setup = healer.preprocess(config.initial)
        state = RunState(
            config=config,
            healer=healer,
            shadow=config.initial.copy(),
            adversary=new_state(config.strategy, config.seed),
            setup_messages=setup.messages,
        )
        state.oracle = ShadowOracle(state.shadow)
        if not config.initial.is_connected():
            state.warnings.append("initial graph is not connected")
        state.initial_record = _measure(state, op="init", node=-1, report=setup)
    except ValueError as exc:
        raise InternalError(str(exc)) from exc
    return state


def step(state: RunState, event: Event) -> RunState:
    """Apply one validated event: shadow update, recovery phase, measurement."""
    live = state.live_graph()
    violations = validate_event(event, live, state.shadow)
    if violations:
        raise InvalidEventError(f"illegal event {event}: {', '.join(violations)}")
    # The event is legal, so a ValueError from here on is the library's own.
    try:
        t0 = time.perf_counter()
        if event.op == "insert":
            state.shadow.add_node(event.node)
            for w in event.neighbors:
                state.shadow.add_edge(event.node, w)
            if state.oracle is not None:
                state.oracle.insert(event.node, event.neighbors)
            report = state.healer.on_insert(event.node, set(event.neighbors))
        else:
            state.deleted.add(event.node)
            report = state.healer.on_delete(event.node)
        state.timers["heal"] = state.timers.get("heal", 0.0) + (time.perf_counter() - t0)
        state.t += 1
        state.events.append(event)
        state.records.append(_measure(state, op=event.op, node=event.node, report=report))
    except ValueError as exc:
        raise InternalError(str(exc)) from exc
    return state


def run(config: RunConfig, on_step: Callable[[RunState], None] | None = None) -> RunState:
    """The full loop: T events or until the strategy/network gives out.

    `on_step`, if given, is called with the state after every step.
    """
    state = start(config)
    for _ in range(config.t_max):
        event = _next(state)
        if event is None:
            state.status = "exhausted"
            break
        step(state, event)
        if on_step is not None:
            on_step(state)
        if state.live_count == 0:
            state.status = "annihilated"
            break
    return state


def _next(state: RunState) -> Event | None:
    return next_event(
        state.config.strategy, state.live_graph(), state.shadow, state.adversary
    )


def shadow_distance(state: RunState, u: int, v: int) -> float:
    """Hop count in the shadow graph, deleted nodes included."""
    for x in (u, v):
        if not state.shadow.has_node(x):
            raise UnknownNodeError(f"node {x} never existed")
    assert state.oracle is not None
    return state.oracle.distance(u, v)


def _measure(state: RunState, op: str, node: int, report) -> MetricsRecord:
    config = state.config
    live = state.live_graph()

    t0 = time.perf_counter()
    connected = live.is_connected()
    state.timers["connectivity"] = state.timers.get("connectivity", 0.0) + (
        time.perf_counter() - t0
    )

    t0 = time.perf_counter()
    ratio, _ = metrics.degree_ratio_max(live, state.shadow, state.deleted)
    assert state.oracle is not None
    if live.node_count > config.exact_apsp_cap and config.stretch_samples <= 0:
        result = StretchResult(None, "skipped", None)
        diameter_shadow = None
    else:
        shadow_dist, shadow_index = state.oracle.matrix()
        stretch_rng = random.Random(f"{config.seed}:stretch:{state.t}")
        result = metrics.stretch_max(
            live,
            shadow_dist,
            shadow_index,
            exact_cap=config.exact_apsp_cap,
            samples=config.stretch_samples,
            rng=stretch_rng,
        )
        diameter_shadow = state.oracle.diameter()
    state.timers["metrics"] = state.timers.get("metrics", 0.0) + (time.perf_counter() - t0)

    return MetricsRecord(
        t=state.t,
        op=op,
        node=node,
        connected=connected,
        max_degree_ratio=ratio,
        max_stretch=result.max_stretch,
        stretch_mode=result.mode,
        diameter_live=result.diameter_live,
        diameter_shadow=diameter_shadow,
        messages=report.messages,
        rounds=report.rounds,
        max_hops=report.max_hops,
        edges_added=len(report.edges_added),
        edges_dropped=len(report.edges_dropped),
        virtual_count=state.healer.virtual_node_count(),
        shadow_nodes=state.shadow.node_count,
        live_nodes=live.node_count,
        touched_count=len(report.touched),
    )
