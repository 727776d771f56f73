"""The simulation loop: adversary event, recovery phase, measurement.

Each timestep applies one adversary event, lets the healer respond, then
measures the healed graph against the shadow graph G'. The shadow graph
contains every node ever created, with original plus insertion edges only,
never healing edges; deletions mark nodes instead of removing them, so
shadow distances keep flowing through deleted nodes. Live processors are
the shadow nodes minus the deleted set. Exact shadow distances are built
once, when a measurement first needs them, and then updated in O(n^2) per
insert (`ShadowOracle`). Connectivity and the maximum degree ratio are
updated per event from the nodes the event touched (`LiveMeasure`); only
the t = 0 measurement, and a step after a disconnected one, scan the
whole live graph for connectivity.

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
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from . import metrics
from .adversary import AdversaryState, Event, StrategySpec, new_state, next_event, validate_event
from .graph import Graph, UnknownNodeError
from .healers import Healer, make_healer
from .metrics import MetricsRecord, StretchResult, ZeroShadowDegreeError, all_pairs_distances


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


class LiveMeasure:
    """Connectivity and the maximum degree ratio of the live graph, kept
    from one event to the next by looking only at the event's touched set.

    `HealerReport.touched` holds v's former live neighbours and every
    endpoint of a real edge the repair added or dropped, or an inserted
    node and its neighbours: every node whose live or shadow degree the
    event changed. `Graph.is_connected` and `metrics.degree_ratio_max` stay
    the oracles; at `init` the first runs in full.

    Connectivity: an insert attaches to at least one live node, so it keeps
    a connected graph connected. After a deletion from a connected graph,
    every live node still reaches a live touched node (its old path to v
    breaks first at a removed edge, next to one), so the graph is connected
    iff those nodes share one component. A search from one of them stops
    once it has seen them all. After a disconnected step the full BFS
    decides.

    Degree ratio: each live node's (live degree, shadow degree) pair and a
    count of nodes per distinct pair. The maximum is taken over the
    distinct pairs by integer cross-multiplication, from 1 as in
    `degree_ratio_max`; a Fraction is built only when the maximum changes.
    """

    def __init__(self, shadow: Graph, deleted: set[int]):
        self._shadow = shadow
        self._deleted = deleted
        self._connected = True
        self._pair: dict[int, tuple[int, int]] = {}
        self._count: dict[tuple[int, int], int] = {}
        self._best, self._ratio = (1, 1), Fraction(1)

    def connected(self, live: Graph, op: str, touched: Iterable[int]) -> bool:
        """Whether the live graph is connected after the event `op`."""
        if op == "init" or not self._connected:
            self._connected = live.is_connected()
        elif op == "delete":
            adj = live._adj
            self._connected = _one_component(adj, {w for w in touched if w in adj})
        return self._connected

    def refresh(self, live: Graph, op: str, node: int, touched: Iterable[int]) -> Fraction:
        """Re-read the degree pairs of `touched` (every live node at `init`),
        drop a deleted `node`, and return the maximum degree ratio."""
        live_adj, shadow_adj = live._adj, self._shadow._adj
        if op == "init":
            self._recount(live_adj, shadow_adj)
            touched = ()
        elif op == "delete":
            touched = [*touched, node]
        pairs, count, deleted = self._pair, self._count, self._deleted
        for v in touched:
            nbrs = live_adj.get(v)
            if nbrs is None:
                old = pairs.pop(v, None)
            else:
                if v in deleted:
                    raise ZeroShadowDegreeError(f"node {v} is both live and deleted")
                shadow_nbrs = shadow_adj.get(v)
                if shadow_nbrs is None:
                    raise UnknownNodeError(f"node {v} not in graph")
                if nbrs and not shadow_nbrs:
                    raise ZeroShadowDegreeError(f"live node {v} has shadow degree 0")
                pair = (len(nbrs), len(shadow_nbrs))
                old = pairs.get(v)
                if old == pair:
                    continue
                pairs[v] = pair
                count[pair] = count.get(pair, 0) + 1
            if old is not None:
                left = count[old] - 1
                if left:
                    count[old] = left
                else:
                    del count[old]
        # A (0, 0) pair, an isolated node without shadow edges, never wins.
        best = (1, 1)
        for n, d in count:
            if n * best[1] > best[0] * d:
                best = (n, d)
        if best != self._best:
            self._best, self._ratio = best, Fraction(*best)
        return self._ratio

    def _recount(self, live_adj: dict[int, set[int]], shadow_adj: dict[int, set[int]]) -> None:
        """Every live node's pair at once, with the checks `refresh` makes."""
        both = [v for v in self._deleted if v in live_adj]
        if both:
            raise ZeroShadowDegreeError(f"node {min(both)} is both live and deleted")
        unknown = live_adj.keys() - shadow_adj.keys()
        if unknown:
            raise UnknownNodeError(f"node {min(unknown)} not in graph")
        pairs = {v: (len(nbrs), len(shadow_adj[v])) for v, nbrs in live_adj.items()}
        # A plain dict: indexing a dict subclass is slower on the refresh path.
        self._pair, self._count = pairs, dict(Counter(pairs.values()))
        if any(n and not d for n, d in self._count):
            v = min(v for v, (n, d) in pairs.items() if n and not d)
            raise ZeroShadowDegreeError(f"live node {v} has shadow degree 0")


def _one_component(adj: dict[int, set[int]], nodes: set[int]) -> bool:
    """Whether `nodes` (emptied on the way) lie in one component of `adj`.

    A graph search from one of them that expands the others first, so it
    stops after reading little more than their neighbourhoods when they
    are joined among themselves, and stops as soon as it has seen them all.
    """
    if len(nodes) <= 1:
        return True
    start = nodes.pop()
    seen = {start}
    near, far = [start], []
    while near or far:
        for w in adj[near.pop() if near else far.pop()]:
            if w not in seen:
                seen.add(w)
                if w in nodes:
                    nodes.remove(w)
                    if not nodes:
                        return True
                    near.append(w)
                else:
                    far.append(w)
    return False


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
    measure: LiveMeasure | None = None
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
        state.measure = LiveMeasure(state.shadow, state.deleted)
        state.initial_record = _measure(state, op="init", node=-1, report=setup)
        # The live graph at t = 0 is the initial graph.
        if not state.initial_record.connected:
            state.warnings.append("initial graph is not connected")
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
    assert state.oracle is not None and state.measure is not None

    t0 = time.perf_counter()
    connected = state.measure.connected(live, op, report.touched)
    state.timers["connectivity"] = state.timers.get("connectivity", 0.0) + (
        time.perf_counter() - t0
    )

    t0 = time.perf_counter()
    ratio = state.measure.refresh(live, op, node, report.touched)
    # Stretch off (no cap, no samples) skips every step, the empty and
    # one-node graphs included.
    if config.stretch_samples <= 0 and (
        config.exact_apsp_cap <= 0 or live.node_count > config.exact_apsp_cap
    ):
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
